//! Observability configuration.

/// Which observability subsystems a run enables.
///
/// The default is everything off: the simulator must behave — and allocate
/// — exactly as if `hsc-obs` did not exist. Each pillar is opt-in so a
/// report run can, say, sample time series without paying for a full
/// Perfetto trace.
///
/// # Examples
///
/// ```
/// use hsc_obs::ObsConfig;
///
/// assert!(!ObsConfig::off().enabled());
/// let full = ObsConfig::full(10_000);
/// assert!(full.enabled() && full.track_transactions && full.perfetto);
/// assert_eq!(full.sample_epoch_ticks, Some(10_000));
/// assert!(full.protocol_analytics);
/// assert!(!ObsConfig::report(10_000).protocol_analytics);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Track per-transaction spans and aggregate per-class latency
    /// histograms.
    pub track_transactions: bool,
    /// Sample counter deltas and occupancy gauges every this many ticks
    /// (`None` disables the sampler).
    pub sample_epoch_ticks: Option<u64>,
    /// Collect a Chrome-trace-format event stream for `ui.perfetto.dev`.
    pub perfetto: bool,
    /// Count events handled and simulated time advanced per agent.
    pub profile_agents: bool,
    /// Enable the engine-side protocol analytics: install the
    /// directory's sharing-pattern tracker, and carry the per-protocol
    /// state-transition matrices out of the run. The controllers count
    /// transitions either way (their `stats()` sum cells); this decides
    /// only whether a report carries the optional `transitions`/`sharing`
    /// sections.
    pub protocol_analytics: bool,
}

impl ObsConfig {
    /// Everything disabled — the production default.
    #[must_use]
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Every pillar enabled, sampling every `epoch_ticks` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ticks` is 0.
    #[must_use]
    pub fn full(epoch_ticks: u64) -> Self {
        assert!(epoch_ticks > 0, "sampling epoch must be at least one tick");
        ObsConfig {
            track_transactions: true,
            sample_epoch_ticks: Some(epoch_ticks),
            perfetto: true,
            profile_agents: true,
            protocol_analytics: true,
        }
    }

    /// Latency tracking, sampling, and agent profiling — everything the
    /// run report needs — without the (much larger) Perfetto event stream.
    ///
    /// Protocol analytics stay off: `report()` is the baseline config and
    /// its output (including the golden fixtures) must not change shape
    /// when new analytics pillars are added.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ticks` is 0.
    #[must_use]
    pub fn report(epoch_ticks: u64) -> Self {
        ObsConfig { perfetto: false, protocol_analytics: false, ..ObsConfig::full(epoch_ticks) }
    }

    /// Whether any observer-hook subsystem is on. Protocol analytics are
    /// engine-side (recorded inside the controllers, not the observer
    /// hooks) and deliberately not part of this predicate.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.track_transactions
            || self.sample_epoch_ticks.is_some()
            || self.perfetto
            || self.profile_agents
    }
}

//! Glue between benchmark definitions and the simulated system.

use std::fmt;

use hsc_core::{CoherenceConfig, Metrics, ObsConfig, ObsData, System, SystemBuilder, SystemConfig};
use hsc_noc::SimError;

/// A collaborative CPU/GPU benchmark: knows how to populate a system and
/// how to verify its own results from the final coherent memory state.
///
/// `Send + Sync` are supertraits so a `&dyn Workload` can be shared with
/// the worker threads of a parallel campaign (`hsc_bench::par`): each job
/// builds its own `System` from the shared, immutable workload
/// definition. Workloads are plain data, so this costs implementors
/// nothing.
pub trait Workload: fmt::Debug + Send + Sync {
    /// Short CHAI-style identifier (`bs`, `cedd`, `tq`, …).
    fn name(&self) -> &'static str;

    /// One-line description of the collaboration pattern.
    fn description(&self) -> &'static str;

    /// Adds CPU threads, GPU wavefronts, DMA commands and initial memory
    /// contents to the builder.
    fn build(&self, b: &mut SystemBuilder);

    /// Checks the benchmark's functional result against its specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch — which, given a
    /// correct workload, means a coherence-protocol bug.
    fn verify(&self, sys: &System) -> Result<(), String>;
}

/// Default event budget per run: generous, but low enough to catch
/// livelock quickly.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// The result of one verified run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which benchmark ran.
    pub workload: &'static str,
    /// The metrics the figures are built from.
    pub metrics: Metrics,
}

/// Runs `w` on the default Table II/III system with the given coherence
/// knobs, verifying the functional result.
///
/// # Panics
///
/// Panics if verification fails (a protocol bug) or the run livelocks.
#[must_use]
pub fn run_workload(w: &dyn Workload, coherence: CoherenceConfig) -> RunResult {
    run_workload_on(w, SystemConfig::with_coherence(coherence))
}

/// Runs `w` on an arbitrary system configuration.
///
/// # Panics
///
/// Panics if verification fails, the run livelocks, or the protocol
/// deadlocks. For a panic-free variant (fault-injection campaigns), use
/// [`try_run_workload_on`].
#[must_use]
pub fn run_workload_on(w: &dyn Workload, config: SystemConfig) -> RunResult {
    match try_run_workload_on(w, config) {
        Ok(r) => r,
        Err(e) => panic!("workload {} failed: {e}", w.name()),
    }
}

/// What went wrong in a [`try_run_workload_on`] run.
#[derive(Debug, Clone)]
pub enum WorkloadError {
    /// The simulation itself failed (deadlock, budget, wiring).
    Sim(SimError),
    /// The run completed but the functional result was wrong.
    Verification(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Sim(e) => write!(f, "{e}"),
            WorkloadError::Verification(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Runs `w` on an arbitrary system configuration, returning every failure
/// — protocol deadlock, livelock, mis-wired topology, or a wrong answer —
/// as a typed error instead of panicking.
///
/// # Errors
///
/// [`WorkloadError::Sim`] wraps the [`SimError`] from [`System::run`];
/// [`WorkloadError::Verification`] carries the first functional mismatch.
pub fn try_run_workload_on(
    w: &dyn Workload,
    config: SystemConfig,
) -> Result<RunResult, WorkloadError> {
    let (outcome, _) = observe_workload_on(w, config, ObsConfig::off());
    outcome
}

/// One observed run: the verified outcome plus everything the
/// observability layer collected.
///
/// The [`ObsData`] is populated on failures too — a deadlocked run keeps
/// its time series, agent profile, open-span count, and Perfetto trace,
/// which is usually exactly what you want to look at.
#[derive(Debug)]
pub struct ObservedRun {
    /// The verified run result, or the typed failure.
    pub outcome: Result<RunResult, WorkloadError>,
    /// What the observability layer collected (empty with
    /// [`ObsConfig::off`]).
    pub obs: ObsData,
}

/// Runs `w` with the given observability configuration, returning both
/// the verified outcome and the collected observability data.
#[must_use]
pub fn run_workload_observed(
    w: &dyn Workload,
    config: SystemConfig,
    obs: ObsConfig,
) -> ObservedRun {
    let (outcome, obs) = observe_workload_on(w, config, obs);
    ObservedRun { outcome, obs }
}

// Compile-time proof that everything a campaign worker returns from a run
// is `Send` (`hsc_bench::par` moves these across threads).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunResult>();
    assert_send::<WorkloadError>();
    assert_send::<ObservedRun>();
};

fn observe_workload_on(
    w: &dyn Workload,
    config: SystemConfig,
    obs: ObsConfig,
) -> (Result<RunResult, WorkloadError>, ObsData) {
    let mut b = SystemBuilder::new(config);
    b.with_observability(obs);
    w.build(&mut b);
    let mut sys = b.build();
    let run = sys.run(DEFAULT_EVENT_BUDGET);
    let mut data = sys.take_obs_data();
    if run.is_err() {
        // Post-mortem: a failed run's Perfetto trace ends with the
        // flight-recorder tail, so the viewer shows what was delivered
        // just before the failure.
        if let Some(p) = &mut data.perfetto {
            p.append_flight_tail(&data.flight);
        }
    }
    let outcome = match run {
        Ok(metrics) => match w.verify(&sys) {
            Ok(()) => Ok(RunResult { workload: w.name(), metrics }),
            Err(e) => Err(WorkloadError::Verification(e)),
        },
        Err(e) => Err(WorkloadError::Sim(e)),
    };
    (outcome, data)
}

//! Epoch-based time-series sampling.
//!
//! End-of-run aggregates hide bursts: a directory that is idle for 90% of
//! a run and saturated for 10% averages to "half busy". The
//! [`EpochSampler`] snapshots occupancy gauges and counter *deltas* once
//! per fixed-width epoch of simulated time so phase changes stay visible.
//! All boundaries are derived from the deterministic event clock, so two
//! identical seeded runs produce identical series.

use std::collections::BTreeMap;

use hsc_sim::Tick;

/// One named series of `(epoch_start_tick, value)` points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Series name, e.g. `"dir.inflight_txns"` or `"net.messages"`.
    pub name: String,
    /// Samples in time order; the first element of each pair is the tick
    /// of the epoch boundary the sample describes.
    pub points: Vec<(u64, u64)>,
}

/// Samples gauges and counter deltas at fixed epoch boundaries.
///
/// The driver calls [`EpochSampler::due`] from its event loop; when it
/// fires, one call to [`EpochSampler::begin_epoch`] stamps the boundary
/// and any number of [`EpochSampler::gauge`] / [`EpochSampler::counter`]
/// calls attach samples to it. Epochs with no events simply produce no
/// points — the simulator's clock only advances on events.
///
/// # Examples
///
/// ```
/// use hsc_obs::EpochSampler;
/// use hsc_sim::Tick;
///
/// let mut s = EpochSampler::new(100);
/// assert!(s.due(Tick(100)));
/// s.begin_epoch(Tick(105)); // boundary is aligned down to 100
/// s.gauge("mshr", 3);
/// s.counter("reqs", 40); // cumulative; first delta is vs 0
/// assert!(!s.due(Tick(199)));
/// let series = s.into_series();
/// assert_eq!(series[0].points, [(100, 3)]);
/// assert_eq!(series[1].points, [(100, 40)]);
/// ```
#[derive(Debug, Clone)]
pub struct EpochSampler {
    epoch: u64,
    next_boundary: u64,
    stamp: u64,
    series: BTreeMap<String, Vec<(u64, u64)>>,
    last_counter: BTreeMap<String, u64>,
}

impl EpochSampler {
    /// Creates a sampler with the given epoch width in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ticks` is 0.
    #[must_use]
    pub fn new(epoch_ticks: u64) -> Self {
        assert!(epoch_ticks > 0, "sampling epoch must be at least one tick");
        EpochSampler {
            epoch: epoch_ticks,
            next_boundary: epoch_ticks,
            stamp: 0,
            series: BTreeMap::new(),
            last_counter: BTreeMap::new(),
        }
    }

    /// Whether simulated time has crossed the next epoch boundary.
    #[must_use]
    pub fn due(&self, now: Tick) -> bool {
        now.0 >= self.next_boundary
    }

    /// Starts the epoch containing `now`: subsequent samples are stamped
    /// with the boundary tick `now` is aligned down to, and the next
    /// [`EpochSampler::due`] boundary moves past `now`.
    pub fn begin_epoch(&mut self, now: Tick) {
        self.stamp = (now.0 / self.epoch) * self.epoch;
        self.next_boundary = self.stamp + self.epoch;
    }

    /// Records an occupancy gauge (sampled value as-is).
    pub fn gauge(&mut self, name: &str, value: u64) {
        self.push(name, value);
    }

    /// Records a monotonically increasing counter; the stored point is the
    /// delta since this counter's previous sample (first sample: vs 0).
    pub fn counter(&mut self, name: &str, cumulative: u64) {
        // Allocation-free on the repeat path: the key is only cloned the
        // first time a counter is seen.
        let last = match self.last_counter.get_mut(name) {
            Some(slot) => std::mem::replace(slot, cumulative),
            None => {
                self.last_counter.insert(name.to_owned(), cumulative);
                0
            }
        };
        self.push(name, cumulative.saturating_sub(last));
    }

    fn push(&mut self, name: &str, value: u64) {
        if let Some(points) = self.series.get_mut(name) {
            points.push((self.stamp, value));
        } else {
            self.series.insert(name.to_owned(), vec![(self.stamp, value)]);
        }
    }

    /// Consumes the sampler, returning all series in name order.
    #[must_use]
    pub fn into_series(self) -> Vec<TimeSeries> {
        self.series.into_iter().map(|(name, points)| TimeSeries { name, points }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_aligned_and_skip_idle_epochs() {
        let mut s = EpochSampler::new(1000);
        assert!(!s.due(Tick(999)));
        assert!(s.due(Tick(1000)));
        s.begin_epoch(Tick(1234)); // crossed at 1234 → stamped 1000
        s.gauge("g", 7);
        // Simulated time jumps straight past epochs 2000..=4000.
        assert!(s.due(Tick(5678)));
        s.begin_epoch(Tick(5678)); // stamped 5000
        s.gauge("g", 9);
        assert!(!s.due(Tick(5999)));
        assert!(s.due(Tick(6000)));
        let series = s.into_series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points, [(1000, 7), (5000, 9)]);
    }

    #[test]
    fn counters_are_stored_as_deltas() {
        let mut s = EpochSampler::new(10);
        s.begin_epoch(Tick(10));
        s.counter("c", 100);
        s.begin_epoch(Tick(20));
        s.counter("c", 250);
        s.begin_epoch(Tick(30));
        s.counter("c", 250); // no progress this epoch
        let series = s.into_series();
        assert_eq!(series[0].points, [(10, 100), (20, 150), (30, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_epoch_is_rejected() {
        let _ = EpochSampler::new(0);
    }
}

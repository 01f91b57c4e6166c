use std::collections::BTreeMap;
use std::fmt;

/// The string-keyed export of a run's counters.
///
/// Nothing counts through a `StatSet`: every controller counts in plain
/// `u64` fields, and its `stats()` names them in a `StatSet` at report
/// time — always for a key reports list even at zero, through
/// [`StatSet::set_nonzero`] for a diagnostic that shows only once it
/// fired. From there the sets are only merged into one report and read.
/// Keys live in a `BTreeMap`, so iteration (and therefore every printed
/// report) is deterministic.
///
/// # Examples
///
/// ```
/// use hsc_sim::StatSet;
///
/// let mut s = StatSet::new();
/// s.set("dir.probes_sent", 1);
/// s.set("dir.mem_reads", 3);
/// s.set("l2.retries", 0); // a counter that never fired is still a key
/// assert_eq!(s.get("dir.mem_reads"), 3);
/// assert_eq!(s.sum_prefix("dir."), 4);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.get("never_set"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatSet {
    counters: BTreeMap<String, u64>,
}

impl StatSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Sets `key` to `value`, registering it even when `value` is 0, so
    /// a counter that never fired still shows up in merged reports and
    /// time series.
    pub fn set(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_owned(), value);
    }

    /// Sets `key` to `value` only if `value` is nonzero, so a diagnostic
    /// counter that never fired stays out of reports.
    pub fn set_nonzero(&mut self, key: &str, value: u64) {
        if value != 0 {
            self.set(key, value);
        }
    }

    /// Current value of `key` (0 if absent).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose key starts with `prefix`.
    #[must_use]
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Adds every counter of `other` into `self`: how one run's
    /// controllers become its one report.
    ///
    /// Merging is commutative and associative (counters add, zero-valued
    /// keys survive), so the result does not depend on the order the
    /// controllers are folded in.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the set has no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:<40} {v}")?;
        }
        Ok(())
    }
}

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 also counts 0).
/// Used for transaction latency distributions in the characterization
/// benches.
///
/// # Examples
///
/// ```
/// use hsc_sim::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(100);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, total: 0, max: 0 }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples at once; all internal tallies
    /// saturate instead of overflowing.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = 64 - value.leading_zeros() as usize;
        let bucket = &mut self.buckets[idx.saturating_sub(1).min(63)];
        *bucket = bucket.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.total = self.total.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of recorded samples (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Count in bucket `i`, i.e. samples in `[2^i, 2^(i+1))`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Estimated value at percentile `p` (in `[0, 100]`), 0 if empty.
    ///
    /// Returns the upper bound of the bucket holding the `ceil(p% · count)`-th
    /// sample, clamped to the largest recorded value — so `percentile(100.0)`
    /// is exactly [`Histogram::max`], and the estimate never exceeds it.
    ///
    /// # Examples
    ///
    /// ```
    /// use hsc_sim::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for v in [10, 20, 1000] {
    ///     h.record(v);
    /// }
    /// assert!(h.percentile(50.0) <= 31); // bucket [16, 32)
    /// assert_eq!(h.percentile(100.0), 1000);
    /// ```
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = u128::from(rank.clamp(1, self.count));
        let mut cumulative: u128 = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += u128::from(b);
            if cumulative >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_registers_exact_values_and_zero_keys() {
        let mut s = StatSet::new();
        s.set("x", 5);
        s.set("quiet", 0);
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("quiet"), 0);
        assert_eq!(s.get("ghost"), 0);
        assert_eq!(s.len(), 2, "a zero value is still a key; an unset one is not");
        s.set_nonzero("diag.quiet", 0);
        s.set_nonzero("diag.fired", 2);
        assert_eq!(s.get("diag.fired"), 2);
        assert_eq!(s.len(), 3, "set_nonzero of 0 adds no key");
    }

    #[test]
    fn merge_sums_counters_and_keeps_zero_keys() {
        let mut a = StatSet::new();
        a.set("k1", 2);
        a.set("k2", 1);
        let mut b = StatSet::new();
        b.set("k1", 5);
        b.set("k3", 7);
        b.set("quiet", 0);
        a.merge(&b);
        assert_eq!(a.get("k1"), 7);
        assert_eq!(a.get("k2"), 1);
        assert_eq!(a.get("k3"), 7);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["k1", "k2", "k3", "quiet"], "merge must preserve zero keys");
    }

    #[test]
    fn sum_prefix_groups_related_counters() {
        let mut s = StatSet::new();
        s.set("dir.probes.inv", 3);
        s.set("dir.probes.downgrade", 4);
        s.set("dir.mem_reads", 9);
        s.set("dirty", 100); // must NOT match "dir." prefix
        assert_eq!(s.sum_prefix("dir.probes."), 7);
        assert_eq!(s.sum_prefix("dir."), 16);
    }

    #[test]
    fn iteration_is_sorted_by_key() {
        let mut s = StatSet::new();
        s.set("b", 1);
        s.set("a", 1);
        s.set("c", 1);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c"]);
    }

    #[test]
    fn display_lists_all_counters() {
        let mut s = StatSet::new();
        s.set("alpha", 1);
        s.set("beta", 2);
        let text = s.to_string();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn single_bucket_percentile_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(5); // all in bucket [4, 8)
        }
        // Every percentile lands in the same bucket, clamped to max = 5.
        for p in [1.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 5);
        }
    }

    #[test]
    fn percentiles_walk_buckets_in_order() {
        let mut h = Histogram::new();
        h.record_n(1, 50); // bucket 0, upper bound 1
        h.record_n(100, 49); // bucket [64, 128)
        h.record_n(4000, 1); // bucket [2048, 4096)
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(95.0), 127);
        assert_eq!(h.percentile(100.0), 4000);
    }

    #[test]
    fn saturating_counts_do_not_overflow() {
        let mut h = Histogram::new();
        h.record_n(1, u64::MAX);
        h.record_n(2, 5); // count saturates instead of wrapping
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.max(), 2);
        // Percentile arithmetic must survive saturated bucket counts.
        assert_eq!(h.percentile(1.0), 1);
        assert_eq!(h.percentile(100.0), 2);
    }

    #[test]
    fn record_n_zero_is_a_no_op() {
        let mut h = Histogram::new();
        h.record_n(7, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }
}

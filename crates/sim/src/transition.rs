//! Dense per-protocol state-transition matrices.
//!
//! The source paper is a characterization study: its central artifacts
//! are tables of *which transitions fired, how often, and why*. A
//! [`TransitionMatrix`] is the hot-path half of that: a protocol engine
//! owns one, registers its state and cause vocabularies once at
//! construction, and records each transition as a single bounds-checked
//! increment into a dense `[from][to][cause]` counter cube; like the
//! controllers' plain counter fields, it leaves every string to report
//! time.
//!
//! Matrices are **disabled by default** and cost one predictable branch
//! per call while disabled; the counter storage is not even allocated
//! until [`TransitionMatrix::enable`] runs. Nothing in a matrix feeds a
//! `state_hash` or a `Metrics` table, so enabling one cannot perturb the
//! simulation or its reports.
//!
//! # Examples
//!
//! ```
//! use hsc_sim::TransitionMatrix;
//!
//! let mut m = TransitionMatrix::new("moesi", &["I", "S", "M"], &["Fill", "ProbeInv"]);
//! m.record(0, 2, 0); // disabled: a no-op
//! assert_eq!(m.total(), 0);
//! m.enable();
//! m.record(0, 2, 0); // I → M because of a Fill
//! m.record(2, 0, 1); // M → I because of an invalidating probe
//! assert_eq!(m.get(0, 2, 0), 1);
//! assert_eq!(m.total(), 2);
//! let cells: Vec<_> = m.nonzero().collect();
//! assert_eq!(cells, [(0, 2, 0, 1), (2, 0, 1, 1)]);
//! ```

/// A dense `[from_state][to_state][cause]` transition counter cube for
/// one protocol engine. See the module docs for the design rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionMatrix {
    protocol: &'static str,
    states: &'static [&'static str],
    causes: &'static [&'static str],
    /// Flat counter storage, `states² × causes` slots once enabled.
    counts: Vec<u64>,
    enabled: bool,
}

impl TransitionMatrix {
    /// Creates a disabled matrix over the given state and cause
    /// vocabularies. Costs no counter storage until enabled.
    #[must_use]
    pub fn new(
        protocol: &'static str,
        states: &'static [&'static str],
        causes: &'static [&'static str],
    ) -> Self {
        TransitionMatrix { protocol, states, causes, counts: Vec::new(), enabled: false }
    }

    /// Switches recording on, allocating the counter cube. Idempotent.
    pub fn enable(&mut self) {
        if !self.enabled {
            self.counts = vec![0; self.states.len() * self.states.len() * self.causes.len()];
            self.enabled = true;
        }
    }

    /// Whether [`TransitionMatrix::record`] currently counts.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The owning protocol's name (`"moesi"`, `"viper"`, …).
    #[must_use]
    pub fn protocol(&self) -> &'static str {
        self.protocol
    }

    /// State names, indexed by the `from`/`to` arguments of
    /// [`TransitionMatrix::record`].
    #[must_use]
    pub fn states(&self) -> &'static [&'static str] {
        self.states
    }

    /// Cause names, indexed by the `cause` argument of
    /// [`TransitionMatrix::record`].
    #[must_use]
    pub fn causes(&self) -> &'static [&'static str] {
        self.causes
    }

    #[inline]
    fn slot(&self, from: usize, to: usize, cause: usize) -> usize {
        debug_assert!(from < self.states.len(), "from-state {from} out of range");
        debug_assert!(to < self.states.len(), "to-state {to} out of range");
        debug_assert!(cause < self.causes.len(), "cause {cause} out of range");
        (from * self.states.len() + to) * self.causes.len() + cause
    }

    /// Counts one `from → to` transition attributed to `cause`. The hot
    /// path: one branch plus one array increment when enabled, one branch
    /// when disabled.
    ///
    /// # Panics
    ///
    /// Panics (in release via the bounds check, in debug with the named
    /// index) if any index is outside the registered vocabularies.
    #[inline]
    pub fn record(&mut self, from: usize, to: usize, cause: usize) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(from, to, cause);
        self.counts[slot] += 1;
    }

    /// The count in one cell (0 when disabled).
    #[must_use]
    pub fn get(&self, from: usize, to: usize, cause: usize) -> u64 {
        if self.enabled {
            self.counts[self.slot(from, to, cause)]
        } else {
            0
        }
    }

    /// Total transitions recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Every nonzero cell as `(from, to, cause, count)`, in row-major
    /// (`from`, then `to`, then `cause`) order — deterministic, so tables
    /// and reports built from it are byte-stable.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize, usize, u64)> + '_ {
        let ns = self.states.len();
        let nc = self.causes.len();
        self.counts.iter().enumerate().filter(|&(_, &c)| c != 0).map(move |(i, &c)| {
            let cause = i % nc;
            let to = (i / nc) % ns;
            let from = i / (nc * ns);
            (from, to, cause, c)
        })
    }

    /// Adds another matrix's counts into this one (campaign-style merge).
    /// Enables this matrix if the other recorded anything.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices describe different protocols or
    /// vocabularies — merging those would silently misattribute counts.
    pub fn merge(&mut self, other: &TransitionMatrix) {
        assert_eq!(self.protocol, other.protocol, "cannot merge across protocols");
        assert_eq!(self.states, other.states, "state vocabulary mismatch");
        assert_eq!(self.causes, other.causes, "cause vocabulary mismatch");
        if !other.enabled {
            return;
        }
        self.enable();
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TransitionMatrix {
        TransitionMatrix::new("t", &["A", "B"], &["x", "y", "z"])
    }

    #[test]
    fn disabled_matrix_records_nothing_and_allocates_nothing() {
        let mut m = small();
        m.record(0, 1, 2);
        assert_eq!(m.total(), 0);
        assert_eq!(m.get(0, 1, 2), 0);
        assert_eq!(m.nonzero().count(), 0);
        assert!(!m.is_enabled());
    }

    #[test]
    fn enabled_matrix_counts_cells_independently() {
        let mut m = small();
        m.enable();
        m.enable(); // idempotent
        m.record(0, 1, 0);
        m.record(0, 1, 0);
        m.record(1, 0, 2);
        assert_eq!(m.get(0, 1, 0), 2);
        assert_eq!(m.get(1, 0, 2), 1);
        assert_eq!(m.get(0, 0, 0), 0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn nonzero_iterates_row_major() {
        let mut m = small();
        m.enable();
        m.record(1, 1, 1);
        m.record(0, 0, 2);
        m.record(1, 0, 0);
        let cells: Vec<_> = m.nonzero().collect();
        assert_eq!(cells, [(0, 0, 2, 1), (1, 0, 0, 1), (1, 1, 1, 1)]);
    }

    #[test]
    fn merge_sums_and_respects_enablement() {
        let mut a = small();
        let mut b = small();
        b.enable();
        b.record(0, 1, 0);
        a.merge(&b);
        assert!(a.is_enabled(), "merging live counts enables the target");
        assert_eq!(a.get(0, 1, 0), 1);
        let c = small(); // disabled: merging it changes nothing
        let before = a.clone();
        a.merge(&c);
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "cannot merge across protocols")]
    fn merge_rejects_protocol_mismatch() {
        let mut a = small();
        let b = TransitionMatrix::new("other", &["A", "B"], &["x", "y", "z"]);
        a.merge(&b);
    }
}

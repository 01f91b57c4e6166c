//! Dense per-protocol state-transition matrices.
//!
//! The source paper is a characterization study: its central artifacts
//! are tables of *which transitions fired, how often, and why*. A
//! [`TransitionMatrix`] is the hot-path half of that: a protocol engine
//! owns one, registers its state and cause vocabularies once at
//! construction, and records each transition as a single bounds-checked
//! increment into a dense `[from][to][cause]` counter cube, leaving every
//! string to report time.
//!
//! A matrix always counts. It is the one record of each transition: a
//! controller's `stats()` derives its victim, eviction, merge and
//! probe-invalidation counters by summing cells, so no event is counted
//! twice. Nothing in a matrix feeds a `state_hash`.
//!
//! # Examples
//!
//! ```
//! use hsc_sim::TransitionMatrix;
//!
//! let mut m = TransitionMatrix::new("moesi", &["I", "S", "M"], &["Fill", "ProbeInv"]);
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
    /// Flat counter storage, `states² × causes` slots.
    counts: Vec<u64>,
}

impl TransitionMatrix {
    /// Creates an all-zero matrix over the given state and cause
    /// vocabularies.
    #[must_use]
    pub fn new(
        protocol: &'static str,
        states: &'static [&'static str],
        causes: &'static [&'static str],
    ) -> Self {
        let counts = vec![0; states.len() * states.len() * causes.len()];
        TransitionMatrix { protocol, states, causes, counts }
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

    /// Counts one `from → to` transition attributed to `cause`: one
    /// array increment.
    ///
    /// # Panics
    ///
    /// Panics (in release via the bounds check, in debug with the named
    /// index) if any index is outside the registered vocabularies.
    #[inline]
    pub fn record(&mut self, from: usize, to: usize, cause: usize) {
        let slot = self.slot(from, to, cause);
        self.counts[slot] += 1;
    }

    /// The count in one cell.
    #[must_use]
    pub fn get(&self, from: usize, to: usize, cause: usize) -> u64 {
        self.counts[self.slot(from, to, cause)]
    }

    /// Transitions into `to` attributed to `cause`, from any state.
    #[must_use]
    pub fn entering(&self, to: usize, cause: usize) -> u64 {
        (0..self.states.len()).map(|from| self.get(from, to, cause)).sum()
    }

    /// Transitions attributed to `cause`, over every `from → to` pair.
    #[must_use]
    pub fn cause_total(&self, cause: usize) -> u64 {
        debug_assert!(cause < self.causes.len(), "cause {cause} out of range");
        self.counts.iter().skip(cause).step_by(self.causes.len()).sum()
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

    /// Adds another matrix's counts into this one: how a run's
    /// controllers of one protocol become that protocol's one matrix.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices describe different protocols or
    /// vocabularies — merging those would silently misattribute counts.
    pub fn merge(&mut self, other: &TransitionMatrix) {
        assert_eq!(self.protocol, other.protocol, "cannot merge across protocols");
        assert_eq!(self.states, other.states, "state vocabulary mismatch");
        assert_eq!(self.causes, other.causes, "cause vocabulary mismatch");
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
    fn enabled_matrix_counts_cells_independently() {
        let mut m = small();
        assert_eq!(m.nonzero().count(), 0);
        m.record(0, 1, 0);
        m.record(0, 1, 0);
        m.record(1, 0, 2);
        assert_eq!(m.get(0, 1, 0), 2);
        assert_eq!(m.get(1, 0, 2), 1);
        assert_eq!(m.get(0, 0, 0), 0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn entering_and_cause_total_sum_their_cells() {
        let mut m = small();
        m.record(0, 1, 2);
        m.record(1, 1, 2);
        m.record(1, 0, 2);
        m.record(0, 1, 0);
        assert_eq!(m.entering(1, 2), 2);
        assert_eq!(m.entering(0, 2), 1);
        assert_eq!(m.cause_total(2), 3);
        assert_eq!(m.cause_total(0), 1);
        assert_eq!(m.cause_total(1), 0);
    }

    #[test]
    fn nonzero_iterates_row_major() {
        let mut m = small();
        m.record(1, 1, 1);
        m.record(0, 0, 2);
        m.record(1, 0, 0);
        let cells: Vec<_> = m.nonzero().collect();
        assert_eq!(cells, [(0, 0, 2, 1), (1, 0, 0, 1), (1, 1, 1, 1)]);
    }

    #[test]
    fn merge_sums_cell_wise() {
        let mut a = small();
        let mut b = small();
        a.record(0, 1, 0);
        b.record(0, 1, 0);
        b.record(1, 1, 2);
        a.merge(&b);
        assert_eq!(a.get(0, 1, 0), 2);
        assert_eq!(a.get(1, 1, 2), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot merge across protocols")]
    fn merge_rejects_protocol_mismatch() {
        let mut a = small();
        let b = TransitionMatrix::new("other", &["A", "B"], &["x", "y", "z"]);
        a.merge(&b);
    }
}

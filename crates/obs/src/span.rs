//! Transaction lifetime tracking.
//!
//! A *span* covers one coherence transaction from the tick its request is
//! handed to the NoC until the tick the requester receives the closing
//! answer ([`hsc_noc::MsgKind::is_requester_completion`]). Closed spans
//! are aggregated into one latency [`Histogram`] per request class, from
//! which the run report derives p50/p95/p99/max.

use std::collections::BTreeMap;

use hsc_noc::AgentId;
use hsc_sim::{Histogram, Tick};

/// A still-open transaction span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenSpan {
    start: Tick,
    class: &'static str,
}

/// A completed transaction span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedSpan {
    /// The requester whose transaction finished.
    pub agent: AgentId,
    /// The cache line the transaction concerned.
    pub line: u64,
    /// Request class name (`"RdBlk"`, `"VicDirty"`, …).
    pub class: &'static str,
    /// Tick the request entered the NoC.
    pub start: Tick,
    /// Tick the completion reached the requester.
    pub end: Tick,
}

impl ClosedSpan {
    /// End-to-end latency in ticks.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.end.0 - self.start.0
    }
}

/// Tracks open transaction spans and aggregates closed ones.
///
/// Keyed by `(requester, line)`: a requester has at most one directory
/// transaction outstanding per line; a second request on the same line
/// before the first closes (a timeout resend) is reported via the `false`
/// return of [`TxnTracker::open`] and does not reset the span, so the
/// recorded latency covers the full wait including retries.
///
/// # Examples
///
/// ```
/// use hsc_noc::AgentId;
/// use hsc_obs::TxnTracker;
/// use hsc_sim::Tick;
///
/// let mut t = TxnTracker::new();
/// t.open(Tick(100), AgentId::CorePairL2(0), 0x40, "RdBlk");
/// let span = t.close(Tick(350), AgentId::CorePairL2(0), 0x40).unwrap();
/// assert_eq!(span.latency(), 250);
/// assert_eq!(t.histograms().next().unwrap().0, "RdBlk");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxnTracker {
    open: BTreeMap<(AgentId, u64), OpenSpan>,
    by_class: BTreeMap<&'static str, Histogram>,
    completed: u64,
}

impl TxnTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        TxnTracker::default()
    }

    /// Opens a span for `agent`'s request on `line` at `now`.
    ///
    /// Returns `false` if a span is already open for that key — the
    /// request is a resend and the original start time is kept.
    pub fn open(&mut self, now: Tick, agent: AgentId, line: u64, class: &'static str) -> bool {
        match self.open.entry((agent, line)) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(OpenSpan { start: now, class });
                true
            }
        }
    }

    /// Closes the span for `(agent, line)` at `now`, recording its latency
    /// in the per-class histogram. Returns `None` if no span was open
    /// (e.g. a stale response after a retry already completed).
    pub fn close(&mut self, now: Tick, agent: AgentId, line: u64) -> Option<ClosedSpan> {
        let span = self.open.remove(&(agent, line))?;
        self.completed += 1;
        self.by_class.entry(span.class).or_default().record(now.0 - span.start.0);
        Some(ClosedSpan { agent, line, class: span.class, start: span.start, end: now })
    }

    /// Per-class latency histograms in class-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.by_class.iter().map(|(k, v)| (*k, v))
    }

    /// Number of spans closed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of spans still open (in-flight transactions).
    #[must_use]
    pub fn open_count(&self) -> u64 {
        self.open.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2: AgentId = AgentId::CorePairL2(1);

    #[test]
    fn span_latency_lands_in_class_histogram() {
        let mut t = TxnTracker::new();
        assert!(t.open(Tick(10), L2, 0x80, "RdBlkM"));
        assert!(t.open(Tick(10), L2, 0xc0, "VicDirty"));
        t.close(Tick(110), L2, 0x80).unwrap();
        t.close(Tick(40), L2, 0xc0).unwrap();
        let classes: Vec<_> = t.histograms().map(|(c, h)| (c, h.count(), h.max())).collect();
        assert_eq!(classes, [("RdBlkM", 1, 100), ("VicDirty", 1, 30)]);
        assert_eq!(t.completed(), 2);
        assert_eq!(t.open_count(), 0);
    }

    #[test]
    fn resend_keeps_original_start() {
        let mut t = TxnTracker::new();
        assert!(t.open(Tick(10), L2, 0x80, "RdBlk"));
        assert!(!t.open(Tick(500), L2, 0x80, "RdBlk"), "resend must not reopen");
        assert_eq!(t.open_count(), 1);
        let span = t.close(Tick(600), L2, 0x80).unwrap();
        assert_eq!(span.latency(), 590, "latency covers the retry wait");
    }

    #[test]
    fn stale_close_is_ignored() {
        let mut t = TxnTracker::new();
        assert!(t.close(Tick(5), L2, 0x80).is_none());
        assert_eq!(t.completed(), 0);
    }

    #[test]
    fn same_line_different_agents_do_not_collide() {
        let mut t = TxnTracker::new();
        let a = AgentId::CorePairL2(0);
        let b = AgentId::Tcc(0);
        assert!(t.open(Tick(0), a, 0x80, "RdBlk"));
        assert!(t.open(Tick(0), b, 0x80, "RdBlk"));
        t.close(Tick(10), a, 0x80).unwrap();
        assert_eq!(t.open_count(), 1);
    }
}

//! Per-line sharing analytics: who touches a line, how, and in what
//! pattern.
//!
//! The paper characterizes coherence traffic by *sharing behaviour*:
//! private lines want no probes at all, read-shared lines want probe
//! elision, migratory lines want owner-only probes, and write-invalidate
//! ping-pong (the false-sharing signature) is where invalidation
//! multicast pays off. The [`SharingTracker`] reconstructs that
//! taxonomy from three directory-side hooks:
//!
//! * [`SharingTracker::on_lookup`] — sharer count observed at each
//!   directory lookup (a dense histogram),
//! * [`SharingTracker::on_probes`] — probe fan-out per transaction
//!   (a dense histogram),
//! * [`SharingTracker::on_access`] — the per-line read/write stream,
//!   folded into a bounded map of [`LineSharing`] lifetimes that
//!   [`LineSharing::classify`] buckets into a [`SharingClass`].
//!
//! The tracker is owned as an `Option` by the directory: `None` costs
//! one branch per hook, and nothing here ever feeds a `state_hash` or a
//! `Metrics` table.
//!
//! # Examples
//!
//! ```
//! use hsc_noc::AgentId;
//! use hsc_obs::{SharingClass, SharingTracker};
//!
//! let mut t = SharingTracker::new();
//! for _ in 0..8 {
//!     t.on_access(0x40, AgentId::CorePairL2(0), true);
//!     t.on_access(0x40, AgentId::CorePairL2(1), true); // ping-pong
//! }
//! let report = t.report();
//! assert_eq!(report.class_count(SharingClass::PingPong), 1);
//! assert_eq!(report.top_pingpong[0].line, 0x40);
//! ```

use std::collections::BTreeMap;

use hsc_noc::AgentId;

/// Slots in the sharer-count and probe-fan-out histograms; the last slot
/// saturates (counts `HIST_SLOTS - 1` *or more*).
pub const SHARING_HIST_SLOTS: usize = 17;

/// Maximum distinct lines the lifetime tracker follows. Accesses to new
/// lines beyond the cap are counted in [`SharingReport::dropped_lines`]
/// instead of tracked — bounded memory beats silent unboundedness.
pub const SHARING_LINE_CAP: usize = 4096;

/// How many worst ping-pong offenders a [`SharingReport`] lists.
pub const TOP_OFFENDERS: usize = 8;

/// The sharing-pattern taxonomy of §II/§V, coarsened to what a directory
/// can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SharingClass {
    /// One agent ever touched the line.
    Private,
    /// Multiple agents, no writes.
    ReadShared,
    /// Multiple writers in long bursts (ownership migrates).
    Migratory,
    /// Writers alternate — the write-invalidate / false-sharing
    /// signature.
    PingPong,
}

impl SharingClass {
    /// All classes, in report order.
    pub const ALL: [SharingClass; 4] = [
        SharingClass::Private,
        SharingClass::ReadShared,
        SharingClass::Migratory,
        SharingClass::PingPong,
    ];

    /// Stable lowercase name used in reports and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SharingClass::Private => "private",
            SharingClass::ReadShared => "read_shared",
            SharingClass::Migratory => "migratory",
            SharingClass::PingPong => "ping_pong",
        }
    }
}

/// The observed lifetime of one line: its access mix and writer
/// alternation, enough to classify without storing the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineSharing {
    /// Read accesses (RdBlk/RdBlkS/DmaRd arrivals at the directory).
    pub reads: u64,
    /// Write accesses (RdBlkM/WriteThrough/Atomic/DmaWr arrivals).
    pub writes: u64,
    /// Distinct agents that touched the line.
    pub agents: Vec<AgentId>,
    /// The last agent that wrote.
    pub last_writer: Option<AgentId>,
    /// Writes whose agent differed from the previous writer.
    pub writer_flips: u64,
}

impl LineSharing {
    fn touch(&mut self, agent: AgentId, is_write: bool) {
        if !self.agents.contains(&agent) {
            self.agents.push(agent);
        }
        if is_write {
            self.writes += 1;
            if self.last_writer.is_some_and(|w| w != agent) {
                self.writer_flips += 1;
            }
            self.last_writer = Some(agent);
        } else {
            self.reads += 1;
        }
    }

    /// Buckets this lifetime into the sharing taxonomy. Ping-pong means
    /// the writer changed on at least every other write.
    #[must_use]
    pub fn classify(&self) -> SharingClass {
        if self.agents.len() <= 1 {
            SharingClass::Private
        } else if self.writes == 0 {
            SharingClass::ReadShared
        } else if self.writer_flips * 2 >= self.writes {
            SharingClass::PingPong
        } else {
            SharingClass::Migratory
        }
    }
}

/// One line in a [`SharingReport`]'s offender list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offender {
    /// Raw line number.
    pub line: u64,
    /// Writer alternations observed on it.
    pub writer_flips: u64,
    /// Total writes observed on it.
    pub writes: u64,
}

/// Directory-side sharing analytics: two dense histograms plus a bounded
/// per-line lifetime map. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingTracker {
    sharer_hist: Vec<u64>,
    fanout_hist: Vec<u64>,
    lines: BTreeMap<u64, LineSharing>,
    dropped_lines: u64,
}

impl Default for SharingTracker {
    fn default() -> Self {
        SharingTracker::new()
    }
}

impl SharingTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        SharingTracker {
            sharer_hist: vec![0; SHARING_HIST_SLOTS],
            fanout_hist: vec![0; SHARING_HIST_SLOTS],
            lines: BTreeMap::new(),
            dropped_lines: 0,
        }
    }

    /// Records the sharer count seen at one directory lookup.
    #[inline]
    pub fn on_lookup(&mut self, sharers: usize) {
        self.sharer_hist[sharers.min(SHARING_HIST_SLOTS - 1)] += 1;
    }

    /// Records the probe fan-out of one transaction.
    #[inline]
    pub fn on_probes(&mut self, fanout: usize) {
        self.fanout_hist[fanout.min(SHARING_HIST_SLOTS - 1)] += 1;
    }

    /// Folds one access by `agent` into the line's lifetime.
    pub fn on_access(&mut self, line: u64, agent: AgentId, is_write: bool) {
        if let Some(l) = self.lines.get_mut(&line) {
            l.touch(agent, is_write);
        } else if self.lines.len() < SHARING_LINE_CAP {
            let mut l = LineSharing::default();
            l.touch(agent, is_write);
            self.lines.insert(line, l);
        } else {
            self.dropped_lines += 1;
        }
    }

    /// Whether nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
            && self.dropped_lines == 0
            && self.sharer_hist.iter().all(|&c| c == 0)
            && self.fanout_hist.iter().all(|&c| c == 0)
    }

    /// Summarizes the tracker into plain report data.
    #[must_use]
    pub fn report(&self) -> SharingReport {
        let mut class_counts = [0u64; 4];
        for l in self.lines.values() {
            let idx = SharingClass::ALL.iter().position(|&c| c == l.classify()).unwrap();
            class_counts[idx] += 1;
        }
        let mut offenders: Vec<Offender> = self
            .lines
            .iter()
            .filter(|(_, l)| l.classify() == SharingClass::PingPong)
            .map(|(&line, l)| Offender { line, writer_flips: l.writer_flips, writes: l.writes })
            .collect();
        offenders.sort_by(|a, b| b.writer_flips.cmp(&a.writer_flips).then(a.line.cmp(&b.line)));
        offenders.truncate(TOP_OFFENDERS);
        SharingReport {
            sharer_hist: self.sharer_hist.clone(),
            fanout_hist: self.fanout_hist.clone(),
            class_counts,
            tracked_lines: self.lines.len() as u64,
            dropped_lines: self.dropped_lines,
            top_pingpong: offenders,
        }
    }
}

/// Plain-data summary of a [`SharingTracker`], ready for reports and
/// tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingReport {
    /// Sharer count at directory lookup; index = count, last slot
    /// saturates.
    pub sharer_hist: Vec<u64>,
    /// Probe fan-out per transaction; index = targets, last slot
    /// saturates.
    pub fanout_hist: Vec<u64>,
    /// Lines per [`SharingClass`], indexed like [`SharingClass::ALL`].
    pub class_counts: [u64; 4],
    /// Distinct lines followed by the lifetime tracker.
    pub tracked_lines: u64,
    /// Accesses to lines beyond [`SHARING_LINE_CAP`] that were dropped.
    pub dropped_lines: u64,
    /// Worst write-invalidate ping-pong lines, most flips first.
    pub top_pingpong: Vec<Offender>,
}

impl SharingReport {
    /// Lines classified as `class`.
    #[must_use]
    pub fn class_count(&self, class: SharingClass) -> u64 {
        let idx = SharingClass::ALL.iter().position(|&c| c == class).unwrap();
        self.class_counts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2_0: AgentId = AgentId::CorePairL2(0);
    const L2_1: AgentId = AgentId::CorePairL2(1);
    const TCC_0: AgentId = AgentId::Tcc(0);

    #[test]
    fn private_stream_stays_private() {
        let mut t = SharingTracker::new();
        for _ in 0..10 {
            t.on_access(0x100, L2_0, false);
            t.on_access(0x100, L2_0, true);
        }
        let r = t.report();
        assert_eq!(r.class_count(SharingClass::Private), 1);
        assert_eq!(r.tracked_lines, 1);
        assert!(r.top_pingpong.is_empty());
    }

    #[test]
    fn read_only_sharers_classify_read_shared() {
        let mut t = SharingTracker::new();
        for agent in [L2_0, L2_1, TCC_0] {
            for _ in 0..5 {
                t.on_access(0x200, agent, false);
            }
        }
        assert_eq!(t.report().class_count(SharingClass::ReadShared), 1);
    }

    #[test]
    fn bursty_writers_classify_migratory() {
        let mut t = SharingTracker::new();
        for _ in 0..10 {
            t.on_access(0x300, L2_0, true);
        }
        for _ in 0..10 {
            t.on_access(0x300, L2_1, true);
        }
        // One flip over twenty writes: ownership migrated once.
        assert_eq!(t.report().class_count(SharingClass::Migratory), 1);
    }

    #[test]
    fn alternating_writers_classify_ping_pong() {
        let mut t = SharingTracker::new();
        for _ in 0..8 {
            t.on_access(0x400, L2_0, true);
            t.on_access(0x400, L2_1, true);
        }
        let r = t.report();
        assert_eq!(r.class_count(SharingClass::PingPong), 1);
        assert_eq!(r.top_pingpong.len(), 1);
        assert_eq!(r.top_pingpong[0].line, 0x400);
        assert_eq!(r.top_pingpong[0].writes, 16);
        assert_eq!(r.top_pingpong[0].writer_flips, 15);
    }

    #[test]
    fn histograms_saturate_in_the_last_slot() {
        let mut t = SharingTracker::new();
        t.on_lookup(2);
        t.on_lookup(500);
        t.on_probes(0);
        t.on_probes(SHARING_HIST_SLOTS + 3);
        let r = t.report();
        assert_eq!(r.sharer_hist[2], 1);
        assert_eq!(r.sharer_hist[SHARING_HIST_SLOTS - 1], 1);
        assert_eq!(r.fanout_hist[0], 1);
        assert_eq!(r.fanout_hist[SHARING_HIST_SLOTS - 1], 1);
    }

    #[test]
    fn line_cap_counts_drops_instead_of_growing() {
        let mut t = SharingTracker::new();
        for i in 0..SHARING_LINE_CAP as u64 + 5 {
            t.on_access(i, L2_0, false);
        }
        let r = t.report();
        assert_eq!(r.tracked_lines, SHARING_LINE_CAP as u64);
        assert_eq!(r.dropped_lines, 5);
    }

    #[test]
    fn empty_tracker_reports_empty() {
        let t = SharingTracker::new();
        assert!(t.is_empty());
        let r = t.report();
        assert_eq!(r.tracked_lines, 0);
        assert_eq!(r.class_counts, [0; 4]);
    }
}

use std::fmt;

use hsc_mem::{AtomicKind, LineAddr, LineData, WORDS_PER_LINE};
use hsc_sim::StatSet;

use crate::AgentId;

/// Which permission a directory response grants the requester.
///
/// MOESI L2s use all three; VIPER TCCs ignore `Exclusive` grants (paper
/// §II-A: "if exclusive status is granted, it is ignored by the TCC").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grant {
    /// Read permission, other copies may exist.
    Shared,
    /// Read permission, no other copy exists; may silently upgrade to
    /// Modified in a MOESI L2.
    Exclusive,
    /// Write permission.
    Modified,
}

impl fmt::Display for Grant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Grant::Shared => "S",
            Grant::Exclusive => "E",
            Grant::Modified => "M",
        };
        f.write_str(s)
    }
}

/// The two probe flavours the directory can broadcast or multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Sent for write-permission requests (RdBlkM, WT, Atomic, DMAWr):
    /// recipients must invalidate, forwarding dirty data if they have it
    /// (TCCs invalidate without forwarding).
    Invalidate,
    /// Sent for read-permission requests (RdBlk, RdBlkS, DMARd):
    /// recipients downgrade M→O / E→S and forward dirty data.
    Downgrade,
}

impl fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeKind::Invalidate => "PrbInv",
            ProbeKind::Downgrade => "PrbDown",
        };
        f.write_str(s)
    }
}

/// A bitmask selecting 64-bit words within one cache line.
///
/// GPU write-throughs write only the words a wavefront actually stored;
/// the directory merges them into the LLC/memory copy under this mask.
///
/// # Examples
///
/// ```
/// use hsc_noc::WordMask;
///
/// let mut m = WordMask::empty();
/// m.set(0);
/// m.set(7);
/// assert!(m.contains(0) && m.contains(7) && !m.contains(3));
/// assert_eq!(WordMask::full().count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(u8);

impl WordMask {
    /// No words selected.
    #[must_use]
    pub fn empty() -> Self {
        WordMask(0)
    }

    /// All eight words selected (a full-line write).
    #[must_use]
    pub fn full() -> Self {
        WordMask(0xFF)
    }

    /// A mask with only word `i` selected.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn single(i: usize) -> Self {
        let mut m = WordMask::empty();
        m.set(i);
        m
    }

    /// Selects word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn set(&mut self, i: usize) {
        assert!(i < WORDS_PER_LINE, "word index {i} out of line");
        self.0 |= 1 << i;
    }

    /// Whether word `i` is selected.
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        i < WORDS_PER_LINE && self.0 & (1 << i) != 0
    }

    /// Number of selected words.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no word is selected.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Copies the selected words of `src` into `dst`.
    pub fn apply(self, dst: &mut LineData, src: &LineData) {
        for i in 0..WORDS_PER_LINE {
            if self.contains(i) {
                dst.set_word(i, src.word(i));
            }
        }
    }
}

/// Every message class that crosses the system NoC, with its payload.
///
/// The naming follows §II of the paper exactly; see the table in the
/// module docs of [`crate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    // ---- requests to the directory ----
    /// Read-permission request; may be granted Shared or Exclusive.
    RdBlk,
    /// Read-permission request for Shared only (I-cache misses).
    RdBlkS,
    /// Write-permission request.
    RdBlkM,
    /// Dirty victim write-back from an L2.
    VicDirty {
        /// The modified line contents.
        data: LineData,
    },
    /// Clean victim notification from an L2 (noisy evictions, §II-D).
    VicClean {
        /// The (memory-coherent) line contents.
        data: LineData,
    },
    /// GPU write-through of a vector store or GLC atomic (§II-A).
    WriteThrough {
        /// The written words.
        data: LineData,
        /// Which words were written.
        mask: WordMask,
        /// Whether the sending TCC still holds a valid copy afterwards
        /// (lets the state-tracking directory keep its sharer set exact).
        retains: bool,
    },
    /// System-Level-Coherent atomic, executed at the directory.
    AtomicReq {
        /// Word within the line to operate on.
        word: u8,
        /// The read-modify-write operation.
        op: AtomicKind,
    },
    /// TCP flush (orchestrated by the TCC) supporting store-release.
    Flush,
    /// DMA read of a full line.
    DmaRd,
    /// DMA write of (part of) a line.
    DmaWr {
        /// The written words.
        data: LineData,
        /// Which words were written.
        mask: WordMask,
    },

    // ---- directory to caches ----
    /// A coherence probe.
    Probe {
        /// Invalidating or downgrading.
        kind: ProbeKind,
    },

    // ---- caches to directory ----
    /// Probe acknowledgment.
    ProbeAck {
        /// Forwarded dirty line, if the cache held it M/O.
        dirty: Option<LineData>,
        /// Whether the cache had any copy (for sharer-count sanity checks).
        had_copy: bool,
        /// Whether an invalidating probe consumed a *parked victim* (a
        /// line whose VicDirty/VicClean is still in flight). The directory
        /// then treats that in-flight victim message as stale and drops
        /// its write, closing the writeback/probe race.
        was_parked: bool,
    },

    // ---- directory to requesters ----
    /// Data + permission response ending the miss.
    Resp {
        /// The line contents.
        data: LineData,
        /// Granted permission.
        grant: Grant,
    },
    /// Write permission granted without data, sent by the state-tracking
    /// directory when the requester of an RdBlkM is already the owner (its
    /// copy is the freshest in the system, so no data transfer is needed).
    UpgradeAck,
    /// Acknowledgment of a VicDirty/VicClean; releases the victim buffer.
    VicAck,
    /// Acknowledgment that a write-through reached system visibility.
    WtAck,
    /// Result of an SLC atomic (the *old* word value).
    AtomicResp {
        /// Value of the word before the operation.
        old: u64,
    },
    /// Acknowledgment of a Flush.
    FlushAck,
    /// DMA read completion.
    DmaRdResp {
        /// The line contents.
        data: LineData,
    },
    /// DMA write completion.
    DmaWrAck,

    // ---- requester to directory ----
    /// Ends a coherence transaction; the directory unblocks the line.
    Unblock,

    // ---- directory to/from memory ----
    /// Memory read request.
    MemRd,
    /// Memory write request.
    MemWr {
        /// The line contents to store.
        data: LineData,
        /// Which words to store (DRAM byte enables; full for line writes).
        mask: WordMask,
    },
    /// Memory read completion.
    MemRdResp {
        /// The line contents.
        data: LineData,
    },
}

impl MsgKind {
    /// Number of distinct statistics classes (the two probe kinds count
    /// separately). [`MsgKind::class_index`] is always below this.
    pub const NUM_CLASSES: usize = 25;

    /// Class names indexed by [`MsgKind::class_index`].
    pub const CLASS_NAMES: [&'static str; MsgKind::NUM_CLASSES] = [
        "RdBlk",
        "RdBlkS",
        "RdBlkM",
        "VicDirty",
        "VicClean",
        "WT",
        "Atomic",
        "Flush",
        "DmaRd",
        "DmaWr",
        "PrbInv",
        "PrbDown",
        "PrbAck",
        "Resp",
        "UpgradeAck",
        "VicAck",
        "WtAck",
        "AtomicResp",
        "FlushAck",
        "DmaRdResp",
        "DmaWrAck",
        "Unblock",
        "MemRd",
        "MemWr",
        "MemRdResp",
    ];

    /// Dense index of this message's statistics class, in
    /// `0..`[`MsgKind::NUM_CLASSES`]. Hot counter paths use this to index
    /// pre-interned per-class counter arrays instead of formatting a
    /// string key per message.
    #[must_use]
    #[inline]
    pub fn class_index(&self) -> usize {
        match self {
            MsgKind::RdBlk => 0,
            MsgKind::RdBlkS => 1,
            MsgKind::RdBlkM => 2,
            MsgKind::VicDirty { .. } => 3,
            MsgKind::VicClean { .. } => 4,
            MsgKind::WriteThrough { .. } => 5,
            MsgKind::AtomicReq { .. } => 6,
            MsgKind::Flush => 7,
            MsgKind::DmaRd => 8,
            MsgKind::DmaWr { .. } => 9,
            MsgKind::Probe { kind: ProbeKind::Invalidate } => 10,
            MsgKind::Probe { kind: ProbeKind::Downgrade } => 11,
            MsgKind::ProbeAck { .. } => 12,
            MsgKind::Resp { .. } => 13,
            MsgKind::UpgradeAck => 14,
            MsgKind::VicAck => 15,
            MsgKind::WtAck => 16,
            MsgKind::AtomicResp { .. } => 17,
            MsgKind::FlushAck => 18,
            MsgKind::DmaRdResp { .. } => 19,
            MsgKind::DmaWrAck => 20,
            MsgKind::Unblock => 21,
            MsgKind::MemRd => 22,
            MsgKind::MemWr { .. } => 23,
            MsgKind::MemRdResp { .. } => 24,
        }
    }

    /// A short stable name used as the statistics key for this class.
    #[must_use]
    pub fn class_name(&self) -> &'static str {
        MsgKind::CLASS_NAMES[self.class_index()]
    }

    /// Whether this is one of the directory-bound request classes.
    #[must_use]
    pub fn is_dir_request(&self) -> bool {
        matches!(
            self,
            MsgKind::RdBlk
                | MsgKind::RdBlkS
                | MsgKind::RdBlkM
                | MsgKind::VicDirty { .. }
                | MsgKind::VicClean { .. }
                | MsgKind::WriteThrough { .. }
                | MsgKind::AtomicReq { .. }
                | MsgKind::Flush
                | MsgKind::DmaRd
                | MsgKind::DmaWr { .. }
        )
    }

    /// Whether this is a probe.
    #[must_use]
    pub fn is_probe(&self) -> bool {
        matches!(self, MsgKind::Probe { .. })
    }

    /// Whether this class terminates a requester's transaction: the
    /// directory's (or memory's, for DMA) final answer to one of the
    /// [`MsgKind::is_dir_request`] classes. The observability layer closes
    /// a transaction span when one of these is delivered.
    #[must_use]
    pub fn is_requester_completion(&self) -> bool {
        matches!(
            self,
            MsgKind::Resp { .. }
                | MsgKind::UpgradeAck
                | MsgKind::VicAck
                | MsgKind::WtAck
                | MsgKind::AtomicResp { .. }
                | MsgKind::FlushAck
                | MsgKind::DmaRdResp { .. }
                | MsgKind::DmaWrAck
        )
    }
}

/// One count per message class, indexed by [`MsgKind::class_index`]: a
/// per-class counter family (`net.msg.<Class>`, `dir.requests.<Class>`,
/// …) as plain data. Its key names appear only in [`ClassCounts::export`].
///
/// # Examples
///
/// ```
/// use hsc_noc::{ClassCounts, MsgKind};
/// use hsc_sim::StatSet;
///
/// let mut by_class = ClassCounts::default();
/// by_class.bump(&MsgKind::RdBlk);
/// let mut s = StatSet::new();
/// by_class.export("net.msg", &["Unblock"], &mut s);
/// assert_eq!(s.get("net.msg.RdBlk"), 1);
/// assert_eq!(s.len(), 2); // Unblock exports at zero, the other classes never fired
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; MsgKind::NUM_CLASSES]);

impl ClassCounts {
    /// Counts one message of `kind`'s class.
    #[inline]
    pub fn bump(&mut self, kind: &MsgKind) {
        self.0[kind.class_index()] += 1;
    }

    /// The count of the class named `class` (one of
    /// [`MsgKind::CLASS_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics if `class` names no message class.
    #[must_use]
    pub fn get(&self, class: &str) -> u64 {
        self.0[class_slot(class)]
    }

    /// The sum over every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Writes `prefix.<Class>` into `out` for each class named in
    /// `visible`, even at zero, and for every other class once it is
    /// nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `visible` names an unknown class: a typo there would
    /// silently change report contents.
    pub fn export(&self, prefix: &str, visible: &[&str], out: &mut StatSet) {
        for class in visible {
            class_slot(class);
        }
        for (class, &n) in MsgKind::CLASS_NAMES.iter().zip(&self.0) {
            if n != 0 || visible.contains(class) {
                out.set(&format!("{prefix}.{class}"), n);
            }
        }
    }
}

/// The [`MsgKind::class_index`] of the class named `class`.
pub(crate) fn class_slot(class: &str) -> usize {
    MsgKind::CLASS_NAMES
        .iter()
        .position(|&c| c == class)
        .unwrap_or_else(|| panic!("unknown message class {class:?}"))
}

/// One message in flight on the system NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Sender.
    pub src: AgentId,
    /// Receiver.
    pub dst: AgentId,
    /// The cache line the message concerns.
    pub line: LineAddr,
    /// Class and payload.
    pub kind: MsgKind,
}

impl Message {
    /// Builds a message.
    #[must_use]
    pub fn new(src: AgentId, dst: AgentId, line: LineAddr, kind: MsgKind) -> Self {
        Message { src, dst, line, kind }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{} {} {}", self.src, self.dst, self.kind.class_name(), self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_mask_set_and_query() {
        let mut m = WordMask::empty();
        assert!(m.is_empty());
        m.set(3);
        m.set(5);
        assert!(m.contains(3) && m.contains(5));
        assert!(!m.contains(0));
        assert_eq!(m.count(), 2);
        assert!(!m.contains(8), "out-of-range query is false, not panic");
    }

    #[test]
    fn word_mask_union_and_apply() {
        let mut dst = LineData::from_words([0; 8]);
        let src = LineData::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let mut m = WordMask::single(1);
        m.set(6);
        m.apply(&mut dst, &src);
        assert_eq!(*dst.words(), [0, 2, 0, 0, 0, 0, 7, 0]);
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn word_mask_set_bounds_checked() {
        WordMask::empty().set(8);
    }

    #[test]
    fn full_mask_overwrites_line() {
        let mut dst = LineData::from_words([9; 8]);
        let src = LineData::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        WordMask::full().apply(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    fn class_names_are_unique() {
        use std::collections::BTreeSet;
        let kinds = [
            MsgKind::RdBlk,
            MsgKind::RdBlkS,
            MsgKind::RdBlkM,
            MsgKind::VicDirty { data: LineData::zeroed() },
            MsgKind::VicClean { data: LineData::zeroed() },
            MsgKind::WriteThrough {
                data: LineData::zeroed(),
                mask: WordMask::full(),
                retains: true,
            },
            MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(1) },
            MsgKind::Flush,
            MsgKind::DmaRd,
            MsgKind::DmaWr { data: LineData::zeroed(), mask: WordMask::full() },
            MsgKind::Probe { kind: ProbeKind::Invalidate },
            MsgKind::Probe { kind: ProbeKind::Downgrade },
            MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false },
            MsgKind::Resp { data: LineData::zeroed(), grant: Grant::Shared },
            MsgKind::UpgradeAck,
            MsgKind::VicAck,
            MsgKind::WtAck,
            MsgKind::AtomicResp { old: 0 },
            MsgKind::FlushAck,
            MsgKind::DmaRdResp { data: LineData::zeroed() },
            MsgKind::DmaWrAck,
            MsgKind::Unblock,
            MsgKind::MemRd,
            MsgKind::MemWr { data: LineData::zeroed(), mask: WordMask::full() },
            MsgKind::MemRdResp { data: LineData::zeroed() },
        ];
        let names: BTreeSet<&str> = kinds.iter().map(|k| k.class_name()).collect();
        assert_eq!(names.len(), kinds.len(), "duplicate class name");
        assert_eq!(kinds.len(), MsgKind::NUM_CLASSES, "class count drifted");
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(kind.class_index(), i, "class_index order drifted for {kind:?}");
            assert_eq!(kind.class_name(), MsgKind::CLASS_NAMES[i]);
        }
    }

    #[test]
    fn request_and_probe_classification() {
        assert!(MsgKind::RdBlk.is_dir_request());
        assert!(MsgKind::DmaRd.is_dir_request());
        assert!(!MsgKind::Unblock.is_dir_request());
        assert!(MsgKind::Probe { kind: ProbeKind::Downgrade }.is_probe());
        assert!(!MsgKind::RdBlk.is_probe());
    }

    #[test]
    fn completion_classes_answer_requests_only() {
        assert!(MsgKind::Resp { data: LineData::zeroed(), grant: Grant::Shared }
            .is_requester_completion());
        assert!(MsgKind::VicAck.is_requester_completion());
        assert!(MsgKind::FlushAck.is_requester_completion());
        assert!(MsgKind::DmaWrAck.is_requester_completion());
        assert!(!MsgKind::RdBlk.is_requester_completion());
        assert!(!MsgKind::Unblock.is_requester_completion());
        assert!(!MsgKind::MemRdResp { data: LineData::zeroed() }.is_requester_completion());
        assert!(!MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false }
            .is_requester_completion());
    }

    #[test]
    fn message_display_mentions_endpoints_and_class() {
        let m =
            Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(4), MsgKind::RdBlkM);
        let s = m.to_string();
        assert!(s.contains("L2[0]"));
        assert!(s.contains("DIR"));
        assert!(s.contains("RdBlkM"));
    }

    #[test]
    fn visible_classes_export_at_zero_hidden_ones_do_not() {
        let mut arr = ClassCounts::default();
        let export = |arr: &ClassCounts| {
            let mut s = StatSet::new();
            arr.export("dir.requests", &["RdBlk", "WT"], &mut s);
            s
        };
        let set = export(&arr);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("dir.requests.RdBlk"), 0);
        assert_eq!(set.get("dir.requests.WT"), 0);
        arr.bump(&MsgKind::Unblock);
        assert_eq!(export(&arr).get("dir.requests.Unblock"), 1);
        assert_eq!(export(&arr).len(), 3);
    }

    #[test]
    fn total_sums_every_class_slot() {
        let mut arr = ClassCounts::default();
        arr.bump(&MsgKind::RdBlk);
        arr.bump(&MsgKind::MemRd);
        for _ in 0..3 {
            arr.bump(&MsgKind::Unblock);
        }
        assert_eq!(arr.total(), 5);
        assert_eq!(arr.get("MemRd"), 1);
        assert_eq!(arr.get("Unblock"), 3);
    }

    #[test]
    #[should_panic(expected = "unknown message class")]
    fn typoed_visible_class_panics_at_export() {
        ClassCounts::default().export("x", &["RdBlq"], &mut StatSet::new());
    }

    #[test]
    fn grants_display_single_letters() {
        assert_eq!(Grant::Shared.to_string(), "S");
        assert_eq!(Grant::Exclusive.to_string(), "E");
        assert_eq!(Grant::Modified.to_string(), "M");
    }
}

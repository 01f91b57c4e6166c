use hsc_mem::{CacheArray, CacheGeometry, InsertOutcome, LineAddr, LineData};
use hsc_noc::WordMask;
use hsc_sim::{StatSet, TransitionMatrix};

/// LLC transition-matrix vocabulary. `I` is absence from the victim
/// cache, `V` a resident clean line, `D` a resident line whose memory
/// copy is stale.
const LLC_STATES: &[&str] = &["I", "V", "D"];
const LLC_CAUSES: &[&str] = &["Insert", "Update", "Merge", "Invalidate", "Evict"];
const LL_I: usize = 0;
const LL_V: usize = 1;
const LL_D: usize = 2;
const LC_INSERT: usize = 0;
const LC_UPDATE: usize = 1;
const LC_MERGE: usize = 2;
const LC_INVALIDATE: usize = 3;
const LC_EVICT: usize = 4;

/// Transition-matrix state index of a resident LLC line.
fn lst(dirty: bool) -> usize {
    if dirty {
        LL_D
    } else {
        LL_V
    }
}

/// One LLC line: data plus the §III-C dirty bit.
///
/// Under the baseline write-through policy the dirty bit is always false
/// (every LLC write also writes memory); under the write-back policy it is
/// set by the first dirty victim write and cleared only by eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlcLine {
    /// Line contents.
    pub data: LineData,
    /// Whether memory is stale with respect to this line.
    pub dirty: bool,
}

/// A line the LLC pushed out to make room; if `dirty`, the caller owes a
/// memory write (the §III-C "evictions from the LLC are on the critical
/// path" case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcEviction {
    /// The displaced line.
    pub tag: LineAddr,
    /// Its contents.
    pub data: LineData,
    /// Whether it must be written back to memory.
    pub dirty: bool,
}

/// The shared last-level cache.
///
/// Pure mechanism: a victim cache that the directory writes on L2
/// write-backs (and optionally GPU write-throughs under `useL3OnWT`) and
/// reads on requests. The *policies* — write-through vs write-back, what
/// clean victims do, whether response data fills it (it never does; the
/// LLC is a victim cache) — live in the directory, which interprets the
/// return values of these methods.
#[derive(Debug, Clone)]
pub struct Llc {
    lines: CacheArray<LlcLine>,
    /// Every line state transition, by cause; excluded from `hash_state`.
    /// `stats` sums its cells into the write, merge and eviction counters.
    transitions: TransitionMatrix,
    n: LlcCounts,
}

/// Every count the LLC keeps; [`Llc::stats`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct LlcCounts {
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates an empty LLC with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        Llc {
            lines: CacheArray::new(geometry),
            transitions: TransitionMatrix::new("llc", LLC_STATES, LLC_CAUSES),
            n: LlcCounts::default(),
        }
    }

    /// The LLC's transition matrix.
    #[must_use]
    pub fn transitions(&self) -> &TransitionMatrix {
        &self.transitions
    }

    /// Looks up `la`, updating recency and hit/miss statistics.
    pub fn read(&mut self, la: LineAddr) -> Option<LineData> {
        if let Some(way) = self.lines.lookup(la) {
            self.lines.touch_way(way);
            self.n.hits += 1;
            Some(self.lines.meta(way).data)
        } else {
            self.n.misses += 1;
            None
        }
    }

    /// Whether `la` is present, without touching recency or stats.
    #[must_use]
    pub fn peek(&self, la: LineAddr) -> Option<&LlcLine> {
        self.lines.get(la)
    }

    /// Writes a full line (victim write-back path). `dirty` marks memory
    /// stale (write-back LLC). If the line exists its dirty bit is OR-ed
    /// ("the dirty bit is set at the first dirty L2 victim write").
    ///
    /// Returns the eviction the insert caused, if any.
    pub fn write(&mut self, la: LineAddr, data: LineData, dirty: bool) -> Option<LlcEviction> {
        if let Some(way) = self.lines.lookup(la) {
            let l = self.lines.meta_mut(way);
            let from = lst(l.dirty);
            l.data = data;
            l.dirty |= dirty;
            let to = lst(l.dirty);
            self.transitions.record(from, to, LC_UPDATE);
            self.lines.touch_way(way);
            return None;
        }
        // The insert leaves the new line most-recently used.
        let out = self.lines.insert(la, LlcLine { data, dirty });
        self.transitions.record(LL_I, lst(dirty), LC_INSERT);
        match out {
            InsertOutcome::Inserted => None,
            InsertOutcome::Evicted(ev) => {
                self.transitions.record(lst(ev.meta.dirty), LL_I, LC_EVICT);
                Some(LlcEviction { tag: ev.tag, data: ev.meta.data, dirty: ev.meta.dirty })
            }
        }
    }

    /// Merges masked words into an existing line (GPU write-through with
    /// `useL3OnWT`). Returns `false` if the line is absent — the caller
    /// decides whether to allocate via [`Llc::write`] or bypass to memory.
    pub fn merge(&mut self, la: LineAddr, data: &LineData, mask: WordMask, dirty: bool) -> bool {
        let Some(way) = self.lines.lookup(la) else {
            return false;
        };
        let l = self.lines.meta_mut(way);
        let from = lst(l.dirty);
        mask.apply(&mut l.data, data);
        l.dirty |= dirty;
        let to = lst(l.dirty);
        self.transitions.record(from, to, LC_MERGE);
        self.lines.touch_way(way);
        true
    }

    /// Drops `la` (DMA writes and non-`useL3OnWT` write-throughs keep the
    /// LLC coherent by invalidation). Returns the line if it was present.
    pub fn invalidate(&mut self, la: LineAddr) -> Option<LlcLine> {
        let l = self.lines.invalidate(la);
        if let Some(l) = &l {
            self.transitions.record(lst(l.dirty), LL_I, LC_INVALIDATE);
        }
        l
    }

    /// LLC statistics (`llc.hits`, `llc.misses`, `llc.writes`, …),
    /// exported for reports, all of them even at 0.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let t = &self.transitions;
        let mut s = StatSet::new();
        s.set("llc.hits", n.hits);
        s.set("llc.misses", n.misses);
        s.set("llc.writes", t.cause_total(LC_INSERT) + t.cause_total(LC_UPDATE));
        s.set("llc.merges", t.cause_total(LC_MERGE));
        s.set("llc.evictions", t.cause_total(LC_EVICT));
        s.set("llc.dirty_evictions", t.get(LL_D, LL_I, LC_EVICT));
        s
    }

    /// All valid lines in set/way order (for state fingerprints and
    /// whole-cache coherence checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LlcLine)> + '_ {
        self.lines.iter()
    }

    /// Folds contents, placement and replacement state into `h` (see
    /// [`CacheArray::hash_state`]).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        self.lines.hash_state(h);
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_llc() -> Llc {
        // 1 set × 2 ways.
        Llc::new(CacheGeometry::new(128, 2))
    }

    fn data(v: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, v);
        d
    }

    #[test]
    fn miss_then_write_then_hit() {
        let mut llc = tiny_llc();
        assert_eq!(llc.read(LineAddr(1)), None);
        llc.write(LineAddr(1), data(5), false);
        assert_eq!(llc.read(LineAddr(1)).unwrap().word(0), 5);
        assert_eq!(llc.stats().get("llc.misses"), 1);
        assert_eq!(llc.stats().get("llc.hits"), 1);
    }

    #[test]
    fn dirty_bit_is_sticky_until_eviction() {
        let mut llc = tiny_llc();
        llc.write(LineAddr(0), data(1), true);
        llc.write(LineAddr(0), data(2), false); // clean rewrite keeps dirty
        let line = llc.peek(LineAddr(0)).expect("the line stays resident");
        assert_eq!((line.data.word(0), line.dirty), (2, true));
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut llc = tiny_llc();
        llc.write(LineAddr(0), data(1), true);
        llc.write(LineAddr(2), data(2), false);
        let ev = llc.write(LineAddr(4), data(3), false).expect("set overflows");
        assert_eq!(ev.tag, LineAddr(0));
        assert!(ev.dirty, "dirty victim owes a memory write");
        assert_eq!(llc.stats().get("llc.dirty_evictions"), 1);
    }

    #[test]
    fn merge_updates_only_masked_words() {
        let mut llc = tiny_llc();
        let mut base = LineData::zeroed();
        base.set_word(0, 10);
        base.set_word(1, 11);
        llc.write(LineAddr(3), base, false);
        let mut upd = LineData::zeroed();
        upd.set_word(1, 99);
        assert!(llc.merge(LineAddr(3), &upd, WordMask::single(1), true));
        let l = llc.peek(LineAddr(3)).unwrap();
        assert_eq!(l.data.word(0), 10);
        assert_eq!(l.data.word(1), 99);
        assert!(l.dirty);
    }

    #[test]
    fn merge_into_absent_line_reports_false() {
        let mut llc = tiny_llc();
        assert!(!llc.merge(LineAddr(9), &data(1), WordMask::single(0), false));
    }

    #[test]
    fn transition_matrix_tracks_llc_lifecycle() {
        let mut llc = tiny_llc();
        llc.write(LineAddr(0), data(1), true); // I → D Insert
        llc.write(LineAddr(0), data(2), false); // D → D Update (sticky dirty)
        llc.write(LineAddr(2), data(3), false); // I → V Insert
        llc.write(LineAddr(4), data(4), false); // I → V Insert, evicts dirty 0
        llc.invalidate(LineAddr(2)); // V → I Invalidate
        let m = llc.transitions();
        assert_eq!(m.get(LL_I, LL_D, LC_INSERT), 1);
        assert_eq!(m.get(LL_D, LL_D, LC_UPDATE), 1);
        assert_eq!(m.get(LL_I, LL_V, LC_INSERT), 2);
        assert_eq!(m.get(LL_D, LL_I, LC_EVICT), 1);
        assert_eq!(m.get(LL_V, LL_I, LC_INVALIDATE), 1);
        assert_eq!(m.total(), 6);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut llc = tiny_llc();
        llc.write(LineAddr(1), data(7), true);
        let l = llc.invalidate(LineAddr(1)).unwrap();
        assert!(l.dirty);
        assert!(llc.is_empty());
        assert_eq!(llc.invalidate(LineAddr(1)), None);
    }
}

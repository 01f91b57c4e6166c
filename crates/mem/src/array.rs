use std::fmt;
use std::ops::Range;

use crate::{LineAddr, TreePlru, BLOCK_BYTES};

/// Size and shape of a set-associative cache.
///
/// Lines are always 64 B ([`BLOCK_BYTES`]); geometry is `size / (64 ×
/// ways)` sets. The paper's Table II geometries (e.g. 16 MB 16-way LLC,
/// 2 MB 8-way L2, 256 KB 32-way directory) are all expressible.
///
/// # Examples
///
/// ```
/// use hsc_mem::CacheGeometry;
///
/// let llc = CacheGeometry::new(16 * 1024 * 1024, 16);
/// assert_eq!(llc.sets(), 16384);
/// assert_eq!(llc.lines(), 262144);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: usize,
}

impl CacheGeometry {
    /// A cache of `size_bytes` capacity with `ways`-way sets of 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is zero or not a power of two, or
    /// `ways` is zero / not a power of two.
    #[must_use]
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0 && ways.is_power_of_two(), "ways must be a power of two");
        let lines = size_bytes / BLOCK_BYTES;
        assert!(lines > 0, "cache must hold at least one line");
        let sets = lines / ways as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a positive power of two (got {sets})"
        );
        CacheGeometry { size_bytes, ways }
    }

    /// A cache described directly by line count instead of byte size.
    ///
    /// Used for the directory cache, whose Table II "block size" is an
    /// entry, not a 64 B line.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CacheGeometry::new`].
    #[must_use]
    pub fn from_lines(lines: u64, ways: usize) -> Self {
        CacheGeometry::new(lines * BLOCK_BYTES, ways)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(self) -> usize {
        (self.size_bytes / BLOCK_BYTES / self.ways as u64) as usize
    }

    /// Total number of lines.
    #[must_use]
    pub fn lines(self) -> usize {
        self.sets() * self.ways
    }
}

/// A line pushed out of the array to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<S> {
    /// The evicted line's address.
    pub tag: LineAddr,
    /// The evicted line's metadata (protocol state, data, …).
    pub meta: S,
}

/// Result of inserting a line into a [`CacheArray`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome<S> {
    /// A free (invalid) way was available; nothing was displaced.
    Inserted,
    /// The set was full; the returned victim was displaced.
    Evicted(Eviction<S>),
}

/// Handle to the way a resident line occupies, from [`CacheArray::lookup`].
///
/// It lets a controller scan a set once per access and then read, update,
/// touch or drop the line without searching again. A handle stays good
/// until the array next inserts or invalidates, so do not hold one across
/// either: a handle to a way that was freed and refilled names the new
/// line. On a way that is still free, [`CacheArray::meta`],
/// [`CacheArray::meta_mut`] and [`CacheArray::invalidate_way`] panic in
/// every build; [`CacheArray::tag`] and [`CacheArray::touch_way`] check in
/// debug builds only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way(usize);

/// A set-associative tag array with Tree-PLRU replacement and per-line
/// metadata of type `S`.
///
/// The array is purely structural: it knows nothing about coherence.
/// Protocol controllers choose what `S` is (an enum of MOESI states, a
/// directory entry with a sharer bitmap, an LLC line with data and a dirty
/// bit, …) and drive insert/evict decisions.
///
/// Storage is *tag-major*: the tags of a set are contiguous `u64`s, and
/// each set has a header of one validity word (bit `w` set iff way `w`
/// holds a line) followed by a one-byte fingerprint per way, eight to a
/// word. The Tree-PLRU bits of a set are one more word, and the metadata
/// lives in a parallel slab that a lookup never reads. A lookup masks out
/// the set index, tests the set's fingerprints eight at a time for the
/// looked-up line's [`tag_fingerprint`], keeps the matches in valid ways
/// and compares the full tag only there. The filter is exact: a way
/// holding the line has its fingerprint, so it always survives, and the
/// full compare rejects every other way whose byte happens to be equal.
/// "Is the set full" and "which way is free" are tests of the validity
/// word.
///
/// Placement and replacement are simulated behaviour and are fixed:
/// insertions fill the lowest-index invalid way if one exists, otherwise
/// the Tree-PLRU victim; [`CacheArray::insert_scored`] restricts the victim
/// choice to the ways minimizing a caller-supplied score first (the
/// future-work state-aware directory replacement policy), with Tree-PLRU
/// breaking ties. Invalidation never moves the replacement bits.
///
/// Every lookup-by-address method ([`CacheArray::get`],
/// [`CacheArray::touch`], …) scans the set; a controller that needs
/// several of them on one line takes a [`Way`] from [`CacheArray::lookup`]
/// once and uses the by-way forms.
///
/// # Examples
///
/// ```
/// use hsc_mem::{CacheArray, CacheGeometry, InsertOutcome, LineAddr};
///
/// let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(128, 2));
/// // 2 lines total in 1 set of 2 ways: third insert evicts.
/// assert!(matches!(c.insert(LineAddr(0), 10), InsertOutcome::Inserted));
/// assert!(matches!(c.insert(LineAddr(1), 11), InsertOutcome::Inserted));
/// let out = c.insert(LineAddr(2), 12);
/// assert!(matches!(out, InsertOutcome::Evicted(_)));
///
/// // One scan, then by-way access.
/// let way = c.lookup(LineAddr(2)).unwrap();
/// *c.meta_mut(way) += 1;
/// c.touch_way(way);
/// assert_eq!(c.get(LineAddr(2)), Some(&13));
/// ```
#[derive(Clone)]
pub struct CacheArray<S> {
    geometry: CacheGeometry,
    set_mask: u64,
    ways: usize,
    /// `log2(ways)`: a slot index is `set << way_shift | way`.
    way_shift: u32,
    /// `log2` of the words per set header in `heads`: the validity word,
    /// then `ceil(ways / 8)` fingerprint words, rounded up to a power of
    /// two so that a header starts at `set << head_shift`.
    head_shift: u32,
    /// Tag of every slot, set-major; meaningful only where the validity
    /// word says so.
    tags: Vec<u64>,
    /// Set headers, `1 << head_shift` words each. Word 0 has bit `w` set iff way `w`
    /// holds a line; byte `w % 8` of word `1 + w / 8` is way `w`'s
    /// fingerprint, written by `place` and stale once the way is freed.
    heads: Vec<u64>,
    /// Metadata of every slot; `Some` exactly where the validity word says
    /// so (the mutators `debug_assert` that the two agree).
    meta: Vec<Option<S>>,
    plru: TreePlru,
    len: usize,
}

impl<S: fmt::Debug> fmt::Debug for CacheArray<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheArray")
            .field("geometry", &self.geometry)
            .field("valid", &self.len)
            .finish_non_exhaustive()
    }
}

/// Upper bound on associativity: a set's validity and Tree-PLRU bits are
/// one `u64` each (the largest config in this repo is 32 ways).
const MAX_WAYS: usize = 64;

impl<S> CacheArray<S> {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds 64 ways.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let ways = geometry.ways();
        assert!(ways <= MAX_WAYS, "associativity {ways} exceeds supported maximum {MAX_WAYS}");
        let head_words = (1 + ways.div_ceil(8)).next_power_of_two();
        CacheArray {
            geometry,
            set_mask: sets as u64 - 1,
            ways,
            way_shift: ways.trailing_zeros(),
            head_shift: head_words.trailing_zeros(),
            tags: vec![0; sets * ways],
            heads: vec![0; sets * head_words],
            meta: std::iter::repeat_with(|| None).take(sets * ways).collect(),
            plru: TreePlru::new(sets, ways),
            len: 0,
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Set index for a line address (low-order line-number bits).
    #[must_use]
    pub fn set_of(&self, la: LineAddr) -> usize {
        (la.0 & self.set_mask) as usize
    }

    /// The slots of `set`, in way order.
    fn slots(&self, set: usize) -> Range<usize> {
        let base = set << self.way_shift;
        base..base + self.ways
    }

    /// The `(set, way)` a handle stands for.
    fn set_and_way(&self, way: Way) -> (usize, usize) {
        (way.0 >> self.way_shift, way.0 & (self.ways - 1))
    }

    /// Index in `heads` of `set`'s validity word.
    fn head(&self, set: usize) -> usize {
        set << self.head_shift
    }

    /// The way of `set` holding `la`: the one scan behind every lookup.
    /// Eight ways at a time, the fingerprints equal to `la`'s that sit in
    /// valid ways become candidates, and only a candidate's full tag is
    /// compared. A freed way keeps its stale tag and fingerprint, so the
    /// validity word takes part before any tag is read.
    fn find(&self, set: usize, la: LineAddr) -> Option<usize> {
        let head = self.head(set);
        let valid = self.heads[head];
        let probe = u64::from(tag_fingerprint(la)) * 0x0101_0101_0101_0101;
        let base = set << self.way_shift;
        // `first` is the lowest way of the fingerprint word being tested.
        let mut first = 0;
        loop {
            let prints = self.heads[head + 1 + first / 8];
            let mut ways = zero_bytes(prints ^ probe) & valid >> first;
            while ways != 0 {
                let way = first + ways.trailing_zeros() as usize;
                if self.tags[base + way] == la.0 {
                    return Some(way);
                }
                ways &= ways - 1;
            }
            first += 8;
            if first >= self.ways {
                return None;
            }
        }
    }

    /// Whether the validity word says the slot behind `way` holds a line.
    fn holds_line(&self, way: Way) -> bool {
        let (set, way) = self.set_and_way(way);
        self.heads[self.head(set)] >> way & 1 != 0
    }

    /// The way holding `la`, if it is present: one scan of the set.
    #[must_use]
    pub fn lookup(&self, la: LineAddr) -> Option<Way> {
        let set = self.set_of(la);
        self.find(set, la).map(|way| Way(self.slots(set).start + way))
    }

    /// The line address held in `way`.
    #[must_use]
    pub fn tag(&self, way: Way) -> LineAddr {
        debug_assert!(self.holds_line(way), "way handle outlived its line");
        LineAddr(self.tags[way.0])
    }

    /// Shared access to the metadata in `way`.
    ///
    /// # Panics
    ///
    /// Panics if the way has been freed since the handle was taken.
    #[must_use]
    pub fn meta(&self, way: Way) -> &S {
        self.meta[way.0].as_ref().expect("way handle outlived its line")
    }

    /// Exclusive access to the metadata in `way`.
    ///
    /// # Panics
    ///
    /// Panics if the way has been freed since the handle was taken.
    pub fn meta_mut(&mut self, way: Way) -> &mut S {
        self.meta[way.0].as_mut().expect("way handle outlived its line")
    }

    /// Marks the line in `way` as most-recently used.
    pub fn touch_way(&mut self, way: Way) {
        debug_assert!(self.holds_line(way), "way handle outlived its line");
        let (set, way) = self.set_and_way(way);
        self.plru.touch(set, way);
    }

    /// Frees `way`, returning its metadata. The replacement bits stay as
    /// they are.
    ///
    /// # Panics
    ///
    /// Panics if the way has already been freed.
    pub fn invalidate_way(&mut self, way: Way) -> S {
        let meta = self.meta[way.0].take().expect("way handle outlived its line");
        debug_assert!(self.holds_line(way), "validity word out of step with metadata");
        let (set, way) = self.set_and_way(way);
        let head = self.head(set);
        self.heads[head] &= !(1 << way);
        self.len -= 1;
        meta
    }

    /// Whether `la` is present.
    #[must_use]
    pub fn contains(&self, la: LineAddr) -> bool {
        self.lookup(la).is_some()
    }

    /// Shared access to the metadata of `la`, if present. Does not update
    /// recency; pair with [`CacheArray::touch`] on protocol-visible hits.
    #[must_use]
    pub fn get(&self, la: LineAddr) -> Option<&S> {
        self.lookup(la).map(|w| self.meta(w))
    }

    /// Exclusive access to the metadata of `la`, if present.
    pub fn get_mut(&mut self, la: LineAddr) -> Option<&mut S> {
        self.lookup(la).map(|w| self.meta_mut(w))
    }

    /// Marks `la` as most-recently used. No-op if absent.
    pub fn touch(&mut self, la: LineAddr) {
        if let Some(w) = self.lookup(la) {
            self.touch_way(w);
        }
    }

    /// Inserts `la`, evicting the Tree-PLRU victim if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `la` is already present — double-insertion is always a
    /// protocol bug.
    pub fn insert(&mut self, la: LineAddr, meta: S) -> InsertOutcome<S> {
        // Not `insert_scored` with a constant score: that scan would read
        // every way's metadata to learn nothing.
        let set = self.set_of(la);
        if self.find(set, la).is_some() {
            double_insert(la);
        }
        let way = self.free_way(set).unwrap_or_else(|| self.plru.victim(set));
        self.place(set, way, la, meta)
    }

    /// Inserts `la`; when eviction is needed, victimizes among the ways
    /// with the *lowest* `score` (ties broken by Tree-PLRU).
    ///
    /// This implements the paper's future-work state-aware directory
    /// replacement: score unmodified/few-sharer entries low so they go
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `la` is already present.
    pub fn insert_scored(
        &mut self,
        la: LineAddr,
        meta: S,
        score: impl Fn(LineAddr, &S) -> u32,
    ) -> InsertOutcome<S> {
        let set = self.set_of(la);
        let way = match self.free_way(set) {
            Some(_) if self.find(set, la).is_some() => double_insert(la),
            Some(way) => way,
            // The scoring scan visits every tag anyway and reports `la`.
            None => self.scored_victim(set, la, &score).unwrap_or_else(|| double_insert(la)),
        };
        self.place(set, way, la, meta)
    }

    /// The lowest-index invalid way of `set`, if any.
    fn free_way(&self, set: usize) -> Option<usize> {
        let free = !self.heads[self.head(set)] & (u64::MAX >> (64 - self.ways));
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Writes `la` and its fingerprint into `way` of `set` and makes it
    /// most-recently used, handing back whatever the way held.
    fn place(&mut self, set: usize, way: usize, la: LineAddr, meta: S) -> InsertOutcome<S> {
        let slot = self.slots(set).start + way;
        let old_tag = LineAddr(std::mem::replace(&mut self.tags[slot], la.0));
        let old = self.meta[slot].replace(meta);
        let head = self.head(set);
        debug_assert_eq!(
            old.is_some(),
            self.heads[head] >> way & 1 != 0,
            "validity word out of step with metadata"
        );
        let byte = 8 * (way % 8);
        let prints = &mut self.heads[head + 1 + way / 8];
        *prints = *prints & !(0xff << byte) | u64::from(tag_fingerprint(la)) << byte;
        self.plru.touch(set, way);
        match old {
            Some(meta) => InsertOutcome::Evicted(Eviction { tag: old_tag, meta }),
            None => {
                self.heads[head] |= 1 << way;
                self.len += 1;
                InsertOutcome::Inserted
            }
        }
    }

    /// Victim way of a *full* `set`: Tree-PLRU among the minimum-score
    /// ways. `None` if one of the ways already holds `la`.
    fn scored_victim(
        &self,
        set: usize,
        la: LineAddr,
        score: &impl Fn(LineAddr, &S) -> u32,
    ) -> Option<usize> {
        let slots = self.slots(set);
        let mut min = u32::MAX;
        let mut lowest = 0u64;
        for (way, (&tag, meta)) in
            self.tags[slots.clone()].iter().zip(&self.meta[slots]).enumerate()
        {
            if tag == la.0 {
                return None;
            }
            let s = score(LineAddr(tag), meta.as_ref().expect("set is full"));
            // A new minimum restarts the mask; an equal score joins it.
            lowest = if s < min { 0 } else { lowest } | u64::from(s <= min) << way;
            min = min.min(s);
        }
        self.plru.victim_among(set, lowest)
    }

    /// The line that would be displaced if `la` were inserted now, or
    /// `None` if a free way exists (or `la` is already present).
    #[must_use]
    pub fn would_evict(&self, la: LineAddr) -> Option<(LineAddr, &S)> {
        self.would_evict_scored(la, |_, _| 0)
    }

    /// Like [`CacheArray::would_evict`] but with the state-aware score.
    #[must_use]
    pub fn would_evict_scored(
        &self,
        la: LineAddr,
        score: impl Fn(LineAddr, &S) -> u32,
    ) -> Option<(LineAddr, &S)> {
        self.victim_scored(la, score).map(|w| (self.tag(w), self.meta(w)))
    }

    /// [`CacheArray::would_evict_scored`] as a way handle, for callers that
    /// go on to [`CacheArray::invalidate_way`] the victim themselves.
    #[must_use]
    pub fn victim_scored(&self, la: LineAddr, score: impl Fn(LineAddr, &S) -> u32) -> Option<Way> {
        let set = self.set_of(la);
        if self.free_way(set).is_some() {
            return None;
        }
        self.scored_victim(set, la, &score).map(|way| Way(self.slots(set).start + way))
    }

    /// Removes `la`, returning its metadata if it was present.
    pub fn invalidate(&mut self, la: LineAddr) -> Option<S> {
        self.lookup(la).map(|w| self.invalidate_way(w))
    }

    /// Removes every line. Like [`CacheArray::invalidate`], leaves the
    /// replacement bits alone.
    pub fn invalidate_all(&mut self) {
        let sets = self.heads.chunks_exact_mut(1 << self.head_shift);
        for (head, meta) in sets.zip(self.meta.chunks_exact_mut(self.ways)) {
            let mut ways = std::mem::take(&mut head[0]);
            while ways != 0 {
                meta[ways.trailing_zeros() as usize] = None;
                ways &= ways - 1;
            }
        }
        self.len = 0;
    }

    /// Whether the set that `la` maps to has no free way.
    #[must_use]
    pub fn set_is_full(&self, la: LineAddr) -> bool {
        self.free_way(self.set_of(la)).is_none()
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line is valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all valid lines in set/way order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        lines(&self.tags, &self.meta)
    }

    /// Iterates over the valid lines of the set `la` maps to, in way order.
    pub fn iter_set(&self, la: LineAddr) -> impl Iterator<Item = (LineAddr, &S)> {
        let slots = self.slots(self.set_of(la));
        lines(&self.tags[slots.clone()], &self.meta[slots])
    }

    /// Folds the complete array state — every valid line *with its slot*
    /// plus the Tree-PLRU direction bits — into `h`.
    ///
    /// Slot indexes and replacement bits are included because they decide
    /// future victims: two arrays with identical contents but different
    /// placement or recency can evict different lines later, so a state
    /// fingerprint that merged them would be unsound for model checking.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H)
    where
        S: std::hash::Hash,
    {
        use std::hash::Hash;
        for (slot, (&tag, meta)) in self.tags.iter().zip(&self.meta).enumerate() {
            if let Some(meta) = meta {
                (slot, LineAddr(tag), meta).hash(h);
            }
        }
        self.plru.hash_state(h);
    }
}

/// The one-byte fingerprint that a [`CacheArray`] keeps per way and tests
/// before it compares a tag: the top byte of the line number times an odd
/// 64-bit constant (Fibonacci hashing), so every bit of the line takes
/// part. Lines that share it cost a lookup one extra tag compare and never
/// a wrong way. Public so that tests can build colliding tags.
///
/// # Examples
///
/// ```
/// use hsc_mem::{tag_fingerprint, LineAddr};
///
/// let print = tag_fingerprint(LineAddr(0));
/// let twin = (1..).map(LineAddr).find(|&la| tag_fingerprint(la) == print);
/// assert!(twin.is_some());
/// ```
#[must_use]
pub fn tag_fingerprint(la: LineAddr) -> u8 {
    (la.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
}

/// Bit `i` set iff byte `i` of `x` is zero. Exact: no carry crosses a
/// byte, so a zero byte does not flag its neighbour.
fn zero_bytes(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Bit 7 of each byte is set iff the byte is zero.
    let high = !(((x & LOW7) + LOW7) | x | LOW7);
    // Gathers bit `8i + 7` to bit `56 + i`; no two partial products meet.
    (high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The valid lines among parallel tag/metadata slices, in slot order.
fn lines<'a, S>(tags: &'a [u64], meta: &'a [Option<S>]) -> impl Iterator<Item = (LineAddr, &'a S)> {
    tags.iter().zip(meta).filter_map(|(&tag, meta)| meta.as_ref().map(|m| (LineAddr(tag), m)))
}

#[cold]
fn double_insert(la: LineAddr) -> ! {
    panic!("insert of already-present line {la} (protocol bug)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray<u32> {
        // 1 set × 2 ways.
        CacheArray::new(CacheGeometry::new(128, 2))
    }

    #[test]
    fn geometry_derives_sets_and_lines() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 8); // the paper's L2
        assert_eq!(g.lines(), 32768);
        assert_eq!(g.sets(), 4096);
        assert_eq!(CacheGeometry::from_lines(1024, 32).sets(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_odd_ways() {
        let _ = CacheGeometry::new(1024, 3);
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut c = tiny();
        assert!(matches!(c.insert(LineAddr(7), 70), InsertOutcome::Inserted));
        assert_eq!(c.get(LineAddr(7)), Some(&70));
        *c.get_mut(LineAddr(7)).unwrap() = 71;
        assert_eq!(c.get(LineAddr(7)), Some(&71));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn missing_line_is_none() {
        let c = tiny();
        assert_eq!(c.get(LineAddr(1)), None);
        assert!(!c.contains(LineAddr(1)));
    }

    #[test]
    fn full_set_evicts_plru_victim() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2); // same set (1 set total)
        c.touch(LineAddr(0)); // 2 is now colder
        match c.insert(LineAddr(4), 4) {
            InsertOutcome::Evicted(ev) => {
                assert_eq!(ev.tag, LineAddr(2));
                assert_eq!(ev.meta, 2);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn scored_insert_prefers_low_score_victim() {
        let mut c = tiny();
        c.insert(LineAddr(0), 100); // high score = keep
        c.insert(LineAddr(2), 1); // low score = evict first
        c.touch(LineAddr(2)); // PLRU alone would evict 0
        match c.insert_scored(LineAddr(4), 5, |_, &m| m) {
            InsertOutcome::Evicted(ev) => assert_eq!(ev.tag, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn would_evict_predicts_without_mutating() {
        let mut c = tiny();
        assert_eq!(c.would_evict(LineAddr(0)), None, "free ways, no eviction");
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        let (tag, _) = c.would_evict(LineAddr(4)).unwrap();
        match c.insert(LineAddr(4), 4) {
            InsertOutcome::Evicted(ev) => assert_eq!(ev.tag, tag),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn would_evict_of_present_line_is_none() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        assert_eq!(c.would_evict(LineAddr(0)), None);
    }

    #[test]
    fn invalidate_frees_the_way() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        assert_eq!(c.invalidate(LineAddr(0)), Some(0));
        assert_eq!(c.invalidate(LineAddr(0)), None);
        assert!(matches!(c.insert(LineAddr(4), 4), InsertOutcome::Inserted));
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(0), 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(256, 2)); // 2 sets
        c.insert(LineAddr(0), 0); // set 0
        c.insert(LineAddr(1), 1); // set 1
        c.insert(LineAddr(2), 2); // set 0
        assert!(!c.set_is_full(LineAddr(1)));
        assert!(c.set_is_full(LineAddr(0)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn iter_visits_all_valid_lines() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(256, 2));
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(1), 11);
        c.insert(LineAddr(3), 13);
        let mut seen: Vec<(LineAddr, u32)> = c.iter().map(|(t, &m)| (t, m)).collect();
        seen.sort_by_key(|&(t, _)| t);
        assert_eq!(seen, vec![(LineAddr(0), 10), (LineAddr(1), 11), (LineAddr(3), 13)]);
    }

    #[test]
    fn way_handles_reach_the_line_without_a_second_scan() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(256, 2)); // 2 sets
        c.insert(LineAddr(1), 11);
        c.insert(LineAddr(3), 13);
        assert_eq!(c.lookup(LineAddr(5)), None);
        let way = c.lookup(LineAddr(3)).unwrap();
        assert_eq!(c.tag(way), LineAddr(3));
        *c.meta_mut(way) += 1;
        assert_eq!(c.meta(way), &14);
        c.touch_way(way); // 1 is now the colder line of set 1
        assert_eq!(c.would_evict(LineAddr(5)).map(|(t, _)| t), Some(LineAddr(1)));
        assert_eq!(c.invalidate_way(way), 14);
        assert!(!c.contains(LineAddr(3)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outlived its line")]
    fn stale_way_handle_panics() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        let way = c.lookup(LineAddr(0)).unwrap();
        c.invalidate(LineAddr(0));
        let _ = c.meta(way);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outlived its line")]
    fn tag_of_a_freed_way_panics_in_debug_builds() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        let way = c.lookup(LineAddr(0)).unwrap();
        c.invalidate(LineAddr(0));
        let _ = c.tag(way);
    }

    #[test]
    fn a_freed_way_does_not_match_its_stale_tag() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.invalidate(LineAddr(0));
        assert!(!c.contains(LineAddr(0)));
        assert!(matches!(c.insert(LineAddr(0), 1), InsertOutcome::Inserted));
    }

    #[test]
    fn victim_scored_is_would_evict_scored_by_handle() {
        let mut c = tiny();
        assert_eq!(c.victim_scored(LineAddr(4), |_, &m| m), None, "free way");
        c.insert(LineAddr(0), 100);
        c.insert(LineAddr(2), 1);
        assert_eq!(c.victim_scored(LineAddr(0), |_, &m| m), None, "already present");
        let way = c.victim_scored(LineAddr(4), |_, &m| m).unwrap();
        assert_eq!((c.tag(way), *c.meta(way)), (LineAddr(2), 1));
    }

    fn digest(c: &CacheArray<u32>) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        c.hash_state(&mut h);
        h.finish()
    }

    #[test]
    fn invalidate_all_empties_the_array_and_keeps_the_replacement_bits() {
        let filled = || {
            let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(512, 4));
            for l in 0..8 {
                c.insert(LineAddr(l), l as u32);
            }
            c.touch(LineAddr(2));
            c
        };
        let mut all = filled();
        all.invalidate_all();
        assert!(all.is_empty());
        assert_eq!(all.iter().count(), 0);
        assert!(!all.set_is_full(LineAddr(0)));
        // Same state as dropping the lines one by one — which `invalidate`
        // does without touching recency — and not that of a fresh array.
        let mut one_by_one = filled();
        for l in 0..8 {
            one_by_one.invalidate(LineAddr(l));
        }
        assert_eq!(digest(&all), digest(&one_by_one));
        assert_ne!(digest(&all), digest(&CacheArray::new(CacheGeometry::new(512, 4))));
    }

    #[test]
    fn iter_set_walks_one_set_in_way_order() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(512, 4)); // 2 sets
        for l in [1, 3, 0, 5] {
            c.insert(LineAddr(l), l as u32 * 10);
        }
        c.invalidate(LineAddr(3));
        let set1: Vec<(LineAddr, u32)> = c.iter_set(LineAddr(7)).map(|(t, &m)| (t, m)).collect();
        assert_eq!(set1, vec![(LineAddr(1), 10), (LineAddr(5), 50)]);
    }

    #[test]
    fn zero_bytes_flags_exactly_the_zero_bytes() {
        // Every word whose bytes are drawn from values either side of the
        // carry boundaries.
        let values = [0x00u64, 0x01, 0x80, 0xff];
        for pick in 0..4u32.pow(8) {
            let (mut x, mut want) = (0u64, 0u64);
            for byte in 0..8 {
                let v = values[(pick / 4u32.pow(byte) % 4) as usize];
                x |= v << (8 * byte);
                want |= u64::from(v == 0) << byte;
            }
            assert_eq!(zero_bytes(x), want, "{x:#018x}");
        }
    }

    #[test]
    fn eviction_churn_maintains_len() {
        let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(1024, 4)); // 4 sets x 4 ways
        for i in 0..1000u64 {
            if !c.contains(LineAddr(i % 64)) {
                c.insert(LineAddr(i % 64), i);
            }
            assert!(c.len() <= 16);
        }
        assert_eq!(c.len(), 16);
    }
}

//! Differential oracle for the tag-major `CacheArray` and the packed
//! `TreePlru`.
//!
//! *Which* way a fill lands in and *which* line a full set gives up are
//! simulated behaviour: they decide every later miss, probe and write-back.
//! The reference model below is the array as it was first written — one
//! `Vec<Option<(tag, meta)>>`, a `Vec<bool>` of Tree-PLRU direction bits
//! walked root to leaf, `%` for the set index — kept here, and only here,
//! so the real structures can change layout without changing a victim.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use hsc_mem::{tag_fingerprint, CacheArray, CacheGeometry, InsertOutcome, LineAddr, TreePlru};
use hsc_sim::DetRng;

/// Tree-PLRU over a bit vector: `sets * (ways - 1)` direction bits,
/// `false` = left, `true` = right.
struct RefPlru {
    ways: usize,
    bits: Vec<bool>,
}

impl RefPlru {
    fn new(sets: usize, ways: usize) -> Self {
        RefPlru { ways, bits: vec![false; sets * (ways - 1)] }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let (mut node, mut lo, mut hi) = (0, 0, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = way >= mid;
            self.bits[set * (self.ways - 1) + node] = !right;
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    fn victim_among(&self, set: usize, candidates: &[bool]) -> Option<usize> {
        if !candidates.iter().any(|&c| c) {
            return None;
        }
        let (mut node, mut lo, mut hi) = (0, 0, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let prefer_right = self.bits[set * (self.ways - 1) + node];
            let right_has = candidates[mid..hi].iter().any(|&c| c);
            let left_has = candidates[lo..mid].iter().any(|&c| c);
            let go_right = if prefer_right { right_has } else { !left_has };
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// The reference array: lowest-index free way, else the Tree-PLRU victim
/// among the minimum-score ways; invalidation leaves the PLRU bits alone.
struct RefArray {
    sets: usize,
    ways: usize,
    lines: Vec<Option<(u64, u32)>>,
    plru: RefPlru,
}

impl RefArray {
    fn new(sets: usize, ways: usize) -> Self {
        RefArray { sets, ways, lines: vec![None; sets * ways], plru: RefPlru::new(sets, ways) }
    }

    fn set_of(&self, la: u64) -> usize {
        (la % self.sets as u64) as usize
    }

    fn set(&self, la: u64) -> &[Option<(u64, u32)>] {
        let base = self.set_of(la) * self.ways;
        &self.lines[base..base + self.ways]
    }

    fn slot_of(&self, la: u64) -> Option<usize> {
        let way = self.set(la).iter().position(|l| l.is_some_and(|(t, _)| t == la))?;
        Some(self.set_of(la) * self.ways + way)
    }

    fn set_is_full(&self, la: u64) -> bool {
        self.set(la).iter().all(Option::is_some)
    }

    fn victim_way(&self, la: u64, score: impl Fn(u64, u32) -> u32) -> usize {
        let scores: Vec<u32> =
            self.set(la).iter().map(|l| l.map(|(t, m)| score(t, m)).unwrap()).collect();
        let min = *scores.iter().min().unwrap();
        let mask: Vec<bool> = scores.iter().map(|&s| s == min).collect();
        self.plru.victim_among(self.set_of(la), &mask).unwrap()
    }

    fn would_evict(&self, la: u64, score: impl Fn(u64, u32) -> u32) -> Option<(u64, u32)> {
        if self.slot_of(la).is_some() || !self.set_is_full(la) {
            return None;
        }
        self.set(la)[self.victim_way(la, score)]
    }

    /// `None` = filled a free way; `Some` = the displaced line.
    fn insert(
        &mut self,
        la: u64,
        meta: u32,
        score: impl Fn(u64, u32) -> u32,
    ) -> Option<(u64, u32)> {
        assert!(self.slot_of(la).is_none());
        let way = match self.set(la).iter().position(Option::is_none) {
            Some(free) => free,
            None => self.victim_way(la, score),
        };
        let set = self.set_of(la);
        self.plru.touch(set, way);
        self.lines[set * self.ways + way].replace((la, meta))
    }

    fn touch(&mut self, la: u64) {
        if let Some(slot) = self.slot_of(la) {
            self.plru.touch(slot / self.ways, slot % self.ways);
        }
    }

    fn get_mut(&mut self, la: u64) -> Option<&mut u32> {
        let slot = self.slot_of(la)?;
        self.lines[slot].as_mut().map(|(_, m)| m)
    }

    fn invalidate(&mut self, la: u64) -> Option<u32> {
        let slot = self.slot_of(la)?;
        self.lines[slot].take().map(|(_, m)| m)
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.lines.iter().filter_map(|l| *l)
    }

    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (slot, l) in self.lines.iter().enumerate() {
            if let Some((tag, meta)) = l {
                (slot, LineAddr(*tag), meta).hash(&mut h);
            }
        }
        self.plru.bits.hash(&mut h);
        h.finish()
    }
}

fn digest(arr: &CacheArray<u32>) -> u64 {
    let mut h = DefaultHasher::new();
    arr.hash_state(&mut h);
    h.finish()
}

/// A score with plenty of ties, depending on both tag and metadata.
fn score(tag: u64, meta: u32) -> u32 {
    (tag as u32 ^ meta) % 3
}

fn outcome(out: InsertOutcome<u32>) -> Option<(u64, u32)> {
    match out {
        InsertOutcome::Inserted => None,
        InsertOutcome::Evicted(ev) => Some((ev.tag.0, ev.meta)),
    }
}

/// The first `2 * ways` lines of `set`.
fn adjacent(set: usize, sets: usize, ways: usize) -> Vec<u64> {
    (0..2 * ways as u64).map(|k| k * sets as u64 + set as u64).collect()
}

/// `2 * ways` lines of `set` on two fingerprints, `ways` on each.
fn colliding(set: usize, sets: usize, ways: usize) -> Vec<u64> {
    let line = move |k: u64| k * sets as u64 + set as u64;
    let print = |la: u64| tag_fingerprint(LineAddr(la));
    let first = print(line(0));
    let second = (1..).map(|k| print(line(k))).find(|&p| p != first).unwrap();
    let on = |p: u8| (0..).map(line).filter(move |&la| print(la) == p).take(ways);
    on(first).chain(on(second)).collect()
}

/// Drives the real array and the reference in lock-step and compares
/// every observable after every operation, on the lines that `pool`
/// picks for each set it is given.
fn lock_step(
    sets: usize,
    ways: usize,
    ops: usize,
    seed: u64,
    pool: fn(usize, usize, usize) -> Vec<u64>,
) {
    let mut rng = DetRng::new(seed);
    let mut arr: CacheArray<u32> =
        CacheArray::new(CacheGeometry::from_lines((sets * ways) as u64, ways));
    let mut reference = RefArray::new(sets, ways);
    // Four sets spread over the index range, twice as many tags as ways
    // in each: full sets, evictions and re-fills of freed ways all happen
    // within a few hundred operations whatever the geometry.
    let pools = [0, 1 % sets, sets / 2, sets - 1].map(|set| pool(set, sets, ways));
    for op in 0..ops {
        let k = rng.next_below(2 * ways as u64) as usize;
        let la = pools[rng.next_below(4) as usize][k];
        let ctx = format!("{sets}x{ways} seed {seed} op {op} line {la}");
        match rng.next_below(16) {
            0..=2 if reference.slot_of(la).is_none() => {
                let meta = rng.next_u64() as u32;
                let got = outcome(arr.insert(LineAddr(la), meta));
                assert_eq!(got, reference.insert(la, meta, |_, _| 0), "insert, {ctx}");
            }
            3..=5 if reference.slot_of(la).is_none() => {
                let meta = rng.next_u64() as u32;
                let got = outcome(arr.insert_scored(LineAddr(la), meta, |t, &m| score(t.0, m)));
                assert_eq!(got, reference.insert(la, meta, score), "insert_scored, {ctx}");
            }
            0..=5 => assert!(arr.contains(LineAddr(la)), "contains, {ctx}"),
            6 | 7 => {
                let got = arr.would_evict_scored(LineAddr(la), |t, &m| score(t.0, m));
                let got = got.map(|(t, &m)| (t.0, m));
                assert_eq!(got, reference.would_evict(la, score), "would_evict_scored, {ctx}");
                let by_way = arr.victim_scored(LineAddr(la), |t, &m| score(t.0, m));
                assert_eq!(
                    by_way.map(|w| (arr.tag(w).0, *arr.meta(w))),
                    got,
                    "victim_scored, {ctx}"
                );
                let plain = arr.would_evict(LineAddr(la)).map(|(t, &m)| (t.0, m));
                assert_eq!(plain, reference.would_evict(la, |_, _| 0), "would_evict, {ctx}");
            }
            8 => {
                arr.touch(LineAddr(la));
                reference.touch(la);
            }
            9 => {
                // The by-way form of get + touch.
                let way = arr.lookup(LineAddr(la));
                assert_eq!(
                    way.map(|w| *arr.meta(w)),
                    reference.get_mut(la).copied(),
                    "lookup, {ctx}"
                );
                if let Some(way) = way {
                    assert_eq!(arr.tag(way), LineAddr(la));
                    arr.touch_way(way);
                }
                reference.touch(la);
            }
            10 | 11 => {
                let bump = rng.next_u64() as u32;
                let got = arr.get_mut(LineAddr(la)).map(|m| {
                    *m ^= bump;
                    *m
                });
                let want = reference.get_mut(la).map(|m| {
                    *m ^= bump;
                    *m
                });
                assert_eq!(got, want, "get_mut, {ctx}");
            }
            12 => assert_eq!(
                arr.invalidate(LineAddr(la)),
                reference.invalidate(la),
                "invalidate, {ctx}"
            ),
            13 => {
                // The by-way form of invalidate.
                let got = arr.lookup(LineAddr(la)).map(|w| arr.invalidate_way(w));
                assert_eq!(got, reference.invalidate(la), "invalidate_way, {ctx}");
            }
            14 => assert_eq!(
                arr.set_is_full(LineAddr(la)),
                reference.set_is_full(la),
                "set_is_full, {ctx}"
            ),
            _ if rng.chance(1, 16) => {
                arr.invalidate_all();
                reference.lines.fill(None);
            }
            _ => {
                let got: Vec<(u64, u32)> =
                    arr.iter_set(LineAddr(la)).map(|(t, &m)| (t.0, m)).collect();
                let want: Vec<(u64, u32)> = reference.set(la).iter().filter_map(|l| *l).collect();
                assert_eq!(got, want, "iter_set, {ctx}");
            }
        }
        assert_eq!(arr.len(), reference.iter().count(), "len, {ctx}");
        assert!(arr.iter().map(|(t, &m)| (t.0, m)).eq(reference.iter()), "iter, {ctx}");
        assert_eq!(digest(&arr), reference.digest(), "hash_state, {ctx}");
    }
}

#[test]
fn cache_array_matches_the_reference_model_op_for_op() {
    // sets × ways; the ≥ 10⁵ operations are split so that the debug-build
    // test stays in seconds (the per-op sweep is O(lines)).
    lock_step(1, 2, 30_000, 0xa11a_0001, adjacent);
    lock_step(4, 4, 30_000, 0xa11a_0002, adjacent);
    lock_step(1, 64, 30_000, 0xa11a_0003, adjacent);
    lock_step(64, 32, 12_000, 0xa11a_0004, adjacent);
}

/// A lookup trusts a way's one-byte fingerprint only as far as the full
/// tag compare that follows it. Here the lines of a set share two
/// fingerprints between them, so almost every lookup meets ways whose
/// byte matches and whose tag does not, and stale bytes of freed ways
/// that match too. Inserts, invalidations and `invalidate_all` free and
/// re-fill those ways throughout.
#[test]
fn cache_array_matches_the_reference_model_when_fingerprints_collide() {
    lock_step(16, 8, 20_000, 0xa11a_0008, colliding);
    lock_step(8, 16, 20_000, 0xa11a_0010, colliding);
    lock_step(4, 32, 20_000, 0xa11a_0020, colliding);
    lock_step(2, 64, 20_000, 0xa11a_0040, colliding);
}

/// Hashes a `[bool]` the way the array's fingerprint used to.
fn bool_digest(bits: &[bool]) -> u64 {
    let mut h = DefaultHasher::new();
    bits.hash(&mut h);
    h.finish()
}

/// Packed `touch`/`victim_among` against the bit-vector walk: every way
/// touched from a few hundred random tree states, every victim compared
/// under a few hundred random candidate masks, and the fingerprint fed
/// the same bit sequence — for every supported associativity.
#[test]
fn packed_plru_matches_the_bit_vector_walk() {
    for ways in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut rng = DetRng::new(0x9140 + ways as u64);
        let mut packed = TreePlru::new(3, ways);
        let mut reference = RefPlru::new(3, ways);
        let full = u64::MAX >> (64 - ways);
        for round in 0..300 {
            // Every way, from the state the previous rounds left behind.
            let mut order: Vec<usize> = (0..ways).collect();
            rng.shuffle(&mut order);
            for &way in &order {
                let set = rng.next_below(3) as usize;
                packed.touch(set, way);
                reference.touch(set, way);
                for set in 0..3 {
                    let all = vec![true; ways];
                    assert_eq!(
                        Some(packed.victim(set)),
                        reference.victim_among(set, &all),
                        "victim, {ways} ways round {round}"
                    );
                }
            }
            // Sparse, dense and uniform masks, including the empty one.
            let mask = match round % 3 {
                0 => rng.next_u64() & full,
                1 => rng.next_u64() & rng.next_u64() & rng.next_u64() & full,
                _ => (rng.next_u64() | rng.next_u64()) & full,
            };
            let as_bools: Vec<bool> = (0..ways).map(|w| mask >> w & 1 != 0).collect();
            for set in 0..3 {
                assert_eq!(
                    packed.victim_among(set, mask),
                    reference.victim_among(set, &as_bools),
                    "victim_among {mask:#x}, {ways} ways round {round}"
                );
            }
            let mut h = DefaultHasher::new();
            packed.hash_state(&mut h);
            assert_eq!(h.finish(), bool_digest(&reference.bits), "fingerprint, {ways} ways");
        }
    }
}

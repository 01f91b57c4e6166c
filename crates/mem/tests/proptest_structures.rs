//! Randomized tests of the cache data structures against reference
//! models: `CacheArray` vs a naive map-of-sets, `TreePlru` invariants,
//! `Mshr` bookkeeping, `LineMap` vs `BTreeMap`, and `LineData` atomics vs
//! plain arithmetic.
//!
//! Scenarios are generated with the in-tree `DetRng` (seeded per case) so
//! the tests need no external dependency and every failure names the seed
//! that reproduces it.

use std::collections::{BTreeMap, BTreeSet};

use hsc_mem::{
    Addr, AtomicKind, CacheArray, CacheGeometry, InsertOutcome, LineAddr, LineData, LineMap, Mshr,
    TreePlru, VictimBuffer,
};
use hsc_sim::{DetRng, Fnv1a};

const CASES: u64 = 48;

/// The array never exceeds its capacity, never duplicates a tag, keeps
/// every resident line in its home set, and evictions only happen from
/// full sets.
#[test]
fn cache_array_structural_invariants() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xa77a1 ^ case);
        // 4 sets × 4 ways over a 64-line address space.
        let mut arr: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1024, 4));
        let sets = 4u64;
        let ways = 4usize;
        // Reference: which lines are resident.
        let mut resident: BTreeMap<u64, u32> = BTreeMap::new();
        for _ in 0..rng.next_below(200) {
            let l = rng.next_below(64);
            match rng.next_below(4) {
                0 => {
                    if resident.contains_key(&l) {
                        continue; // double-insert is a (tested) panic
                    }
                    let v = rng.next_u64() as u32;
                    match arr.insert(LineAddr(l), v) {
                        InsertOutcome::Inserted => {
                            // There must have been room in the home set.
                            let in_set = resident.keys().filter(|&&k| k % sets == l % sets).count();
                            assert!(in_set < ways, "insert without eviction in a full set");
                        }
                        InsertOutcome::Evicted(ev) => {
                            assert_eq!(ev.tag.0 % sets, l % sets, "victim from a foreign set");
                            let stored = resident.remove(&ev.tag.0);
                            assert_eq!(stored, Some(ev.meta), "evicted meta mismatch");
                        }
                    }
                    resident.insert(l, v);
                }
                1 => arr.touch(LineAddr(l)),
                2 => {
                    let got = arr.invalidate(LineAddr(l));
                    assert_eq!(got, resident.remove(&l));
                }
                _ => {
                    assert_eq!(arr.get(LineAddr(l)).copied(), resident.get(&l).copied());
                }
            }
            assert_eq!(arr.len(), resident.len());
        }
        // Full sweep at the end: contents agree exactly.
        let from_arr: BTreeMap<u64, u32> = arr.iter().map(|(t, &m)| (t.0, m)).collect();
        assert_eq!(from_arr, resident, "case seed {case}");
    }
}

/// Tree-PLRU: the victim is always a valid way, and never the way touched
/// immediately before (for ways > 1).
#[test]
fn tree_plru_victim_validity() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x915 ^ case.wrapping_mul(7));
        let ways = 1usize << (1 + rng.next_below(5) as u32);
        let mut p = TreePlru::new(2, ways);
        for _ in 0..rng.next_below(100) {
            let w = rng.next_below(32) as usize % ways;
            p.touch(0, w);
            let v = p.victim(0);
            assert!(v < ways);
            assert_ne!(v, w, "victim equals the most recently touched way");
        }
        // The untouched set still behaves.
        assert!(p.victim(1) < ways);
    }
}

/// victim_among always picks a candidate (when any exists).
#[test]
fn tree_plru_victim_among_respects_mask() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x3a5c ^ case);
        let mut p = TreePlru::new(1, 4);
        for _ in 0..rng.next_below(32) {
            p.touch(0, rng.next_below(4) as usize);
        }
        let mask = rng.next_below(16);
        match p.victim_among(0, mask) {
            Some(v) => assert!(mask >> v & 1 != 0, "victim outside the candidate mask"),
            None => assert_eq!(mask, 0),
        }
    }
}

/// MSHR allocate/remove bookkeeping matches a reference set and the
/// capacity bound holds.
#[test]
fn mshr_tracks_a_reference_set() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x3511 ^ case);
        let mut m: Mshr<u64> = Mshr::new(8);
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.next_below(100) {
            let line = rng.next_below(16);
            let alloc = rng.chance(1, 2);
            if alloc && !reference.contains(&line) {
                match m.alloc(LineAddr(line), line * 10) {
                    Ok(_) => {
                        assert!(reference.len() < 8);
                        reference.insert(line);
                    }
                    Err(_) => assert_eq!(reference.len(), 8, "spurious MshrFullError"),
                }
            } else if !alloc {
                let got = m.remove(LineAddr(line));
                assert_eq!(got.is_some(), reference.remove(&line));
            }
            assert_eq!(m.len(), reference.len());
            assert_eq!(m.is_full(), reference.len() == 8);
        }
    }
}

/// `LineMap` answers every call as `BTreeMap<LineAddr, _>` does, iterates
/// in the same order and feeds a hasher the same stream — on both sides
/// of the 8-entry boundary between its linear scan and its bisection.
#[test]
fn line_map_matches_btreemap() {
    use std::hash::{Hash, Hasher};
    fn fnv(v: &impl Hash) -> u64 {
        let mut h = Fnv1a::new();
        v.hash(&mut h);
        h.finish()
    }
    for case in 0..CASES {
        let seed = 0x11ae ^ case;
        let mut rng = DetRng::new(seed);
        // Few distinct lines keep the map in the scan, many push it over.
        let span = if case % 2 == 0 { 8 } else { 40 };
        let mut m: LineMap<u32> = LineMap::new();
        let mut reference: BTreeMap<LineAddr, u32> = BTreeMap::new();
        let mut widest = 0;
        for step in 0..300 {
            let la = LineAddr(rng.next_below(span) * 3);
            let v = rng.next_u64() as u32;
            let at = format!("seed {seed:#x} step {step} line {la}");
            match rng.next_below(6) {
                0 | 1 => assert_eq!(m.insert(la, v), reference.insert(la, v), "insert, {at}"),
                2 => assert_eq!(m.remove(la), reference.remove(&la), "remove, {at}"),
                3 => {
                    let got = *m.get_or_insert_with(la, || v);
                    assert_eq!(got, *reference.entry(la).or_insert(v), "get_or_insert_with, {at}");
                }
                4 => {
                    assert_eq!(m.get(la), reference.get(&la), "get, {at}");
                    assert_eq!(m.contains_key(la), reference.contains_key(&la), "{at}");
                }
                _ => {
                    if let Some(x) = m.get_mut(la) {
                        *x ^= v;
                    }
                    if let Some(x) = reference.get_mut(&la) {
                        *x ^= v;
                    }
                }
            }
            assert_eq!(m.len(), reference.len(), "len, {at}");
            assert_eq!(m.is_empty(), reference.is_empty(), "{at}");
            assert!(m.iter().eq(reference.iter().map(|(&k, v)| (k, v))), "iter order, {at}");
            assert!(m.keys().eq(reference.keys().copied()), "keys, {at}");
            assert_eq!(fnv(&m), fnv(&reference), "hash stream, {at}");
            widest = widest.max(m.len());
        }
        assert_eq!(widest > 8, span > 8, "seed {seed:#x}: wrong side of the scan/bisect boundary");

        // `retain` keeps what a filtered rebuild keeps, edits included.
        m.retain(|la, v| {
            *v = v.wrapping_add(1);
            la.0 % 2 == 0
        });
        reference.retain(|la, v| {
            *v = v.wrapping_add(1);
            la.0 % 2 == 0
        });
        assert!(m.iter().eq(reference.iter().map(|(&k, v)| (k, v))), "retain, seed {seed:#x}");
    }
    // A set of lines hashes like the `BTreeSet` it replaces.
    let lines = [LineAddr(9), LineAddr(2), LineAddr(5)];
    let mut set: LineMap<()> = LineMap::new();
    for la in lines {
        set.insert(la, ());
    }
    assert_eq!(fnv(&set), fnv(&BTreeSet::from(lines)));
}

/// Atomics on line data agree with plain u64 arithmetic.
#[test]
fn line_atomics_match_scalar_semantics() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xa70 ^ case);
        let init = rng.next_u64();
        let mut line = LineData::zeroed();
        let mut reference = [0u64; 8];
        for (w, r) in reference.iter_mut().enumerate() {
            line.set_word(w, init ^ w as u64);
            *r = init ^ w as u64;
        }
        for _ in 0..rng.next_below(50) {
            let w = rng.next_below(8) as usize;
            let operand = rng.next_u64();
            let op = match rng.next_below(8) {
                0 => AtomicKind::FetchAdd(operand),
                1 => AtomicKind::Exchange(operand),
                2 => AtomicKind::CompareSwap { expect: reference[w], new: operand },
                3 => AtomicKind::CompareSwap { expect: operand, new: 0 },
                4 => AtomicKind::FetchMax(operand),
                5 => AtomicKind::FetchMin(operand),
                6 => AtomicKind::FetchAnd(operand),
                _ => AtomicKind::FetchOr(operand),
            };
            let old = line.apply_atomic(Addr(w as u64 * 8), op);
            assert_eq!(old, reference[w], "atomic returned a wrong old value");
            reference[w] = op.next(reference[w]);
            assert_eq!(line.word(w), reference[w]);
        }
    }
}

/// Victim buffer: park/probe/release sequences never lose dirty data.
#[test]
fn victim_buffer_never_loses_dirty_data() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xb0ffe4 ^ case);
        let mut vb = VictimBuffer::new();
        let mut parked: BTreeMap<u64, bool> = BTreeMap::new();
        for _ in 0..rng.next_below(60) {
            let line = rng.next_below(8);
            let la = LineAddr(line);
            match rng.next_below(4) {
                0 => {
                    parked.entry(line).or_insert_with(|| {
                        let mut d = LineData::zeroed();
                        d.set_word(0, line + 100);
                        vb.park(la, d, true);
                        true
                    });
                }
                1 => {
                    // Downgrade: dirty data must still be readable.
                    vb.downgrade(la);
                    if let Some(dirty) = parked.get_mut(&line) {
                        *dirty = false;
                        let e = vb.get(la).expect("entry must survive a downgrade");
                        assert_eq!(e.data.word(0), line + 100);
                    }
                }
                _ => {
                    // A victim ack or an invalidating probe.
                    let got = vb.release(la);
                    assert_eq!(got.is_some(), parked.remove(&line).is_some());
                }
            }
            assert_eq!(vb.len(), parked.len());
        }
    }
}

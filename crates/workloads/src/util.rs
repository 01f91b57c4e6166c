//! Shared building blocks for the CHAI-like benchmark programs.

use std::fmt;

use hsc_cluster::{CpuOp, GpuOp};
use hsc_mem::{Addr, AtomicKind};

/// What a workload's run touches of memory, as named regions: a
/// supertrait of [`Workload`](crate::Workload), implemented by each CHAI
/// workload's one `memory_map!` table.
/// [`run_workload_observed`](crate::run_workload_observed) refuses a map
/// with an [`overlap`] before it builds anything.
pub trait MemoryMap {
    /// Every region the run touches, sized from the workload's fields.
    fn memory_map(&self) -> Vec<Region>;
}

/// One named region of a workload's memory: the `bytes` bytes from
/// `base` on that the run really touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// The region's name in its workload's memory map.
    pub name: &'static str,
    /// First byte.
    pub base: Addr,
    /// Size in bytes; an empty region overlaps nothing.
    pub bytes: u64,
}

impl Region {
    /// One past the region's last byte.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base.0 + self.bytes
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` [{}, 0x{:x})", self.name, self.base, self.end())
    }
}

/// The first two regions of `map` that share a byte, lower base first,
/// or `None` when every region has its bytes to itself. The answer does
/// not depend on the order `map` lists the regions in.
#[must_use]
pub fn overlap(map: &[Region]) -> Option<(Region, Region)> {
    let mut sorted: Vec<Region> = map.iter().copied().filter(|r| r.bytes > 0).collect();
    sorted.sort_by_key(|r| (r.base, r.end(), r.name));
    // Sorted and disjoint so far, the previous region reaches furthest.
    sorted.windows(2).find(|p| p[1].base.0 < p[0].end()).map(|p| (p[0], p[1]))
}

/// Declares a workload's memory map, the one place its addresses are
/// decided: each region's name, base address and size in bytes, an
/// expression in the workload `$s`'s fields. It defines `MAP`, a `const`
/// whose fields are the base addresses (so an op's address stays a
/// constant plus arithmetic), and implements [`MemoryMap`] from the sizes.
macro_rules! memory_map {
    ($w:ty as $s:ident: $($name:ident at $base:literal, $bytes:expr;)+) => {
        struct Map {
            $($name: hsc_mem::Addr,)+
        }

        const MAP: Map = Map { $($name: hsc_mem::Addr($base),)+ };

        impl $crate::util::MemoryMap for $w {
            fn memory_map(&self) -> Vec<$crate::util::Region> {
                let $s = self;
                let region = |name, base, bytes| $crate::util::Region { name, base, bytes };
                vec![$(region(stringify!($name), MAP.$name, $bytes),)+]
            }
        }
    };
}
pub(crate) use memory_map;

/// Consecutive 64-bit word addresses for a coalesced vector op: lane `l`
/// touches `base + (idx*lanes + l) * 8`, clipped to `total` elements (the
/// last vector op of a loop may be partial).
///
/// # Examples
///
/// ```
/// use hsc_mem::Addr;
/// use hsc_workloads::util::lane_addrs_clipped;
///
/// let a = lane_addrs_clipped(Addr(0x100), 1, 4, 7);
/// assert_eq!(a, [Addr(0x120), Addr(0x128), Addr(0x130)]);
/// ```
#[must_use]
pub fn lane_addrs_clipped(base: Addr, idx: u64, lanes: usize, total: u64) -> Vec<Addr> {
    let start = idx * lanes as u64;
    let end = (start + lanes as u64).min(total);
    (start..end).map(|i| base.word(i)).collect()
}

/// Worker `w`'s share `[lo, hi)` of `n` items dealt to `parts` workers
/// in contiguous runs of `⌈n / parts⌉`, in worker order; the last shares
/// may be short or empty.
///
/// # Examples
///
/// ```
/// use hsc_workloads::util::share;
///
/// let shares: Vec<_> = (0..3).map(|w| share(7, 3, w)).collect();
/// assert_eq!(shares, [(0, 3), (3, 6), (6, 7)]);
/// ```
#[must_use]
pub fn share(n: u64, parts: u64, w: u64) -> (u64, u64) {
    let per = n.div_ceil(parts);
    ((w * per).min(n), ((w + 1) * per).min(n))
}

/// A CPU-side spin-wait sub-machine: polls a flag word with a compute
/// backoff between polls.
///
/// Drive it from `CoreProgram::next_op`: feed the previous `last_value`
/// in; it returns the next op to issue until the predicate holds, then
/// `None`.
#[derive(Debug, Clone)]
pub struct CpuSpin {
    addr: Addr,
    backoff: u64,
    awaiting_load: bool,
}

impl CpuSpin {
    /// Spins on the word at `addr` with `backoff` CPU cycles between polls.
    #[must_use]
    pub fn new(addr: Addr, backoff: u64) -> Self {
        CpuSpin { addr, backoff, awaiting_load: false }
    }

    /// Advances the spin. Returns the op to issue next, or `None` once
    /// `pred` held for a polled value (the spin is then reusable only
    /// after [`CpuSpin::reset`]).
    pub fn step(&mut self, last: Option<u64>, pred: impl Fn(u64) -> bool) -> Option<CpuOp> {
        if self.awaiting_load {
            self.awaiting_load = false;
            if let Some(v) = last {
                if pred(v) {
                    return None;
                }
            }
            if self.backoff > 0 {
                return Some(CpuOp::Compute(self.backoff));
            }
        }
        self.awaiting_load = true;
        Some(CpuOp::Load(self.addr))
    }

    /// Rearms the spin for reuse (e.g. the next frame's flag).
    pub fn reset(&mut self, addr: Addr) {
        self.addr = addr;
        self.awaiting_load = false;
    }
}

/// A GPU-side spin-wait: polls a flag with a system-scope `FetchAdd(0)`
/// (the standard trick for a coherent read on a VI hierarchy) and a
/// compute backoff between polls.
#[derive(Debug, Clone)]
pub struct GpuSpin {
    addr: Addr,
    backoff: u64,
    awaiting_poll: bool,
}

impl GpuSpin {
    /// Spins on the word at `addr` with `backoff` GPU cycles between polls.
    #[must_use]
    pub fn new(addr: Addr, backoff: u64) -> Self {
        GpuSpin { addr, backoff, awaiting_poll: false }
    }

    /// Advances the spin. Returns the next op, or `None` once `pred` held.
    pub fn step(&mut self, last: Option<u64>, pred: impl Fn(u64) -> bool) -> Option<GpuOp> {
        if self.awaiting_poll {
            self.awaiting_poll = false;
            if let Some(v) = last {
                if pred(v) {
                    return None;
                }
            }
            if self.backoff > 0 {
                return Some(GpuOp::Compute(self.backoff));
            }
        }
        self.awaiting_poll = true;
        Some(GpuOp::AtomicSlc(self.addr, AtomicKind::FetchAdd(0)))
    }

    /// Rearms the spin for reuse.
    pub fn reset(&mut self, addr: Addr) {
        self.addr = addr;
        self.awaiting_poll = false;
    }
}

/// The deterministic "pixel" function used by several benchmarks to fill
/// inputs: cheap, irregular, and seed-dependent.
#[must_use]
pub fn synth_value(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 29;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(name: &'static str, base: u64, bytes: u64) -> Region {
        Region { name, base: Addr(base), bytes }
    }

    #[test]
    fn adjacent_regions_are_accepted() {
        let map = [region("a", 0x1000, 0x40), region("b", 0x1040, 8), region("c", 0x1048, 0x38)];
        assert_eq!(overlap(&map), None);
    }

    #[test]
    fn a_one_byte_overlap_is_refused_naming_both_regions() {
        let (input, output) = (region("input", 0x1000, 0x41), region("output", 0x1040, 8));
        assert_eq!(overlap(&[input, output]), Some((input, output)));
        let err = crate::WorkloadError::Layout(input, output).to_string();
        assert_eq!(
            err,
            "memory map: region `input` [0x1000, 0x1041) overlaps `output` [0x1040, 0x1048)"
        );
        // A region inside another, past a third that fits between.
        let map = [region("all", 0, 0x100), region("low", 0x10, 8), region("high", 0xF8, 8)];
        assert_eq!(overlap(&map), Some((map[0], map[1])));
    }

    #[test]
    fn an_empty_region_overlaps_nothing() {
        let map = [region("all", 0x1000, 0x100), region("none", 0x1080, 0), region("b", 0x1100, 8)];
        assert_eq!(overlap(&map), None);
        assert_eq!(overlap(&[region("x", 0x10, 0), region("y", 0x10, 0)]), None);
    }

    #[test]
    fn declaration_order_does_not_matter() {
        let ok = [region("a", 0x100, 0x10), region("b", 0x110, 0x10), region("c", 0x200, 8)];
        let bad = [region("a", 0x100, 0x20), region("b", 0x110, 0x10), region("c", 0x200, 8)];
        // Every permutation of three regions.
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(overlap(&order.map(|i| ok[i])), None, "{order:?}");
            assert_eq!(overlap(&order.map(|i| bad[i])), Some((bad[0], bad[1])), "{order:?}");
        }
    }

    #[test]
    fn lane_addrs_clip_at_total() {
        let a = lane_addrs_clipped(Addr(0), 1, 4, 6);
        assert_eq!(a.len(), 2);
        assert_eq!(a, [Addr(32), Addr(40)]);
        assert!(lane_addrs_clipped(Addr(0), 2, 4, 6).is_empty());
    }

    #[test]
    fn shares_cover_every_item_once_in_worker_order() {
        for n in 0..=40 {
            for parts in 1..=12 {
                let shares: Vec<(u64, u64)> = (0..parts).map(|w| share(n, parts, w)).collect();
                assert_eq!(shares[0].0, 0, "n={n} parts={parts}: the first share starts at 0");
                assert_eq!(
                    shares[parts as usize - 1].1,
                    n,
                    "n={n} parts={parts}: the last ends at n"
                );
                for (w, &(lo, hi)) in shares.iter().enumerate() {
                    assert!(lo <= hi, "n={n} parts={parts}: share {w} is [{lo}, {hi})");
                    if let Some(&(next, _)) = shares.get(w + 1) {
                        assert_eq!(
                            hi,
                            next,
                            "n={n} parts={parts}: share {w} ends where {} starts",
                            w + 1
                        );
                    }
                }
                for item in 0..n {
                    let owners =
                        shares.iter().filter(|&&(lo, hi)| (lo..hi).contains(&item)).count();
                    assert_eq!(owners, 1, "n={n} parts={parts}: item {item} has {owners} owners");
                }
            }
        }
    }

    #[test]
    fn cpu_spin_polls_until_pred() {
        let mut s = CpuSpin::new(Addr(0x10), 5);
        // First call: issue the load.
        assert_eq!(s.step(None, |v| v == 1), Some(CpuOp::Load(Addr(0x10))));
        // Value 0: back off, then reload.
        assert_eq!(s.step(Some(0), |v| v == 1), Some(CpuOp::Compute(5)));
        assert_eq!(s.step(None, |v| v == 1), Some(CpuOp::Load(Addr(0x10))));
        // Value 1: done.
        assert_eq!(s.step(Some(1), |v| v == 1), None);
    }

    #[test]
    fn gpu_spin_uses_slc_atomics() {
        let mut s = GpuSpin::new(Addr(0x20), 10);
        match s.step(None, |v| v > 0) {
            Some(GpuOp::AtomicSlc(a, AtomicKind::FetchAdd(0))) => assert_eq!(a, Addr(0x20)),
            other => panic!("expected SLC poll, got {other:?}"),
        }
        assert_eq!(s.step(Some(0), |v| v > 0), Some(GpuOp::Compute(10)));
        assert!(matches!(s.step(None, |v| v > 0), Some(GpuOp::AtomicSlc(..))));
        assert_eq!(s.step(Some(3), |v| v > 0), None);
    }

    #[test]
    fn synth_value_is_deterministic_and_spread() {
        assert_eq!(synth_value(1, 2), synth_value(1, 2));
        assert_ne!(synth_value(1, 2), synth_value(1, 3));
        assert_ne!(synth_value(1, 2), synth_value(2, 2));
    }
}

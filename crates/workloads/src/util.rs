//! Shared building blocks for the CHAI-like benchmark programs.

use hsc_cluster::{CpuOp, GpuOp};
use hsc_mem::{Addr, AtomicKind};

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

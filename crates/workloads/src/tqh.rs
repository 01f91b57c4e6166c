//! `tqh` — task queue histogram (CHAI).
//!
//! One of the four CHAI benchmarks the paper could **not** get running on
//! its gem5 baseline ("spurious failures in waking CPU threads in the O3
//! CPU implementation"); reimplemented here as an extension. CPU producers
//! enqueue image *blocks* as tasks; GPU consumers claim tasks from a
//! shared queue, scan the block and accumulate into a shared histogram
//! with system-scope atomics — `tq`'s queue handoff fused with `hsti`'s
//! bin contention.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{memory_map, share, synth_value, GpuSpin};
use crate::Workload;

memory_map! { Tqh as w:
    image at 0x0150_0000, w.blocks * w.block_pixels * 8;
    flags at 0x0158_0000, w.blocks * 8;
    bins at 0x015F_0000, w.bins * 8;
    head at 0x015F_8000, 8;
    done at 0x015F_8040, 8; // a line apart from the head
}

/// Configuration of the `tqh` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Tqh {
    /// Number of image blocks (tasks).
    pub blocks: u64,
    /// Pixels (words) per block.
    pub block_pixels: u64,
    /// Histogram bins (shared).
    pub bins: u64,
    /// CPU producer threads.
    pub producers: usize,
    /// GPU consumer wavefronts.
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Tqh {
    fn default() -> Self {
        Tqh { blocks: 64, block_pixels: 128, bins: 32, producers: 4, wavefronts: 16, seed: 97 }
    }
}

impl Tqh {
    fn pixel(&self, b: u64, p: u64) -> u64 {
        synth_value(self.seed ^ b, p)
    }

    fn bin_of(&self, v: u64) -> u64 {
        v % self.bins
    }

    fn pixel_addr(&self, b: u64, p: u64) -> Addr {
        MAP.image.word(b * self.block_pixels + p)
    }

    fn expected_bins(&self) -> Vec<u64> {
        let mut bins = vec![0u64; self.bins as usize];
        for b in 0..self.blocks {
            for p in 0..self.block_pixels {
                bins[self.bin_of(self.pixel(b, p)) as usize] += 1;
            }
        }
        bins
    }
}

/// CPU producer: stages each of its blocks' pixels, then publishes the
/// block's ready flag. (CHAI's tqh producers copy frame blocks into the
/// task pool; the stores model that staging traffic.)
#[derive(Debug, Clone)]
struct Producer {
    bench: Tqh,
    blocks: Vec<u64>,
    bi: usize,
    p: u64,
}

impl CoreProgram for Producer {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        let Some(&b) = self.blocks.get(self.bi) else {
            return CpuOp::Done;
        };
        if self.p < self.bench.block_pixels {
            let a = self.bench.pixel_addr(b, self.p);
            let v = self.bench.pixel(b, self.p);
            self.p += 1;
            return CpuOp::Store(a, v);
        }
        self.bi += 1;
        self.p = 0;
        CpuOp::Store(MAP.flags.word(b), 1)
    }
}

#[derive(Debug, Clone)]
enum GpuState {
    Claim,
    AwaitClaim,
    Spin(u64),
    Acquire(u64),
    Scan { b: u64, p: u64 },
    DrainBins { bins: Vec<u64>, i: usize },
    BumpDone,
    Finished,
}

/// GPU consumer: claims a block, waits for its flag, scans its pixels and
/// accumulates a per-block histogram in registers, then flushes it into
/// the shared bins with one SLC fetch-add per non-empty bin.
#[derive(Debug, Clone)]
struct Consumer {
    bench: Tqh,
    state: GpuState,
    spin: GpuSpin,
}

impl WavefrontProgram for Consumer {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match &mut self.state {
                GpuState::Claim => {
                    self.state = GpuState::AwaitClaim;
                    return GpuOp::AtomicSlc(MAP.head, AtomicKind::FetchAdd(1));
                }
                GpuState::AwaitClaim => {
                    let b = last.expect("claim returns the old head");
                    if b >= self.bench.blocks {
                        self.state = GpuState::Finished;
                        continue;
                    }
                    self.spin.reset(MAP.flags.word(b));
                    self.state = GpuState::Spin(b);
                }
                GpuState::Spin(b) => {
                    let b = *b;
                    if let Some(op) = self.spin.step(last, |v| v == 1) {
                        return op;
                    }
                    self.state = GpuState::Acquire(b);
                }
                GpuState::Acquire(b) => {
                    let b = *b;
                    self.state = GpuState::Scan { b, p: 0 };
                    return GpuOp::Acquire;
                }
                GpuState::Scan { b, p } => {
                    let (b, p0) = (*b, *p);
                    if p0 >= self.bench.block_pixels {
                        // Per-block histogram computed in registers (the
                        // pixel values are the staged deterministic data).
                        let mut bins = vec![0u64; self.bench.bins as usize];
                        for q in 0..self.bench.block_pixels {
                            bins[self.bench.bin_of(self.bench.pixel(b, q)) as usize] += 1;
                        }
                        self.state = GpuState::DrainBins { bins, i: 0 };
                        continue;
                    }
                    let hi = (p0 + 16).min(self.bench.block_pixels);
                    self.state = GpuState::Scan { b, p: hi };
                    return GpuOp::VecLoad((p0..hi).map(|q| self.bench.pixel_addr(b, q)).collect());
                }
                GpuState::DrainBins { bins, i } => {
                    while *i < bins.len() && bins[*i] == 0 {
                        *i += 1;
                    }
                    if *i >= bins.len() {
                        self.state = GpuState::BumpDone;
                        continue;
                    }
                    let bin = *i as u64;
                    let count = bins[*i];
                    *i += 1;
                    return GpuOp::AtomicSlc(MAP.bins.word(bin), AtomicKind::FetchAdd(count));
                }
                GpuState::BumpDone => {
                    self.state = GpuState::Claim;
                    return GpuOp::AtomicSlc(MAP.done, AtomicKind::FetchAdd(1));
                }
                GpuState::Finished => return GpuOp::Done,
            }
        }
    }
}

impl Workload for Tqh {
    fn name(&self) -> &'static str {
        "tqh"
    }

    fn description(&self) -> &'static str {
        "task-queue histogram: CPU-staged blocks claimed by GPU, shared-bin atomics (paper extension)"
    }

    fn build(&self, b: &mut SystemBuilder) {
        for t in 0..self.producers as u64 {
            let (lo, hi) = share(self.blocks, self.producers as u64, t);
            let blocks: Vec<u64> = (lo..hi).collect();
            b.add_cpu_thread(Box::new(Producer { bench: *self, blocks, bi: 0, p: 0 }));
        }
        for _ in 0..self.wavefronts {
            b.add_wavefront(Box::new(Consumer {
                bench: *self,
                state: GpuState::Claim,
                spin: GpuSpin::new(MAP.flags, 200),
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let done = sys.final_word(MAP.done);
        if done != self.blocks {
            return Err(format!("processed {done} blocks, expected {}", self.blocks));
        }
        let expected = self.expected_bins();
        for bin in 0..self.bins {
            let got = sys.final_word(MAP.bins.word(bin));
            if got != expected[bin as usize] {
                return Err(format!("bin {bin}: got {got}, expected {}", expected[bin as usize]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload_on;
    use crate::{run_workload_observed, WorkloadError};
    use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};

    fn small() -> Tqh {
        Tqh { blocks: 12, block_pixels: 48, bins: 8, producers: 2, wavefronts: 4, seed: 5 }
    }

    #[test]
    fn tqh_verifies_on_baseline() {
        let r =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
        assert!(r.stats.get("dir.requests.Atomic") > 0);
    }

    /// 5000 bins reach the queue head: refused by name, before a single
    /// event, instead of failing verification with "bin 4096: got 16".
    #[test]
    fn bins_that_reach_the_queue_head_are_refused_before_the_run() {
        let w = Tqh { bins: 5000, ..small() };
        let run = run_workload_observed(&w, SystemConfig::default(), ObsConfig::off());
        let Err(WorkloadError::Layout(bins, head)) = run.outcome else {
            panic!("expected a layout error, got {:?}", run.outcome);
        };
        assert_eq!((bins.name, head.name), ("bins", "head"));
        assert_eq!(
            WorkloadError::Layout(bins, head).to_string(),
            "memory map: region `bins` [0x15f0000, 0x15f9c40) overlaps `head` [0x15f8000, 0x15f8008)"
        );
        assert!(run.obs.flight.is_empty(), "nothing was delivered");
    }

    #[test]
    fn tqh_verifies_on_tracking_and_llc_wb() {
        let base =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
        let trk = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::sharer_tracking()),
        );
        assert!(trk.probes_sent < base.probes_sent);
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::llc_write_back_l3_on_wt()),
        );
    }
}

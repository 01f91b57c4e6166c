//! `hsti` — histogram with **input partitioning** (CHAI).
//!
//! Every worker — CPU threads and GPU wavefronts alike — scans its own
//! slice of the input but increments the *shared* bin array with
//! system-scope atomics. This is the high-contention collaboration
//! pattern: CPU `lock xadd` lines and GPU SLC atomics ping-pong the same
//! bin lines through the directory.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{lane_addrs_clipped, share, synth_value};
use crate::Workload;

const INPUT_BASE: u64 = 0x0010_0000;
const BINS_BASE: u64 = 0x0020_0000;

/// Configuration of the `hsti` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Hsti {
    /// Total input elements.
    pub elements: u64,
    /// Number of histogram bins.
    pub bins: u64,
    /// CPU threads (≤ 2 × CorePairs).
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// RNG seed for the input.
    pub seed: u64,
}

impl Default for Hsti {
    fn default() -> Self {
        Hsti { elements: 16384, bins: 64, cpu_threads: 8, wavefronts: 16, seed: 11 }
    }
}

impl Hsti {
    fn input(&self, i: u64) -> u64 {
        synth_value(self.seed, i)
    }

    fn bin_of(&self, v: u64) -> u64 {
        v % self.bins
    }

    fn bin_addr(&self, b: u64) -> Addr {
        Addr(BINS_BASE).word(b)
    }

    /// Elements handled by the CPU side (the first half), split among
    /// threads; the GPU takes the second half, split among wavefronts.
    fn cpu_share(&self) -> u64 {
        if self.cpu_threads == 0 {
            0
        } else if self.wavefronts == 0 {
            self.elements
        } else {
            self.elements / 2
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuState {
    NextElement,
    AwaitLoad,
    AwaitAtomic,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Hsti,
    hi: u64,
    i: u64,
    state: CpuState,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuState::AwaitLoad => {
                    let v = last.expect("a load result drives this transition");
                    self.state = CpuState::AwaitAtomic;
                    return CpuOp::Atomic(
                        self.bench.bin_addr(self.bench.bin_of(v)),
                        AtomicKind::FetchAdd(1),
                    );
                }
                CpuState::AwaitAtomic => {
                    // The atomic's old value is irrelevant here.
                    self.state = CpuState::NextElement;
                }
                CpuState::NextElement => {
                    if self.i >= self.hi {
                        return CpuOp::Done;
                    }
                    let a = Addr(INPUT_BASE).word(self.i);
                    self.i += 1;
                    self.state = CpuState::AwaitLoad;
                    return CpuOp::Load(a);
                }
            }
        }
    }
}

impl CpuWorker {
    fn new(bench: Hsti, lo: u64, hi: u64) -> Self {
        CpuWorker { bench, hi, i: lo, state: CpuState::NextElement }
    }
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Hsti,
    hi: u64,
    /// Next vector index within [lo, hi).
    i: u64,
    lanes: usize,
    /// Values loaded by the last vector load, already binned; drained one
    /// atomic at a time.
    pending_bins: Vec<u64>,
    done: bool,
}

impl GpuWorker {
    fn new(bench: Hsti, lo: u64, hi: u64, lanes: usize) -> Self {
        GpuWorker { bench, hi, i: lo, lanes, pending_bins: Vec::new(), done: lo >= hi }
    }
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        if self.done {
            return GpuOp::Done;
        }
        if let Some(bin) = self.pending_bins.pop() {
            return GpuOp::AtomicSlc(self.bench.bin_addr(bin), AtomicKind::FetchAdd(1));
        }
        if self.i >= self.hi {
            self.done = true;
            return GpuOp::Done;
        }
        // The wavefront knows which elements it loads; lane values are
        // deterministic, so the bins can be computed without reading the
        // lane results back (CHAI's kernels bin per-lane in registers).
        let addrs =
            lane_addrs_clipped(Addr(INPUT_BASE), self.i / self.lanes as u64, self.lanes, self.hi);
        let lo = self.i;
        let hi = (self.i + self.lanes as u64).min(self.hi);
        self.i = hi;
        self.pending_bins = (lo..hi).map(|e| self.bench.bin_of(self.bench.input(e))).collect();
        if addrs.is_empty() {
            self.done = true;
            return GpuOp::Done;
        }
        GpuOp::VecLoad(addrs)
    }
}

impl Workload for Hsti {
    fn name(&self) -> &'static str {
        "hsti"
    }

    fn description(&self) -> &'static str {
        "input-partitioned histogram; CPU+GPU atomics contend on shared bins"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.elements).map(|i| (Addr(INPUT_BASE).word(i), self.input(i))));
        let cpu_share = self.cpu_share();
        for t in 0..self.cpu_threads as u64 {
            let (lo, hi) = share(cpu_share, self.cpu_threads as u64, t);
            b.add_cpu_thread(Box::new(CpuWorker::new(*self, lo, hi)));
        }
        let gpu_share = self.elements - cpu_share;
        for w in 0..self.wavefronts as u64 {
            let (lo, hi) = share(gpu_share, self.wavefronts as u64, w);
            b.add_wavefront(Box::new(GpuWorker::new(*self, cpu_share + lo, cpu_share + hi, 16)));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let mut expected = vec![0u64; self.bins as usize];
        for i in 0..self.elements {
            expected[self.bin_of(self.input(i)) as usize] += 1;
        }
        for b in 0..self.bins {
            let got = sys.final_word(self.bin_addr(b));
            if got != expected[b as usize] {
                return Err(format!(
                    "bin {b}: got {got}, expected {} (of {} elements)",
                    expected[b as usize], self.elements
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload_on;
    use hsc_core::{CoherenceConfig, SystemConfig};

    #[test]
    fn hsti_verifies_on_baseline() {
        let w = Hsti { elements: 512, bins: 16, cpu_threads: 4, wavefronts: 4, seed: 3 };
        let r = run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::baseline()));
        assert!(r.probes_sent > 0, "atomics must probe");
        assert!(r.gpu_cycles > 0);
    }

    #[test]
    fn hsti_verifies_on_sharer_tracking() {
        let w = Hsti { elements: 512, bins: 16, cpu_threads: 4, wavefronts: 4, seed: 3 };
        let base = run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::baseline()));
        let trk =
            run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::sharer_tracking()));
        assert!(
            trk.probes_sent < base.probes_sent,
            "tracking must reduce probes ({} vs {})",
            trk.probes_sent,
            base.probes_sent
        );
    }
}

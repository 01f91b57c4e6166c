//! `hsto` — histogram with **output partitioning** (CHAI).
//!
//! Every worker scans the *whole* input (read-only sharing) but owns a
//! private range of bins, so no atomics are needed: counts accumulate in
//! registers and are stored once at the end. This is the low-sharing
//! counterpart of `hsti`: lots of read-shared capacity traffic, almost no
//! write sharing.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};

use crate::util::{lane_addrs_clipped, memory_map, share, synth_value};
use crate::Workload;

memory_map! { Hsto as w:
    input at 0x0040_0000, w.elements * 8;
    bins at 0x0050_0000, w.bins * 8;
}

/// Configuration of the `hsto` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Hsto {
    /// Total input elements.
    pub elements: u64,
    /// Number of histogram bins (partitioned across workers).
    pub bins: u64,
    /// CPU threads.
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Hsto {
    fn default() -> Self {
        Hsto { elements: 16384, bins: 96, cpu_threads: 8, wavefronts: 16, seed: 23 }
    }
}

impl Hsto {
    fn input(&self, i: u64) -> u64 {
        synth_value(self.seed, i)
    }

    fn bin_of(&self, v: u64) -> u64 {
        v % self.bins
    }

    fn workers(&self) -> u64 {
        (self.cpu_threads + self.wavefronts) as u64
    }

    fn count_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut counts = vec![0u64; (hi - lo) as usize];
        for i in 0..self.elements {
            let b = self.bin_of(self.input(i));
            if (lo..hi).contains(&b) {
                counts[(b - lo) as usize] += 1;
            }
        }
        counts
    }
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Hsto,
    bin_lo: u64,
    bin_hi: u64,
    i: u64,
    counts: Vec<u64>,
    store_idx: u64,
    scanning: bool,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        if self.scanning {
            if let Some(v) = last {
                let b = self.bench.bin_of(v);
                if (self.bin_lo..self.bin_hi).contains(&b) {
                    self.counts[(b - self.bin_lo) as usize] += 1;
                }
            }
            if self.i < self.bench.elements {
                let a = MAP.input.word(self.i);
                self.i += 1;
                return CpuOp::Load(a);
            }
            self.scanning = false;
        }
        // Store the privately accumulated counts.
        if self.store_idx < self.bin_hi - self.bin_lo {
            let b = self.bin_lo + self.store_idx;
            let v = self.counts[self.store_idx as usize];
            self.store_idx += 1;
            return CpuOp::Store(MAP.bins.word(b), v);
        }
        CpuOp::Done
    }
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Hsto,
    bin_lo: u64,
    bin_hi: u64,
    i: u64,
    stored: bool,
    released: bool,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        if self.i < self.bench.elements {
            let addrs = lane_addrs_clipped(MAP.input, self.i / 16, 16, self.bench.elements);
            self.i = (self.i + 16).min(self.bench.elements);
            return GpuOp::VecLoad(addrs);
        }
        if !self.stored {
            self.stored = true;
            if self.bin_lo >= self.bin_hi {
                return GpuOp::Done;
            }
            // Counts were accumulated in registers; one vector store.
            let counts = self.bench.count_range(self.bin_lo, self.bin_hi);
            let stores = (self.bin_lo..self.bin_hi)
                .map(|b| (MAP.bins.word(b), counts[(b - self.bin_lo) as usize]))
                .collect();
            return GpuOp::VecStore(stores);
        }
        if !self.released {
            self.released = true;
            return GpuOp::Release; // kernel-end release (DESIGN.md decision 9)
        }
        GpuOp::Done
    }
}

impl Workload for Hsto {
    fn name(&self) -> &'static str {
        "hsto"
    }

    fn description(&self) -> &'static str {
        "output-partitioned histogram: whole input read-shared, private bins"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.elements).map(|i| (MAP.input.word(i), self.input(i))));
        for t in 0..self.cpu_threads as u64 {
            let (lo, hi) = share(self.bins, self.workers(), t);
            b.add_cpu_thread(Box::new(CpuWorker {
                bench: *self,
                bin_lo: lo,
                bin_hi: hi,
                i: 0,
                counts: vec![0; (hi - lo) as usize],
                store_idx: 0,
                scanning: true,
            }));
        }
        for w in 0..self.wavefronts as u64 {
            let (lo, hi) = share(self.bins, self.workers(), self.cpu_threads as u64 + w);
            b.add_wavefront(Box::new(GpuWorker {
                bench: *self,
                bin_lo: lo,
                bin_hi: hi,
                i: 0,
                stored: false,
                released: false,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let all = self.count_range(0, self.bins);
        for b in 0..self.bins {
            let got = sys.final_word(MAP.bins.word(b));
            if got != all[b as usize] {
                return Err(format!("bin {b}: got {got}, expected {}", all[b as usize]));
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
    fn hsto_verifies_and_is_read_share_heavy() {
        let w = Hsto { elements: 512, bins: 24, cpu_threads: 4, wavefronts: 4, seed: 2 };
        let r = run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::baseline()));
        // Reads dominate: many RdBlk requests, few RdBlkM upgrades.
        let rdblk = r.stats.get("dir.requests.RdBlk");
        let rdblkm = r.stats.get("dir.requests.RdBlkM");
        assert!(rdblk > rdblkm, "read-shared scan should dominate ({rdblk} vs {rdblkm})");
    }
}

//! `bs` — Bézier surface (CHAI).
//!
//! Data-parallel tile split: a small set of control points is read-shared
//! by every worker; each worker computes its own tile of the output
//! surface. Coherence activity is low (the paper's motivating example of
//! a benchmark that barely benefits from the enhancements): the control
//! points settle into Shared everywhere and outputs are private.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::Addr;

use crate::util::share;
use crate::Workload;

const CTRL_BASE: u64 = 0x0030_0000;
const OUT_BASE: u64 = 0x0038_0000;

/// Configuration of the `bs` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Bs {
    /// Number of control points (read-shared).
    pub control_points: u64,
    /// Output surface points.
    pub surface_points: u64,
    /// CPU threads.
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// Compute cycles modelled per output point.
    pub compute_per_point: u64,
    /// Input seed.
    pub seed: u64,
}

impl Default for Bs {
    fn default() -> Self {
        Bs {
            control_points: 16,
            surface_points: 65536,
            cpu_threads: 8,
            wavefronts: 16,
            compute_per_point: 24,
            seed: 5,
        }
    }
}

impl Bs {
    fn ctrl(&self, i: u64) -> u64 {
        crate::util::synth_value(self.seed, i) >> 8
    }

    /// The Bernstein-ish blend our kernel computes: a weighted sum of all
    /// control points, weights depending on the surface index.
    fn expected(&self, p: u64) -> u64 {
        let mut acc = 0u64;
        for c in 0..self.control_points {
            let w = 1 + (p + c) % 7;
            acc = acc.wrapping_add(self.ctrl(c).wrapping_mul(w));
        }
        acc
    }

    fn cpu_share(&self) -> u64 {
        if self.cpu_threads == 0 {
            0
        } else if self.wavefronts == 0 {
            self.surface_points
        } else {
            self.surface_points / 4 // the CPU computes a quarter of the tiles
        }
    }
}

#[derive(Debug, Clone)]
enum CpuPhase {
    /// Reading the `control_points` shared words once.
    LoadCtrl(u64),
    /// Emitting compute+store per assigned point.
    Point {
        next: u64,
        stored: bool,
    },
    Done,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Bs,
    hi: u64,
    phase: CpuPhase,
    lo: u64,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        loop {
            match self.phase {
                CpuPhase::LoadCtrl(i) => {
                    if i >= self.bench.control_points {
                        self.phase = CpuPhase::Point { next: self.lo, stored: true };
                        continue;
                    }
                    self.phase = CpuPhase::LoadCtrl(i + 1);
                    return CpuOp::Load(Addr(CTRL_BASE).word(i));
                }
                CpuPhase::Point { next, stored } => {
                    if next >= self.hi {
                        self.phase = CpuPhase::Done;
                        continue;
                    }
                    if stored {
                        // Model the blend computation, then store.
                        self.phase = CpuPhase::Point { next, stored: false };
                        return CpuOp::Compute(self.bench.compute_per_point);
                    }
                    self.phase = CpuPhase::Point { next: next + 1, stored: true };
                    return CpuOp::Store(Addr(OUT_BASE).word(next), self.bench.expected(next));
                }
                CpuPhase::Done => return CpuOp::Done,
            }
        }
    }
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Bs,
    lo: u64,
    hi: u64,
    i: u64,
    loaded_ctrl: bool,
    computed: bool,
    released: bool,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        if !self.loaded_ctrl {
            self.loaded_ctrl = true;
            if self.lo >= self.hi {
                return GpuOp::Done;
            }
            let n = self.bench.control_points.min(16);
            return GpuOp::VecLoad((0..n).map(|c| Addr(CTRL_BASE).word(c)).collect());
        }
        if self.i >= self.hi {
            if !self.released {
                self.released = true;
                return GpuOp::Release; // kernel-end release (DESIGN.md decision 9)
            }
            return GpuOp::Done;
        }
        if !self.computed {
            self.computed = true;
            return GpuOp::Compute(self.bench.compute_per_point);
        }
        self.computed = false;
        let lo = self.i;
        let hi = (lo + 16).min(self.hi);
        self.i = hi;
        let stores = (lo..hi).map(|p| (Addr(OUT_BASE).word(p), self.bench.expected(p))).collect();
        GpuOp::VecStore(stores)
    }
}

impl Workload for Bs {
    fn name(&self) -> &'static str {
        "bs"
    }

    fn description(&self) -> &'static str {
        "Bézier surface: data-parallel tiles, read-shared control points (low coherence)"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.control_points).map(|c| (Addr(CTRL_BASE).word(c), self.ctrl(c))));
        let cpu_share = self.cpu_share();
        for t in 0..self.cpu_threads as u64 {
            let (lo, hi) = share(cpu_share, self.cpu_threads as u64, t);
            b.add_cpu_thread(Box::new(CpuWorker {
                bench: *self,
                lo,
                hi,
                phase: CpuPhase::LoadCtrl(0),
            }));
        }
        let gpu_share = self.surface_points - cpu_share;
        for w in 0..self.wavefronts as u64 {
            let (lo, hi) = share(gpu_share, self.wavefronts as u64, w);
            let (lo, hi) = (cpu_share + lo, cpu_share + hi);
            b.add_wavefront(Box::new(GpuWorker {
                bench: *self,
                lo,
                hi,
                i: lo,
                loaded_ctrl: false,
                computed: false,
                released: false,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        for p in 0..self.surface_points {
            let got = sys.final_word(Addr(OUT_BASE).word(p));
            let want = self.expected(p);
            if got != want {
                return Err(format!("surface point {p}: got {got}, expected {want}"));
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
    fn bs_verifies_on_baseline_and_tracking() {
        let w = Bs { surface_points: 1024, cpu_threads: 4, wavefronts: 4, ..Bs::default() };
        let base = run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::baseline()));
        let trk =
            run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::owner_tracking()));
        // Data-parallel: tracking helps via elided compulsory-miss probes.
        assert!(trk.probes_sent < base.probes_sent);
    }
}

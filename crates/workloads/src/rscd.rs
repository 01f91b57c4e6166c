//! `rscd` — random sample consensus, **data-parallel** flavour (CHAI).
//!
//! Every iteration evaluates one candidate model against the whole point
//! set; in the data-parallel formulation *all* workers cooperate on each
//! iteration: each scans its slice of the points, adds its partial error
//! into the iteration's error word with a fetch-add, and bumps the
//! iteration's completion counter. The worker that completes the
//! iteration folds the error into the global best with an atomic min.
//!
//! (The paper reports that the original CHAI `rscd` failed verification
//! even on unmodified gem5; this reimplementation verifies.)

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{share, synth_value};
use crate::Workload;

const POINTS_BASE: u64 = 0x0120_0000;
const ERR_BASE: u64 = 0x0128_0000;
const DONE_BASE: u64 = 0x0130_0000;
const BEST_ADDR: u64 = 0x0138_0000;

/// Configuration of the `rscd` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Rscd {
    /// Candidate-model iterations.
    pub iterations: u64,
    /// Data points.
    pub points: u64,
    /// CPU threads.
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Rscd {
    fn default() -> Self {
        Rscd { iterations: 24, points: 8192, cpu_threads: 8, wavefronts: 16, seed: 83 }
    }
}

impl Rscd {
    fn point(&self, p: u64) -> u64 {
        synth_value(self.seed, p)
    }

    /// Per-point error contribution of model `i` — small so sums fit
    /// comfortably.
    fn point_err(&self, i: u64, p: u64) -> u64 {
        (self.point(p) ^ synth_value(self.seed + 1, i)) >> 52
    }

    fn iter_err(&self, i: u64) -> u64 {
        (0..self.points).map(|p| self.point_err(i, p)).sum()
    }

    fn best_err(&self) -> u64 {
        (0..self.iterations).map(|i| self.iter_err(i)).min().unwrap()
    }

    fn workers(&self) -> u64 {
        (self.cpu_threads + self.wavefronts) as u64
    }

    fn err_addr(&self, i: u64) -> Addr {
        Addr(ERR_BASE).word(i * 8)
    }

    fn done_addr(&self, i: u64) -> Addr {
        Addr(DONE_BASE).word(i * 8)
    }

    /// Partial error of worker slice `[lo, hi)` for iteration `i`.
    fn partial(&self, i: u64, lo: u64, hi: u64) -> u64 {
        (lo..hi).map(|p| self.point_err(i, p)).sum()
    }
}

#[derive(Debug, Clone)]
enum CpuState {
    NextIter,
    LoadPoint { i: u64, p: u64 },
    Accumulate { i: u64, p: u64 },
    AddPartial { i: u64 },
    BumpDone { i: u64 },
    AwaitDone { i: u64 },
    ReadErr { i: u64 },
    FoldBest { i: u64 },
    AwaitFold,
    Finished,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Rscd,
    lo: u64,
    hi: u64,
    i: u64,
    acc: u64,
    state: CpuState,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuState::NextIter => {
                    if self.i >= self.bench.iterations {
                        self.state = CpuState::Finished;
                        continue;
                    }
                    self.acc = 0;
                    self.state = CpuState::LoadPoint { i: self.i, p: self.lo };
                }
                CpuState::LoadPoint { i, p } => {
                    if p >= self.hi {
                        self.state = CpuState::AddPartial { i };
                        continue;
                    }
                    self.state = CpuState::Accumulate { i, p };
                    return CpuOp::Load(Addr(POINTS_BASE).word(p));
                }
                CpuState::Accumulate { i, p } => {
                    let v = last.expect("point load result");
                    self.acc =
                        self.acc.wrapping_add((v ^ synth_value(self.bench.seed + 1, i)) >> 52);
                    self.state = CpuState::LoadPoint { i, p: p + 1 };
                }
                CpuState::AddPartial { i } => {
                    let acc = self.acc;
                    self.state = CpuState::BumpDone { i };
                    return CpuOp::Atomic(self.bench.err_addr(i), AtomicKind::FetchAdd(acc));
                }
                CpuState::BumpDone { i } => {
                    self.state = CpuState::AwaitDone { i };
                    return CpuOp::Atomic(self.bench.done_addr(i), AtomicKind::FetchAdd(1));
                }
                CpuState::AwaitDone { i } => {
                    let old = last.expect("done counter old value");
                    if old == self.bench.workers() - 1 {
                        // Last finisher folds the total into the best.
                        self.state = CpuState::ReadErr { i };
                    } else {
                        self.i = i + 1;
                        self.state = CpuState::NextIter;
                    }
                }
                CpuState::ReadErr { i } => {
                    self.state = CpuState::FoldBest { i };
                    return CpuOp::Load(self.bench.err_addr(i));
                }
                CpuState::FoldBest { i } => {
                    let err = last.expect("iteration error");
                    self.i = i + 1;
                    self.state = CpuState::AwaitFold;
                    return CpuOp::Atomic(Addr(BEST_ADDR), AtomicKind::FetchMin(err));
                }
                CpuState::AwaitFold => {
                    self.state = CpuState::NextIter;
                }
                CpuState::Finished => return CpuOp::Done,
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuState {
    NextIter,
    LoadPoints { i: u64, p: u64 },
    AddPartial { i: u64 },
    BumpDone { i: u64 },
    AwaitDone { i: u64 },
    FoldBest { i: u64 },
    AwaitFold,
    Finished,
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Rscd,
    lo: u64,
    hi: u64,
    i: u64,
    state: GpuState,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GpuState::NextIter => {
                    if self.i >= self.bench.iterations {
                        self.state = GpuState::Finished;
                        continue;
                    }
                    self.state = GpuState::LoadPoints { i: self.i, p: self.lo };
                }
                GpuState::LoadPoints { i, p } => {
                    if p >= self.hi {
                        self.state = GpuState::AddPartial { i };
                        continue;
                    }
                    let hi = (p + 16).min(self.hi);
                    self.state = GpuState::LoadPoints { i, p: hi };
                    return GpuOp::VecLoad((p..hi).map(|q| Addr(POINTS_BASE).word(q)).collect());
                }
                GpuState::AddPartial { i } => {
                    // Lane errors reduce in registers; one atomic add.
                    let partial = self.bench.partial(i, self.lo, self.hi);
                    self.state = GpuState::BumpDone { i };
                    return GpuOp::AtomicSlc(self.bench.err_addr(i), AtomicKind::FetchAdd(partial));
                }
                GpuState::BumpDone { i } => {
                    self.state = GpuState::AwaitDone { i };
                    return GpuOp::AtomicSlc(self.bench.done_addr(i), AtomicKind::FetchAdd(1));
                }
                GpuState::AwaitDone { i } => {
                    let old = last.expect("done counter old value");
                    if old == self.bench.workers() - 1 {
                        self.state = GpuState::FoldBest { i };
                    } else {
                        self.i = i + 1;
                        self.state = GpuState::NextIter;
                    }
                }
                GpuState::FoldBest { i } => {
                    // The full error is deterministic once every partial
                    // landed (we are the last finisher).
                    let err = self.bench.iter_err(i);
                    self.i = i + 1;
                    self.state = GpuState::AwaitFold;
                    return GpuOp::AtomicSlc(Addr(BEST_ADDR), AtomicKind::FetchMin(err));
                }
                GpuState::AwaitFold => {
                    self.state = GpuState::NextIter;
                }
                GpuState::Finished => return GpuOp::Done,
            }
        }
    }
}

impl Workload for Rscd {
    fn name(&self) -> &'static str {
        "rscd"
    }

    fn description(&self) -> &'static str {
        "RANSAC (data-parallel): all workers share each iteration, atomic error reduction"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.points).map(|p| (Addr(POINTS_BASE).word(p), self.point(p))));
        b.init_words([(Addr(BEST_ADDR), u64::MAX)]);
        for t in 0..self.cpu_threads as u64 {
            let (lo, hi) = share(self.points, self.workers(), t);
            b.add_cpu_thread(Box::new(CpuWorker {
                bench: *self,
                lo,
                hi,
                i: 0,
                acc: 0,
                state: CpuState::NextIter,
            }));
        }
        for g in 0..self.wavefronts as u64 {
            let (lo, hi) = share(self.points, self.workers(), self.cpu_threads as u64 + g);
            b.add_wavefront(Box::new(GpuWorker {
                bench: *self,
                lo,
                hi,
                i: 0,
                state: GpuState::NextIter,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let got = sys.final_word(Addr(BEST_ADDR));
        let want = self.best_err();
        if got != want {
            return Err(format!("best error: got {got}, expected {want}"));
        }
        for i in 0..self.iterations {
            let e = sys.final_word(self.err_addr(i));
            if e != self.iter_err(i) {
                return Err(format!(
                    "iteration {i} error sum: got {e}, expected {}",
                    self.iter_err(i)
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

    fn small() -> Rscd {
        Rscd { iterations: 4, points: 256, cpu_threads: 4, wavefronts: 4, seed: 3 }
    }

    #[test]
    fn rscd_verifies_on_baseline() {
        let _ =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
    }

    #[test]
    fn rscd_verifies_on_tracking() {
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::sharer_tracking()),
        );
    }
}

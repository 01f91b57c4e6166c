//! `rsct` — random sample consensus, **task-parallel** flavour (CHAI).
//!
//! Iterations are whole tasks: a worker claims an iteration index from a
//! shared counter, evaluates the model against the *entire* point set by
//! itself, and folds the error into the global best with an explicit
//! compare-and-swap retry loop (the relaxed-atomics pattern of the CHAI
//! paper, exercising CAS failures under contention).
//!
//! (Like `rscd`, the original CHAI benchmark failed verification in the
//! paper's gem5 setup; this reimplementation verifies.)

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::AtomicKind;

use crate::util::{memory_map, synth_value};
use crate::Workload;

memory_map! { Rsct as w:
    points at 0x0140_0000, w.points * 8;
    next_iter at 0x0148_0000, 8;
    best at 0x0148_0040, 8; // a line apart from the counter
}

/// Configuration of the `rsct` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Rsct {
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

impl Default for Rsct {
    fn default() -> Self {
        Rsct { iterations: 32, points: 8192, cpu_threads: 8, wavefronts: 16, seed: 89 }
    }
}

impl Rsct {
    fn point(&self, p: u64) -> u64 {
        synth_value(self.seed, p)
    }

    fn point_err(&self, i: u64, p: u64) -> u64 {
        (self.point(p) ^ synth_value(self.seed + 7, i)) >> 52
    }

    fn iter_err(&self, i: u64) -> u64 {
        (0..self.points).map(|p| self.point_err(i, p)).sum()
    }

    fn best_err(&self) -> u64 {
        (0..self.iterations).map(|i| self.iter_err(i)).min().unwrap()
    }
}

#[derive(Debug, Clone)]
enum CpuState {
    Claim,
    AwaitClaim,
    LoadPoint { i: u64, p: u64 },
    Accumulate { i: u64, p: u64 },
    ReadBest { err: u64 },
    TryCas { err: u64 },
    AwaitCas { err: u64, expect: u64 },
    Finished,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Rsct,
    acc: u64,
    state: CpuState,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuState::Claim => {
                    self.state = CpuState::AwaitClaim;
                    return CpuOp::Atomic(MAP.next_iter, AtomicKind::FetchAdd(1));
                }
                CpuState::AwaitClaim => {
                    let i = last.expect("claim returns the old counter");
                    if i >= self.bench.iterations {
                        self.state = CpuState::Finished;
                        continue;
                    }
                    self.acc = 0;
                    self.state = CpuState::LoadPoint { i, p: 0 };
                }
                CpuState::LoadPoint { i, p } => {
                    if p >= self.bench.points {
                        let err = self.acc;
                        self.state = CpuState::ReadBest { err };
                        continue;
                    }
                    self.state = CpuState::Accumulate { i, p };
                    return CpuOp::Load(MAP.points.word(p));
                }
                CpuState::Accumulate { i, p } => {
                    let v = last.expect("point load result");
                    self.acc =
                        self.acc.wrapping_add((v ^ synth_value(self.bench.seed + 7, i)) >> 52);
                    self.state = CpuState::LoadPoint { i, p: p + 1 };
                }
                CpuState::ReadBest { err } => {
                    self.state = CpuState::TryCas { err };
                    return CpuOp::Load(MAP.best);
                }
                CpuState::TryCas { err } => {
                    let cur = last.expect("best load result");
                    if err >= cur {
                        self.state = CpuState::Claim; // not an improvement
                        continue;
                    }
                    self.state = CpuState::AwaitCas { err, expect: cur };
                    return CpuOp::Atomic(
                        MAP.best,
                        AtomicKind::CompareSwap { expect: cur, new: err },
                    );
                }
                CpuState::AwaitCas { err, expect } => {
                    let old = last.expect("CAS returns the old value");
                    if old == expect {
                        self.state = CpuState::Claim; // won
                    } else if err < old {
                        // Lost the race to a worse value: retry.
                        self.state = CpuState::AwaitCas { err, expect: old };
                        return CpuOp::Atomic(
                            MAP.best,
                            AtomicKind::CompareSwap { expect: old, new: err },
                        );
                    } else {
                        self.state = CpuState::Claim; // someone beat us
                    }
                }
                CpuState::Finished => return CpuOp::Done,
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuState {
    Claim,
    AwaitClaim,
    LoadPoints { i: u64, p: u64 },
    ReadBest { err: u64 },
    TryCas { err: u64 },
    AwaitCas { err: u64, expect: u64 },
    Finished,
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Rsct,
    state: GpuState,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GpuState::Claim => {
                    self.state = GpuState::AwaitClaim;
                    return GpuOp::AtomicSlc(MAP.next_iter, AtomicKind::FetchAdd(1));
                }
                GpuState::AwaitClaim => {
                    let i = last.expect("claim returns the old counter");
                    if i >= self.bench.iterations {
                        self.state = GpuState::Finished;
                        continue;
                    }
                    self.state = GpuState::LoadPoints { i, p: 0 };
                }
                GpuState::LoadPoints { i, p } => {
                    if p >= self.bench.points {
                        let err = self.bench.iter_err(i);
                        self.state = GpuState::ReadBest { err };
                        continue;
                    }
                    let hi = (p + 16).min(self.bench.points);
                    self.state = GpuState::LoadPoints { i, p: hi };
                    return GpuOp::VecLoad((p..hi).map(|q| MAP.points.word(q)).collect());
                }
                GpuState::ReadBest { err } => {
                    self.state = GpuState::TryCas { err };
                    // Coherent read of the best word through the directory.
                    return GpuOp::AtomicSlc(MAP.best, AtomicKind::FetchAdd(0));
                }
                GpuState::TryCas { err } => {
                    let cur = last.expect("best read result");
                    if err >= cur {
                        self.state = GpuState::Claim;
                        continue;
                    }
                    self.state = GpuState::AwaitCas { err, expect: cur };
                    return GpuOp::AtomicSlc(
                        MAP.best,
                        AtomicKind::CompareSwap { expect: cur, new: err },
                    );
                }
                GpuState::AwaitCas { err, expect } => {
                    let old = last.expect("CAS returns the old value");
                    if old == expect {
                        self.state = GpuState::Claim;
                    } else if err < old {
                        self.state = GpuState::AwaitCas { err, expect: old };
                        return GpuOp::AtomicSlc(
                            MAP.best,
                            AtomicKind::CompareSwap { expect: old, new: err },
                        );
                    } else {
                        self.state = GpuState::Claim;
                    }
                }
                GpuState::Finished => return GpuOp::Done,
            }
        }
    }
}

impl Workload for Rsct {
    fn name(&self) -> &'static str {
        "rsct"
    }

    fn description(&self) -> &'static str {
        "RANSAC (task-parallel): iterations claimed from a shared counter, CAS-retry best fold"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.points).map(|p| (MAP.points.word(p), self.point(p))));
        b.init_words([(MAP.best, u64::MAX)]);
        for _ in 0..self.cpu_threads {
            b.add_cpu_thread(Box::new(CpuWorker { bench: *self, acc: 0, state: CpuState::Claim }));
        }
        for _ in 0..self.wavefronts {
            b.add_wavefront(Box::new(GpuWorker { bench: *self, state: GpuState::Claim }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let claimed = sys.final_word(MAP.next_iter);
        if claimed < self.iterations {
            return Err(format!("only {claimed} of {} iterations claimed", self.iterations));
        }
        let got = sys.final_word(MAP.best);
        let want = self.best_err();
        if got != want {
            return Err(format!("best error: got {got}, expected {want}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload_on;
    use hsc_core::{CoherenceConfig, SystemConfig};

    fn small() -> Rsct {
        Rsct { iterations: 10, points: 128, cpu_threads: 4, wavefronts: 4, seed: 3 }
    }

    #[test]
    fn rsct_verifies_on_baseline() {
        let _ =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
    }

    #[test]
    fn rsct_verifies_on_early_response() {
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::early_response()),
        );
    }
}

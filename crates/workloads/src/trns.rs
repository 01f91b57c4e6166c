//! `trns` — in-place matrix transposition (CHAI / PTTWAC-style).
//!
//! In-place transposition follows the permutation cycles of
//! `σ(k) = k·rows mod (T−1)`; workers — CPU threads and GPU wavefronts —
//! race to *claim* each cycle with a compare-and-swap on a per-cycle flag
//! and the winner rotates the elements. Fine-grained synchronization over
//! many tiny flag lines is exactly the access pattern the paper's
//! state-tracking directory is good at.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{memory_map, synth_value};
use crate::Workload;

memory_map! { Trns as w:
    matrix at 0x0110_0000, w.total() * 8;
    claims at 0x011F_0000, w.cycle_reps().len() as u64 * 64;
}

/// Configuration of the `trns` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Trns {
    /// Matrix rows (the stored layout is row-major `rows × cols`).
    pub rows: u64,
    /// Matrix columns.
    pub cols: u64,
    /// CPU threads.
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Trns {
    fn default() -> Self {
        Trns { rows: 128, cols: 65, cpu_threads: 8, wavefronts: 16, seed: 73 }
    }
}

impl Trns {
    fn total(&self) -> u64 {
        self.rows * self.cols
    }

    fn input(&self, k: u64) -> u64 {
        synth_value(self.seed, k) | 1
    }

    /// The in-place transpose permutation: element at index `k` moves to
    /// `σ(k) = k·rows mod (T−1)` (0 and T−1 are fixed points).
    fn sigma(&self, k: u64) -> u64 {
        let t = self.total();
        if k == t - 1 {
            k
        } else {
            (k * self.rows) % (t - 1)
        }
    }

    /// Enumerates each cycle once by its minimal element.
    fn cycle_reps(&self) -> Vec<u64> {
        let t = self.total();
        let mut seen = vec![false; t as usize];
        let mut reps = Vec::new();
        for k in 0..t {
            if seen[k as usize] {
                continue;
            }
            let mut j = k;
            let mut len = 0;
            loop {
                seen[j as usize] = true;
                j = self.sigma(j);
                len += 1;
                if j == k {
                    break;
                }
            }
            if len > 1 {
                reps.push(k);
            }
        }
        reps
    }

    /// The elements of the cycle starting at `rep`.
    fn cycle(&self, rep: u64) -> Vec<u64> {
        let mut cyc = vec![rep];
        let mut j = self.sigma(rep);
        while j != rep {
            cyc.push(j);
            j = self.sigma(j);
        }
        cyc
    }

    /// One claim word per cycle, each on its own line to maximize the
    /// fine-grained flag traffic the benchmark is known for.
    fn claim_addr(&self, cycle_idx: u64) -> Addr {
        MAP.claims.word(cycle_idx * 8)
    }
}

#[derive(Debug, Clone)]
enum CpuState {
    TryClaim,
    AwaitClaim,
    LoadElem,
    CollectElem,
    StoreElem,
    Finished,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Trns,
    reps: Vec<u64>,
    /// Index into `reps` of the next cycle to try.
    next: usize,
    cycle: Vec<u64>,
    values: Vec<u64>,
    i: usize,
    state: CpuState,
}

impl CpuWorker {
    fn new(bench: Trns, reps: Vec<u64>) -> Self {
        CpuWorker {
            bench,
            reps,
            next: 0,
            cycle: Vec::new(),
            values: Vec::new(),
            i: 0,
            state: CpuState::TryClaim,
        }
    }
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuState::TryClaim => {
                    if self.next >= self.reps.len() {
                        self.state = CpuState::Finished;
                        continue;
                    }
                    let idx = self.next as u64;
                    self.state = CpuState::AwaitClaim;
                    return CpuOp::Atomic(
                        self.bench.claim_addr(idx),
                        AtomicKind::CompareSwap { expect: 0, new: 1 },
                    );
                }
                CpuState::AwaitClaim => {
                    let old = last.expect("CAS returns the old value");
                    let rep = self.reps[self.next];
                    self.next += 1;
                    if old == 0 {
                        // Won the cycle: read every element, then rotate.
                        self.cycle = self.bench.cycle(rep);
                        self.values.clear();
                        self.i = 0;
                        self.state = CpuState::LoadElem;
                    } else {
                        self.state = CpuState::TryClaim;
                    }
                }
                CpuState::LoadElem => {
                    if self.i >= self.cycle.len() {
                        self.i = 0;
                        self.state = CpuState::StoreElem;
                        continue;
                    }
                    self.state = CpuState::CollectElem;
                    return CpuOp::Load(MAP.matrix.word(self.cycle[self.i]));
                }
                CpuState::CollectElem => {
                    self.values.push(last.expect("element load result"));
                    self.i += 1;
                    self.state = CpuState::LoadElem;
                }
                CpuState::StoreElem => {
                    if self.i >= self.cycle.len() {
                        self.state = CpuState::TryClaim;
                        continue;
                    }
                    let k = self.cycle[self.i];
                    let v = self.values[self.i];
                    self.i += 1;
                    return CpuOp::Store(MAP.matrix.word(self.bench.sigma(k)), v);
                }
                CpuState::Finished => return CpuOp::Done,
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuState {
    TryClaim,
    AwaitClaim,
    LoadChunk,
    StoreChunk,
    Release,
    Finished,
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Trns,
    reps: Vec<u64>,
    next: usize,
    cycle: Vec<u64>,
    i: usize,
    state: GpuState,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GpuState::TryClaim => {
                    if self.next >= self.reps.len() {
                        self.state = GpuState::Release;
                        continue;
                    }
                    let idx = self.next as u64;
                    self.state = GpuState::AwaitClaim;
                    return GpuOp::AtomicSlc(
                        self.bench.claim_addr(idx),
                        AtomicKind::CompareSwap { expect: 0, new: 1 },
                    );
                }
                GpuState::AwaitClaim => {
                    let old = last.expect("CAS returns the old value");
                    let rep = self.reps[self.next];
                    self.next += 1;
                    if old == 0 {
                        self.cycle = self.bench.cycle(rep);
                        self.i = 0;
                        self.state = GpuState::LoadChunk;
                    } else {
                        self.state = GpuState::TryClaim;
                    }
                }
                GpuState::LoadChunk => {
                    if self.i >= self.cycle.len() {
                        self.i = 0;
                        self.state = GpuState::StoreChunk;
                        continue;
                    }
                    let hi = (self.i + 16).min(self.cycle.len());
                    let addrs =
                        self.cycle[self.i..hi].iter().map(|&k| MAP.matrix.word(k)).collect();
                    self.i = hi;
                    return GpuOp::VecLoad(addrs);
                }
                GpuState::StoreChunk => {
                    if self.i >= self.cycle.len() {
                        self.state = GpuState::TryClaim;
                        continue;
                    }
                    let hi = (self.i + 16).min(self.cycle.len());
                    // The cycle is exclusively claimed and the matrix is
                    // untouched inside it: values are the initial inputs.
                    let stores = self.cycle[self.i..hi]
                        .iter()
                        .map(|&k| (MAP.matrix.word(self.bench.sigma(k)), self.bench.input(k)))
                        .collect();
                    self.i = hi;
                    return GpuOp::VecStore(stores);
                }
                GpuState::Release => {
                    self.state = GpuState::Finished;
                    return GpuOp::Release;
                }
                GpuState::Finished => return GpuOp::Done,
            }
        }
    }
}

impl Workload for Trns {
    fn name(&self) -> &'static str {
        "trns"
    }

    fn description(&self) -> &'static str {
        "in-place transposition: CAS-claimed permutation cycles, fine-grain CPU+GPU sync"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.total()).map(|k| (MAP.matrix.word(k), self.input(k))));
        let reps = self.cycle_reps();
        for _ in 0..self.cpu_threads {
            b.add_cpu_thread(Box::new(CpuWorker::new(*self, reps.clone())));
        }
        for _ in 0..self.wavefronts {
            b.add_wavefront(Box::new(GpuWorker {
                bench: *self,
                reps: reps.clone(),
                next: 0,
                cycle: Vec::new(),
                i: 0,
                state: GpuState::TryClaim,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        // Build σ⁻¹ once instead of the quadratic `expected` per element.
        let t = self.total();
        let mut inv = vec![0u64; t as usize];
        for k in 0..t {
            inv[self.sigma(k) as usize] = k;
        }
        for j in 0..t {
            let got = sys.final_word(MAP.matrix.word(j));
            let want = self.input(inv[j as usize]);
            if got != want {
                return Err(format!("element {j}: got {got}, expected {want}"));
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

    fn small() -> Trns {
        Trns { rows: 8, cols: 9, cpu_threads: 4, wavefronts: 4, seed: 3 }
    }

    #[test]
    fn sigma_is_a_permutation_with_cycles_covered() {
        let t = small();
        let total = t.total();
        let mut seen = vec![false; total as usize];
        for k in 0..total {
            let s = t.sigma(k);
            assert!(!seen[s as usize], "σ must be injective");
            seen[s as usize] = true;
        }
        let reps = t.cycle_reps();
        let covered: usize = reps.iter().map(|&r| t.cycle(r).len()).sum();
        // Non-trivial cycles plus fixed points must cover everything.
        let fixed = (0..total).filter(|&k| t.sigma(k) == k).count();
        assert_eq!(covered + fixed, total as usize);
    }

    #[test]
    fn trns_verifies_on_baseline() {
        let _ =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
    }

    #[test]
    fn trns_verifies_on_tracking() {
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::owner_tracking()),
        );
    }
}

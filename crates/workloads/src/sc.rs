//! `sc` — stream compaction (CHAI).
//!
//! Workers pull input chunks from a shared atomic cursor, filter the
//! elements by a predicate, and append the survivors to the output at
//! positions reserved from a shared atomic output cursor. Both cursors
//! are system-scope atomics that every CPU thread and GPU wavefront
//! hammers — medium contention plus streaming reads.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::synth_value;
use crate::Workload;

const INPUT_BASE: u64 = 0x0060_0000;
const OUTPUT_BASE: u64 = 0x0070_0000;
const CURSORS_BASE: u64 = 0x007F_0000;

/// Configuration of the `sc` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Sc {
    /// Total input elements.
    pub elements: u64,
    /// Elements claimed per cursor grab.
    pub chunk: u64,
    /// CPU threads.
    pub cpu_threads: usize,
    /// GPU wavefronts.
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Sc {
    fn default() -> Self {
        Sc { elements: 32768, chunk: 16, cpu_threads: 8, wavefronts: 16, seed: 31 }
    }
}

impl Sc {
    fn input(&self, i: u64) -> u64 {
        // Bias values so roughly 2/3 survive the predicate.
        synth_value(self.seed, i) | 1
    }

    /// The compaction predicate: keep values not divisible by 3.
    fn keeps(&self, v: u64) -> bool {
        !v.is_multiple_of(3)
    }

    fn in_cursor(&self) -> Addr {
        Addr(CURSORS_BASE)
    }

    fn out_cursor(&self) -> Addr {
        Addr(CURSORS_BASE).word(8) // separate line from the input cursor
    }

    fn expected_kept(&self) -> Vec<u64> {
        (0..self.elements).map(|i| self.input(i)).filter(|&v| self.keeps(v)).collect()
    }
}

/// Common per-worker compaction state, shared by the CPU and GPU drivers.
#[derive(Debug, Clone)]
struct Compactor {
    bench: Sc,
    /// Claimed chunk `[lo, hi)`; `None` when a new claim is needed.
    chunk: Option<(u64, u64)>,
    /// Survivors of the current chunk not yet written out.
    kept: Vec<u64>,
    /// Output slot reserved for the head of `kept` (set after the
    /// out-cursor atomic returns).
    reserved_at: Option<u64>,
    done: bool,
}

impl Compactor {
    fn new(bench: Sc) -> Self {
        Compactor { bench, chunk: None, kept: Vec::new(), reserved_at: None, done: false }
    }
}

#[derive(Debug, Clone)]
enum Step {
    ClaimInput,
    ReserveOutput,
    Write(Addr, u64),
    Done,
}

impl Compactor {
    /// Drives the shared state machine; `last` is the result of the
    /// previous atomic (cursor value before the add).
    fn step(&mut self, last: Option<u64>) -> Step {
        if self.done {
            return Step::Done;
        }
        if let Some(at) = self.reserved_at.take() {
            let _ = last;
            let v = self.kept.remove(0);
            return Step::Write(Addr(OUTPUT_BASE).word(at), v);
        }
        if !self.kept.is_empty() {
            // Need a slot for the next survivor.
            return Step::ReserveOutput;
        }
        if let Some((lo, hi)) = self.chunk.take() {
            // Filter the claimed chunk (values are deterministic, so the
            // survivors are known without reading lanes back).
            self.kept =
                (lo..hi).map(|i| self.bench.input(i)).filter(|&v| self.bench.keeps(v)).collect();
            return self.step(None);
        }
        match last {
            Some(old) if old >= self.bench.elements => {
                self.done = true;
                Step::Done
            }
            Some(old) => {
                let hi = (old + self.bench.chunk).min(self.bench.elements);
                self.chunk = Some((old, hi));
                Step::ClaimInput // caller loads the chunk, then calls step(None) again
            }
            None => Step::ClaimInput,
        }
    }
}

#[derive(Debug, Clone)]
enum CpuPhase {
    Claiming,
    LoadingChunk { next: u64, hi: u64 },
    Reserving,
    Driving,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    c: Compactor,
    phase: CpuPhase,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.phase {
                CpuPhase::Claiming => {
                    // `last` holds the old input-cursor value.
                    match self.c.step(last) {
                        Step::ClaimInput => {
                            if self.c.chunk.is_none() {
                                self.phase = CpuPhase::Claiming;
                                return CpuOp::Atomic(
                                    self.c.bench.in_cursor(),
                                    AtomicKind::FetchAdd(self.c.bench.chunk),
                                );
                            }
                            let (lo, hi) = self.c.chunk.unwrap();
                            self.phase = CpuPhase::LoadingChunk { next: lo, hi };
                        }
                        Step::Done => return CpuOp::Done,
                        _ => unreachable!("claiming produces a chunk or done"),
                    }
                }
                CpuPhase::LoadingChunk { next, hi } => {
                    if next < hi {
                        self.phase = CpuPhase::LoadingChunk { next: next + 1, hi };
                        return CpuOp::Load(Addr(INPUT_BASE).word(next));
                    }
                    self.phase = CpuPhase::Driving;
                }
                CpuPhase::Reserving => {
                    // `last` holds the old output-cursor value.
                    if let Some(old) = last {
                        self.c.reserved_at = Some(old);
                    }
                    self.phase = CpuPhase::Driving;
                }
                CpuPhase::Driving => match self.c.step(None) {
                    Step::ReserveOutput => {
                        self.phase = CpuPhase::Reserving;
                        return CpuOp::Atomic(self.c.bench.out_cursor(), AtomicKind::FetchAdd(1));
                    }
                    Step::Write(a, v) => {
                        self.phase = CpuPhase::Driving;
                        return CpuOp::Store(a, v);
                    }
                    Step::ClaimInput => {
                        self.phase = CpuPhase::Claiming;
                        return CpuOp::Atomic(
                            self.c.bench.in_cursor(),
                            AtomicKind::FetchAdd(self.c.bench.chunk),
                        );
                    }
                    Step::Done => return CpuOp::Done,
                },
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuPhase {
    Claiming,
    LoadingChunk,
    Reserving,
    Driving,
}

#[derive(Debug, Clone)]
struct GpuWorker {
    c: Compactor,
    phase: GpuPhase,
    released: bool,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.phase {
                GpuPhase::Claiming => match self.c.step(last) {
                    Step::ClaimInput => {
                        if self.c.chunk.is_none() {
                            return GpuOp::AtomicSlc(
                                self.c.bench.in_cursor(),
                                AtomicKind::FetchAdd(self.c.bench.chunk),
                            );
                        }
                        self.phase = GpuPhase::LoadingChunk;
                    }
                    Step::Done => {
                        if !self.released {
                            self.released = true;
                            // Kernel-end release (DESIGN.md decision 9).
                            return GpuOp::Release;
                        }
                        return GpuOp::Done;
                    }
                    _ => unreachable!("claiming produces a chunk or done"),
                },
                GpuPhase::LoadingChunk => {
                    let (lo, hi) = self.c.chunk.unwrap();
                    self.phase = GpuPhase::Driving;
                    return GpuOp::VecLoad((lo..hi).map(|i| Addr(INPUT_BASE).word(i)).collect());
                }
                GpuPhase::Reserving => {
                    if let Some(old) = last {
                        self.c.reserved_at = Some(old);
                    }
                    self.phase = GpuPhase::Driving;
                }
                GpuPhase::Driving => match self.c.step(None) {
                    Step::ReserveOutput => {
                        self.phase = GpuPhase::Reserving;
                        return GpuOp::AtomicSlc(
                            self.c.bench.out_cursor(),
                            AtomicKind::FetchAdd(1),
                        );
                    }
                    Step::Write(a, v) => {
                        return GpuOp::VecStore(vec![(a, v)]);
                    }
                    Step::ClaimInput => {
                        self.phase = GpuPhase::Claiming;
                        return GpuOp::AtomicSlc(
                            self.c.bench.in_cursor(),
                            AtomicKind::FetchAdd(self.c.bench.chunk),
                        );
                    }
                    Step::Done => {
                        if !self.released {
                            self.released = true;
                            return GpuOp::Release;
                        }
                        return GpuOp::Done;
                    }
                },
            }
        }
    }
}

impl Workload for Sc {
    fn name(&self) -> &'static str {
        "sc"
    }

    fn description(&self) -> &'static str {
        "stream compaction: shared atomic input/output cursors, streaming reads"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words((0..self.elements).map(|i| (Addr(INPUT_BASE).word(i), self.input(i))));
        for _ in 0..self.cpu_threads {
            b.add_cpu_thread(Box::new(CpuWorker {
                c: Compactor::new(*self),
                phase: CpuPhase::Driving,
            }));
        }
        for _ in 0..self.wavefronts {
            b.add_wavefront(Box::new(GpuWorker {
                c: Compactor::new(*self),
                phase: GpuPhase::Driving,
                released: false,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let expected = self.expected_kept();
        let count = sys.final_word(self.out_cursor());
        if count != expected.len() as u64 {
            return Err(format!("kept {count}, expected {}", expected.len()));
        }
        // Order is nondeterministic across workers: compare multisets.
        let mut got: Vec<u64> =
            (0..count).map(|i| sys.final_word(Addr(OUTPUT_BASE).word(i))).collect();
        let mut want = expected;
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err("compacted output multiset mismatch".to_owned());
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
    fn sc_verifies_on_baseline_and_llcwb() {
        let w = Sc { elements: 1024, cpu_threads: 4, wavefronts: 4, ..Sc::default() };
        let base = run_workload_on(&w, SystemConfig::with_coherence(CoherenceConfig::baseline()));
        let wb = run_workload_on(
            &w,
            SystemConfig::with_coherence(CoherenceConfig::llc_write_back_l3_on_wt()),
        );
        assert!(
            wb.mem_writes < base.mem_writes,
            "write-back LLC must cut memory writes ({} vs {})",
            wb.mem_writes,
            base.mem_writes
        );
    }
}

//! `tq` — task queue system (CHAI).
//!
//! CPU producer threads write task payloads and publish per-task ready
//! flags; consumers — GPU wavefronts *and* CPU threads (fine-grained task
//! parallelism) — claim task indices from a shared atomic head counter,
//! spin on the task's ready flag, process the payload and write the
//! result. This is the most coherence-intensive benchmark: queue control
//! lines ping-pong between every agent in the system.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{memory_map, share, synth_value, CpuSpin, GpuSpin};
use crate::Workload;

memory_map! { Tq as w:
    tasks at 0x0080_0000, w.tasks * 8;
    flags at 0x0088_0000, w.tasks * 8;
    results at 0x0090_0000, w.tasks * 8;
    head at 0x009F_0000, 8;
    done at 0x009F_0040, 8; // a line apart from the head
}

/// Configuration of the `tq` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Tq {
    /// Number of tasks.
    pub tasks: u64,
    /// CPU producer threads.
    pub producers: usize,
    /// CPU consumer threads.
    pub cpu_consumers: usize,
    /// GPU consumer wavefronts.
    pub wavefronts: usize,
    /// Modelled compute cycles per task.
    pub compute: u64,
    /// Payload seed.
    pub seed: u64,
}

impl Default for Tq {
    fn default() -> Self {
        Tq { tasks: 1024, producers: 4, cpu_consumers: 4, wavefronts: 16, compute: 40, seed: 17 }
    }
}

impl Tq {
    fn payload(&self, t: u64) -> u64 {
        synth_value(self.seed, t) | 1
    }

    /// The "processing" a consumer performs on a task payload.
    fn process(v: u64) -> u64 {
        v.rotate_left(7) ^ 0xABCD
    }
}

#[derive(Debug, Clone)]
enum ProducerState {
    WritePayload,
    PublishFlag,
}

/// Writes payloads for tasks `[lo, hi)` and publishes their ready flags.
#[derive(Debug, Clone)]
struct Producer {
    bench: Tq,
    i: u64,
    hi: u64,
    state: ProducerState,
}

impl CoreProgram for Producer {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        if self.i >= self.hi {
            return CpuOp::Done;
        }
        match self.state {
            ProducerState::WritePayload => {
                self.state = ProducerState::PublishFlag;
                CpuOp::Store(MAP.tasks.word(self.i), self.bench.payload(self.i))
            }
            ProducerState::PublishFlag => {
                let t = self.i;
                self.i += 1;
                self.state = ProducerState::WritePayload;
                // x86-TSO keeps the payload→flag order; our cores are
                // in-order blocking, which is stronger.
                CpuOp::Store(MAP.flags.word(t), 1)
            }
        }
    }
}

#[derive(Debug, Clone)]
enum CpuConsumerState {
    ClaimTask,
    AwaitClaim,
    Spin(u64),
    LoadPayload(u64),
    AwaitPayload(u64),
    StoreResult,
    BumpDone,
}

#[derive(Debug, Clone)]
struct CpuConsumer {
    bench: Tq,
    state: CpuConsumerState,
    spin: CpuSpin,
    pending_store: Option<(Addr, u64)>,
}

impl CoreProgram for CpuConsumer {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuConsumerState::ClaimTask => {
                    self.state = CpuConsumerState::AwaitClaim;
                    return CpuOp::Atomic(MAP.head, AtomicKind::FetchAdd(1));
                }
                CpuConsumerState::AwaitClaim => {
                    let t = last.expect("claim returns the old head");
                    if t >= self.bench.tasks {
                        return CpuOp::Done;
                    }
                    self.spin.reset(MAP.flags.word(t));
                    self.state = CpuConsumerState::Spin(t);
                }
                CpuConsumerState::Spin(t) => {
                    if let Some(op) = self.spin.step(last, |v| v == 1) {
                        return op;
                    }
                    self.state = CpuConsumerState::LoadPayload(t);
                }
                CpuConsumerState::LoadPayload(t) => {
                    self.state = CpuConsumerState::AwaitPayload(t);
                    return CpuOp::Load(MAP.tasks.word(t));
                }
                CpuConsumerState::AwaitPayload(t) => {
                    let v = last.expect("payload load result");
                    self.state = CpuConsumerState::StoreResult;
                    let result = Tq::process(v);
                    // Charge the processing time, then store on re-entry.
                    self.pending_store = Some((MAP.results.word(t), result));
                    return CpuOp::Compute(self.bench.compute);
                }
                CpuConsumerState::StoreResult => {
                    let (a, v) = self.pending_store.take().expect("result staged");
                    self.state = CpuConsumerState::BumpDone;
                    return CpuOp::Store(a, v);
                }
                CpuConsumerState::BumpDone => {
                    self.state = CpuConsumerState::ClaimTask;
                    return CpuOp::Atomic(MAP.done, AtomicKind::FetchAdd(1));
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuConsumerState {
    ClaimTask,
    AwaitClaim,
    Spin(u64),
    Acquire(u64),
    LoadPayload(u64),
    AwaitPayload(u64),
    StoreResult,
    ReleaseResult,
    BumpDone,
}

#[derive(Debug, Clone)]
struct GpuConsumer {
    bench: Tq,
    state: GpuConsumerState,
    spin: GpuSpin,
    pending_store: Option<(Addr, u64)>,
}

impl WavefrontProgram for GpuConsumer {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GpuConsumerState::ClaimTask => {
                    self.state = GpuConsumerState::AwaitClaim;
                    return GpuOp::AtomicSlc(MAP.head, AtomicKind::FetchAdd(1));
                }
                GpuConsumerState::AwaitClaim => {
                    let t = last.expect("claim returns the old head");
                    if t >= self.bench.tasks {
                        return GpuOp::Done;
                    }
                    self.spin.reset(MAP.flags.word(t));
                    self.state = GpuConsumerState::Spin(t);
                }
                GpuConsumerState::Spin(t) => {
                    if let Some(op) = self.spin.step(last, |v| v == 1) {
                        return op;
                    }
                    self.state = GpuConsumerState::Acquire(t);
                }
                GpuConsumerState::Acquire(t) => {
                    // The flag was observed through the directory; the
                    // payload may still be stale in the TCP.
                    self.state = GpuConsumerState::LoadPayload(t);
                    return GpuOp::Acquire;
                }
                GpuConsumerState::LoadPayload(t) => {
                    self.state = GpuConsumerState::AwaitPayload(t);
                    return GpuOp::VecLoad(vec![MAP.tasks.word(t)]);
                }
                GpuConsumerState::AwaitPayload(t) => {
                    let v = last.expect("payload load result");
                    self.pending_store = Some((MAP.results.word(t), Tq::process(v)));
                    self.state = GpuConsumerState::StoreResult;
                    return GpuOp::Compute(self.bench.compute);
                }
                GpuConsumerState::StoreResult => {
                    let (a, v) = self.pending_store.take().expect("result staged");
                    self.state = GpuConsumerState::ReleaseResult;
                    return GpuOp::VecStore(vec![(a, v)]);
                }
                GpuConsumerState::ReleaseResult => {
                    // Store-release before publishing: the result's
                    // write-through is acked, i.e. system-visible, before
                    // the done counter says so.
                    self.state = GpuConsumerState::BumpDone;
                    return GpuOp::Release;
                }
                GpuConsumerState::BumpDone => {
                    self.state = GpuConsumerState::ClaimTask;
                    return GpuOp::AtomicSlc(MAP.done, AtomicKind::FetchAdd(1));
                }
            }
        }
    }
}

impl CpuConsumer {
    fn new(bench: Tq) -> Self {
        CpuConsumer {
            bench,
            state: CpuConsumerState::ClaimTask,
            spin: CpuSpin::new(MAP.flags, 30),
            pending_store: None,
        }
    }
}

impl Workload for Tq {
    fn name(&self) -> &'static str {
        "tq"
    }

    fn description(&self) -> &'static str {
        "task queue: CPU producers publish flagged tasks; CPU+GPU consumers claim via shared atomics"
    }

    fn build(&self, b: &mut SystemBuilder) {
        for p in 0..self.producers as u64 {
            let (lo, hi) = share(self.tasks, self.producers as u64, p);
            b.add_cpu_thread(Box::new(Producer {
                bench: *self,
                i: lo,
                hi,
                state: ProducerState::WritePayload,
            }));
        }
        for _ in 0..self.cpu_consumers {
            b.add_cpu_thread(Box::new(CpuConsumer::new(*self)));
        }
        for _ in 0..self.wavefronts {
            b.add_wavefront(Box::new(GpuConsumer {
                bench: *self,
                state: GpuConsumerState::ClaimTask,
                spin: GpuSpin::new(MAP.flags, 100),
                pending_store: None,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        let done = sys.final_word(MAP.done);
        if done != self.tasks {
            return Err(format!("done counter {done}, expected {}", self.tasks));
        }
        for t in 0..self.tasks {
            let got = sys.final_word(MAP.results.word(t));
            let want = Tq::process(self.payload(t));
            if got != want {
                return Err(format!("task {t}: result {got}, expected {want}"));
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

    fn small() -> Tq {
        Tq { tasks: 96, producers: 2, cpu_consumers: 2, wavefronts: 4, compute: 10, seed: 9 }
    }

    #[test]
    fn tq_verifies_on_baseline() {
        let r =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
        assert!(r.stats.get("dir.requests.Atomic") > 0, "GPU claims use SLC atomics");
    }

    #[test]
    fn tq_verifies_on_all_enhancement_configs() {
        for cfg in [
            CoherenceConfig::early_response(),
            CoherenceConfig::no_wb_clean_victims(),
            CoherenceConfig::drop_clean_victims(),
            CoherenceConfig::llc_write_back(),
            CoherenceConfig::llc_write_back_l3_on_wt(),
            CoherenceConfig::owner_tracking(),
            CoherenceConfig::sharer_tracking(),
        ] {
            let _ = run_workload_on(&small(), SystemConfig::with_coherence(cfg));
        }
    }
}

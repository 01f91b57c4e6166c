//! Directed litmus scenarios for the protocol races PR 1's fault
//! campaigns probed statistically.
//!
//! Each [`Litmus`] is a tiny configuration (2 CorePairs, 1 GPU cluster,
//! 1–2 cache lines, programs of a handful of ops) plus the final-state
//! predicate that every interleaving must satisfy. The harness runs each
//! scenario up to three ways:
//!
//! * **exhaustive, fault-free** — every delivery order via
//!   [`crate::explore`];
//! * **exhaustive, deterministic fault** — same, with a surgical
//!   [`FaultPlan`] (drop-first / duplicate-first) so the race window the
//!   fault opens is also explored in every order;
//! * **seeded sweep** — timed runs under a probabilistic drop plan with
//!   retries enabled, the PR 1 recovery path.
//!
//! Scenarios keep synthetic instruction fetches off
//! (`ifetch_interval = u64::MAX`) and shrink every cache so a rebuilt
//! [`System`] costs microseconds — the explorer rebuilds thousands of
//! times.

use std::collections::VecDeque;
use std::fmt;

use hsc_cluster::{CoreProgram, CpuOp, DmaCommand, GpuOp, WavefrontProgram};
use hsc_mem::{Addr, AtomicKind};
use hsc_noc::{FaultPlan, FaultTargets, RetryPolicy};
use hsc_sim::{SimError, Tick};

use hsc_core::{System, SystemBuilder, SystemConfig};

use crate::{explore, CheckConfig, ExploreReport, FinalCheck};

/// A scripted CPU thread: plays a fixed op list front to back, then
/// retires. Litmus programs never branch on loaded values — the explorer
/// supplies the nondeterminism.
#[derive(Debug)]
pub struct CpuScript {
    ops: VecDeque<CpuOp>,
}

impl CpuScript {
    /// A thread that executes `ops` in order and finishes.
    #[must_use]
    pub fn new(ops: Vec<CpuOp>) -> Self {
        CpuScript { ops: ops.into() }
    }
}

impl CoreProgram for CpuScript {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        self.ops.pop_front().unwrap_or(CpuOp::Done)
    }
}

/// A scripted GPU wavefront, the [`CpuScript`] counterpart.
#[derive(Debug)]
pub struct GpuScript {
    ops: VecDeque<GpuOp>,
}

impl GpuScript {
    /// A wavefront that executes `ops` in order and finishes.
    #[must_use]
    pub fn new(ops: Vec<GpuOp>) -> Self {
        GpuScript { ops: ops.into() }
    }
}

impl WavefrontProgram for GpuScript {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        self.ops.pop_front().unwrap_or(GpuOp::Done)
    }
}

/// Line-aligned base address every scenario races on (line `0x1000`).
pub const A: Addr = Addr(0x4_0000);
/// The second 64-bit word of line `A`.
pub const A_W1: Addr = Addr(0x4_0008);
/// A line 128 bytes above `A` — maps to `A`'s set in the shrunken
/// victim-scenario L2 (128 B, direct-mapped, 64 B lines ⇒ 2 sets, both
/// even line numbers land in set 0), forcing an eviction of `A`.
pub const B: Addr = Addr(0x4_0080);

/// Retry policy for seeded sweeps: short timeout so lost requests
/// re-send within a tiny run, bounded retries so drop storms end in a
/// diagnosable deadlock instead of livelock.
pub const SWEEP_RETRY: RetryPolicy = RetryPolicy { timeout: 50_000, max_retries: 8 };

/// Event budget for one timed sweep run (tiny programs finish in
/// thousands of events; this bounds retry-storm pathologies).
pub const SWEEP_EVENT_BUDGET: u64 = 2_000_000;

/// The smallest system that still exercises every agent type: 2
/// CorePairs, 1 single-CU GPU cluster, DMA, directory and memory, with
/// every cache shrunk to a few lines and synthetic i-fetches off.
#[must_use]
pub fn tiny_config() -> SystemConfig {
    let mut cfg = SystemConfig { corepairs: 2, gpu_clusters: 1, ..SystemConfig::default() };
    cfg.cpu.l1d_bytes = 128;
    cfg.cpu.l1d_ways = 2;
    cfg.cpu.l1i_bytes = 128;
    cfg.cpu.l1i_ways = 2;
    cfg.cpu.l2_bytes = 512;
    cfg.cpu.l2_ways = 2;
    cfg.cpu.ifetch_interval = u64::MAX;
    cfg.gpu.cus = 1;
    cfg.gpu.tcp_bytes = 128;
    cfg.gpu.tcp_ways = 2;
    cfg.gpu.tcc_bytes = 256;
    cfg.gpu.tcc_ways = 2;
    cfg.gpu.sqc_bytes = 128;
    cfg.gpu.sqc_ways = 2;
    cfg.gpu.ifetch_interval = u64::MAX;
    cfg.uncore.llc_bytes = 1024;
    cfg.uncore.llc_ways = 2;
    cfg.uncore.dir_entries = 64;
    cfg.uncore.dir_ways = 4;
    cfg
}

fn apply_knobs(
    mut cfg: SystemConfig,
    faults: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
) -> SystemConfig {
    cfg.faults = faults;
    if let Some(r) = retry {
        cfg = cfg.with_retry_everywhere(r);
    }
    cfg
}

/// Reads the coherent final value of `a` and checks it against the
/// scenario's allowed outcomes.
///
/// # Errors
///
/// Describes the divergence when the value is not in `allowed`.
pub fn expect_word(sys: &System, a: Addr, allowed: &[u64]) -> Result<(), String> {
    let got = sys.final_word(a);
    if allowed.contains(&got) {
        Ok(())
    } else {
        Err(format!("word {a}: final value {got:#x} not in allowed set {allowed:?}"))
    }
}

/// One directed scenario: a builder, the faults that probe it, and the
/// predicate its completed runs must satisfy.
pub struct Litmus {
    /// Stable scenario name (CLI selector, report key).
    pub name: &'static str,
    /// One-line description of the race under test.
    pub describe: &'static str,
    build: fn(Option<FaultPlan>, Option<RetryPolicy>) -> System,
    /// Deterministic surgical fault for the faulty exhaustive pass
    /// (`None` = fault-free exploration only).
    pub fault_plan: Option<FaultPlan>,
    /// Whether stuck states are an accepted outcome under `fault_plan`
    /// (true for message loss with retries off — the lost request is
    /// *supposed* to strand its agent).
    pub fault_deadlock_ok: bool,
    /// Seeded probabilistic plan for the timed sweep mode.
    pub sweep_plan: Option<fn(u64) -> FaultPlan>,
    /// Predicate over cleanly completed runs.
    pub check_final: Option<FinalCheck>,
    /// Whether the scenario is explored exhaustively (retry-storm is
    /// sweep-only: retry timers make its state space a timing artifact).
    pub exhaustive: bool,
}

impl fmt::Debug for Litmus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Litmus").field("name", &self.name).finish_non_exhaustive()
    }
}

/// The two exhaustive [`ExploreReport`]s of one scenario.
#[derive(Debug, Clone)]
pub struct LitmusReport {
    /// Scenario name.
    pub name: &'static str,
    /// Fault-free exploration (`None` for sweep-only scenarios).
    pub fault_free: Option<ExploreReport>,
    /// Exploration under the deterministic fault plan.
    pub faulty: Option<ExploreReport>,
}

impl LitmusReport {
    /// Whether every performed exploration passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.fault_free.iter().all(ExploreReport::passed)
            && self.faulty.iter().all(ExploreReport::passed)
    }

    /// The first counterexample, if any exploration found one.
    #[must_use]
    pub fn counterexample(&self) -> Option<&crate::Counterexample> {
        self.fault_free.iter().chain(self.faulty.iter()).find_map(|r| r.counterexample.as_ref())
    }
}

/// Outcome tallies of one seeded fault sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Timed runs executed.
    pub runs: u64,
    /// Runs that completed cleanly (and passed the final check).
    pub completed: u64,
    /// Runs that ended in a diagnosed deadlock (acceptable under loss).
    pub deadlocked: u64,
    /// Human-readable descriptions of unacceptable outcomes: completed
    /// runs with wrong final values, budget blow-ups, wiring errors.
    pub failures: Vec<String>,
}

impl SweepSummary {
    /// Whether no run produced an unacceptable outcome.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl Litmus {
    /// Builds the scenario's system with the given fault/retry knobs.
    #[must_use]
    pub fn build(&self, faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
        (self.build)(faults, retry)
    }

    /// Runs the exhaustive passes: fault-free, then (if the scenario has
    /// one) under its deterministic fault plan. `limits` scales the
    /// search budget; the scenario supplies `final_check`/`deadlock_ok`.
    #[must_use]
    pub fn check_exhaustive(&self, limits: &CheckConfig) -> LitmusReport {
        if !self.exhaustive {
            return LitmusReport { name: self.name, fault_free: None, faulty: None };
        }
        let base =
            CheckConfig { final_check: self.check_final, deadlock_ok: false, ..limits.clone() };
        let build = self.build;
        let fault_free = Some(explore(&|| build(None, None), &base));

        let faulty = self.fault_plan.map(|plan| {
            let cfg = CheckConfig { deadlock_ok: self.fault_deadlock_ok, ..base.clone() };
            explore(&|| build(Some(plan), None), &cfg)
        });
        LitmusReport { name: self.name, fault_free, faulty }
    }

    /// Runs `seeds` timed runs under the scenario's sweep plan with
    /// retries enabled. Completion must satisfy the final check; a
    /// diagnosed deadlock is tallied but accepted (bounded retries give
    /// up under sustained loss by design).
    #[must_use]
    pub fn sweep(&self, seeds: std::ops::Range<u64>) -> SweepSummary {
        let mut summary = SweepSummary::default();
        let Some(plan_fn) = self.sweep_plan else {
            return summary;
        };
        for seed in seeds {
            summary.runs += 1;
            let mut sys = self.build(Some(plan_fn(seed)), Some(SWEEP_RETRY));
            match sys.run(SWEEP_EVENT_BUDGET) {
                Ok(_) => {
                    summary.completed += 1;
                    if let Some(f) = self.check_final {
                        if let Err(reason) = f(&sys) {
                            summary.failures.push(format!(
                                "{} seed {seed}: completed wrong: {reason}",
                                self.name
                            ));
                        }
                    }
                }
                Err(SimError::Deadlock { .. }) => summary.deadlocked += 1,
                Err(e) => summary.failures.push(format!("{} seed {seed}: {e}", self.name)),
            }
        }
        summary
    }

    /// Every directed scenario, in documentation order.
    #[must_use]
    pub fn catalog() -> Vec<Litmus> {
        vec![
            Litmus {
                name: "two_writers",
                describe: "two CPUs store to different words of one line; both stores must survive",
                build: build_two_writers,
                fault_plan: None,
                fault_deadlock_ok: false,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_two_writers),
                exhaustive: true,
            },
            Litmus {
                name: "victim_vs_probe",
                describe: "a dirty victim is in flight while another CPU's read probes the line",
                build: build_victim_vs_probe,
                fault_plan: Some(FaultPlan::drop_first("VicDirty")),
                fault_deadlock_ok: true,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_victim_vs_probe),
                exhaustive: true,
            },
            Litmus {
                name: "dup_reply",
                describe: "the directory's data response is duplicated; the stale second copy must be ignored",
                build: build_dup_reply,
                fault_plan: Some(dup_first_resp()),
                fault_deadlock_ok: false,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_dup_reply),
                exhaustive: true,
            },
            Litmus {
                name: "atomic_vs_eviction",
                describe: "CPU atomics race an eviction of the line they increment",
                build: build_atomic_vs_eviction,
                fault_plan: None,
                fault_deadlock_ok: false,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_atomic_vs_eviction),
                exhaustive: true,
            },
            Litmus {
                name: "dma_vs_dirty_l2",
                describe: "a DMA read races a CPU store dirtying the same line in an L2",
                build: build_dma_vs_dirty_l2,
                fault_plan: None,
                fault_deadlock_ok: false,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_dma_vs_dirty_l2),
                exhaustive: true,
            },
            Litmus {
                name: "slc_atomic_vs_probe",
                describe: "a GPU system-scope atomic at the directory races a CPU store to the line",
                build: build_slc_atomic_vs_probe,
                fault_plan: None,
                fault_deadlock_ok: false,
                sweep_plan: Some(drop_sweep),
                check_final: Some(final_slc_atomic_vs_probe),
                exhaustive: true,
            },
            Litmus {
                name: "retry_storm",
                describe: "sustained request loss with retries on: recover or deadlock cleanly, never corrupt",
                build: build_retry_storm,
                fault_plan: None,
                fault_deadlock_ok: false,
                sweep_plan: Some(heavy_drop_sweep),
                check_final: Some(final_retry_storm),
                exhaustive: false,
            },
        ]
    }

    /// Looks a scenario up by its stable name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Litmus> {
        Litmus::catalog().into_iter().find(|l| l.name == name)
    }
}

/// 20 % loss on the retryable request classes (`Atomic` is excluded by
/// [`FaultTargets::RetryableRequests`]: it is not idempotent).
fn drop_sweep(seed: u64) -> FaultPlan {
    FaultPlan::drops(seed, 200_000).with_targets(FaultTargets::RetryableRequests)
}

/// 50 % loss — the retry-storm regime.
fn heavy_drop_sweep(seed: u64) -> FaultPlan {
    FaultPlan::drops(seed, 500_000).with_targets(FaultTargets::RetryableRequests)
}

/// Duplicates exactly the first directory data response.
fn dup_first_resp() -> FaultPlan {
    FaultPlan {
        seed: 0,
        drop_ppm: 0,
        dup_ppm: 1_000_000,
        delay_ppm: 0,
        extra_delay: 0,
        targets: FaultTargets::Class("Resp"),
        max_faults: 1,
    }
}

fn build_two_writers(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut b = SystemBuilder::new(apply_knobs(tiny_config(), faults, retry));
    // Threads place two-per-pair; the idle filler pushes w1 to pair 1 so
    // the writers are distinct coherence agents.
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A, 1)])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A_W1, 2)])));
    b.build()
}

fn final_two_writers(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[1])?;
    expect_word(sys, A_W1, &[2])
}

fn build_victim_vs_probe(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut cfg = tiny_config();
    // Direct-mapped 2-line L2: the store to B evicts A's dirty copy, so
    // the VicDirty write-back is in flight exactly when pair 1's read
    // probes line A.
    cfg.cpu.l2_bytes = 128;
    cfg.cpu.l2_ways = 1;
    let mut b = SystemBuilder::new(apply_knobs(cfg, faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A, 1), CpuOp::Store(B, 2)])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Load(A)])));
    b.build()
}

fn final_victim_vs_probe(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[1])?;
    expect_word(sys, B, &[2])
}

fn build_dup_reply(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut b = SystemBuilder::new(apply_knobs(tiny_config(), faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A, 1)])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Load(A)])));
    b.build()
}

fn final_dup_reply(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[1])
}

fn build_atomic_vs_eviction(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut cfg = tiny_config();
    cfg.cpu.l2_bytes = 128;
    cfg.cpu.l2_ways = 1;
    let mut b = SystemBuilder::new(apply_knobs(cfg, faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![
        CpuOp::Atomic(A, AtomicKind::FetchAdd(1)),
        CpuOp::Store(B, 7),
    ])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Atomic(A, AtomicKind::FetchAdd(1))])));
    b.init_word(A, 10);
    b.build()
}

fn final_atomic_vs_eviction(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[12])?;
    expect_word(sys, B, &[7])
}

fn build_dma_vs_dirty_l2(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut b = SystemBuilder::new(apply_knobs(tiny_config(), faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A, 5)])));
    b.add_dma(DmaCommand::Read { base: A, lines: 1, at: Tick(0) });
    b.build()
}

fn final_dma_vs_dirty_l2(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[5])?;
    // The DMA read serialized either before or after the store; any
    // other value means it saw a torn or stale-after-probe line.
    let read = sys
        .dma_read_data()
        .into_iter()
        .find(|(la, _)| *la == A.line())
        .ok_or_else(|| "DMA read returned no data for line A".to_owned())?;
    let got = read.1.word_at(A);
    if got == 0 || got == 5 {
        Ok(())
    } else {
        Err(format!("DMA read observed {got:#x}, neither initial 0 nor stored 5"))
    }
}

fn build_slc_atomic_vs_probe(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut b = SystemBuilder::new(apply_knobs(tiny_config(), faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A, 10)])));
    b.add_wavefront(Box::new(GpuScript::new(vec![GpuOp::AtomicSlc(A, AtomicKind::FetchAdd(1))])));
    b.build()
}

fn final_slc_atomic_vs_probe(sys: &System) -> Result<(), String> {
    // atomic-then-store ⇒ 10; store-then-atomic ⇒ 11.
    expect_word(sys, A, &[10, 11])
}

fn build_retry_storm(faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
    let mut b = SystemBuilder::new(apply_knobs(tiny_config(), faults, retry));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![
        CpuOp::Store(A, 1),
        CpuOp::Load(A_W1),
        CpuOp::Store(B, 3),
    ])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![])));
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Store(A_W1, 2), CpuOp::Load(A)])));
    b.build()
}

fn final_retry_storm(sys: &System) -> Result<(), String> {
    expect_word(sys, A, &[1])?;
    expect_word(sys, A_W1, &[2])?;
    expect_word(sys, B, &[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let cat = Litmus::catalog();
        for (i, l) in cat.iter().enumerate() {
            assert!(Litmus::by_name(l.name).is_some());
            assert!(
                cat.iter().skip(i + 1).all(|o| o.name != l.name),
                "duplicate litmus name {}",
                l.name
            );
        }
        assert!(Litmus::by_name("no_such_scenario").is_none());
    }

    #[test]
    fn addresses_share_a_set_in_the_victim_l2() {
        // 128 B direct-mapped L2 with 64 B lines ⇒ 2 sets; A and B must
        // collide for the victim scenario to evict.
        assert_eq!(A.line().0 % 2, B.line().0 % 2);
        assert_ne!(A.line(), B.line());
        assert_eq!(A_W1.line(), A.line());
    }

    #[test]
    fn scripts_replay_their_ops_then_finish() {
        let mut s = CpuScript::new(vec![CpuOp::Store(A, 1)]);
        assert_eq!(s.next_op(None), CpuOp::Store(A, 1));
        assert_eq!(s.next_op(None), CpuOp::Done);
        let mut g = GpuScript::new(vec![GpuOp::Acquire]);
        assert_eq!(g.next_op(None), GpuOp::Acquire);
        assert_eq!(g.next_op(None), GpuOp::Done);
    }

    #[test]
    fn timed_runs_of_every_exhaustive_scenario_complete_and_pass() {
        // Before paying for exploration, every scenario must at least
        // pass under the simulator's native timed order.
        for l in Litmus::catalog() {
            let mut sys = l.build(None, None);
            sys.run(SWEEP_EVENT_BUDGET).unwrap_or_else(|e| panic!("{}: {e}", l.name));
            if let Some(f) = l.check_final {
                f(&sys).unwrap_or_else(|e| panic!("{}: {e}", l.name));
            }
        }
    }
}

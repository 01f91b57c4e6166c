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
//! (`ifetch_interval = u64::MAX`) and shrink every cache so a cloned
//! [`System`] costs microseconds — the explorer clones one at every
//! branch point, thousands of times per scenario.

use hsc_cluster::{CpuOp, CpuScript, DmaCommand, DmaScript, GpuOp, GpuScript, Mutant};
use hsc_mem::{Addr, AtomicKind};
use hsc_noc::{FaultPlan, FaultTargets, RetryPolicy, SimError};
use hsc_sim::Tick;

use hsc_core::{System, SystemBuilder, SystemConfig};

use crate::{explore, CheckConfig, ExploreReport};

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

/// A plain-`fn` predicate over a cleanly completed system (see
/// [`Litmus::also`]).
pub type ExtraCheck = fn(&System) -> Result<(), String>;

/// One directed scenario, as data: the programs and DMA commands that
/// race, the memory they start from, the faults that probe them, and the
/// final words every completed run must end with.
#[derive(Debug, Clone)]
pub struct Litmus {
    /// Stable scenario name (CLI selector, report key).
    pub name: &'static str,
    /// One-line description of the race under test.
    pub describe: &'static str,
    /// CPU threads in placement order, two per CorePair: an empty script
    /// is the idle filler that pushes the next thread onto the next pair.
    pub cpu: Vec<CpuScript>,
    /// GPU wavefronts.
    pub gpu: Vec<GpuScript>,
    /// DMA commands, in issue order.
    pub dma: Vec<DmaCommand>,
    /// Initial memory words (the rest is zero).
    pub init: Vec<(Addr, u64)>,
    /// Shrinks every L2 to 2 direct-mapped lines, so that touching [`B`]
    /// evicts [`A`].
    pub shrink_l2: bool,
    /// Deterministic surgical fault for the faulty exhaustive pass
    /// (`None` = fault-free exploration only).
    pub fault_plan: Option<FaultPlan>,
    /// Whether stuck states are an accepted outcome under `fault_plan`
    /// (true for message loss with retries off — the lost request is
    /// *supposed* to strand its agent).
    pub fault_deadlock_ok: bool,
    /// Seeded probabilistic plan for the timed sweep mode.
    pub sweep_plan: Option<fn(u64) -> FaultPlan>,
    /// The coherent final value of each listed word must be one of its
    /// allowed values in every cleanly completed run.
    pub allowed: Vec<(Addr, Vec<u64>)>,
    /// What `allowed` cannot say about a completed run.
    pub also: Option<ExtraCheck>,
    /// Whether the scenario is explored exhaustively (retry-storm is
    /// sweep-only: retry timers make its state space a timing artifact).
    pub exhaustive: bool,
    /// The seeded protocol bug the system is built with.
    pub mutant: Mutant,
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
    /// A scenario with no agents yet — one that completes at once and
    /// passes — explored exhaustively and swept under 20 % request loss;
    /// the base every scenario fills in with struct-update syntax.
    #[must_use]
    pub fn new(name: &'static str, describe: &'static str) -> Self {
        Litmus {
            name,
            describe,
            cpu: Vec::new(),
            gpu: Vec::new(),
            dma: Vec::new(),
            init: Vec::new(),
            shrink_l2: false,
            fault_plan: None,
            fault_deadlock_ok: false,
            sweep_plan: Some(drop_sweep),
            allowed: Vec::new(),
            also: None,
            exhaustive: true,
            mutant: Mutant::None,
        }
    }

    /// Builds the scenario's system on [`tiny_config`] with the given
    /// fault/retry knobs.
    #[must_use]
    pub fn build(&self, faults: Option<FaultPlan>, retry: Option<RetryPolicy>) -> System {
        let mut cfg = tiny_config();
        if self.shrink_l2 {
            cfg.cpu.l2_bytes = 128;
            cfg.cpu.l2_ways = 1;
        }
        cfg.faults = faults;
        if let Some(r) = retry {
            cfg = cfg.with_retry(r);
        }
        let mut b = SystemBuilder::new(cfg);
        b.with_mutant(self.mutant);
        for script in &self.cpu {
            b.add_cpu_thread(Box::new(script.clone()));
        }
        for script in &self.gpu {
            b.add_wavefront(Box::new(script.clone()));
        }
        b.with_dma(Box::new(DmaScript::new(self.dma.clone())));
        b.init_words(self.init.iter().copied());
        b.build()
    }

    /// The predicate over a cleanly completed run: every `allowed` word,
    /// then `also`.
    ///
    /// # Errors
    ///
    /// Describes the first divergence.
    pub fn check_final(&self, sys: &System) -> Result<(), String> {
        for (a, allowed) in &self.allowed {
            let got = sys.final_word(*a);
            if !allowed.contains(&got) {
                return Err(format!(
                    "word {a}: final value {got:#x} not in allowed set {allowed:?}"
                ));
            }
        }
        self.also.map_or(Ok(()), |also| also(sys))
    }

    /// Runs the exhaustive passes: fault-free, then (if the scenario has
    /// one) under its deterministic fault plan, each judged by
    /// [`Litmus::check_final`].
    #[must_use]
    pub fn check_exhaustive(&self) -> LitmusReport {
        if !self.exhaustive {
            return LitmusReport { name: self.name, fault_free: None, faulty: None };
        }
        let check = |sys: &System| self.check_final(sys);
        let base = CheckConfig { final_check: Some(&check), deadlock_ok: false };
        let fault_free = Some(explore(&self.build(None, None), &base));

        let faulty = self.fault_plan.map(|plan| {
            let cfg = CheckConfig { deadlock_ok: self.fault_deadlock_ok, ..base.clone() };
            explore(&self.build(Some(plan), None), &cfg)
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
                    if let Err(reason) = self.check_final(&sys) {
                        summary
                            .failures
                            .push(format!("{} seed {seed}: completed wrong: {reason}", self.name));
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
        let cpu = |ops: &[CpuOp]| CpuScript::new(ops.to_vec());
        let idle = CpuScript::default();
        let add_one = CpuOp::Atomic(A, AtomicKind::FetchAdd(1));
        vec![
            Litmus {
                cpu: vec![cpu(&[CpuOp::Store(A, 1)]), idle.clone(), cpu(&[CpuOp::Store(A_W1, 2)])],
                allowed: vec![(A, vec![1]), (A_W1, vec![2])],
                ..Litmus::new(
                    "two_writers",
                    "two CPUs store to different words of one line; both stores must survive",
                )
            },
            // The store to B evicts A's dirty copy, so the VicDirty
            // write-back is in flight exactly when pair 1's read probes A.
            Litmus {
                cpu: vec![
                    cpu(&[CpuOp::Store(A, 1), CpuOp::Store(B, 2)]),
                    idle.clone(),
                    cpu(&[CpuOp::Load(A)]),
                ],
                shrink_l2: true,
                fault_plan: Some(FaultPlan::drop_first("VicDirty")),
                fault_deadlock_ok: true,
                allowed: vec![(A, vec![1]), (B, vec![2])],
                ..Litmus::new(
                    "victim_vs_probe",
                    "a dirty victim is in flight while another CPU's read probes the line",
                )
            },
            Litmus {
                cpu: vec![cpu(&[CpuOp::Store(A, 1)]), idle.clone(), cpu(&[CpuOp::Load(A)])],
                fault_plan: Some(dup_first_resp()),
                allowed: vec![(A, vec![1])],
                ..Litmus::new(
                    "dup_reply",
                    "the directory's data response is duplicated; the stale second copy must be ignored",
                )
            },
            Litmus {
                cpu: vec![cpu(&[add_one, CpuOp::Store(B, 7)]), idle.clone(), cpu(&[add_one])],
                init: vec![(A, 10)],
                shrink_l2: true,
                allowed: vec![(A, vec![12]), (B, vec![7])],
                ..Litmus::new(
                    "atomic_vs_eviction",
                    "CPU atomics race an eviction of the line they increment",
                )
            },
            Litmus {
                cpu: vec![cpu(&[CpuOp::Store(A, 5)])],
                dma: vec![DmaCommand::Read { base: A, lines: 1, at: Tick(0) }],
                allowed: vec![(A, vec![5])],
                also: Some(dma_read_saw_no_torn_line),
                ..Litmus::new(
                    "dma_vs_dirty_l2",
                    "a DMA read races a CPU store dirtying the same line in an L2",
                )
            },
            Litmus {
                cpu: vec![cpu(&[CpuOp::Store(A, 10)])],
                gpu: vec![GpuScript::new(vec![GpuOp::AtomicSlc(A, AtomicKind::FetchAdd(1))])],
                // atomic-then-store ⇒ 10; store-then-atomic ⇒ 11.
                allowed: vec![(A, vec![10, 11])],
                ..Litmus::new(
                    "slc_atomic_vs_probe",
                    "a GPU system-scope atomic at the directory races a CPU store to the line",
                )
            },
            Litmus {
                cpu: vec![
                    cpu(&[CpuOp::Store(A, 1), CpuOp::Load(A_W1), CpuOp::Store(B, 3)]),
                    idle,
                    cpu(&[CpuOp::Store(A_W1, 2), CpuOp::Load(A)]),
                ],
                sweep_plan: Some(heavy_drop_sweep),
                allowed: vec![(A, vec![1]), (A_W1, vec![2]), (B, vec![3])],
                exhaustive: false,
                ..Litmus::new(
                    "retry_storm",
                    "sustained request loss with retries on: recover or deadlock cleanly, never corrupt",
                )
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
        targets: FaultTargets::Class("Resp"),
        max_faults: 1,
    }
}

/// The DMA read serialized either before or after the store; any other
/// value means it saw a torn or stale-after-probe line.
fn dma_read_saw_no_torn_line(sys: &System) -> Result<(), String> {
    let read = sys
        .dma()
        .read_data()
        .get(&A.line())
        .ok_or_else(|| "DMA read returned no data for line A".to_owned())?;
    let got = read.word_at(A);
    if got == 0 || got == 5 {
        Ok(())
    } else {
        Err(format!("DMA read observed {got:#x}, neither initial 0 nor stored 5"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ViolationKind;

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
    fn a_scenario_built_at_run_time_is_explored_and_judged() {
        // Not from the catalog: the programs are computed here, as a
        // trace shrinker's or a fuzzer's output would be.
        let writers: Vec<CpuScript> = [Some(A), None, Some(A_W1)]
            .into_iter()
            .map(|a| CpuScript::new(a.map(|a| CpuOp::Store(a, a.0)).into_iter().collect()))
            .collect();
        let good = Litmus {
            cpu: writers,
            allowed: vec![(A, vec![A.0]), (A_W1, vec![A_W1.0])],
            ..Litmus::new("computed", "two generated writers, one line")
        };
        let report = good.check_exhaustive();
        assert!(report.passed());
        let two_writers = Litmus::by_name("two_writers").unwrap();
        let catalog = two_writers.check_exhaustive();
        let states = |r: &LitmusReport| r.fault_free.as_ref().unwrap().states;
        assert_eq!(states(&report), states(&catalog), "the same race: programs are not state");

        let wrong = Litmus { allowed: vec![(A, vec![A.0 + 1])], ..good };
        let report = wrong.check_exhaustive();
        let cx = report.counterexample().expect("no run can end with that word");
        assert_eq!(cx.kind, crate::ViolationKind::FinalState);
    }

    /// End-to-end proof that the checker catches a real protocol bug: an
    /// owner's probe response that "forgets" to forward its dirty data
    /// must produce a minimized counterexample naming the violating
    /// interleaving.
    #[test]
    fn seeded_moesi_mutation_yields_a_minimized_counterexample() {
        // Sanity: the unmutated protocol survives exhaustive exploration.
        let l = Litmus::by_name("two_writers").expect("catalog scenario");
        let clean = l.check_exhaustive();
        assert!(clean.passed(), "two_writers must pass without the mutation");

        let mutated = Litmus { mutant: Mutant::DropDirtyProbeData, ..l }.check_exhaustive();
        let cx = mutated.counterexample().expect("the lost dirty forward must be caught");

        assert!(cx.minimized, "the BFS pass must have shortened the DFS witness");
        assert!(
            matches!(cx.kind, ViolationKind::FinalState | ViolationKind::ValueCoherence),
            "a dropped dirty forward loses a store: got {:?}",
            cx.kind
        );
        assert!(!cx.steps.is_empty(), "the violating interleaving must be named");
        // The witness must actually show the racing ownership transfer: the
        // second writer's RdBlkM reaching the directory.
        let rendered = cx.to_string();
        assert!(
            rendered.contains("RdBlkM"),
            "counterexample must name the protocol events:\n{rendered}"
        );
        // The Perfetto export holds every step, the verdict and the tail.
        assert_eq!(cx.to_perfetto().len(), cx.steps.len() + 1 + cx.flight.len());
        // The flight tail names the deliveries leading to the violation,
        // so the rendering ends with a post-mortem.
        assert!(!cx.flight.is_empty(), "deliveries happened, so the tail must too");
        assert!(rendered.contains("flight recorder ("), "rendering carries the tail:\n{rendered}");
    }

    /// A step names its event by `seq`, which is the same on every replay
    /// of one path from one start, so the steps alone lead a fresh build
    /// to the state the search reported.
    #[test]
    fn a_counterexample_replays_from_its_steps_alone() {
        let two_writers = Litmus::by_name("two_writers").unwrap();
        let l = Litmus { mutant: Mutant::DropDirtyProbeData, ..two_writers };
        let report = l.check_exhaustive();
        let cx = report.counterexample().expect("the lost dirty forward must be caught");
        let mut sys = l.build(None, None);
        sys.enable_choice_mode();
        for ev in &cx.steps {
            assert!(sys.pending_events().contains(ev), "{ev} is pending as recorded");
            sys.step_choice(ev).expect("a replayed step cannot fail");
        }
        assert!(sys.pending_events().is_empty(), "nothing is left to deliver");
        assert_eq!(l.check_final(&sys), Err(cx.detail.clone()));
        assert_eq!(sys.flight_tail(), cx.flight);
    }

    #[test]
    fn a_mutant_belongs_to_its_system_not_the_process() {
        // The same scenario explored twice at once, clean and mutated: each
        // system sees only the mutant it was built with.
        let clean = Litmus::by_name("two_writers").unwrap();
        let mutated = Litmus { mutant: Mutant::DropDirtyProbeData, ..clean.clone() };
        let (clean, mutated) = std::thread::scope(|s| {
            let clean = s.spawn(|| clean.check_exhaustive());
            let mutated = s.spawn(|| mutated.check_exhaustive());
            (clean.join().unwrap(), mutated.join().unwrap())
        });
        let ff = clean.fault_free.as_ref().unwrap();
        assert!(clean.passed());
        assert_eq!((ff.states, ff.terminal_states), (960, 2));
        let cx = mutated.counterexample().expect("the lost dirty forward must be caught");
        assert_eq!((cx.kind, cx.steps.len()), (ViolationKind::FinalState, 26));
        assert_eq!(
            cx.to_string(),
            include_str!("../../../tests/fixtures/counterexample_two_writers.txt")
        );
    }

    #[test]
    fn timed_runs_of_every_exhaustive_scenario_complete_and_pass() {
        // Before paying for exploration, every scenario must at least
        // pass under the simulator's native timed order.
        for l in Litmus::catalog() {
            let mut sys = l.build(None, None);
            sys.run(SWEEP_EVENT_BUDGET).unwrap_or_else(|e| panic!("{}: {e}", l.name));
            l.check_final(&sys).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        }
    }
}

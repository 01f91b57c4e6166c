//! The simulator is bit-deterministic: identical inputs produce identical
//! event counts, cycle counts and statistics. This is what makes the
//! golden-value assertions in the figure benches meaningful.

use hsc_repro::prelude::*;
use hsc_repro::sim::Tick;

fn run_once(cfg: CoherenceConfig) -> (u64, u64, u64, u64) {
    let w = Tq { tasks: 128, producers: 2, cpu_consumers: 2, wavefronts: 4, compute: 10, seed: 5 };
    let r = run_workload_on(&w, SystemConfig::scaled(cfg));
    (r.metrics.gpu_cycles, r.metrics.probes_sent, r.metrics.mem_reads, r.metrics.mem_writes)
}

#[test]
fn identical_runs_are_bit_identical() {
    for cfg in [
        CoherenceConfig::baseline(),
        CoherenceConfig::llc_write_back_l3_on_wt(),
        CoherenceConfig::sharer_tracking(),
    ] {
        let a = run_once(cfg);
        let b = run_once(cfg);
        assert_eq!(a, b, "two runs of the same configuration diverged");
    }
}

#[test]
fn different_seeds_change_the_execution() {
    let mk = |seed| {
        let w = Hsti { elements: 512, bins: 16, cpu_threads: 4, wavefronts: 4, seed };
        run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::baseline())).metrics.gpu_cycles
    };
    assert_ne!(mk(1), mk(2), "the seed must actually steer the workload");
}

#[test]
fn full_stats_are_reproducible() {
    let w = Sc { elements: 1024, cpu_threads: 4, wavefronts: 4, ..Sc::default() };
    let a = run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::owner_tracking()));
    let b = run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::owner_tracking()));
    assert_eq!(a.metrics.stats, b.metrics.stats, "stat sets diverged");
}

/// A run that stops on its event budget has consumed nothing it did not
/// dispatch: the event that tripped the budget is still queued at the
/// reported `now`, and running on reaches the same end state as a run
/// that was never interrupted.
#[test]
fn a_run_stopped_by_its_event_budget_resumes_where_it_stopped() {
    let bench = Hsti { elements: 512, bins: 16, cpu_threads: 4, wavefronts: 4, seed: 3 };
    let build = || {
        let mut b = SystemBuilder::new(SystemConfig::scaled(CoherenceConfig::baseline()));
        bench.build(&mut b);
        b.build()
    };
    let pin =
        |m: &Metrics| (m.events, m.ticks, m.gpu_cycles, m.probes_sent, m.mem_reads, m.mem_writes);

    let whole = build().run(u64::MAX).expect("the uninterrupted run completes");

    let mut sys = build();
    // The event that trips 1000 shares its tick with five more queued
    // ones; the one that trips 2500 is alone at its tick.
    for budget in [1000, 2500] {
        let now = match sys.run(budget) {
            Err(SimError::EventBudgetExceeded { budget: b, now }) if b == budget => now,
            other => panic!("expected the budget of {budget} to run out, got {other:?}"),
        };
        assert_eq!(sys.events_processed(), budget, "the budget counts dispatched events");
        let pending = sys.pending_events();
        assert_eq!(
            pending.first().map(|p| p.at),
            Some(now),
            "the event that tripped the budget must still be queued: {pending:?}"
        );
    }
    let resumed = sys.run(u64::MAX).expect("the resumed run completes");
    assert_eq!(pin(&resumed), pin(&whole), "interrupted-then-resumed diverged from uninterrupted");
    assert_eq!(resumed.stats, whole.stats, "stat sets diverged");
    bench.verify(&sys).expect("hsti verifies after the resumed run");
}

/// The event queue's contract: nothing is scheduled below the tick of the
/// event the run loop last handled. Walks three timed runs one event at a
/// time through the resumable budget and checks, after every event, that
/// the whole pending set lies at or after it. A run that deadlocks (the
/// faulted one may) ends its walk there.
#[test]
fn the_run_loop_never_schedules_into_its_past() {
    let hsti = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let cedd =
        Cedd { frames: 2, pixels: 256, cpu_per_stage: 2, wfs_per_stage: 4, ..Cedd::default() };
    let drops = FaultPlan::drops(5, 20_000).with_targets(FaultTargets::RetryableRequests);
    let runs: [(&str, &dyn Workload, SystemConfig); 3] = [
        ("hsti", &hsti, SystemConfig::scaled(CoherenceConfig::baseline())),
        ("cedd", &cedd, SystemConfig::scaled(CoherenceConfig::sharer_tracking())),
        (
            "hsti under drops",
            &hsti,
            SystemConfig::scaled(CoherenceConfig::baseline())
                .with_faults(drops)
                .with_retry(RetryPolicy::default()),
        ),
    ];
    for (name, bench, cfg) in runs {
        let mut b = SystemBuilder::new(cfg);
        bench.build(&mut b);
        let mut sys = b.build();
        // The run loop always handles the earliest pending event, so the
        // tick the last budget stop reported is the one handled next.
        let mut handled = Tick(0);
        for k in 0.. {
            match sys.run(k + 1) {
                Err(SimError::EventBudgetExceeded { now, .. }) => {
                    let pending = sys.pending_events();
                    let early = pending.iter().find(|p| p.at < handled);
                    assert!(
                        early.is_none(),
                        "{name}: event {} at {handled} left {early:?} behind it",
                        k + 1
                    );
                    handled = now;
                }
                Ok(_) | Err(SimError::Deadlock { .. }) => break,
                Err(e) => panic!("{name}: event {} failed: {e}", k + 1),
            }
        }
        assert!(sys.events_processed() > 1_000, "{name}: the walk ended early");
    }
}

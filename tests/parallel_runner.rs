//! The parallel campaign runner must be invisible in the results: a sweep
//! executed on 4 worker threads renders the same figure and the same
//! `RunReport` JSON, byte for byte, as the serial run — only wall-clock
//! may differ. A panicking job must surface as a named `JobError` while
//! its sibling jobs complete, and the counter merge must be
//! order-independent.

use hsc_repro::bench::figures::{fig6, tracking_sweep};
use hsc_repro::bench::par::{expect_all, Campaign, Parallelism};
use hsc_repro::bench::reporting::{run_record, REPORT_EPOCH_TICKS};
use hsc_repro::prelude::*;
use hsc_repro::sim::StatSet;

/// Small-but-real seeded workloads so the sweep exercises actual
/// simulations, not stub closures.
fn seeded_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Tq {
            tasks: 64,
            producers: 2,
            cpu_consumers: 2,
            wavefronts: 4,
            compute: 10,
            seed: 5,
        }),
        Box::new(Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 }),
    ]
}

/// Fig. 6 as `hsc fig 6` prints it: the real sweep, the real renderer.
fn render_fig6(par: Parallelism) -> String {
    let mut out = Vec::new();
    fig6(&tracking_sweep(par), &mut out).expect("writing to a Vec");
    String::from_utf8(out).expect("figures write UTF-8")
}

#[test]
fn sweep_table_is_byte_identical_across_worker_counts() {
    let serial = render_fig6(Parallelism::of(1));
    let parallel = render_fig6(Parallelism::of(4));
    assert!(serial.contains("average (sharer tracking)"));
    assert_eq!(serial, parallel, "table output must not depend on the worker count");
}

#[test]
fn report_json_is_byte_identical_across_worker_counts() {
    let build = |par: Parallelism| {
        let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
        let workloads = seeded_workloads();
        let mut report = RunReport::new("parallel_runner_test");
        report.fingerprint_config(&cfg);
        let mut campaign = Campaign::new("report");
        for w in &workloads {
            let w = w.as_ref();
            campaign.push(w.name(), move || {
                let run = run_workload_observed(w, cfg, ObsConfig::report(REPORT_EPOCH_TICKS));
                run_record(w.name(), "baseline", &run)
            });
        }
        report.runs = expect_all("report", campaign.run(par)).unwrap();
        report.to_json_string()
    };
    let serial = build(Parallelism::of(1));
    let parallel = build(Parallelism::of(4));
    assert!(serial.contains("\"schema\""));
    assert_eq!(serial, parallel, "RunReport JSON must not depend on the worker count");
}

#[test]
fn panicking_job_is_a_named_error_and_siblings_still_run() {
    let w = Tq { tasks: 64, producers: 2, cpu_consumers: 2, wavefronts: 4, compute: 10, seed: 5 };
    let mut campaign = Campaign::new("mixed");
    campaign.push("tq/before", || {
        run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::baseline())).gpu_cycles
    });
    campaign.push("doomed", || panic!("injected campaign failure"));
    campaign.push("tq/after", || {
        run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::sharer_tracking())).gpu_cycles
    });
    let results = campaign.run(Parallelism::of(3));
    assert_eq!(results.len(), 3);
    assert!(results[0].as_ref().is_ok_and(|&c| c > 0), "sibling before the panic completes");
    assert!(results[2].as_ref().is_ok_and(|&c| c > 0), "sibling after the panic completes");
    let err = results[1].as_ref().expect_err("the panicking job must fail");
    assert_eq!(err.job, "doomed", "the error names the submitted job");
    assert!(err.message.contains("injected campaign failure"));
}

#[test]
fn simulation_panics_are_captured_per_job() {
    // A run that trips the event budget panics inside `run_workload_on`;
    // the campaign must convert it into a JobError naming the job.
    let w = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut campaign = Campaign::new("budget");
    campaign.push("hsti/ok", || {
        run_workload_on(&w, SystemConfig::scaled(CoherenceConfig::baseline())).ticks
    });
    campaign.push("hsti/starved", || {
        let mut b = SystemBuilder::new(SystemConfig::scaled(CoherenceConfig::baseline()));
        w.build(&mut b);
        let mut sys = b.build();
        match sys.run(10) {
            Ok(m) => m.ticks,
            Err(e) => panic!("starved run failed as expected: {e}"),
        }
    });
    let results = campaign.run(Parallelism::of(2));
    assert!(results[0].is_ok());
    let err = results[1].as_ref().expect_err("budget-starved job must fail");
    assert_eq!(err.job, "hsti/starved");
    assert!(err.message.contains("starved run failed as expected"));
}

#[test]
fn disjoint_statset_merge_is_order_independent() {
    let mut a = StatSet::new();
    a.set("dir.probes_sent", 7);
    a.set("cp0.l2.hits", 100);
    a.set("cp0.l2.retries", 0); // zero key must survive in either order
    let mut b = StatSet::new();
    b.set("tcc.hits", 42);
    b.set("wf.vec_loads", 9);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "disjoint StatSet merge must commute");
    assert_eq!(ab.len(), 5);
    assert_eq!(ab.get("cp0.l2.retries"), 0);

    // Overlapping keys commute too (counters add).
    let mut c = StatSet::new();
    c.set("dir.probes_sent", 3);
    let mut ac = a.clone();
    ac.merge(&c);
    let mut ca = c.clone();
    ca.merge(&a);
    assert_eq!(ac, ca);
    assert_eq!(ac.get("dir.probes_sent"), 10);
}

#[test]
fn campaign_results_preserve_submission_order_with_real_runs() {
    // Submit in an order where the heavier job comes first, so under real
    // parallelism the lighter job finishes earlier — results must still
    // come back in submission order.
    let heavy =
        Tq { tasks: 128, producers: 2, cpu_consumers: 2, wavefronts: 4, compute: 10, seed: 5 };
    let light = Hsti { elements: 128, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut campaign = Campaign::new("order");
    for w in [&heavy as &dyn Workload, &light] {
        campaign.push(w.name(), move || {
            let _ = run_workload_on(w, SystemConfig::scaled(CoherenceConfig::baseline()));
            w.name()
        });
    }
    let names: Vec<&str> =
        expect_all("order", campaign.run(Parallelism::of(2))).unwrap().into_iter().collect();
    assert_eq!(names, ["tq", "hsti"]);
}

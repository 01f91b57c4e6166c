//! `hsc-layers`: per-layer testbenches. Each times calls into one layer's
//! public functions from outside — data structures directly, controllers
//! by replaying a run recorded against stub peers — and reports the
//! minimum ns per op over a number of batches. Nothing here depends on a
//! workload: `hsc-e2e` runs this binary once and combines its figures
//! with each workload's event counts.
//!
//! This binary uses the simulator's wider API on purpose and is built
//! separately from `hsc-e2e`: a refactor of a layer's interface may break
//! it (and cost the layer figures) without touching the end-to-end ones.
//!
//! Usage: `hsc-layers [--quick] [--depth N[,N...]]`; one JSON object on
//! stdout.

mod agents;
mod harness;
mod micro;

use hsc_bench::par::Parallelism;
use hsc_bench::{mean, paper, pct_saved, sweep};
use hsc_benchmark::{calib, MetricMap, Spans};
use hsc_core::CoherenceConfig;
use hsc_obs::json::JsonWriter;
use hsc_workloads::collaborative_workloads;

use harness::{bench_with, Effort};

fn usage_exit(message: &str) -> ! {
    eprintln!("hsc-layers: {message}");
    eprintln!("usage: hsc-layers [--quick] [--depth N[,N...]]");
    std::process::exit(2);
}

/// ROADMAP item 1's host calibration: ns per event of the host-speed
/// reference `hsc-e2e` scales its end-to-end times by, so that figures
/// taken on different hosts can be compared.
fn calibrate(spans: &mut Spans, effort: Effort) -> f64 {
    bench_with(
        spans,
        "host.calib_ns",
        effort,
        || (),
        |()| calib::spin() as f64 / calib::EVENTS as f64,
    )
}

/// The figure sweep at one and two workers: the campaign runner's
/// speed-up, and the reproduction's distance from the paper's averages.
fn sweeps(spans: &mut Spans, out: &mut MetricMap) {
    let workloads = collaborative_workloads();
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("ownerTracking", CoherenceConfig::owner_tracking()),
        ("sharerTracking", CoherenceConfig::sharer_tracking()),
    ];
    let (cells, ns1) =
        spans.time("bench.sweep.jobs1", "", || sweep(&workloads, &configs, Parallelism::of(1)));
    let (_, ns2) =
        spans.time("bench.sweep.jobs2", "", || sweep(&workloads, &configs, Parallelism::of(2)));
    out.put("bench.par.wall_ratio_jobs2", ns2 as f64 / ns1 as f64, "ratio");

    let per_workload = |f: fn(&hsc_core::Metrics) -> u64| -> f64 {
        let saved: Vec<f64> = cells
            .chunks(configs.len())
            .map(|c| pct_saved(f(&c[0].metrics), f(&c[2].metrics)))
            .collect();
        mean(&saved)
    };
    let fig6 = per_workload(|m| m.gpu_cycles);
    let fig7 = per_workload(|m| m.probes_sent);
    out.put("bench.paper.fig6_speedup_pct", fig6, "%");
    out.put("bench.paper.fig7_probe_reduction_pct", fig7, "%");
    let fig6_err = (fig6 - paper::FIG6_AVG_SPEEDUP_PCT).abs();
    let fig7_err = (fig7 - paper::FIG7_AVG_PROBE_REDUCTION_PCT).abs();
    out.put("bench.paper.fig6_error_pp", fig6_err, "pp");
    out.put("bench.paper.fig7_error_pp", fig7_err, "pp");
}

fn main() {
    let mut quick = false;
    let mut depths: Vec<usize> = vec![64];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--depth" => {
                let raw = args.next().unwrap_or_else(|| usage_exit("--depth requires a list"));
                depths = raw
                    .split(',')
                    .map(|d| d.parse().ok().filter(|d| (1..=1 << 20).contains(d)))
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| usage_exit("--depth takes integers from 1 to 2^20"));
            }
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    let effort = Effort { batches: if quick { 2 } else { 20 }, ops: 100_000 };

    let mut spans = Spans::new();
    let mut metrics = MetricMap::new();
    metrics.put("host.calib_ns", calibrate(&mut spans, effort), "ns");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    metrics.put("host.nproc", nproc as f64, "count");
    micro::run(&mut spans, effort, &mut metrics);
    agents::run(&mut spans, effort, &mut metrics);
    let wheel: Vec<(usize, f64, f64)> = depths
        .iter()
        .map(|&d| {
            let (near, far) = micro::wheel(&mut spans, effort, d);
            (d, near, far)
        })
        .collect();
    sweeps(&mut spans, &mut metrics);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("metrics");
    metrics.write_json(&mut w);
    w.key("wheel");
    w.begin_array();
    for (depth, near, far) in wheel {
        w.begin_object();
        w.key("depth");
        w.uint(depth as u64);
        w.key("near");
        w.float(near);
        w.key("far");
        w.float(far);
        w.end_object();
    }
    w.end_array();
    w.key("spans");
    spans.write_json(&mut w);
    w.end_object();
    println!("{}", w.finish());
}

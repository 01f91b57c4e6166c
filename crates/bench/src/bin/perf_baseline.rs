//! Self-measuring performance baseline for the simulator itself.
//!
//! Every other binary in this crate measures the *simulated* machine;
//! this one measures the *simulator*: how long the driver loop takes on
//! the collaborative workloads, and how many events a second that is. Run
//! it before and after a change to the hot path (counter bumps, the
//! event queue, message delivery) to see whether the change paid for
//! itself — DESIGN.md's "Performance" section explains what those hot
//! paths are.
//!
//! Each workload is run once to warm caches, then `--reps` times
//! timed. The minimum wall-clock rep is the headline number (least
//! contaminated by scheduler noise); the mean is reported alongside so
//! a noisy host is visible in the data itself.
//!
//! Flags:
//!
//! * `--quick` — only the two CI workloads (`tq`, `hsti`) instead of
//!   the full collaborative suite.
//! * `--reps <N>` — timed repetitions per workload (default 5).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_<rev>.json` with `<rev>` from `git describe`).
//!
//! The JSON (written with [`hsc_obs::json`], like every artifact in
//! this workspace) is append-friendly evidence: commit one per
//! optimization PR and the history of `total.wall_ms_min_sum` — the
//! wall-clock of the fixed workload set — tells you whether the
//! simulator is getting faster. `events_per_sec` is only comparable
//! between records with equal `events`: a change that removes cheap
//! events shortens every run while lowering it (`perf_trend` compares
//! wall-clock for that reason).

use std::time::Instant;

use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_obs::git_describe;
use hsc_obs::json::JsonWriter;
use hsc_workloads::{collaborative_workloads, run_workload_on, Hsti, Tq, Workload};

struct Options {
    quick: bool,
    reps: u32,
    out: Option<String>,
}

fn usage_exit(message: &str) -> ! {
    eprintln!("perf_baseline: {message}");
    eprintln!("usage: perf_baseline [--quick] [--reps <N>] [--out <path>]");
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options { quick: false, reps: 5, out: None };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--reps" => {
                let raw = args.next().ok_or("--reps requires a count operand")?;
                opts.reps = raw
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--reps: '{raw}' is not a positive integer"))?;
            }
            "--out" => {
                opts.out = Some(args.next().ok_or("--out requires a path operand")?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

struct Measurement {
    name: &'static str,
    events: u64,
    ticks: u64,
    wall_ms_min: f64,
    wall_ms_mean: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms_min > 0.0 {
            self.events as f64 / (self.wall_ms_min / 1000.0)
        } else {
            0.0
        }
    }
}

fn measure(w: &dyn Workload, reps: u32) -> Measurement {
    let cfg = || SystemConfig::scaled(CoherenceConfig::baseline());
    // Warm-up rep: faults the binary in, fills the allocator's free
    // lists, and verifies the workload once so a broken protocol fails
    // here rather than mid-measurement.
    let warm = run_workload_on(w, cfg());
    let mut wall_ms = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let start = Instant::now();
        let r = run_workload_on(w, cfg());
        wall_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            r.metrics.events,
            warm.metrics.events,
            "{} is not deterministic across reps",
            w.name()
        );
    }
    let min = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = wall_ms.iter().sum::<f64>() / wall_ms.len() as f64;
    Measurement {
        name: w.name(),
        events: warm.metrics.events,
        ticks: warm.metrics.ticks,
        wall_ms_min: min,
        wall_ms_mean: mean,
    }
}

fn write_json(path: &str, opts: &Options, rev: &str, rows: &[Measurement]) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("hsc-perf-baseline/v1");
    w.key("git");
    w.string(rev);
    w.key("quick");
    w.boolean(opts.quick);
    w.key("reps");
    w.uint(u64::from(opts.reps));
    w.key("workloads");
    w.begin_array();
    for m in rows {
        w.begin_object();
        w.key("name");
        w.string(m.name);
        w.key("events");
        w.uint(m.events);
        w.key("ticks");
        w.uint(m.ticks);
        w.key("wall_ms_min");
        w.float(m.wall_ms_min);
        w.key("wall_ms_mean");
        w.float(m.wall_ms_mean);
        w.key("events_per_sec");
        w.float(m.events_per_sec());
        w.end_object();
    }
    w.end_array();
    let total_events: u64 = rows.iter().map(|m| m.events).sum();
    let total_ms: f64 = rows.iter().map(|m| m.wall_ms_min).sum();
    w.key("total");
    w.begin_object();
    w.key("events");
    w.uint(total_events);
    w.key("wall_ms_min_sum");
    w.float(total_ms);
    w.key("events_per_sec");
    w.float(if total_ms > 0.0 { total_events as f64 / (total_ms / 1000.0) } else { 0.0 });
    w.end_object();
    w.end_object();
    std::fs::write(path, w.finish() + "\n")
        .unwrap_or_else(|e| panic!("cannot write perf baseline to {path}: {e}"));
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => usage_exit(&msg),
    };
    let rev = git_describe();

    let workloads: Vec<Box<dyn Workload>> = if opts.quick {
        vec![Box::new(Tq::default()), Box::new(Hsti::default())]
    } else {
        collaborative_workloads()
    };

    println!(
        "perf_baseline: {} workload(s), {} timed rep(s) each, rev {rev}",
        workloads.len(),
        opts.reps
    );
    let mut rows = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let m = measure(w.as_ref(), opts.reps);
        println!(
            "  {:<6} {:>9} events  min {:>8.2} ms  mean {:>8.2} ms  {:>6.2} M events/s",
            m.name,
            m.events,
            m.wall_ms_min,
            m.wall_ms_mean,
            m.events_per_sec() / 1e6
        );
        rows.push(m);
    }

    let total_events: u64 = rows.iter().map(|m| m.events).sum();
    let total_ms: f64 = rows.iter().map(|m| m.wall_ms_min).sum();
    let total_eps = if total_ms > 0.0 { total_events as f64 / (total_ms / 1000.0) } else { 0.0 };
    println!(
        "perf_baseline total: {total_events} events in {total_ms:.2} ms (min-sum) = {:.2} M events/s",
        total_eps / 1e6
    );

    let path = opts.out.clone().unwrap_or_else(|| format!("BENCH_{rev}.json"));
    write_json(&path, &opts, &rev, &rows);
    println!("perf baseline written to {path}");
}

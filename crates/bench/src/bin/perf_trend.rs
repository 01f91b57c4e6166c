//! Simulator-speed trajectory: every committed perf baseline next to
//! a fresh measurement of this tree.
//!
//! Reads all `BENCH_*.json` files (the `hsc-perf-baseline/v1` records
//! `perf_baseline` writes, one committed per optimization PR), measures
//! the current tree on the quick workload pair (`tq`, `hsti`), and prints
//! the trajectory. The compared quantity is the **wall-clock of that fixed
//! workload pair** (`wall_ms`, lower is better), not events per second: a
//! change that removes cheap events (duplicate wake-ups, say) makes every
//! run shorter while *lowering* events/s, because the events that remain
//! are the expensive ones. Events/s stays printed as a secondary column —
//! it is comparable only between records with equal event counts. Every
//! comparison uses **min-of-reps** wall-clock only (`wall_ms_min`): the
//! minimum is the run least disturbed by scheduler noise, so it is the
//! only statistic comparable across records taken with different rep
//! counts. Each row prints its rep count so a 3-rep quick record is never
//! mistaken for a committed 5-rep baseline.
//!
//! Records written while `perf_baseline` had a `--shards` flag carry a
//! `shards` field. `1` (or no field) is the engine this tree still has;
//! any other value was measured on the removed sharded engine and is
//! rejected by name rather than compared with serial numbers.
//!
//! Two modes:
//!
//! * **Trend (default)** — exits non-zero if the fresh wall-clock is
//!   more than `--threshold` percent (default 15%) above the **best**
//!   (shortest) committed baseline. Committed baselines come from other
//!   machines, so CI treats this as a warning; locally it is the quickest
//!   "did my change cost time?" answer.
//! * **Gate (`--gate <pct> --against <path>`)** — compares the fresh
//!   measurement against a baseline record produced moments earlier *on
//!   the same runner* (CI builds the PR's base revision and runs
//!   `perf_baseline --quick` on it first). Like-for-like hardware makes
//!   this comparison meaningful, so it is gating: exits non-zero only if
//!   the fresh min-of-reps wall-clock is more than `<pct>` percent above
//!   the same-runner baseline's. The cross-machine `--threshold` check is
//!   informational in this mode.
//!
//! Flags:
//!
//! * `--dir <path>` — where to scan for `BENCH_*.json` (default `.`);
//! * `--reps <N>` — timed repetitions per workload (default 3);
//! * `--threshold <pct>` — allowed regression vs the best baseline;
//! * `--gate <pct>` — fail on a same-runner regression beyond this;
//! * `--against <path>` — the same-runner baseline record `--gate`
//!   compares to (required with `--gate`).

use std::process::ExitCode;
use std::time::Instant;

use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_obs::git_describe;
use hsc_obs::json::{parse, Value};
use hsc_workloads::{run_workload_on, Hsti, Tq, Workload};

/// The quick pair every baseline contains, full suite or `--quick`.
const QUICK_WORKLOADS: [&str; 2] = ["tq", "hsti"];

struct Options {
    dir: String,
    reps: u32,
    threshold_pct: f64,
    gate_pct: Option<f64>,
    against: Option<String>,
}

fn usage_exit(message: &str) -> ! {
    eprintln!("perf_trend: {message}");
    eprintln!(
        "usage: perf_trend [--dir <path>] [--reps <N>] [--threshold <pct>] \
         [--gate <pct> --against <baseline.json>]"
    );
    std::process::exit(2);
}

fn parse_pct(flag: &str, raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|p| p.is_finite() && *p >= 0.0)
        .ok_or_else(|| format!("{flag}: '{raw}' is not a percentage"))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        dir: ".".to_owned(),
        reps: 3,
        threshold_pct: 15.0,
        gate_pct: None,
        against: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => opts.dir = args.next().ok_or("--dir requires a path operand")?,
            "--reps" => {
                let raw = args.next().ok_or("--reps requires a count operand")?;
                opts.reps = raw
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--reps: '{raw}' is not a positive integer"))?;
            }
            "--threshold" => {
                let raw = args.next().ok_or("--threshold requires a percentage operand")?;
                opts.threshold_pct = parse_pct("--threshold", &raw)?;
            }
            "--gate" => {
                let raw = args.next().ok_or("--gate requires a percentage operand")?;
                opts.gate_pct = Some(parse_pct("--gate", &raw)?);
            }
            "--against" => {
                opts.against = Some(args.next().ok_or("--against requires a path operand")?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.gate_pct.is_some() != opts.against.is_some() {
        return Err("--gate and --against must be used together".to_owned());
    }
    Ok(opts)
}

/// One baseline row: a committed record, the same-runner gate record, or
/// the fresh measurement, restricted to the quick workload pair.
struct Row {
    label: String,
    rev: String,
    /// Timed reps behind each `wall_ms_min` ("?" for records predating
    /// the explicit `reps` field).
    reps: String,
    /// `(events, wall_ms_min)` summed over the quick pair.
    events: u64,
    wall_ms: f64,
    workloads_present: usize,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        }
    }
}

/// Parses one `hsc-perf-baseline/v1` record into a quick-pair row.
/// Returns an error string naming the problem so a malformed record is
/// reported, not silently skipped.
fn parse_baseline(name: &str, text: &str) -> Result<Row, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("hsc-perf-baseline/v1") {
        return Err("schema is not hsc-perf-baseline/v1".to_owned());
    }
    let rev =
        doc.get("git").and_then(Value::as_str).ok_or("field 'git' must be a string")?.to_owned();
    let reps = match doc.get("reps").and_then(Value::as_f64) {
        Some(r) if r >= 1.0 => format!("{}", r as u64),
        Some(_) => return Err("field 'reps' must be a positive count".to_owned()),
        None => "?".to_owned(),
    };
    match doc.get("shards").map(Value::as_f64) {
        None | Some(Some(1.0)) => {}
        Some(Some(n)) => {
            return Err(format!("field 'shards' is {n}: measured on the removed sharded engine"))
        }
        Some(None) => return Err("field 'shards' must be a number".to_owned()),
    }
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("field 'workloads' must be an array")?;
    let mut events = 0u64;
    let mut wall_ms = 0.0f64;
    let mut present = 0usize;
    for w in workloads {
        let wname = w.get("name").and_then(Value::as_str).unwrap_or("");
        if !QUICK_WORKLOADS.contains(&wname) {
            continue;
        }
        let ev = w
            .get("events")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("workload {wname}: 'events' must be a number"))?;
        let ms = w
            .get("wall_ms_min")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("workload {wname}: 'wall_ms_min' must be a number"))?;
        events += ev as u64;
        wall_ms += ms;
        present += 1;
    }
    if present == 0 {
        return Err(format!("record contains none of {QUICK_WORKLOADS:?}"));
    }
    Ok(Row { label: name.to_owned(), rev, reps, events, wall_ms, workloads_present: present })
}

/// Measures the quick pair on this tree, `reps` timed runs each after one
/// warm-up, keeping the minimum wall-clock per workload (the
/// `perf_baseline` methodology).
fn measure_fresh(reps: u32) -> Row {
    let workloads: [Box<dyn Workload>; 2] = [Box::new(Tq::default()), Box::new(Hsti::default())];
    let cfg = || SystemConfig::scaled(CoherenceConfig::baseline());
    let mut events = 0u64;
    let mut wall_ms = 0.0f64;
    for w in &workloads {
        let warm = run_workload_on(w.as_ref(), cfg());
        let mut min_ms = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let r = run_workload_on(w.as_ref(), cfg());
            min_ms = min_ms.min(start.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(
                r.metrics.events,
                warm.metrics.events,
                "{} is not deterministic across reps",
                w.name()
            );
        }
        events += warm.metrics.events;
        wall_ms += min_ms;
    }
    Row {
        label: "(this tree)".to_owned(),
        rev: git_describe(),
        reps: reps.to_string(),
        events,
        wall_ms,
        workloads_present: QUICK_WORKLOADS.len(),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => usage_exit(&msg),
    };

    let mut names: Vec<String> = match std::fs::read_dir(&opts.dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => usage_exit(&format!("cannot read directory {}: {e}", opts.dir)),
    };
    names.sort();

    let mut rows = Vec::new();
    let mut malformed = 0;
    for name in &names {
        let path = std::path::Path::new(&opts.dir).join(name);
        match std::fs::read_to_string(&path) {
            Ok(text) => match parse_baseline(name, &text) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    eprintln!("perf_trend: {name}: {e}");
                    malformed += 1;
                }
            },
            Err(e) => {
                eprintln!("perf_trend: cannot read {name}: {e}");
                malformed += 1;
            }
        }
    }

    // The same-runner gate record is mandatory reading when requested: a
    // missing or malformed gate baseline fails the gate rather than
    // silently passing it.
    let gate_row = match &opts.against {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match parse_baseline("(gate baseline)", &text) {
                Ok(row) => Some(row),
                Err(e) => usage_exit(&format!("--against {path}: {e}")),
            },
            Err(e) => usage_exit(&format!("--against: cannot read {path}: {e}")),
        },
        None => None,
    };

    println!(
        "perf_trend: {} committed baseline(s) in {}, fresh run over {:?} ({} rep(s), min-of-reps)",
        rows.len(),
        opts.dir,
        QUICK_WORKLOADS,
        opts.reps
    );
    let fresh = measure_fresh(opts.reps);
    // Only records of the whole pair compete for "best": half the pair is
    // half the work.
    let best = rows
        .iter()
        .filter(|r| r.workloads_present == QUICK_WORKLOADS.len())
        .map(|r| r.wall_ms)
        .fold(f64::INFINITY, f64::min);

    println!(
        "{:<24} {:<12} {:>4} {:>9} {:>10} {:>8}  note",
        "baseline", "rev", "reps", "events", "wall_ms", "Mev/s"
    );
    for row in rows.iter().chain(gate_row.iter()).chain(std::iter::once(&fresh)) {
        let partial =
            if row.workloads_present < QUICK_WORKLOADS.len() { " (partial pair)" } else { "" };
        let note = if row.label == "(this tree)" {
            let delta = if best.is_finite() {
                format!("{:+.1}% wall_ms vs best", 100.0 * (row.wall_ms / best - 1.0))
            } else {
                "no baseline to compare".to_owned()
            };
            format!("{delta}{partial}")
        } else if row.label == "(gate baseline)" {
            format!("same runner{partial}")
        } else {
            partial.trim_start().to_owned()
        };
        println!(
            "{:<24} {:<12} {:>4} {:>9} {:>10.2} {:>8.2}  {note}",
            row.label,
            row.rev,
            row.reps,
            row.events,
            row.wall_ms,
            row.events_per_sec() / 1e6,
        );
    }

    if malformed > 0 {
        println!("perf_trend: FAILED — {malformed} malformed baseline record(s)");
        return ExitCode::FAILURE;
    }

    // Same-runner gate: the only speed comparison trustworthy enough to
    // fail CI on.
    if let (Some(gate_pct), Some(gate)) = (opts.gate_pct, &gate_row) {
        let (old, new) = (gate.wall_ms, fresh.wall_ms);
        let delta_pct = if old > 0.0 { 100.0 * (new / old - 1.0) } else { 0.0 };
        if old > 0.0 && new > old * (1.0 + gate_pct / 100.0) {
            println!(
                "perf_trend: GATE FAILED — {new:.2} ms is {delta_pct:.1}% above the same-runner baseline {old:.2} ms (gate: {gate_pct:.0}%)"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "perf_trend: gate ok — {new:.2} vs {old:.2} ms same-runner ({delta_pct:+.1}%, gate {gate_pct:.0}%)"
        );
    }

    if best.is_finite() {
        let ceiling = best * (1.0 + opts.threshold_pct / 100.0);
        if fresh.wall_ms > ceiling {
            // Cross-machine trajectory check: gating locally, advisory
            // when a same-runner gate is in charge.
            println!(
                "perf_trend: REGRESSION — {:.2} ms is more than {:.0}% above the best baseline ({best:.2} ms)",
                fresh.wall_ms, opts.threshold_pct
            );
            if opts.gate_pct.is_none() {
                return ExitCode::FAILURE;
            }
            println!("perf_trend: (informational under --gate: baselines are cross-machine)");
        } else {
            println!(
                "perf_trend: ok — within {:.0}% of the best baseline ({:.2} vs {best:.2} ms)",
                opts.threshold_pct, fresh.wall_ms
            );
        }
    } else {
        println!("perf_trend: ok — no committed baselines to compare against");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(extra: &str, workloads: &str) -> String {
        format!(
            r#"{{"schema":"hsc-perf-baseline/v1","git":"abc1234","quick":true,"reps":5{extra},"workloads":[{workloads}]}}"#
        )
    }

    const PAIR: &str = r#"{"name":"tq","events":100,"wall_ms_min":1.5},{"name":"hsti","events":50,"wall_ms_min":2.0},{"name":"sc","events":7,"wall_ms_min":9.0}"#;

    #[test]
    fn parse_baseline_sums_the_quick_pair_with_or_without_a_serial_shards_field() {
        for extra in ["", r#","shards":1"#] {
            let row = parse_baseline("BENCH_x.json", &record(extra, PAIR)).unwrap();
            assert_eq!((row.rev.as_str(), row.reps.as_str()), ("abc1234", "5"));
            assert_eq!((row.events, row.workloads_present), (150, 2));
            assert!((row.wall_ms - 3.5).abs() < 1e-9);
        }
    }

    #[test]
    fn parse_baseline_rejects_sharded_records_by_name() {
        let err = parse_baseline("BENCH_x.json", &record(r#","shards":4"#, PAIR)).err().unwrap();
        assert!(err.contains("'shards' is 4"), "{err}");
        assert!(err.contains("removed sharded engine"), "{err}");
        assert!(parse_baseline("BENCH_x.json", &record(r#","shards":"two""#, PAIR)).is_err());
    }

    #[test]
    fn parse_baseline_rejects_wrong_schema_and_records_without_the_quick_pair() {
        let wrong = record("", PAIR).replace("baseline/v1", "baseline/v9");
        assert!(parse_baseline("BENCH_x.json", &wrong).err().unwrap().contains("schema"));
        let none = record("", r#"{"name":"sc","events":7,"wall_ms_min":9.0}"#);
        assert!(parse_baseline("BENCH_x.json", &none).err().unwrap().contains("none of"));
    }
}

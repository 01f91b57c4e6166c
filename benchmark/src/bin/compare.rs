//! `compare a.json b.json`: judges two suite results (`run.sh --out`)
//! against the benchmark's own bounds — the repeatability check for two
//! runs of the same code, and the regression check for parent vs change.
//!
//! Per workload and end-to-end metric it prints both values, the ratio
//! b ÷ a, and PASS or FAIL. Host times (`run_norm_ms`, `setup_s`) may
//! worsen by the bound `BENCHMARK.json` gives them; the simulated
//! `sim_*` metrics must be identical when both files were taken at the
//! same `--seed` (at different seeds they get their manifest bound too),
//! and so must the failed-rep count. Exit status 1 on any FAIL, 2 on
//! unusable input.

use std::path::Path;
use std::process::ExitCode;

use hsc_benchmark::MetricMap;
use hsc_obs::json::{self, Value};

const USAGE: &str = "usage: compare [--manifest BENCHMARK.json] <a.json> <b.json>";

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, bound, lower_is_better)` of every end-to-end metric in the
/// manifest.
fn bounds(manifest: &Value) -> Result<Vec<(String, f64, bool)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("manifest has no end_to_end array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("metric without better")?;
            Ok((name.to_owned(), bound, better == "lower"))
        })
        .collect()
}

fn run(manifest: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = bounds(&load(manifest)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_seed = seed(&a) == seed(&b);
    if !same_seed {
        println!("note: the seeds differ, so sim_* values are bounded, not exact");
    }
    let workloads = |v: &Value, path: &str| {
        v.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .ok_or_else(|| format!("{path}: no workloads object"))
    };
    let (wa, wb) = (workloads(&a, a_path)?, workloads(&b, b_path)?);

    let mut all_pass = true;
    println!("{:<12} {:<17} {:>16} {:>16} {:>9}  verdict", "workload", "metric", "a", "b", "b/a");
    for (name, ea) in &wa {
        let Some(eb) = wb.get(name) else {
            println!("{name:<12} missing from {b_path}: FAIL");
            all_pass = false;
            continue;
        };
        let metrics = |e: &Value| {
            MetricMap::parse_json(e.get("end_to_end").ok_or("workload without end_to_end")?)
        };
        let (ma, mb) = (metrics(ea)?, metrics(eb)?);
        for (metric, bound, lower) in &bounds {
            let (Some(va), Some(vb)) = (ma.get(metric), mb.get(metric)) else {
                println!("{name:<12} {metric:<17} missing: FAIL");
                all_pass = false;
                continue;
            };
            let exact = metric.starts_with("sim_") && same_seed;
            let worse = if *lower { vb - va } else { va - vb };
            let (pass, rule) = if exact {
                (va == vb, "exact".to_owned())
            } else {
                (worse <= bound * va.abs(), format!("within {:.0} %", bound * 100.0))
            };
            all_pass &= pass;
            println!(
                "{name:<12} {metric:<17} {va:>16.6} {vb:>16.6} {:>9.4}  {} ({rule})",
                vb / va,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let failed = |e: &Value| e.get("failed").and_then(Value::as_f64);
        let attempted = |e: &Value| e.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        let pass = failed(ea) == failed(eb) && failed(ea).is_some();
        all_pass &= pass;
        println!(
            "{name:<12} {:<17} {:>9} of {:<4} {:>9} of {:<4} {:>9}  {} (exact)",
            "failed_runs",
            failed(ea).unwrap_or(f64::NAN),
            attempted(ea),
            failed(eb).unwrap_or(f64::NAN),
            attempted(eb),
            "",
            if pass { "PASS" } else { "FAIL" }
        );
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        println!("{name:<12} missing from {a_path}: FAIL");
        all_pass = false;
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut manifest = "BENCHMARK.json".to_owned();
    if args.first().is_some_and(|a| a == "--manifest") && args.len() >= 2 {
        manifest = args.remove(1);
        args.remove(0);
    }
    let [a, b] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !Path::new(&manifest).exists() {
        eprintln!("compare: {manifest} not found (run from the repository root)\n{USAGE}");
        return ExitCode::from(2);
    }
    match run(&manifest, a, b) {
        Ok(true) => {
            println!("compare: every metric within its bound");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("compare: at least one metric FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

//! Trace replay determinism: a traced run is as reproducible as the
//! built-in benchmarks.
//!
//! The trace pipeline (generate → replay → report) must keep the same
//! byte-identity guarantees the figure sub-commands give: the `RunReport`
//! JSON and the rendered metrics table for a traced run must not move by
//! a byte between campaign worker counts 1 and 4 (`--jobs`). And the five
//! generator presets must all replay to a **verified** final memory — the
//! self-computed expectation from the trace alone matches what the
//! coherent system actually did. Separate process-level tests pin the
//! command-line contract: a nonexistent `--trace` path or an unknown flag
//! is usage text + exit 2, not a panic.

use std::fmt::Write as _;

use hsc_bench::par::{expect_all, Campaign, Parallelism};
use hsc_bench::reporting::{run_record, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_obs::RunReport;
use hsc_workloads::trace::{presets, TraceWorkload, TrafficSpec};
use hsc_workloads::{run_workload_observed, Workload};

fn preset_workload(name: &str) -> TraceWorkload {
    TraceWorkload::new(TrafficSpec::parse(name).expect("preset spec").generate())
}

/// One traced-run pass at the given worker count: report JSON plus a
/// golden-stdout-style metrics table, both strings so a mismatch is a
/// byte diff.
fn traced_artifacts(jobs: usize) -> (String, String) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let mut report = RunReport::new("trace_determinism");
    report.git = "golden".to_owned();
    report.fingerprint_config(&cfg);
    let w = preset_workload("pingpong");
    let mut campaign: Campaign<'_, _> = Campaign::new("trace_determinism");
    // Two instances of the traced workload so worker count >1 actually
    // schedules concurrently; records land in submission order.
    for _ in 0..2 {
        let w = &w;
        campaign.push("trace", move || {
            let run = run_workload_observed(w, cfg, ObsConfig::report(REPORT_EPOCH_TICKS));
            run_record(w.name(), "baseline", &run)
        });
    }
    let mut table = String::new();
    for rec in expect_all("trace_determinism", campaign.run(Parallelism::of(jobs))).unwrap() {
        assert_eq!(rec.outcome, "completed", "traced run at {jobs} job(s)");
        writeln!(table, "== {} ==", rec.workload).unwrap();
        writeln!(table, "ticks        {}", rec.ticks).unwrap();
        writeln!(table, "gpu_cycles   {}", rec.gpu_cycles).unwrap();
        for (key, value) in &rec.counters {
            writeln!(table, "{key} {value}").unwrap();
        }
        report.runs.push(rec);
    }
    (report.to_json_string(), table)
}

/// Report JSON and metrics tables for a traced run are byte-identical at
/// campaign worker counts 1 vs 4.
#[test]
fn traced_artifacts_identical_across_jobs() {
    let (ref_json, ref_table) = traced_artifacts(1);
    assert!(ref_json.contains("\"trace\""), "report carries the traced workload");
    let (json, table) = traced_artifacts(4);
    assert_eq!(ref_table, table, "metrics diverged at jobs=4");
    assert_eq!(ref_json, json, "report JSON diverged at jobs=4");
}

/// Every generator preset replays through the coherent system and passes
/// its own self-verification (`TraceWorkload::verify`).
#[test]
fn all_presets_replay_and_verify() {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    for (name, _, spec) in presets() {
        let w = TraceWorkload::new(spec.generate());
        let run = run_workload_observed(&w, cfg, ObsConfig::off());
        let m = run.outcome.unwrap_or_else(|e| panic!("preset {name}: {e}"));
        assert!(m.ticks > 0, "preset {name} actually ran");
    }
}

/// Spawns `hsc characterize` with arguments it must refuse and checks the
/// usage-error contract: exit 2, usage text on stderr, nothing on stdout.
/// Returns stderr so the caller can check what it names.
fn characterize_usage_error(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hsc"))
        .arg("characterize")
        .args(args)
        .output()
        .expect("hsc spawns");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: hsc characterize"), "stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "no tables are printed on a usage error");
    stderr
}

/// `--trace` on a nonexistent path is a usage error (exit 2 with the
/// path named), matching the `--jobs` operand convention — not a panic,
/// not a silent fallback to the benchmark suite.
#[test]
fn characterize_rejects_unreadable_trace_path_with_usage() {
    let stderr = characterize_usage_error(&["--trace", "/nonexistent/corpus/missing.trace"]);
    assert!(stderr.contains("missing.trace"), "stderr names the path: {stderr}");
}

/// A flag the command line no longer has is an unknown flag like any other,
/// not silently accepted.
#[test]
fn characterize_rejects_a_removed_flag_with_usage() {
    let stderr = characterize_usage_error(&["--shards", "2"]);
    assert!(stderr.contains("unknown argument '--shards'"), "stderr names the flag: {stderr}");
}

/// A malformed trace file is rejected the same way, with the parse
/// error's line number surfaced to the operator.
#[test]
fn characterize_rejects_malformed_trace_with_line_number() {
    let dir = std::env::temp_dir().join("hsc_trace_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.trace");
    std::fs::write(&path, "hsc-trace v1\nstream cpu\nread 0x1001\n").expect("write trace");
    let stderr = characterize_usage_error(&["--trace", path.to_str().unwrap()]);
    assert!(stderr.contains("line 3"), "stderr carries the line number: {stderr}");
    assert!(stderr.contains("not 8-byte aligned"), "stderr carries the cause: {stderr}");
}

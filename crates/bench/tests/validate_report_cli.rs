//! Process-level contract of `hsc report validate`: one schema version, and
//! exit statuses that tell "the report is wrong" (1) apart from "the
//! tool was not given a report it could read" (2, with usage).

use std::path::PathBuf;
use std::process::{Command, Output};

use hsc_bench::reporting::{run_record, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_obs::RunReport;
use hsc_workloads::{run_workload_observed, Hsti};

fn validate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hsc"))
        .args(["report", "validate"])
        .args(args)
        .output()
        .expect("hsc spawns")
}

/// Writes `text` under a per-test name in the temp dir and returns the path.
fn temp_report(name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join("hsc_validate_report_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write report");
    path.to_str().expect("utf-8 temp path").to_owned()
}

fn golden_report() -> (String, String) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick_report.golden.json");
    let text = std::fs::read_to_string(&path).expect("golden report fixture");
    (path.to_str().expect("utf-8 fixture path").to_owned(), text)
}

#[test]
fn bad_invocations_are_usage_errors_not_invalid_reports() {
    let not_json = temp_report("not_json.json", "{\"schema\": ");
    for args in [&[][..], &["a.json", "b.json"], &["/nonexistent/report.json"], &[&not_json]] {
        let out = validate(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: hsc report validate"), "{args:?} shows usage: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} prints no verdict");
    }
}

#[test]
fn the_golden_report_is_valid_and_the_retired_version_is_not() {
    let (path, text) = golden_report();
    let out = validate(&[&path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid hsc-run-report v2 (2 run(s))"));

    let retired = text.replacen("\"schema_version\":2", "\"schema_version\":1", 1);
    assert_ne!(retired, text, "the fixture carries the version field");
    let out = validate(&[&temp_report("retired_version.json", &retired)]);
    assert_eq!(out.status.code(), Some(1), "a schema violation exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'schema_version' must be 2"), "names the field: {stderr}");
    assert!(stderr.contains("INVALID (1 error(s))"), "and nothing else is wrong: {stderr}");
}

/// An outcome no run can end in — such as a record that sums runs — is a
/// schema violation.
#[test]
fn an_outcome_no_run_can_have_is_invalid() {
    let (_, text) = golden_report();
    let bad = text.replacen("\"outcome\":\"completed\"", "\"outcome\":\"aggregate\"", 1);
    assert_ne!(bad, text, "the fixture carries a completed run");
    let out = validate(&[&temp_report("aggregate_outcome.json", &bad)]);
    assert_eq!(out.status.code(), Some(1), "a schema violation exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("runs[0].outcome must be one of"), "names the field: {stderr}");
    assert!(stderr.contains("INVALID (1 error(s))"), "and nothing else is wrong: {stderr}");
}

/// What `hsc report analyze --report` writes: the same version, with the optional
/// `transitions` and `sharing` sections present.
#[test]
fn a_report_with_analytics_sections_is_valid_at_the_same_version() {
    let cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
    let obs = ObsConfig { protocol_analytics: true, ..ObsConfig::report(REPORT_EPOCH_TICKS) };
    let mut report = RunReport::new("analyze");
    report.fingerprint_config(&cfg);
    let run = run_workload_observed(&Hsti::default(), cfg, obs);
    report.runs.push(run_record("hsti", "sharer_tracking", &run));
    let json = report.to_json_string();
    assert!(json.contains("\"transitions\"") && json.contains("\"sharing\""));
    let out = validate(&[&temp_report("analytics.json", &json)]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

//! Golden determinism tests for the counter pipeline.
//!
//! Counting in controllers (plain counter fields, named in a `StatSet`
//! only by each `stats()`) must not change a single byte of any report:
//! these fixtures were generated from the string-keyed implementation and
//! every later change to the counter path has to reproduce them exactly —
//! same keys, same values, same ordering, same zero-valued entries for
//! the keys that always export.
//!
//! `table1.golden.txt` pins `hsc table 1` the same way: a new or changed
//! `tracking::plan` row cannot move the paper's Table I unnoticed, and
//! `analyze_cedd.golden.txt` pins `hsc report analyze`'s transition
//! matrices and sharing census, and `derived_counters.golden.txt` pins
//! runs on a small LLC and directory, where the victim, eviction, merge
//! and probe-invalidation counters that `stats()` sums from transition
//! matrix cells are all nonzero.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p hsc-bench --test
//! golden_counters` and audit the diff; a fixture change means counter
//! *semantics* (or the printed protocol table) changed and must be called
//! out in review.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use hsc_bench::reporting::{run_record, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_obs::{ObsConfig, RunReport};
use hsc_workloads::{run_workload_observed, run_workload_on, Cedd, Hsti, Pad, Tq, Tqh, Workload};

fn quick_workloads() -> Vec<Box<dyn Workload>> {
    // Mirrors `hsc repro --quick`'s report set.
    vec![Box::new(Tq::default()), Box::new(Hsti::default())]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// Compares `got` against the checked-in fixture, or rewrites the
/// fixture when `UPDATE_GOLDEN` is set. On mismatch the panic names the
/// first differing line so a counter regression is readable in CI logs.
fn check_golden(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); regenerate with UPDATE_GOLDEN=1", path.display())
    });
    if want != got {
        let mismatch =
            want.lines().zip(got.lines()).enumerate().find(|(_, (w, g))| w != g).map_or_else(
                || {
                    format!(
                        "line counts differ: fixture {} vs output {}",
                        want.lines().count(),
                        got.lines().count()
                    )
                },
                |(i, (w, g))| {
                    format!("first diff at line {}:\n  fixture: {w}\n  output:  {g}", i + 1)
                },
            );
        panic!("output diverged from golden fixture {name}; {mismatch}");
    }
}

/// `hsc repro --quick --jobs 1 --report` JSON must be byte-identical
/// across the interning refactor. The `git` field necessarily varies per
/// commit, so it is pinned to a fixed value before serialization; all
/// counter keys, values, orderings, latency percentiles and time series
/// come from the simulation and are compared exactly.
#[test]
fn quick_report_json_matches_golden() {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let mut report = RunReport::new("repro");
    report.git = "golden".to_owned();
    report.fingerprint_config(&cfg);
    for w in &quick_workloads() {
        let run = run_workload_observed(w.as_ref(), cfg, ObsConfig::report(REPORT_EPOCH_TICKS));
        report.runs.push(run_record(w.name(), "baseline", &run));
    }
    check_golden("quick_report.golden.json", &report.to_json_string());
}

/// The end-of-run `Metrics` — scalar accessors plus the full merged
/// `StatSet` table, exactly as stdout tables render it — for the quick
/// workload set with observability off. Pre-registered zero-valued keys
/// must stay present and the key ordering must stay sorted.
#[test]
fn quick_metrics_tables_match_golden() {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let mut table = String::new();
    for w in &quick_workloads() {
        let run = run_workload_observed(w.as_ref(), cfg, ObsConfig::off());
        let m = run.outcome.unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
        writeln!(table, "== {} ==", w.name()).unwrap();
        writeln!(table, "ticks        {}", m.ticks).unwrap();
        writeln!(table, "gpu_cycles   {}", m.gpu_cycles).unwrap();
        writeln!(table, "probes_sent  {}", m.probes_sent).unwrap();
        writeln!(table, "mem_reads    {}", m.mem_reads).unwrap();
        writeln!(table, "mem_writes   {}", m.mem_writes).unwrap();
        write!(table, "{}", m.stats).unwrap();
    }
    check_golden("quick_metrics.golden.txt", &table);
}

/// `hsc table 1` is a pure function of
/// `tracking::plan` and its legal-row list.
#[test]
fn table1_text_matches_golden() {
    let mut text = Vec::new();
    hsc_bench::tables::table1(&mut text).expect("writing to a Vec cannot fail");
    check_golden("table1.golden.txt", &String::from_utf8(text).expect("table text is UTF-8"));
}

/// `hsc report analyze` at its defaults (cedd on sharer tracking): the
/// four transition matrices, their per-cause lines and the directory's
/// sharing census.
#[test]
fn analyze_cedd_text_matches_golden() {
    let mut text = Vec::new();
    let code = hsc_bench::analyze::analyze(
        &Cedd::default(),
        "sharer_tracking",
        CoherenceConfig::sharer_tracking(),
        None,
        &mut text,
    )
    .expect("writing to a Vec cannot fail");
    assert_eq!(code, ExitCode::SUCCESS, "cedd verifies");
    check_golden(
        "analyze_cedd.golden.txt",
        &String::from_utf8(text).expect("analyze text is UTF-8"),
    );
}

/// Full `Metrics.stats` and event counts of three runs on a 16 KB LLC and
/// a 512-entry directory, small enough that L2 victims, LLC evictions
/// (clean and dirty), LLC merges, silent E→M upgrades, probe
/// invalidations and directory entry evictions all fire. The quick set
/// leaves most of those at 0, so only this fixture catches a wrong sum of
/// transition-matrix cells.
#[test]
fn derived_counters_match_golden() {
    let runs: [(&dyn Workload, &str, CoherenceConfig); 3] = [
        (&Tqh::default(), "llc_write_back_l3_on_wt", CoherenceConfig::llc_write_back_l3_on_wt()),
        (&Pad::default(), "sharer_tracking", CoherenceConfig::sharer_tracking()),
        (&Tq::default(), "sharer_tracking", CoherenceConfig::sharer_tracking()),
    ];
    let mut table = String::new();
    for (w, config, coherence) in runs {
        let mut cfg = SystemConfig::scaled(coherence);
        cfg.uncore.llc_bytes = 16 * 1024;
        cfg.uncore.dir_entries = 512;
        let m = run_workload_on(w, cfg);
        writeln!(table, "== {} / {config} ==", w.name()).unwrap();
        writeln!(table, "events       {}", m.events).unwrap();
        write!(table, "{}", m.stats).unwrap();
    }
    check_golden("derived_counters.golden.txt", &table);
}

//! Runs every experiment in sequence — the one-shot reproduction of the
//! paper's whole evaluation section. Output order matches the paper:
//! Tables II/III (configuration), Figure 4 (optimization speedups),
//! Figure 5 (memory traffic), Figures 6/7 (state tracking), Table I
//! (transition table) and the §VII replacement-policy ablation.
//!
//! Each section is also available as its own binary; this driver simply
//! invokes the same code paths and is what EXPERIMENTS.md snapshots.
//!
//! Flags:
//!
//! * `--report <path>` — additionally run the collaborative workloads
//!   once with observability on and write a versioned machine-readable
//!   [`hsc_obs::RunReport`] (counters, per-class latency percentiles,
//!   sampled time series, per-agent profile).
//! * `--perfetto <path>` — write a Chrome-trace JSON of one seeded `tq`
//!   run, loadable in `ui.perfetto.dev`.
//! * `--trace <file>` / `--trace-gen <spec>` — replay an `hsc-trace v1`
//!   file (or generate one from a traffic spec) instead of the paper
//!   suite: the figure/table child binaries are skipped (they are defined
//!   over the fixed benchmarks) and the replayed trace becomes the report
//!   set.
//! * `--quick` — skip the figure/table child binaries and run only a
//!   reduced report set (`tq`, `hsti`); this is what CI uses.
//! * `--jobs <N>` — campaign worker threads (default: `HSC_JOBS`, then
//!   the machine's available parallelism). Forwarded to every sweep
//!   child binary. Stdout and the report are **byte-identical at any
//!   worker count**; only wall-clock changes.

use std::path::Path;
use std::process::Command;

use hsc_bench::par::Campaign;
use hsc_bench::reporting::{observed_record, parse_cli, write_report, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_obs::{ObsConfig, RunRecord, RunReport};
use hsc_workloads::{
    collaborative_workloads, run_workload_observed, try_run_workload_on, Hsti, Tq, Workload,
};

/// The figure/table child binaries, in the paper's order, and whether
/// each takes the campaign `--jobs` flag.
const CHILD_BINS: [(&str, bool); 10] = [
    ("table2_cache_config", false),
    ("table3_system_config", false),
    ("fig4_speedup", true),
    ("fig5_mem_traffic", true),
    ("fig6_tracking_speedup", true),
    ("fig7_probe_reduction", true),
    ("table1_transitions", false),
    ("ablation_dir_repl", true),
    ("characterize", true),
    ("extension_benchmarks", true),
];

/// The child binaries that are not built next to this one. `cargo run
/// --bin repro_all` builds only `repro_all`, so on a fresh checkout this
/// is all ten.
fn missing_bins(dir: &Path) -> Vec<&'static str> {
    CHILD_BINS.iter().map(|&(bin, _)| bin).filter(|bin| !dir.join(bin).is_file()).collect()
}

fn main() {
    let opts = parse_cli("repro_all");
    let par = opts.parallelism("repro_all");
    let traced = opts.trace_workload("repro_all");

    if !opts.quick && traced.is_none() {
        let me = std::env::current_exe().expect("current exe path");
        let dir = me.parent().expect("exe directory");
        let missing = missing_bins(dir);
        if !missing.is_empty() {
            eprintln!(
                "repro_all: not built in {}: {}; run `cargo build --release -p hsc-bench` first",
                dir.display(),
                missing.join(", ")
            );
            std::process::exit(1);
        }
        for (bin, takes_jobs) in CHILD_BINS {
            let path = dir.join(bin);
            let mut cmd = Command::new(&path);
            if takes_jobs {
                cmd.args(["--jobs", &par.jobs().to_string()]);
            }
            let status =
                cmd.status().unwrap_or_else(|e| panic!("failed to run {}: {e}", path.display()));
            assert!(status.success(), "{bin} failed");
            println!();
        }
        println!("All experiments regenerated.");
    }

    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());

    if let Some(tw) = &traced {
        // Replay the trace once on the evaluation system so `--trace`
        // has a visible outcome even without `--report`.
        let r = try_run_workload_on(tw, cfg).unwrap_or_else(|e| panic!("trace replay failed: {e}"));
        println!(
            "trace replayed and verified: {} ticks, {} GPU cycles",
            r.metrics.ticks, r.metrics.gpu_cycles
        );
    }

    if let Some(path) = &opts.report {
        let workloads: Vec<Box<dyn Workload>> = if let Some(tw) = &traced {
            vec![Box::new(tw.clone())]
        } else if opts.quick {
            vec![Box::new(Tq::default()), Box::new(Hsti::default())]
        } else {
            collaborative_workloads()
        };
        let mut report = RunReport::new("repro_all");
        report.fingerprint_config(&cfg);
        let obs = ObsConfig::report(REPORT_EPOCH_TICKS);
        let mut campaign: Campaign<'_, RunRecord> = Campaign::new("repro_all/report");
        for w in &workloads {
            let w = w.as_ref();
            campaign.push(w.name(), move || observed_record(w, "baseline", cfg, obs));
        }
        // Records land in submission order, so the report JSON is
        // byte-identical to a serial run's.
        for (i, record) in campaign.run(par).into_iter().enumerate() {
            match record {
                Ok(rec) => report.runs.push(rec),
                Err(e) => panic!("report run for {} failed: {e}", workloads[i].name()),
            }
        }
        write_report(&report, path);
    }

    if let Some(path) = &opts.perfetto {
        let run = run_workload_observed(&Tq::default(), cfg, ObsConfig::full(REPORT_EPOCH_TICKS));
        if let Err(e) = &run.outcome {
            panic!("perfetto run failed: {e}");
        }
        let trace = run.obs.perfetto.expect("perfetto enabled for trace run");
        trace
            .write_to(path)
            .unwrap_or_else(|e| panic!("cannot write trace to {}: {e}", path.display()));
        println!(
            "perfetto trace ({} events) written to {} — open it at https://ui.perfetto.dev",
            trace.len(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_directory_is_missing_every_child_bin() {
        let dir = std::env::temp_dir().join("hsc_repro_all_missing_bins_test");
        let _ = std::fs::remove_dir_all(&dir); // what an earlier run left
        std::fs::create_dir_all(&dir).expect("temp dir");
        let missing = missing_bins(&dir);
        assert_eq!(missing.len(), CHILD_BINS.len());
        assert_eq!(missing[0], "table2_cache_config", "reported in run order");

        // A directory is not a binary; a file is.
        std::fs::create_dir_all(dir.join("fig4_speedup")).expect("decoy dir");
        std::fs::write(dir.join("characterize"), "").expect("stand-in bin");
        let missing = missing_bins(&dir);
        assert!(missing.contains(&"fig4_speedup"));
        assert!(!missing.contains(&"characterize"));
        assert_eq!(missing.len(), CHILD_BINS.len() - 1);
    }
}

//! Shared harness for the figure/table-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index). This library holds the
//! sweep driver and the paper's reported aggregate values, so each binary
//! prints its measured series next to the number it is reproducing.

#![warn(missing_docs)]

pub mod par;

use hsc_core::{CoherenceConfig, Metrics, SystemConfig};
use hsc_workloads::{run_workload_on, Workload};

use crate::par::{expect_all, Campaign, Parallelism};

/// The paper's reported averages, for side-by-side printing.
pub mod paper {
    /// Fig. 4: average % saved cycles over the three §III optimizations.
    pub const FIG4_AVG_SPEEDUP_PCT: f64 = 1.68;
    /// Fig. 5: average % reduction in directory↔memory accesses.
    pub const FIG5_AVG_MEM_REDUCTION_PCT: f64 = 50.38;
    /// Fig. 6: average % saved cycles with state tracking (5 benchmarks).
    pub const FIG6_AVG_SPEEDUP_PCT: f64 = 14.4;
    /// Fig. 7: average % reduction in probes (5 benchmarks).
    pub const FIG7_AVG_PROBE_REDUCTION_PCT: f64 = 80.3;
}

/// One measured cell of a sweep: a benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark id.
    pub workload: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Run metrics.
    pub metrics: Metrics,
}

/// Runs `workloads × configs` on the scaled evaluation system (see
/// `SystemConfig::scaled`) and returns every cell, configs-major per
/// workload. The first config should be the baseline.
///
/// Cells run as one parallel [`Campaign`] over `par` threads; the
/// returned order (and therefore every printed table) is submission
/// order, independent of the worker count.
///
/// # Panics
///
/// Panics naming the `workload/config` job if any run fails (a protocol
/// bug or livelock).
#[must_use]
pub fn sweep(
    workloads: &[Box<dyn Workload>],
    configs: &[(&'static str, CoherenceConfig)],
    par: Parallelism,
) -> Vec<Cell> {
    let mut campaign = Campaign::new("sweep");
    for w in workloads {
        for (name, cfg) in configs {
            let w = w.as_ref();
            campaign.push(format!("{}/{name}", w.name()), move || {
                let r = run_workload_on(w, SystemConfig::scaled(*cfg));
                Cell { workload: r.workload, config: name, metrics: r.metrics }
            });
        }
    }
    expect_all("sweep", campaign.run(par))
}

/// Percentage saved: `100 × (1 − value/base)`.
#[must_use]
pub fn pct_saved(base: u64, value: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (1.0 - value as f64 / base as f64)
    }
}

/// Geometric-free arithmetic mean, matching the paper's "on average".
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints a standard figure header.
pub fn header(figure: &str, what: &str, paper_avg: f64) {
    println!("================================================================");
    println!("{figure}: {what}");
    println!("(paper reports an average of {paper_avg:.2}% — the shape, not the");
    println!(" absolute value, is the reproduction target; see EXPERIMENTS.md)");
    println!("================================================================");
}

/// Shared `--report` plumbing for the bench binaries.
pub mod reporting {
    use std::path::PathBuf;

    use crate::par::Parallelism;
    use hsc_core::SystemConfig;
    use hsc_obs::{ObsConfig, RunRecord, RunReport};
    use hsc_sim::SimError;
    use hsc_workloads::trace::{StreamKind, TraceProgram, TraceWorkload, TrafficSpec};
    use hsc_workloads::{run_workload_observed, Workload, WorkloadError};

    /// Epoch width (ticks) used by report runs: fine enough to show
    /// bursts on the scaled evaluation system (runs are a few million
    /// ticks), coarse enough to keep reports small.
    pub const REPORT_EPOCH_TICKS: u64 = 50_000;

    /// Command-line options common to the report-emitting binaries.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CliOptions {
        /// Write a machine-readable run report here.
        pub report: Option<PathBuf>,
        /// Skip the expensive full regeneration, keep the report runs.
        pub quick: bool,
        /// Write a Perfetto (Chrome-trace) JSON of one seeded run here.
        pub perfetto: Option<PathBuf>,
        /// Replay this `hsc-trace v1` file instead of the built-in
        /// benchmarks (`--trace <file>`).
        pub trace: Option<PathBuf>,
        /// Generate-and-replay a synthetic trace from this traffic spec
        /// (`--trace-gen <spec>`, see `hsc_workloads::trace::TrafficSpec`).
        pub trace_gen: Option<String>,
        /// Explicit `--jobs <N>` campaign worker count.
        pub jobs: Option<usize>,
    }

    impl CliOptions {
        /// Resolves the campaign worker count for this invocation:
        /// `--jobs` flag, then `HSC_JOBS`, then the machine's available
        /// parallelism. Exits with usage on an invalid `HSC_JOBS` value.
        #[must_use]
        pub fn parallelism(&self, command: &str) -> Parallelism {
            Parallelism::resolve(self.jobs).unwrap_or_else(|msg| cli_usage_exit(command, &msg))
        }

        /// Resolves `--trace` / `--trace-gen` into the replay workload,
        /// or `None` when neither was given.
        ///
        /// Any way the trace can be unusable — an unreadable path, a
        /// malformed file (reported with its line number), a bad spec, or
        /// a program that needs more CPU streams than the evaluation
        /// system has — prints usage text and exits with status 2, the
        /// same contract as every other operand error.
        #[must_use]
        pub fn trace_workload(&self, command: &str) -> Option<TraceWorkload> {
            let program = match (&self.trace, &self.trace_gen) {
                (None, None) => return None,
                (Some(path), _) => {
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        cli_usage_exit(command, &format!("--trace {}: {e}", path.display()))
                    });
                    TraceProgram::parse(&text).unwrap_or_else(|e| {
                        cli_usage_exit(command, &format!("--trace {}: {e}", path.display()))
                    })
                }
                (None, Some(spec)) => TrafficSpec::parse(spec)
                    .unwrap_or_else(|e| cli_usage_exit(command, &format!("--trace-gen: {e}")))
                    .generate(),
            };
            let cpu_cap = SystemConfig::default().corepairs * 2;
            let cpu = program.stream_count(StreamKind::Cpu);
            if cpu > cpu_cap {
                cli_usage_exit(
                    command,
                    &format!("trace has {cpu} cpu streams; the system hosts at most {cpu_cap}"),
                );
            }
            Some(TraceWorkload::new(program))
        }

        /// Exits with usage if `--trace`/`--trace-gen` was given — for
        /// binaries whose experiment is defined over the paper's fixed
        /// benchmark suite and cannot meaningfully replay a trace.
        pub fn forbid_trace(&self, command: &str) {
            if self.trace.is_some() || self.trace_gen.is_some() {
                cli_usage_exit(command, "--trace/--trace-gen are not supported by this command");
            }
        }
    }

    /// Parses `--report <path>`, `--quick`, `--perfetto <path>`,
    /// `--trace <file>`, `--trace-gen <spec>` and `--jobs <N>` from the
    /// process arguments.
    ///
    /// An unknown flag, a missing operand, or a non-numeric `--jobs` value
    /// prints the offending argument plus usage text to stderr and exits
    /// with status 2 — so a typo fails a CI job with a readable message
    /// instead of silently dropping the report.
    #[must_use]
    pub fn parse_cli(command: &str) -> CliOptions {
        match parse_args(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => cli_usage_exit(command, &msg),
        }
    }

    fn cli_usage_exit(command: &str, message: &str) -> ! {
        eprintln!("{command}: {message}");
        eprintln!(
            "usage: {command} [--quick] [--report <path>] [--perfetto <path>] [--trace <file>] [--trace-gen <spec>] [--jobs <N>]"
        );
        std::process::exit(2);
    }

    fn parse_args(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--report" => {
                    let path = args.next().ok_or("--report requires a path operand")?;
                    opts.report = Some(PathBuf::from(path));
                }
                "--perfetto" => {
                    let path = args.next().ok_or("--perfetto requires a path operand")?;
                    opts.perfetto = Some(PathBuf::from(path));
                }
                "--trace" => {
                    let path = args.next().ok_or("--trace requires a trace file operand")?;
                    opts.trace = Some(PathBuf::from(path));
                }
                "--trace-gen" => {
                    let spec = args.next().ok_or("--trace-gen requires a spec operand")?;
                    opts.trace_gen = Some(spec);
                }
                "--jobs" => {
                    let raw = args.next().ok_or("--jobs requires a thread count operand")?;
                    opts.jobs = Some(crate::par::parse_jobs_value(&raw)?);
                }
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if opts.trace.is_some() && opts.trace_gen.is_some() {
            return Err("--trace and --trace-gen are mutually exclusive".into());
        }
        Ok(opts)
    }

    /// Canonical rendering of a run outcome for the report's `outcome`
    /// field: `"completed"`, `"deadlock"`, `"budget-exceeded"`,
    /// `"wiring-error"`, or `"verification-failed"`.
    #[must_use]
    pub fn outcome_label(
        outcome: &Result<hsc_workloads::RunResult, WorkloadError>,
    ) -> &'static str {
        match outcome {
            Ok(_) => "completed",
            Err(WorkloadError::Sim(SimError::Deadlock { .. })) => "deadlock",
            Err(WorkloadError::Sim(SimError::EventBudgetExceeded { .. })) => "budget-exceeded",
            Err(WorkloadError::Sim(SimError::Wiring { .. })) => "wiring-error",
            Err(WorkloadError::Verification(_)) => "verification-failed",
        }
    }

    /// Runs `w` once with observability on and turns the outcome into a
    /// report record. Failed runs keep their time series and agent
    /// profile; their counters are simply absent.
    #[must_use]
    pub fn observed_record(
        w: &dyn Workload,
        config_label: &str,
        cfg: SystemConfig,
        obs: ObsConfig,
    ) -> RunRecord {
        let run = run_workload_observed(w, cfg, obs);
        let mut rec = RunRecord {
            workload: w.name().to_owned(),
            config: config_label.to_owned(),
            outcome: outcome_label(&run.outcome).to_owned(),
            ..RunRecord::default()
        };
        if let Ok(r) = &run.outcome {
            rec.ticks = r.metrics.ticks;
            rec.gpu_cycles = r.metrics.gpu_cycles;
            rec.counters = r.metrics.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        }
        rec.attach_obs(&run.obs);
        if run.outcome.is_err() {
            // Failed runs carry their post-mortem: the last deliveries
            // the engine made before the failure.
            rec.attach_flight(&run.obs.flight);
        }
        rec
    }

    /// Writes `report` to `path`, then prints where it went.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — a report run that loses its
    /// report must fail loudly.
    pub fn write_report(report: &RunReport, path: &std::path::Path) {
        report
            .write_to(path)
            .unwrap_or_else(|e| panic!("cannot write report to {}: {e}", path.display()));
        println!("run report written to {}", path.display());
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn parse(args: &[&str]) -> Result<CliOptions, String> {
            parse_args(args.iter().map(|s| (*s).to_owned()))
        }

        #[test]
        fn cli_parses_all_flags() {
            assert_eq!(parse(&[]).unwrap(), CliOptions::default());
            let o = parse(&[
                "--quick",
                "--report",
                "/tmp/r.json",
                "--perfetto",
                "/tmp/p.json",
                "--trace",
                "/tmp/t.trace",
                "--jobs",
                "4",
            ])
            .unwrap();
            assert!(o.quick);
            assert_eq!(o.report.unwrap().to_str(), Some("/tmp/r.json"));
            assert_eq!(o.perfetto.unwrap().to_str(), Some("/tmp/p.json"));
            assert_eq!(o.trace.unwrap().to_str(), Some("/tmp/t.trace"));
            assert_eq!(o.jobs, Some(4));
        }

        #[test]
        fn cli_parses_trace_gen_and_rejects_the_combination() {
            let o = parse(&["--trace-gen", "hotspot,seed=7"]).unwrap();
            assert_eq!(o.trace_gen.as_deref(), Some("hotspot,seed=7"));
            let err = parse(&["--trace", "a.trace", "--trace-gen", "hotspot"]).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{err}");
        }

        #[test]
        fn cli_rejects_unknown_flags_with_the_flag_named() {
            for junk in [&["--frobnicate"][..], &["--shards", "2"]] {
                let err = parse(junk).unwrap_err();
                assert!(err.contains("unknown argument"));
                assert!(err.contains(junk[0]));
            }
        }

        #[test]
        fn cli_rejects_missing_operands() {
            assert!(parse(&["--report"]).unwrap_err().contains("--report"));
            assert!(parse(&["--perfetto"]).unwrap_err().contains("--perfetto"));
            assert!(parse(&["--trace"]).unwrap_err().contains("--trace"));
            assert!(parse(&["--trace-gen"]).unwrap_err().contains("--trace-gen"));
            assert!(parse(&["--jobs"]).unwrap_err().contains("--jobs"));
        }

        #[test]
        fn cli_rejects_bad_jobs_values() {
            assert!(parse(&["--jobs", "0"]).is_err());
            assert!(parse(&["--jobs", "-2"]).is_err());
            assert!(parse(&["--jobs", "many"]).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_saved_handles_zero_base() {
        assert_eq!(pct_saved(0, 5), 0.0);
        assert!((pct_saved(200, 100) - 50.0).abs() < 1e-9);
        assert!(pct_saved(100, 150) < 0.0, "regressions are negative");
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
    }
}

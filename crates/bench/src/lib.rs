//! The paper's evaluation as library functions, and the `hsc` command
//! line over them.
//!
//! Every table, figure and campaign is one function that writes to a
//! `&mut dyn Write`; [`cli`] parses the command line and maps each
//! sub-command to its function (`hsc help` prints the index). This root
//! holds the sweep driver and the paper's reported aggregate values, so
//! each section prints its measured series next to the number it is
//! reproducing.

#![warn(missing_docs)]

pub mod analyze;
pub mod characterize;
pub mod check;
pub mod cli;
pub mod faults;
pub mod figures;
pub mod par;
pub mod repro;
pub mod tables;
pub mod trace_gen;
pub mod validate;

use std::io::{self, Write};

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
                let metrics = run_workload_on(w, SystemConfig::scaled(*cfg));
                Cell { workload: w.name(), config: name, metrics }
            });
        }
    }
    expect_all("sweep", campaign.run(par)).unwrap_or_else(|e| panic!("{e}"))
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

/// The 64-column rule that frames every section header.
pub(crate) const RULE: &str = "================================================================";
/// The thinner rule above a section's summary line.
pub(crate) const THIN_RULE: &str =
    "----------------------------------------------------------------";

/// Writes a standard figure header.
pub(crate) fn header(
    out: &mut dyn Write,
    figure: &str,
    what: &str,
    paper_avg: f64,
) -> io::Result<()> {
    writeln!(out, "{RULE}")?;
    writeln!(out, "{figure}: {what}")?;
    writeln!(out, "(paper reports an average of {paper_avg:.2}% — the shape, not the")?;
    writeln!(out, " absolute value, is the reproduction target; see EXPERIMENTS.md)")?;
    writeln!(out, "{RULE}")
}

/// Run-report records and files, shared by every report-emitting
/// sub-command.
pub mod reporting {
    use std::io::{self, Write};

    use crate::cli::OutFile;
    use hsc_core::SystemConfig;
    use hsc_noc::SimError;
    use hsc_obs::{RunRecord, RunReport};
    use hsc_workloads::{ObservedRun, WorkloadError};

    /// Epoch width (ticks) used by report runs: fine enough to show
    /// bursts on the scaled evaluation system (runs are a few million
    /// ticks), coarse enough to keep reports small.
    pub const REPORT_EPOCH_TICKS: u64 = 50_000;

    /// Every value a record's `outcome` can hold: how one run ended.
    /// `hsc report validate` rejects any other.
    pub const RUN_OUTCOMES: [&str; 5] =
        ["completed", "deadlock", "budget-exceeded", "wiring-error", "verification-failed"];

    /// Turns one observed run into a report record. Failed runs keep
    /// their time series and agent profile; their counters are simply
    /// absent.
    #[must_use]
    pub fn run_record(workload: &str, config_label: &str, run: &ObservedRun) -> RunRecord {
        let outcome = RUN_OUTCOMES[match &run.outcome {
            Ok(_) => 0,
            Err(WorkloadError::Sim(SimError::Deadlock { .. })) => 1,
            Err(WorkloadError::Sim(SimError::EventBudgetExceeded { .. })) => 2,
            Err(WorkloadError::Sim(SimError::Wiring(_))) => 3,
            Err(WorkloadError::Verification(_)) => 4,
        }];
        let mut rec = RunRecord {
            workload: workload.to_owned(),
            config: config_label.to_owned(),
            outcome: outcome.to_owned(),
            ..RunRecord::default()
        };
        if let Ok(m) = &run.outcome {
            rec.ticks = m.ticks;
            rec.gpu_cycles = m.gpu_cycles;
            rec.counters = m.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        }
        rec.attach_obs(&run.obs);
        if run.outcome.is_err() {
            // Failed runs carry their post-mortem: the last deliveries
            // the engine made before the failure (the same rule
            // `run_workload_observed` applies to the Perfetto trace).
            rec.attach_flight(&run.obs.flight);
        }
        rec
    }

    /// Writes the run report of `command` — `runs` measured on `config` —
    /// into `file`, then says on `out` where it went.
    pub fn write_report(
        command: &str,
        config: &SystemConfig,
        runs: Vec<RunRecord>,
        file: OutFile,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        let mut report = RunReport { runs, ..RunReport::new(command) };
        report.fingerprint_config(config);
        let path = file.write(&report.to_json_string())?;
        writeln!(out, "run report written to {}", path.display())
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

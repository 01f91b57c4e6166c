//! `hsc repro`: the one-shot reproduction of the paper's evaluation section.

use std::io::{self, Write};

use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_obs::{ObsConfig, RunRecord};
use hsc_workloads::{
    all_workloads, collaborative_workloads, run_workload_observed, Hsti, Tq, Workload,
};

use crate::characterize::characterize;
use crate::cli::OutFile;
use crate::figures::{
    ablation, extension, fig4, fig5, fig6, fig7, optimization_sweep, tracking_sweep,
};
use crate::par::{expect_all, Campaign, Parallelism};
use crate::reporting::{run_record, write_report, REPORT_EPOCH_TICKS};
use crate::tables::{table1, table2, table3};
use crate::Cell;

/// Writes every experiment in the paper's order — Tables II/III
/// (configuration), Figure 4 (optimization speedups), Figure 5 (memory
/// traffic), Figures 6/7 (state tracking), Table I (transition table),
/// the §VII replacement-policy ablation, the §V characterization and the
/// extension benchmarks — each followed by a blank line. Figures 4/5
/// read one [`optimization_sweep`] and Figures 6/7 one
/// [`tracking_sweep`]. This is what EXPERIMENTS.md snapshots.
pub fn sections(
    optimizations: &[Cell],
    tracking: &[Cell],
    par: Parallelism,
    out: &mut dyn Write,
) -> io::Result<()> {
    table2(out)?;
    writeln!(out)?;
    table3(out)?;
    writeln!(out)?;
    fig4(optimizations, out)?;
    writeln!(out)?;
    fig5(optimizations, out)?;
    writeln!(out)?;
    fig6(tracking, out)?;
    writeln!(out)?;
    fig7(tracking, out)?;
    writeln!(out)?;
    table1(out)?;
    writeln!(out)?;
    ablation(par, out)?;
    writeln!(out)?;
    characterize(&all_workloads(), par, None, out)?;
    writeln!(out)?;
    extension(par, out)?;
    writeln!(out)?;
    writeln!(out, "All experiments regenerated.")
}

/// Runs [`sections`] and then the report and trace runs asked for:
///
/// * `quick` skips the sections;
/// * `report` — the report set (`tq` and `hsti` when `quick`, which is
///   what CI uses; else the collaborative workloads) is run once with
///   observability on and written as a run report;
/// * `perfetto` — a Chrome-trace JSON of one seeded `tq` run, loadable in
///   `ui.perfetto.dev`.
///
/// Stdout and the report are byte-identical at any worker count.
///
/// # Errors
///
/// Names the Perfetto run if its simulation fails, besides what writing
/// can fail on.
pub fn repro(
    par: Parallelism,
    quick: bool,
    report: Option<OutFile>,
    perfetto: Option<OutFile>,
    out: &mut dyn Write,
) -> io::Result<()> {
    if !quick {
        sections(&optimization_sweep(par), &tracking_sweep(par), par, out)?;
    }

    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());

    if let Some(file) = report {
        let workloads: Vec<Box<dyn Workload>> = if quick {
            vec![Box::new(Tq::default()), Box::new(Hsti::default())]
        } else {
            collaborative_workloads()
        };
        let obs = ObsConfig::report(REPORT_EPOCH_TICKS);
        let mut campaign: Campaign<'_, RunRecord> = Campaign::new("repro/report");
        for w in &workloads {
            let w = w.as_ref();
            campaign.push(w.name(), move || {
                run_record(w.name(), "baseline", &run_workload_observed(w, cfg, obs))
            });
        }
        // Records land in submission order, so the report JSON is
        // byte-identical to a serial run's.
        let records = expect_all("repro/report", campaign.run(par))?;
        write_report("repro", &cfg, records, file, out)?;
    }

    if let Some(file) = perfetto {
        let run = run_workload_observed(&Tq::default(), cfg, ObsConfig::full(REPORT_EPOCH_TICKS));
        if let Err(e) = &run.outcome {
            return Err(io::Error::other(format!("perfetto run: {e}")));
        }
        let trace = run.obs.perfetto.expect("perfetto enabled for trace run");
        let path = file.write(&trace.to_json_string())?;
        writeln!(
            out,
            "perfetto trace ({} events) written to {} — open it at https://ui.perfetto.dev",
            trace.len(),
            path.display()
        )?;
    }
    Ok(())
}

//! Protocol characterization: measured state-transition matrices and
//! sharing-pattern classification for one collaborative workload.

use std::io::{self, Write};
use std::process::ExitCode;

use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_obs::{SharingClass, SharingReport};
use hsc_sim::TransitionMatrix;
use hsc_workloads::{run_workload_observed, Workload};

use crate::cli::OutFile;
use crate::reporting::{run_record, write_report, REPORT_EPOCH_TICKS};
use crate::RULE;

/// Prints one matrix as a `from × to` grid (summed over causes) followed
/// by the per-cause breakdown of every non-zero cell.
fn write_matrix(out: &mut dyn Write, m: &TransitionMatrix) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "{} transition matrix ({} transition(s)):", m.protocol(), m.total())?;
    let states = m.states();
    let causes = m.causes();
    write!(out, "  {:>10}", "from\\to")?;
    for to in states {
        write!(out, " {to:>10}")?;
    }
    writeln!(out)?;
    for (fi, from) in states.iter().enumerate() {
        write!(out, "  {from:>10}")?;
        for ti in 0..states.len() {
            let sum: u64 = (0..causes.len()).map(|ci| m.get(fi, ti, ci)).sum();
            if sum == 0 {
                write!(out, " {:>10}", ".")?;
            } else {
                write!(out, " {sum:>10}")?;
            }
        }
        writeln!(out)?;
    }
    writeln!(out, "  by cause:")?;
    for (fi, ti, ci, n) in m.nonzero() {
        writeln!(out, "    {:>2}→{:<2} {:<16} {n:>10}", states[fi], states[ti], causes[ci])?;
    }
    Ok(())
}

fn write_hist(out: &mut dyn Write, label: &str, hist: &[u64]) -> io::Result<()> {
    let total: u64 = hist.iter().sum();
    writeln!(out, "  {label} ({total} sample(s)):")?;
    let last = hist.len() - 1;
    for (i, &n) in hist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bucket = if i == last { format!("{i}+") } else { format!("{i}") };
        let pct = if total > 0 { 100.0 * n as f64 / total as f64 } else { 0.0 };
        writeln!(out, "    {bucket:>4} {n:>10}  {pct:>5.1}%")?;
    }
    Ok(())
}

fn write_sharing(out: &mut dyn Write, sh: &SharingReport) -> io::Result<()> {
    writeln!(out)?;
    writeln!(
        out,
        "directory sharing analytics ({} line(s) tracked, {} access(es) beyond cap):",
        sh.tracked_lines, sh.dropped_lines
    )?;
    write_hist(out, "sharer count at directory lookup", &sh.sharer_hist)?;
    write_hist(out, "probe fan-out per transaction", &sh.fanout_hist)?;
    let classified: u64 = sh.class_counts.iter().sum();
    writeln!(out, "  line classification ({classified} line(s)):")?;
    for (class, &n) in SharingClass::ALL.iter().zip(&sh.class_counts) {
        let pct = if classified > 0 { 100.0 * n as f64 / classified as f64 } else { 0.0 };
        writeln!(out, "    {:<12} {n:>8}  {pct:>5.1}%", class.name())?;
    }
    if !sh.top_pingpong.is_empty() {
        writeln!(out, "  worst ping-pong lines (writer alternations / writes):")?;
        for o in &sh.top_pingpong {
            writeln!(out, "    line {:#x}  {} / {}", o.line, o.writer_flips, o.writes)?;
        }
    }
    Ok(())
}

/// Runs `w` once on `coherence` (labelled `config` in the output) with
/// the protocol-analytics pillar enabled and writes, in the style of the
/// paper's protocol tables:
///
/// * one transition matrix per protocol (`moesi-l2`, `viper-tcc`, `llc`,
///   `directory`): a dense `from × to` grid summed over causes, then the
///   per-cause breakdown of every non-zero cell;
/// * the directory's sharing analytics: sharer-count and probe-fan-out
///   histograms, the private / read-shared / migratory / ping-pong line
///   classification, and the worst ping-pong offender lines.
///
/// A `report` additionally gets a run report carrying the same matrices
/// and sharing sections. Returns failure if the run itself failed.
pub fn analyze(
    w: &dyn Workload,
    config: &str,
    coherence: CoherenceConfig,
    report: Option<OutFile>,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let cfg = SystemConfig::scaled(coherence);
    let obs = ObsConfig { protocol_analytics: true, ..ObsConfig::report(REPORT_EPOCH_TICKS) };

    writeln!(out, "{RULE}")?;
    writeln!(out, "Protocol characterization: {} on {} (scaled system)", w.name(), config)?;
    writeln!(out, "({})", w.description())?;
    writeln!(out, "{RULE}")?;

    let run = run_workload_observed(w, cfg, obs);
    match &run.outcome {
        Ok(m) => {
            writeln!(out, "run completed: {} tick(s), {} event(s) handled", m.ticks, m.events)?
        }
        Err(e) => {
            writeln!(out, "run FAILED ({e}) — analytics below cover the run up to the failure")?
        }
    }

    for m in &run.obs.transitions {
        write_matrix(out, m)?;
    }
    match run.obs.sharing.as_ref().map(|t| t.report()) {
        Some(sh) => write_sharing(out, &sh)?,
        None => writeln!(out, "(no sharing analytics collected)")?,
    }

    if let Some(file) = report {
        write_report("analyze", &cfg, vec![run_record(w.name(), config, &run)], file, out)?;
    }
    Ok(if run.outcome.is_ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

//! Model-checking campaign: exhaustive litmus exploration plus seeded
//! fault sweeps, run as a parallel [`Campaign`].
//!
//! For every scenario in [`Litmus::catalog`]:
//!
//! * **exhaustive** — every delivery order, fault-free and (where the
//!   scenario defines one) under its deterministic fault plan, with SWMR,
//!   value-coherence, stuck-state and final-state invariants asserted at
//!   each distinct state;
//! * **sweep** — timed runs under seeded probabilistic message loss with
//!   retries enabled.
//!
//! Output is submission-ordered and byte-identical at any worker count,
//! including the per-scenario distinct-state counts — CI compares those
//! across runs to pin down state-hash determinism.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hsc_check::litmus::{Litmus, LitmusReport, SweepSummary};
use hsc_obs::PerfettoTrace;

use crate::par::{Campaign, Parallelism};

/// Seeds per scenario sweep (full / `--quick`).
const SWEEP_SEEDS: u64 = 20;
const SWEEP_SEEDS_QUICK: u64 = 5;

enum ModeResult {
    Exhaustive(Box<LitmusReport>),
    Sweep(SweepSummary),
}

/// Checks the catalog; `quick` shrinks the sweep seed range. A violation
/// fails the run: its minimized counterexample is printed as a numbered
/// event sequence and exported as a Perfetto trace under `trace_dir`
/// (default `target/check/`).
pub fn check(
    par: Parallelism,
    quick: bool,
    trace_dir: Option<&Path>,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let sweep_seeds = if quick { SWEEP_SEEDS_QUICK } else { SWEEP_SEEDS };
    let trace_dir = trace_dir.unwrap_or(Path::new("target/check"));

    let catalog = Litmus::catalog();
    writeln!(out, "model_check: {} scenarios, {} sweep seeds each", catalog.len(), sweep_seeds)?;

    let mut campaign = Campaign::new("check");
    for l in Litmus::catalog() {
        let name = l.name;
        campaign.push(format!("{name}/exhaustive"), move || {
            ModeResult::Exhaustive(Box::new(l.check_exhaustive()))
        });
    }
    for l in Litmus::catalog() {
        let name = l.name;
        campaign.push(format!("{name}/sweep"), move || ModeResult::Sweep(l.sweep(0..sweep_seeds)));
    }
    let results = campaign.run(par);

    let mut failed = false;
    for (l, result) in catalog.iter().chain(catalog.iter()).zip(results) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                writeln!(out, "{:<22} PANIC: {e}", l.name)?;
                failed = true;
                continue;
            }
        };
        match r {
            ModeResult::Exhaustive(rep) => {
                let summarize = |x: &Option<hsc_check::ExploreReport>| match x {
                    Some(r) => format!(
                        "{} states, {} terminal{}{}",
                        r.states,
                        r.terminal_states,
                        if r.truncated { ", TRUNCATED" } else { "" },
                        if r.passed() { "" } else { ", VIOLATION" },
                    ),
                    None => "-".to_owned(),
                };
                writeln!(
                    out,
                    "{:<22} exhaustive  fault-free: {:<40} faulty: {}",
                    rep.name,
                    summarize(&rep.fault_free),
                    summarize(&rep.faulty),
                )?;
                if let Some(cx) = rep.counterexample() {
                    failed = true;
                    writeln!(out, "{cx}")?;
                    match write_trace(&cx.to_perfetto(), rep.name, trace_dir) {
                        Ok(path) => writeln!(out, "  trace written to {}", path.display())?,
                        Err(e) => eprintln!("  {e}"),
                    }
                }
            }
            ModeResult::Sweep(s) => {
                writeln!(
                    out,
                    "{:<22} sweep       {} runs: {} completed, {} deadlocked, {} failed",
                    l.name,
                    s.runs,
                    s.completed,
                    s.deadlocked,
                    s.failures.len()
                )?;
                if !s.passed() {
                    failed = true;
                    for f in &s.failures {
                        writeln!(out, "  FAIL: {f}")?;
                    }
                }
            }
        }
    }

    if failed {
        writeln!(out, "model_check: FAILED")?;
        Ok(ExitCode::FAILURE)
    } else {
        writeln!(out, "model_check: all scenarios passed")?;
        Ok(ExitCode::SUCCESS)
    }
}

/// Writes `trace` to `counterexample_<name>.json` under `dir`, creating
/// `dir` first. Returns the path written, or what went wrong.
fn write_trace(trace: &PerfettoTrace, name: &str, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create trace directory {}: {e}", dir.display()))?;
    let path = dir.join(format!("counterexample_{name}.json"));
    trace.write_to(&path).map_err(|e| format!("trace write failed: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_directory_that_cannot_be_created_is_reported() {
        // Nothing can be created under a regular file.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/check");
        let err = write_trace(&PerfettoTrace::new(), "two_writers", &dir).unwrap_err();
        assert!(err.starts_with("cannot create trace directory"), "{err}");
        assert!(!dir.exists());
    }
}

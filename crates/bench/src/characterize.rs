//! Workload characterization (paper §V): the directory-request mix and
//! cache behaviour of every adapted CHAI benchmark under the baseline
//! protocol — the data behind the paper's claim that the CHAI suite shows
//! "greater collaboration through finer-grain data sharing and
//! synchronization" than the alternatives.

use std::io::{self, Write};

use hsc_cluster::TICKS_PER_GPU_CYCLE;
use hsc_core::{CoherenceConfig, Metrics, ObsConfig, SystemConfig};
use hsc_obs::RunRecord;
use hsc_workloads::{run_workload_observed, Workload};

use crate::cli::OutFile;
use crate::par::{expect_all, Campaign, Parallelism};
use crate::reporting::{run_record, write_report, REPORT_EPOCH_TICKS};
use crate::RULE;

/// Characterizes `workloads` (the CHAI suite, or one replayed trace):
/// each is simulated once — with observability on when a `report` is
/// wanted — and every table reads from that single run. The runs execute
/// as one parallel campaign; tables and the report are assembled in
/// submission order, identical at any worker count.
///
/// # Errors
///
/// Names the workload whose run failed, besides what writing can fail on.
pub fn characterize(
    workloads: &[Box<dyn Workload>],
    par: Parallelism,
    report: Option<OutFile>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let obs =
        if report.is_some() { ObsConfig::report(REPORT_EPOCH_TICKS) } else { ObsConfig::off() };

    let mut campaign: Campaign<'_, Result<(Metrics, RunRecord), String>> =
        Campaign::new("characterize");
    for w in workloads {
        let w = w.as_ref();
        campaign.push(w.name(), move || {
            let run = run_workload_observed(w, cfg, obs);
            let record = run_record(w.name(), "baseline", &run);
            match run.outcome {
                Ok(metrics) => Ok((metrics, record)),
                Err(e) => Err(format!("workload {}: {e}", w.name())),
            }
        });
    }
    let rows = expect_all("characterize", campaign.run(par))?;
    let rows = rows.into_iter().collect::<Result<Vec<_>, _>>().map_err(io::Error::other)?;

    writeln!(out, "{RULE}")?;
    writeln!(out, "Workload characterization (§V): directory request mix, baseline")?;
    writeln!(out, "{RULE}")?;
    writeln!(
        out,
        "{:8} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "bench",
        "cycles",
        "RdBlk",
        "RdBlkS",
        "RdBlkM",
        "VicClean",
        "VicDirty",
        "WT",
        "Atomic",
        "DmaRW",
        "Flush"
    )?;
    for (w, (m, _)) in workloads.iter().zip(&rows) {
        let s = &m.stats;
        writeln!(
            out,
            "{:8} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
            w.name(),
            m.gpu_cycles,
            s.get("dir.requests.RdBlk"),
            s.get("dir.requests.RdBlkS"),
            s.get("dir.requests.RdBlkM"),
            s.get("dir.requests.VicClean"),
            s.get("dir.requests.VicDirty"),
            s.get("dir.requests.WT"),
            s.get("dir.requests.Atomic"),
            s.get("dir.requests.DmaRd") + s.get("dir.requests.DmaWr"),
            s.get("dir.requests.Flush"),
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "{:8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "bench", "cpu ops", "wf ops", "l2 hit%", "tcp hit%", "llc hit%", "upgrades"
    )?;
    for (w, (m, _)) in workloads.iter().zip(&rows) {
        let s = &m.stats;
        let pct = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                100.0 * h as f64 / (h + m) as f64
            }
        };
        // Every CorePair's `cp{i}.<key>`, however many the run had.
        let per_cp = |key: &str| {
            let of_key =
                |k: &str| k.starts_with("cp") && k.split_once('.').is_some_and(|p| p.1 == key);
            s.iter().filter(|(k, _)| of_key(k)).map(|(_, v)| v).sum::<u64>()
        };
        let cpu_ops = per_cp("core.loads")
            + per_cp("core.stores")
            + per_cp("core.atomics")
            + per_cp("core.compute_ops");
        let wf_ops = s.get("wf.vec_loads")
            + s.get("wf.vec_stores")
            + s.get("wf.atomics_glc")
            + s.get("wf.atomics_slc")
            + s.get("wf.compute_ops");
        writeln!(
            out,
            "{:8} {:>10} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            w.name(),
            cpu_ops,
            wf_ops,
            pct(per_cp("l2.hits"), per_cp("l2.misses")),
            pct(s.get("tcp.hits"), s.get("tcp.misses")),
            pct(s.get("llc.hits"), s.get("llc.misses")),
            per_cp("l2.upgrades"),
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "{:8} {:>14} {:>16} {:>15}",
        "bench", "dir txns", "mean lat (GPUcy)", "max lat (GPUcy)"
    )?;
    for (w, (m, _)) in workloads.iter().zip(&rows) {
        let s = &m.stats;
        writeln!(
            out,
            "{:8} {:>14} {:>16} {:>15}",
            w.name(),
            s.get("dir.txn_latency_count"),
            s.get("dir.txn_latency_mean_ticks") / TICKS_PER_GPU_CYCLE,
            s.get("dir.txn_latency_max_ticks") / TICKS_PER_GPU_CYCLE,
        )?;
    }

    if let Some(file) = report {
        let records = rows.into_iter().map(|(_, record)| record).collect();
        write_report("characterize", &cfg, records, file, out)?;
    }
    Ok(())
}

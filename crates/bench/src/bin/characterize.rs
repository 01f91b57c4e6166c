//! Workload characterization (paper §V): the directory-request mix and
//! cache behaviour of every adapted CHAI benchmark under the baseline
//! protocol — the data behind the paper's claim that the CHAI suite shows
//! "greater collaboration through finer-grain data sharing and
//! synchronization" than the alternatives.
//!
//! Each workload is simulated once (with observability on when
//! `--report <path>` is given) and every table below reads from that
//! single run. The per-workload runs execute as one parallel campaign
//! (`--jobs <N>` / `HSC_JOBS`); tables and the report are assembled in
//! submission order, identical at any worker count.
//!
//! With `--trace <file>` (replay an `hsc-trace v1` file) or
//! `--trace-gen <spec>` (generate one from a traffic spec, see
//! `trace_gen --list`), the campaign characterizes that single traced
//! workload instead of the CHAI suite — same tables, same report schema,
//! same byte-identity guarantee under `--jobs`.

use hsc_bench::par::{expect_all, Campaign};
use hsc_bench::reporting::{parse_cli, write_report, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_obs::{RunRecord, RunReport};
use hsc_sim::StatSet;
use hsc_workloads::{all_workloads, run_workload_observed, Workload};

struct Row {
    workload: &'static str,
    gpu_cycles: u64,
    stats: StatSet,
    record: RunRecord,
}

fn main() {
    let opts = parse_cli("characterize");
    let par = opts.parallelism("characterize");
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let obs = if opts.report.is_some() {
        ObsConfig::report(REPORT_EPOCH_TICKS)
    } else {
        ObsConfig::off()
    };

    let workloads: Vec<Box<dyn Workload>> = match opts.trace_workload("characterize") {
        Some(t) => vec![Box::new(t)],
        None => all_workloads(),
    };
    let mut campaign: Campaign<'_, Row> = Campaign::new("characterize");
    for w in &workloads {
        let w = w.as_ref();
        campaign.push(w.name(), move || {
            let run = run_workload_observed(w, cfg, obs);
            let r = match &run.outcome {
                Ok(r) => r,
                Err(e) => panic!("workload {} failed: {e}", w.name()),
            };
            let mut record = RunRecord {
                workload: w.name().to_owned(),
                config: "baseline".to_owned(),
                outcome: "completed".to_owned(),
                ticks: r.metrics.ticks,
                gpu_cycles: r.metrics.gpu_cycles,
                counters: r.metrics.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
                ..RunRecord::default()
            };
            record.attach_obs(&run.obs);
            Row {
                workload: r.workload,
                gpu_cycles: r.metrics.gpu_cycles,
                stats: r.metrics.stats.clone(),
                record,
            }
        });
    }
    let rows = expect_all("characterize", campaign.run(par));

    println!("================================================================");
    println!("Workload characterization (§V): directory request mix, baseline");
    println!("================================================================");
    println!(
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
    );
    for row in &rows {
        let s = &row.stats;
        println!(
            "{:8} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
            row.workload,
            row.gpu_cycles,
            s.get("dir.requests.RdBlk"),
            s.get("dir.requests.RdBlkS"),
            s.get("dir.requests.RdBlkM"),
            s.get("dir.requests.VicClean"),
            s.get("dir.requests.VicDirty"),
            s.get("dir.requests.WT"),
            s.get("dir.requests.Atomic"),
            s.get("dir.requests.DmaRd") + s.get("dir.requests.DmaWr"),
            s.get("dir.requests.Flush"),
        );
    }
    println!();
    println!(
        "{:8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "bench", "cpu ops", "wf ops", "l2 hit%", "tcp hit%", "llc hit%", "upgrades"
    );
    for row in &rows {
        let s = &row.stats;
        let pct = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                100.0 * h as f64 / (h + m) as f64
            }
        };
        let l2h = s.sum_prefix("cp0.l2.hits")
            + s.sum_prefix("cp1.l2.hits")
            + s.sum_prefix("cp2.l2.hits")
            + s.sum_prefix("cp3.l2.hits");
        let l2m = s.sum_prefix("cp0.l2.misses")
            + s.sum_prefix("cp1.l2.misses")
            + s.sum_prefix("cp2.l2.misses")
            + s.sum_prefix("cp3.l2.misses");
        let cpu_ops = (0..4)
            .map(|i| {
                s.get(&format!("cp{i}.core.loads"))
                    + s.get(&format!("cp{i}.core.stores"))
                    + s.get(&format!("cp{i}.core.atomics"))
                    + s.get(&format!("cp{i}.core.compute_ops"))
            })
            .sum::<u64>();
        let wf_ops = s.get("wf.vec_loads")
            + s.get("wf.vec_stores")
            + s.get("wf.atomics_glc")
            + s.get("wf.atomics_slc")
            + s.get("wf.compute_ops");
        println!(
            "{:8} {:>10} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            row.workload,
            cpu_ops,
            wf_ops,
            pct(l2h, l2m),
            pct(s.get("tcp.hits"), s.get("tcp.misses")),
            pct(s.get("llc.hits"), s.get("llc.misses")),
            (0..4).map(|i| s.get(&format!("cp{i}.l2.upgrades"))).sum::<u64>(),
        );
    }
    println!();
    println!(
        "{:8} {:>14} {:>16} {:>15}",
        "bench", "dir txns", "mean lat (GPUcy)", "max lat (GPUcy)"
    );
    for row in &rows {
        let s = &row.stats;
        println!(
            "{:8} {:>14} {:>16} {:>15}",
            row.workload,
            s.get("dir.txn_latency_count"),
            s.get("dir.txn_latency_mean_ticks") / 35,
            s.get("dir.txn_latency_max_ticks") / 35,
        );
    }

    if let Some(path) = &opts.report {
        let mut report = RunReport::new("characterize");
        report.fingerprint_config(&cfg);
        report.runs = rows.into_iter().map(|r| r.record).collect();
        write_report(&report, path);
    }
}

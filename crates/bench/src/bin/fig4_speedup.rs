//! Regenerates **Figure 4**: performance increments of the three §III
//! optimizations, in % saved simulated cycles over the baseline, for all
//! ten benchmarks.

use hsc_bench::par::parse_sweep_cli;
use hsc_bench::{header, mean, paper, pct_saved, sweep};
use hsc_core::CoherenceConfig;
use hsc_workloads::all_workloads;

fn main() {
    let par = parse_sweep_cli("fig4_speedup");
    header(
        "Figure 4",
        "%saved simulated cycles per optimization vs baseline",
        paper::FIG4_AVG_SPEEDUP_PCT,
    );
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("earlyResp", CoherenceConfig::early_response()),
        ("noWBcleanVic", CoherenceConfig::no_wb_clean_victims()),
        ("llcWB", CoherenceConfig::llc_write_back()),
    ];
    let workloads = all_workloads();
    let cells = sweep(&workloads, &configs, par);
    println!("{:8} {:>12} {:>14} {:>10}", "bench", "earlyResp%", "noWBcleanVic%", "llcWB%");
    let mut all = Vec::new();
    for chunk in cells.chunks(configs.len()) {
        let base = chunk[0].metrics.gpu_cycles;
        let vals: Vec<f64> =
            chunk[1..].iter().map(|c| pct_saved(base, c.metrics.gpu_cycles)).collect();
        println!("{:8} {:>12.2} {:>14.2} {:>10.2}", chunk[0].workload, vals[0], vals[1], vals[2]);
        all.extend(vals);
    }
    println!("----------------------------------------------------------------");
    println!(
        "average over optimizations and benchmarks: {:+.2}%  (paper: +{:.2}%)",
        mean(&all),
        paper::FIG4_AVG_SPEEDUP_PCT
    );
}

//! Regenerates **Figure 6**: performance increments of owner-tracking and
//! sharer-tracking over the baseline, in % saved simulated cycles, on the
//! five collaborative benchmarks (the paper's "five benchmarks tested";
//! see EXPERIMENTS.md for the selection rationale).

use hsc_bench::par::parse_sweep_cli;
use hsc_bench::{header, mean, paper, pct_saved, sweep};
use hsc_core::CoherenceConfig;
use hsc_workloads::collaborative_workloads;

fn main() {
    let par = parse_sweep_cli("fig6_tracking_speedup");
    header(
        "Figure 6",
        "%saved simulated cycles with §IV state tracking vs baseline",
        paper::FIG6_AVG_SPEEDUP_PCT,
    );
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("ownerTracking", CoherenceConfig::owner_tracking()),
        ("sharerTracking", CoherenceConfig::sharer_tracking()),
    ];
    let workloads = collaborative_workloads();
    let cells = sweep(&workloads, &configs, par);
    println!("{:8} {:>14} {:>15}", "bench", "owner%", "sharers%");
    let mut avgs = Vec::new();
    for chunk in cells.chunks(configs.len()) {
        let base = chunk[0].metrics.gpu_cycles;
        let own = pct_saved(base, chunk[1].metrics.gpu_cycles);
        let shr = pct_saved(base, chunk[2].metrics.gpu_cycles);
        println!("{:8} {:>14.2} {:>15.2}", chunk[0].workload, own, shr);
        avgs.push(shr);
    }
    println!("----------------------------------------------------------------");
    println!(
        "average (sharer tracking): {:+.2}%  (paper: +{:.2}%)",
        mean(&avgs),
        paper::FIG6_AVG_SPEEDUP_PCT
    );
}

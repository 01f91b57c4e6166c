//! Regenerates **Figure 7**: % reduction in probes sent out from the
//! directory with owner- and sharer-tracking, on the five collaborative
//! benchmarks.

use hsc_bench::par::parse_sweep_cli;
use hsc_bench::{header, mean, paper, pct_saved, sweep};
use hsc_core::CoherenceConfig;
use hsc_workloads::collaborative_workloads;

fn main() {
    let par = parse_sweep_cli("fig7_probe_reduction");
    header(
        "Figure 7",
        "% reduction in directory probes with §IV state tracking",
        paper::FIG7_AVG_PROBE_REDUCTION_PCT,
    );
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("ownerTracking", CoherenceConfig::owner_tracking()),
        ("sharerTracking", CoherenceConfig::sharer_tracking()),
    ];
    let workloads = collaborative_workloads();
    let cells = sweep(&workloads, &configs, par);
    println!(
        "{:8} {:>10} {:>10} {:>10} {:>9} {:>10}",
        "bench", "base#", "owner#", "sharer#", "owner%", "sharers%"
    );
    let mut avgs = Vec::new();
    for chunk in cells.chunks(configs.len()) {
        let base = chunk[0].metrics.probes_sent;
        let own = chunk[1].metrics.probes_sent;
        let shr = chunk[2].metrics.probes_sent;
        println!(
            "{:8} {:>10} {:>10} {:>10} {:>9.2} {:>10.2}",
            chunk[0].workload,
            base,
            own,
            shr,
            pct_saved(base, own),
            pct_saved(base, shr)
        );
        avgs.push(pct_saved(base, shr));
    }
    println!("----------------------------------------------------------------");
    println!(
        "average probe reduction (sharer tracking): {:.2}%  (paper: {:.2}%)",
        mean(&avgs),
        paper::FIG7_AVG_PROBE_REDUCTION_PCT
    );
}

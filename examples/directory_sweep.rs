//! Directory-pressure sweep: how the §IV tracking directory behaves as
//! its capacity shrinks and entry evictions (transient-B backward
//! invalidations) take over — the capacity trade-off §IV-A.1 discusses.
//!
//! ```sh
//! cargo run --release --example directory_sweep
//! ```

use hsc_repro::prelude::*;

fn main() {
    let bench = Cedd {
        frames: 4,
        pixels: 512,
        cpu_per_stage: 2,
        wfs_per_stage: 4,
        seed: 41,
        frame_interval: 30_000,
    };
    println!(
        "{:>10} {:>10} {:>9} {:>12} {:>14}",
        "dirEntries", "cycles", "probes", "entryEvicts", "backInvProbes"
    );
    for entries in [128u64, 256, 512, 1024, 2048, 4096] {
        let mut cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
        cfg.uncore.dir_entries = entries;
        let m = run_workload_on(&bench, cfg);
        println!(
            "{:>10} {:>10} {:>9} {:>12} {:>14}",
            entries,
            m.gpu_cycles,
            m.probes_sent,
            m.stats.get("dir.entry_evictions"),
            m.stats.get("dir.backinval_probes"),
        );
    }
    println!("\nAs the directory shrinks, backward invalidations climb and the probe");
    println!("savings erode — the inclusion-policy cost discussed in §IV-A.1.");
}

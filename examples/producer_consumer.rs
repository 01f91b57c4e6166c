//! The paper's motivating workload shape: a CPU-produced, GPU-consumed
//! task queue (the CHAI `tq` benchmark), compared across the baseline and
//! every enhancement tier.
//!
//! ```sh
//! cargo run --release --example producer_consumer
//! ```
//!
//! Watch three things move as the enhancements stack up, exactly as in
//! the paper's §VI: runtime (Fig. 4/6), memory accesses (Fig. 5) and
//! directory probes (Fig. 7).

use hsc_repro::prelude::*;

fn main() {
    let bench =
        Tq { tasks: 512, producers: 4, cpu_consumers: 4, wavefronts: 8, compute: 40, seed: 17 };
    let tiers: [(&str, CoherenceConfig); 5] = [
        ("baseline (stateless dir, WT LLC)", CoherenceConfig::baseline()),
        ("+ no WB of clean victims (III-B)", CoherenceConfig::no_wb_clean_victims()),
        ("+ write-back LLC (III-C)", CoherenceConfig::llc_write_back_l3_on_wt()),
        ("+ owner tracking (IV-A)", CoherenceConfig::owner_tracking()),
        ("+ sharer tracking (IV-B)", CoherenceConfig::sharer_tracking()),
    ];
    println!(
        "{:<36} {:>10} {:>9} {:>8} {:>8}",
        "configuration", "cycles", "probes", "memRd", "memWr"
    );
    let mut base_cycles = None;
    for (name, cfg) in tiers {
        let m = run_workload_on(&bench, SystemConfig::scaled(cfg));
        let base = *base_cycles.get_or_insert(m.gpu_cycles);
        println!(
            "{:<36} {:>10} {:>9} {:>8} {:>8}   ({:+.1}% vs baseline)",
            name,
            m.gpu_cycles,
            m.probes_sent,
            m.mem_reads,
            m.mem_writes,
            100.0 * (1.0 - m.gpu_cycles as f64 / base as f64),
        );
    }
    println!("\nEvery run is functionally verified: all 512 tasks were produced,");
    println!("claimed exactly once, processed and their results checked.");
}

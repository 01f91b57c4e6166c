//! Atomic contention under the two histogram partitionings: `hsti`
//! (shared bins, heavy system-scope atomics) vs `hsto` (private bins,
//! read-only sharing) — the paper's example of which collaboration styles
//! the coherence enhancements reward.
//!
//! ```sh
//! cargo run --release --example histogram_contention
//! ```

use hsc_repro::prelude::*;

fn run(name: &str, w: &dyn Workload) {
    println!("--- {name}: {} ---", w.description());
    let base = run_workload_on(w, SystemConfig::scaled(CoherenceConfig::baseline()));
    let trk = run_workload_on(w, SystemConfig::scaled(CoherenceConfig::sharer_tracking()));
    println!(
        "baseline : {:>9} cycles, {:>8} probes, {:>6} atomics at the directory",
        base.gpu_cycles,
        base.probes_sent,
        base.stats.get("dir.requests.Atomic"),
    );
    println!(
        "tracking : {:>9} cycles, {:>8} probes   → {:+.1}% cycles, {:+.1}% probes",
        trk.gpu_cycles,
        trk.probes_sent,
        100.0 * (1.0 - trk.gpu_cycles as f64 / base.gpu_cycles as f64),
        100.0 * (1.0 - trk.probes_sent as f64 / base.probes_sent as f64),
    );
    println!();
}

fn main() {
    let hsti = Hsti { elements: 4096, bins: 32, cpu_threads: 8, wavefronts: 16, seed: 11 };
    let hsto = Hsto { elements: 4096, bins: 96, cpu_threads: 8, wavefronts: 16, seed: 23 };
    run("hsti", &hsti);
    run("hsto", &hsto);
    println!("hsti's shared-bin atomics make it probe-bound — precisely the traffic");
    println!("the state-tracking directory elides; hsto barely probes to begin with.");
}

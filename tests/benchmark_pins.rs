//! The simulated numbers of the four `BENCHMARK.json` workloads, pinned.
//!
//! A host-speed change (cache-array layout, event queue, message
//! plumbing) must leave every one of these where it is: which line a full
//! set gives up decides every later miss, probe and write-back, so a slip
//! in replacement order shows up here — in `cargo test -q`, not only in a
//! benchmark run. A protocol change moves them on purpose and records the
//! new values here and in `benchmark/baseline.json`.

use hsc_repro::prelude::*;
use hsc_repro::workloads::trace::{TraceWorkload, TrafficSpec};

/// `(events, ticks, gpu_cycles, probes_sent, mem_reads, mem_writes)`, the
/// six quantities every benchmark rep must reproduce.
type Pin = (u64, u64, u64, u64, u64, u64);

fn simulate(workload: &dyn Workload, coherence: CoherenceConfig) -> Pin {
    let m = run_workload_on(workload, SystemConfig::scaled(coherence));
    (m.events, m.ticks, m.gpu_cycles, m.probes_sent, m.mem_reads, m.mem_writes)
}

#[test]
fn cedd_base() {
    let pin = simulate(&Cedd::default(), CoherenceConfig::baseline());
    assert_eq!(pin, (125_375, 4_993_612, 142_674, 27_628, 5_130, 4_680));
}

#[test]
fn trns_track() {
    let pin = simulate(&Trns::default(), CoherenceConfig::sharer_tracking());
    assert_eq!(pin, (94_102, 7_656_981, 218_770, 7_155, 2_765, 210));
}

#[test]
fn sc_base() {
    let pin = simulate(&Sc::default(), CoherenceConfig::baseline());
    assert_eq!(pin, (617_981, 90_754_684, 2_592_990, 174_256, 28_879, 31_401));
}

#[test]
fn gen_hotspot_seed_11() {
    let spec = TrafficSpec::parse("hotspot,dma=2,ops=20000,seed=11").expect("spec parses");
    let pin = simulate(&TraceWorkload::new(spec.generate()), CoherenceConfig::baseline());
    assert_eq!(pin, (1_577_750, 228_543_951, 6_529_827, 451_664, 74_875, 36_130));
}

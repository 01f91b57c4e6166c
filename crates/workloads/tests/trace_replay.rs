//! The lost update on file since PR 11, pinned: a mixed CPU+GPU trace
//! whose footprint exceeds the scaled L2 leaves clean victim copies in
//! the LLC, and a GPU write-through whose probe brought back a CPU store
//! used to update such a copy with its own words only — the next read hit
//! the LLC and lost the store (`word 0x1000bd0: got 88209, trace expects
//! exactly 88212`).

use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_workloads::run_workload_observed;
use hsc_workloads::trace::{TraceWorkload, TrafficSpec};

#[test]
fn a_mixed_footprint_over_the_l2_keeps_every_update() {
    let all = "uniform,ops=2000,lines=2048,shared=100,seed=1";
    let one_each = format!("{all},cpu=1,gpu=1");
    let no_atomics = format!("{all},atomics=0,reads=60,writes=40");
    for spec in [all, &one_each, &no_atomics] {
        let program = TrafficSpec::parse(spec).expect("a valid spec").generate();
        let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
        let run = run_workload_observed(&TraceWorkload::new(program), cfg, ObsConfig::off());
        run.outcome.unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
}

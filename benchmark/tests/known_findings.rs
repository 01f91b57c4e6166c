//! Ready-made repros for correctness findings made while defining the
//! benchmark (README "Known findings"). Ignored: they fail today and
//! belong to a later correctness issue, not to this benchmark.

use hsc_core::{CoherenceConfig, SystemBuilder, SystemConfig};
use hsc_workloads::trace::{TraceWorkload, TrafficSpec};
use hsc_workloads::{Workload, DEFAULT_EVENT_BUDGET};

/// A mixed CPU+GPU trace whose shared footprint exceeds the scaled L2
/// loses atomic updates: `word 0x1000bd0: got 88209, trace expects
/// exactly 88212`. Seeds 1–4 and 11 fail at `lines >= 1024` whenever
/// `cpu > 0 && gpu > 0`; CPU-only and GPU-only traces pass.
#[test]
#[ignore = "fails today: lost updates with a mixed CPU+GPU footprint over the L2"]
fn mixed_footprint_over_l2_loses_updates() {
    let spec = TrafficSpec::parse("uniform,ops=2000,lines=2048,shared=100,seed=1").unwrap();
    let w = TraceWorkload::new(spec.generate());
    let mut b = SystemBuilder::new(SystemConfig::scaled(CoherenceConfig::baseline()));
    w.build(&mut b);
    let mut sys = b.build();
    sys.run(DEFAULT_EVENT_BUDGET).expect("the run itself completes");
    w.verify(&sys).expect("every update must survive");
}

//! §III-A's early response under §IV's sharer tracking, a combination no
//! preset configures. An early-answered CPU read must join the line's
//! sharers as every other CPU read does, or a later store upgrades
//! without invalidating the reader's copy.

use hsc_check::litmus::{tiny_config, A};
use hsc_check::{explore, CheckConfig};
use hsc_cluster::{CpuOp, CpuScript};
use hsc_core::{CoherenceConfig, SystemBuilder};

#[test]
fn an_early_answered_cpu_read_is_tracked_as_a_sharer() {
    // L2[0]'s first core writes A twice; L2[1]'s first core reads it twice,
    // so a read can find A dirty in L2[0] and, early, be answered from it.
    let writer = [CpuOp::Store(A, 1), CpuOp::Compute(50), CpuOp::Store(A, 2)];
    for early_dirty_response in [false, true] {
        let mut cfg = tiny_config();
        cfg.coherence =
            CoherenceConfig { early_dirty_response, ..CoherenceConfig::sharer_tracking() };
        let mut b = SystemBuilder::new(cfg);
        b.add_cpu_thread(Box::new(CpuScript::new(writer.to_vec())));
        b.add_cpu_thread(Box::new(CpuScript::default()));
        b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Load(A), CpuOp::Load(A)])));
        let report = explore(&b.build(), &CheckConfig::default());
        let what = format!("early_dirty_response: {early_dirty_response}");
        if let Some(cx) = &report.counterexample {
            panic!("{what}: failed in {} states: {cx}", report.states);
        }
        assert!(!report.truncated, "{what}");
        // The early answer changes when the reader is answered, not which
        // states the line can reach.
        assert_eq!(report.states, 928, "{what}");
    }
}

//! The wake-arming invariant at system level: a requester (L2, TCC, DMA)
//! never has two wake-ups pending at one tick (`hsc_noc::WakeArm`), and a
//! run therefore delivers to the TCC a number of events bounded by the work
//! it does, not by how many handlers asked to be woken.

use std::collections::BTreeSet;

use hsc_repro::prelude::*;

/// Steps a small CPU+GPU run in serial `(tick, seq)` order through the
/// model checker's choice interface, which exposes the pending set, and
/// checks the invariant after every single event.
#[test]
fn no_requester_ever_has_two_wakes_pending_at_one_tick() {
    let bench = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut b = SystemBuilder::new(SystemConfig::scaled(CoherenceConfig::baseline()));
    bench.build(&mut b);
    let mut sys = b.build();
    sys.enable_choice_mode();
    let mut steps = 0u64;
    while let Some(next) = sys.pending_events().first().cloned() {
        sys.step_choice(&next).expect("serial-order stepping cannot fail");
        steps += 1;
        assert!(steps < 1_000_000, "the run must terminate");
        let mut seen = BTreeSet::new();
        for ev in sys.pending_events() {
            // The directory's wakes are per-transaction pipeline timers,
            // not a "when is my next work" poll; they are not armed.
            let Event::Wake(agent) = ev.event else { continue };
            if agent != hsc_repro::noc::AgentId::Directory {
                assert!(
                    seen.insert((agent, ev.at)),
                    "step {steps}: two wakes pending for {agent} at {}",
                    ev.at
                );
            }
        }
    }
    assert!(sys.is_done(), "the run must drain");
    bench.verify(&sys).expect("hsti verifies");
}

/// `cedd` is the workload the wake storm hit hardest: wavefronts sit in
/// long `Compute` ops while fills and write-through acks keep arriving. A
/// retired op costs the TCC at most two events (the wake that issues it and
/// the wake that ends its latency) and a message costs one.
#[test]
fn tcc_events_are_bounded_by_ops_and_messages() {
    let obs = ObsConfig { profile_agents: true, ..ObsConfig::off() };
    let config = SystemConfig::scaled(CoherenceConfig::baseline());
    let run = run_workload_observed(&Cedd::default(), config, obs);
    let stats = run.outcome.expect("cedd verifies").stats;
    let sum = |keys: &[&str]| keys.iter().map(|k| stats.get(k)).sum::<u64>();
    let ops = sum(&[
        "wf.vec_loads",
        "wf.vec_stores",
        "wf.atomics_glc",
        "wf.atomics_slc",
        "wf.acquires",
        "wf.releases",
        "wf.compute_ops",
        "wf.done",
    ]);
    // Every request gets exactly one response; probes come unasked.
    let messages = sum(&[
        "tcc.req.RdBlk",
        "tcc.req.WT",
        "tcc.req.Atomic",
        "tcc.req.Flush",
        "tcc.probes_received",
    ]);
    let tcc = run.obs.agents.iter().find(|a| a.agent == "TCC[0]").expect("the TCC is profiled");
    assert!(
        ops > 1000 && messages > 1000,
        "cedd must exercise the TCC ({ops} ops, {messages} msgs)"
    );
    assert!(
        tcc.events_handled <= 2 * ops + messages,
        "TCC handled {} events for {ops} ops and {messages} messages",
        tcc.events_handled
    );
}

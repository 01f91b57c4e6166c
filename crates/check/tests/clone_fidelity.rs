//! A cloned [`System`] is the state it was cloned from. The explorer
//! branches by cloning, so a clone that left out a field or shared one
//! with its original would explore some other state space, and only a
//! drifted state count (if that) would say so.
//!
//! For every exhaustive catalog scenario, fault-free and under its
//! deterministic fault plan, seeded random walks of choices check at each
//! step that a clone and its original step the same choice into equal
//! states, and that stepping a clone away leaves the original alone. The
//! walk goes on in the clone, and at the end it must equal a fresh build
//! replayed along the same path.

use hsc_check::litmus::Litmus;
use hsc_core::System;
use hsc_noc::FaultPlan;
use hsc_sim::DetRng;

/// Longest walk, in delivered events.
const STEPS: usize = 40;

/// Walks per scenario and fault plan, one seed each. Eight are enough
/// for a walk to cross two memory accesses close enough together that
/// the memory channel's busy time decides a tick.
const WALKS: u64 = 8;

fn choice_mode(mut sys: System) -> System {
    sys.enable_choice_mode();
    sys
}

fn assert_same(a: &System, b: &System, what: &str) {
    assert_eq!(a.state_hash(), b.state_hash(), "{what}: state hash");
    assert_eq!(a.pending_events(), b.pending_events(), "{what}: pending events");
    assert_eq!(a.flight_tail(), b.flight_tail(), "{what}: flight tail");
    assert_eq!(a.metrics(), b.metrics(), "{what}: metrics");
}

fn walk(l: &Litmus, plan: Option<FaultPlan>, seed: u64) {
    let mode = if plan.is_some() { "faulty" } else { "fault-free" };
    let name = format!("{} ({mode}, walk {seed})", l.name);
    let mut rng = DetRng::new(seed);
    let mut sys = choice_mode(l.build(plan, None));
    let mut path = Vec::new();
    while path.len() < STEPS {
        let (hash, pending) = (sys.state_hash(), sys.pending_events());
        let n = pending.len();
        if n == 0 {
            break;
        }
        let i = rng.next_below(n as u64) as usize;

        let mut away = sys.clone();
        away.step_choice(&pending[(i + 1) % n]).expect("step a clone away");
        assert_eq!(sys.state_hash(), hash, "{name}: a clone's step moved its original");
        assert_eq!(sys.pending_events(), pending, "{name}: a clone's step moved its original");

        let mut twin = sys.clone();
        sys.step_choice(&pending[i]).expect("step the original");
        twin.step_choice(&pending[i]).expect("step its clone");
        path.push(pending[i].clone());
        assert_same(&sys, &twin, &format!("{name} after {} step(s)", path.len()));
        // Walk on in the clone: the end state is then a clone of a clone,
        // up to 40 deep, so a field left out of the clone that matters
        // only later still shows against the replay below.
        sys = twin;
    }
    assert!(!path.is_empty(), "{name}: the walk delivered nothing");

    let mut replayed = choice_mode(l.build(plan, None));
    for ev in &path {
        replayed.step_choice(ev).expect("replay the walk");
    }
    assert_same(&sys, &replayed, &format!("{name}: walk vs fresh replay of {path:?}"));
}

#[test]
fn a_clone_steps_like_its_original_and_shares_nothing_with_it() {
    for l in Litmus::catalog().iter().filter(|l| l.exhaustive) {
        for plan in [None].into_iter().chain(l.fault_plan.map(Some)) {
            for seed in 0..WALKS {
                walk(l, plan, seed);
            }
        }
    }
}

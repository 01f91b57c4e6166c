//! End-to-end proof that the checker catches a real protocol bug: a
//! seeded MOESI mutation (an owner's probe response "forgets" to forward
//! its dirty data — `hsc_cluster::mutation`) must produce a minimized
//! counterexample naming the violating interleaving.
//!
//! This lives in its own integration-test file **on purpose**: the
//! mutation switch is process-global, and a separate file gets a separate
//! test process, so flipping it cannot poison concurrently running tests.

#![cfg(debug_assertions)]

use hsc_check::litmus::Litmus;
use hsc_check::ViolationKind;
use hsc_cluster::mutation;

/// Clears the mutation on every exit path, including assertion panics.
struct ResetMutation;

impl Drop for ResetMutation {
    fn drop(&mut self) {
        mutation::set_drop_dirty_probe_data(false);
    }
}

#[test]
fn seeded_moesi_mutation_yields_a_minimized_counterexample() {
    let _guard = ResetMutation;

    // Sanity: the unmutated protocol survives exhaustive exploration.
    let l = Litmus::by_name("two_writers").expect("catalog scenario");
    let clean = l.check_exhaustive();
    assert!(clean.passed(), "two_writers must pass without the mutation");

    mutation::set_drop_dirty_probe_data(true);
    let mutated = l.check_exhaustive();
    let cx = mutated.counterexample().expect("the lost dirty forward must be caught");

    assert!(cx.minimized, "the BFS pass must have shortened the DFS witness");
    assert!(
        matches!(cx.kind, ViolationKind::FinalState | ViolationKind::ValueCoherence),
        "a dropped dirty forward loses a store: got {:?}",
        cx.kind
    );
    assert!(!cx.steps.is_empty(), "the violating interleaving must be named");
    // The witness must actually show the racing ownership transfer: the
    // second writer's RdBlkM reaching the directory.
    let rendered = cx.to_string();
    assert!(
        rendered.contains("RdBlkM"),
        "counterexample must name the protocol events:\n{rendered}"
    );
    // And it replays: the choices drive a fresh system into the same
    // violation (render_path already did; spot-check the Perfetto export).
    assert_eq!(cx.to_perfetto().len(), cx.steps.len() + 1 + cx.flight.len());
    // The replayed flight tail names the deliveries leading to the
    // violation, so the rendering ends with a post-mortem.
    assert!(!cx.flight.is_empty(), "deliveries happened, so the tail must too");
    assert!(rendered.contains("flight recorder ("), "rendering carries the tail:\n{rendered}");
}

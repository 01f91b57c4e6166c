//! Pins the exhaustively-explored state-space size of every catalog
//! scenario to golden values.
//!
//! These counts were captured on the binary-heap `EventQueue` engine and
//! re-verified after the `WheelQueue` swap: the event queue is part of
//! the explored state (choice-mode stepping enumerates its pending set,
//! and `state_hash` folds the pending multiset into each state's
//! identity), so an engine change that perturbed pending-set enumeration
//! or hashing would show up here as a different distinct-state count —
//! before it could silently change which interleavings the checker
//! explores or how counterexamples minimize.

use hsc_check::litmus::Litmus;

/// `(states, terminal_states)` for one explored mode.
type Counts = Option<(u64, u64)>;

/// `(scenario, fault-free (states, terminal), faulty (states, terminal))`.
/// A `None` column means the scenario does not run that mode.
const GOLDEN: [(&str, Counts, Counts); 7] = [
    ("two_writers", Some((960, 2)), None),
    ("victim_vs_probe", Some((9220, 3)), Some((5508, 3))),
    ("dup_reply", Some((960, 2)), Some((1888, 2))),
    ("atomic_vs_eviction", Some((8484, 4)), None),
    ("dma_vs_dirty_l2", Some((1620, 2)), None),
    ("slc_atomic_vs_probe", Some((1156, 2)), None),
    ("retry_storm", None, None),
];

#[test]
fn exhaustive_state_counts_match_golden() {
    let catalog = Litmus::catalog();
    assert_eq!(
        catalog.len(),
        GOLDEN.len(),
        "catalog gained or lost a scenario; update the golden table"
    );
    for (name, fault_free, faulty) in GOLDEN {
        let l = Litmus::by_name(name).expect("golden scenario must exist in the catalog");
        if fault_free.is_none() {
            assert!(!l.exhaustive, "{name}: golden says non-exhaustive");
            continue;
        }
        let report = l.check_exhaustive();
        assert!(report.passed(), "{name}: exhaustive exploration must pass");
        let got_free = report.fault_free.as_ref().map(|r| (r.states, r.terminal_states));
        assert_eq!(got_free, fault_free, "{name}: fault-free distinct-state count drifted");
        let got_faulty = report.faulty.as_ref().map(|r| (r.states, r.terminal_states));
        assert_eq!(got_faulty, faulty, "{name}: faulty distinct-state count drifted");
        for r in report.fault_free.iter().chain(report.faulty.iter()) {
            assert!(!r.truncated, "{name}: golden counts assume untruncated exploration");
        }
    }
}

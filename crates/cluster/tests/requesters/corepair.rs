//! The CorePair's MOESI L2 against the stub directory.

use hsc_cluster::{CorePair, CoreProgram, CpuConfig, CpuOp, CpuScript};
use hsc_mem::{Addr, AtomicKind, LineAddr, LineData, MainMemory};
use hsc_noc::{Action, MsgKind, ProbeKind};
use hsc_sim::Tick;

use crate::stub::{probe, pump, transitions};

/// The L2's lines in M or O, in address order.
fn dirty_lines(pair: &CorePair) -> Vec<(LineAddr, LineData)> {
    let l2 = pair.l2_snapshot().into_iter();
    l2.filter(|(_, s, _)| s.forwards_dirty()).map(|(la, _, d)| (la, d)).collect()
}

/// Runs `pair` to quiescence against the stub directory over empty memory.
fn run_pair(mut pair: CorePair, limit: u64) -> (CorePair, MainMemory) {
    let mem = pump(&mut pair, MainMemory::new(), limit).mem;
    (pair, mem)
}

fn pair_with(programs: Vec<Box<dyn CoreProgram>>) -> CorePair {
    // Tiny caches to exercise evictions in tests.
    let cfg = CpuConfig {
        l2_bytes: 8 * 1024,
        l1d_bytes: 1024,
        l1i_bytes: 1024,
        ifetch_interval: 1000, // mostly out of the way
        ..CpuConfig::default()
    };
    CorePair::new(0, programs, cfg)
}

#[test]
fn store_then_load_round_trips_through_l2() {
    let a = Addr(0x1000);
    let prog = CpuScript::new(vec![CpuOp::Store(a, 42), CpuOp::Load(a), CpuOp::Done]);
    let (pair, _mem) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    assert!(pair.is_done());
    assert_eq!(pair.stats().get("core.stores"), 1);
    assert_eq!(pair.stats().get("core.loads"), 1);
    // The load hit the line the store brought in as M.
    assert!(pair.stats().get("l2.hits") >= 1);
    let dirty = dirty_lines(&pair);
    assert_eq!(dirty.len(), 1);
    assert_eq!(dirty[0].1.word_at(a), 42);
}

#[test]
fn silent_e_to_m_upgrade_on_store_after_load() {
    let a = Addr(0x2000);
    let prog = CpuScript::new(vec![CpuOp::Load(a), CpuOp::Store(a, 7), CpuOp::Done]);
    let (pair, _mem) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    assert!(pair.is_done());
    // RdBlk granted E; the store upgraded silently: no RdBlkM issued.
    assert_eq!(pair.stats().get("l2.req.RdBlk"), 1);
    assert_eq!(pair.stats().get("l2.req.RdBlkM"), 0);
    assert_eq!(pair.stats().get("l2.silent_e_to_m"), 1);
}

#[test]
fn atomic_returns_old_value_to_the_program() {
    let a = Addr(0x3000);
    let prog = CpuScript::new(vec![
        CpuOp::Store(a, 10),
        CpuOp::Atomic(a, AtomicKind::FetchAdd(5)),
        CpuOp::Load(a),
        CpuOp::Done,
    ]);
    let (pair, _mem) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    assert!(pair.is_done());
    let d = dirty_lines(&pair);
    assert_eq!(d[0].1.word_at(a), 15);
}

#[test]
fn capacity_evictions_send_noisy_victims() {
    // 8 KB / 8-way L2 = 16 sets; write 3 * 128 lines so sets overflow.
    let mut ops = Vec::new();
    for i in 0..384u64 {
        ops.push(CpuOp::Store(Addr(0x10000 + i * 64), i));
    }
    ops.push(CpuOp::Done);
    let (pair, mem) = run_pair(pair_with(vec![Box::new(CpuScript::new(ops))]), 100_000);
    assert!(pair.is_done());
    assert!(pair.stats().get("l2.vic_dirty") > 0, "dirty victims must reach the directory");
    // Every victimized dirty line must have landed in (stub) memory.
    let survivors: std::collections::BTreeSet<u64> =
        dirty_lines(&pair).iter().map(|(la, _)| la.0).collect();
    for i in 0..384u64 {
        let a = Addr(0x10000 + i * 64);
        if !survivors.contains(&a.line().0) {
            assert_eq!(mem.read_word(a), i, "victim write-back lost data at {a}");
        }
    }
}

#[test]
fn loads_see_clean_victims_after_refetch() {
    // Store to set-colliding lines (clean loads), then re-load the first.
    let mut ops = Vec::new();
    for i in 0..256u64 {
        ops.push(CpuOp::Load(Addr(0x20000 + i * 64)));
    }
    ops.push(CpuOp::Load(Addr(0x20000)));
    ops.push(CpuOp::Done);
    let (pair, _) = run_pair(pair_with(vec![Box::new(CpuScript::new(ops))]), 100_000);
    assert!(pair.is_done());
    assert!(pair.stats().get("l2.vic_clean") > 0, "clean victims are noisy");
}

#[test]
fn two_cores_share_the_l2() {
    let a = Addr(0x4000);
    let p0 = CpuScript::new(vec![CpuOp::Store(a, 9), CpuOp::Done]);
    // Core 1 spins until it observes core 0's store through the shared L2.
    #[derive(Debug, Clone)]
    struct Spin {
        a: Addr,
        tries: u32,
    }
    impl CoreProgram for Spin {
        fn next_op(&mut self, last: Option<u64>) -> CpuOp {
            if last == Some(9) {
                return CpuOp::Done;
            }
            self.tries += 1;
            assert!(self.tries < 10_000, "spin never observed the store");
            CpuOp::Load(self.a)
        }
    }
    let (pair, _) =
        run_pair(pair_with(vec![Box::new(p0), Box::new(Spin { a, tries: 0 })]), 200_000);
    assert!(pair.is_done());
}

#[test]
fn invalidating_probe_forwards_dirty_and_invalidates() {
    let a = Addr(0x5000);
    let prog = CpuScript::new(vec![CpuOp::Store(a, 3), CpuOp::Done]);
    let (mut pair, _) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    let acts = probe(&mut pair, Tick(1_000_000), a.line(), ProbeKind::Invalidate);
    assert_eq!(acts.len(), 1);
    match &acts[0] {
        Action::Send(m) => match m.kind {
            MsgKind::ProbeAck { dirty, had_copy, .. } => {
                assert!(had_copy);
                assert_eq!(dirty.unwrap().word_at(a), 3);
            }
            ref k => panic!("expected ProbeAck, got {}", k.class_name()),
        },
        other => panic!("expected send, got {other:?}"),
    }
    assert!(dirty_lines(&pair).is_empty(), "line invalidated");
}

#[test]
fn downgrade_probe_moves_m_to_o_and_keeps_data() {
    let a = Addr(0x6000);
    let prog = CpuScript::new(vec![CpuOp::Store(a, 5), CpuOp::Done]);
    let (mut pair, _) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    match probe(&mut pair, Tick(1_000_000), a.line(), ProbeKind::Downgrade)[0] {
        Action::Send(ref m) => match m.kind {
            MsgKind::ProbeAck { dirty, had_copy, .. } => {
                assert!(had_copy);
                assert!(dirty.is_some());
            }
            ref k => panic!("expected ProbeAck, got {}", k.class_name()),
        },
        ref other => panic!("expected send, got {other:?}"),
    }
    // Still the owner: dirty_lines reports it (O forwards dirty).
    assert_eq!(dirty_lines(&pair).len(), 1);
    // A second downgrade probe re-forwards (owner keeps forwarding).
    match probe(&mut pair, Tick(1_000_001), a.line(), ProbeKind::Downgrade)[0] {
        Action::Send(ref m) => {
            assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: Some(_), .. }));
        }
        ref other => panic!("expected send, got {other:?}"),
    }
}

#[test]
fn probe_for_absent_line_acks_no_copy() {
    let mut pair = pair_with(vec![]);
    match probe(&mut pair, Tick(0), LineAddr(77), ProbeKind::Invalidate)[0] {
        Action::Send(ref m) => {
            assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: None, had_copy: false, .. }));
        }
        ref other => panic!("expected send, got {other:?}"),
    }
}

#[test]
fn ifetch_issues_rdblks() {
    let cfg = CpuConfig {
        l2_bytes: 8 * 1024,
        l1d_bytes: 1024,
        l1i_bytes: 1024,
        ifetch_interval: 4,
        ..CpuConfig::default()
    };
    let ops: Vec<CpuOp> = (0..32).map(|_| CpuOp::Compute(1)).chain([CpuOp::Done]).collect();
    let pair = CorePair::new(0, vec![Box::new(CpuScript::new(ops))], cfg);
    let (pair, _) = run_pair(pair, 100_000);
    assert!(pair.is_done());
    assert!(pair.stats().get("l2.req.RdBlkS") > 0, "I-fetches must miss at least once");
}

#[test]
fn transition_matrix_tracks_fills_upgrades_and_probes() {
    let a = Addr(0x7000);
    let prog = CpuScript::new(vec![CpuOp::Load(a), CpuOp::Store(a, 7), CpuOp::Done]);
    let (mut pair, _) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
    assert!(pair.is_done());
    let t = pair.transitions();
    assert_eq!(transitions(t, "I", "E", "Fill"), 1, "RdBlk granted E fills I→E");
    assert_eq!(transitions(t, "E", "M", "SilentEM"), 1, "the store upgrades silently");
    // An invalidating probe then retires the Modified line.
    probe(&mut pair, Tick(1_000_000), a.line(), ProbeKind::Invalidate);
    assert_eq!(transitions(pair.transitions(), "M", "I", "ProbeInv"), 1);
    assert_eq!(pair.transitions().total(), 3);
}

#[test]
fn empty_corepair_is_done_immediately() {
    let pair = pair_with(vec![]);
    assert!(pair.is_done());
}

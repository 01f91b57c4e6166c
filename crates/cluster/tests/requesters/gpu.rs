//! The GPU cluster's VIPER TCC against the stub directory.

use hsc_cluster::{GpuCluster, GpuConfig, GpuOp, WavefrontProgram};
use hsc_mem::{Addr, AtomicKind, MainMemory};
use hsc_noc::{Action, MsgKind, ProbeKind};
use hsc_sim::Tick;

use crate::stub::{probe, pump, recorded, transitions, Handed};

fn small_cfg() -> GpuConfig {
    GpuConfig {
        cus: 2,
        tcp_bytes: 1024,
        tcc_bytes: 4096,
        sqc_bytes: 1024,
        ifetch_interval: 1000,
        ..GpuConfig::default()
    }
}

fn one_wf(ops: Vec<GpuOp>, cfg: GpuConfig) -> GpuCluster {
    one_wf_observed(ops, cfg).0
}

/// Also returns the record of the values the wavefront was handed.
fn one_wf_observed(ops: Vec<GpuOp>, cfg: GpuConfig) -> (GpuCluster, Handed) {
    let (program, handed) = recorded(ops);
    let mut programs: Vec<Vec<Box<dyn WavefrontProgram>>> =
        (0..cfg.cus).map(|_| Vec::new()).collect();
    programs[0].push(program);
    (GpuCluster::new(0, programs, cfg), handed)
}

#[test]
fn vec_store_writes_through_to_memory() {
    let stores: Vec<(Addr, u64)> = (0..16).map(|i| (Addr(0x1000 + i * 8), i)).collect();
    let mut gpu = one_wf(vec![GpuOp::VecStore(stores), GpuOp::Release, GpuOp::Done], small_cfg());
    let mem = pump(&mut gpu, MainMemory::new(), 100_000).mem;
    assert!(gpu.is_done());
    for i in 0..16u64 {
        assert_eq!(mem.read_word(Addr(0x1000 + i * 8)), i);
    }
    assert!(gpu.stats().get("tcc.req.WT") >= 2, "two lines written through");
    assert_eq!(gpu.stats().get("tcc.req.Flush"), 1, "release sends the fence");
}

#[test]
fn vec_load_misses_then_hits_tcp() {
    let addrs: Vec<Addr> = (0..16).map(|i| Addr(0x2000 + i * 8)).collect();
    let mut gpu = one_wf(
        vec![GpuOp::VecLoad(addrs.clone()), GpuOp::VecLoad(addrs), GpuOp::Done],
        small_cfg(),
    );
    let mut mem = MainMemory::new();
    mem.write_word(Addr(0x2000), 99);
    pump(&mut gpu, mem, 100_000);
    assert!(gpu.is_done());
    assert!(gpu.stats().get("tcc.misses") >= 1);
    assert!(gpu.stats().get("tcp.hits") >= 2, "second load hits the TCP");
    assert_eq!(gpu.stats().get("tcc.req.RdBlk"), 2, "one fill per line");
}

#[test]
fn slc_atomic_executes_at_directory_and_returns_old() {
    let a = Addr(0x3000);
    let (mut gpu, seen) = one_wf_observed(
        vec![
            GpuOp::AtomicSlc(a, AtomicKind::FetchAdd(5)),
            GpuOp::AtomicSlc(a, AtomicKind::FetchAdd(5)),
            GpuOp::Done,
        ],
        small_cfg(),
    );
    let mut mem = MainMemory::new();
    mem.write_word(a, 100);
    let mem = pump(&mut gpu, mem, 100_000).mem;
    assert!(gpu.is_done());
    assert_eq!(mem.read_word(a), 110);
    assert_eq!(*seen.borrow(), [None, Some(100), Some(105)], "each atomic returns the old value");
    assert_eq!(gpu.stats().get("tcc.req.Atomic"), 2);
}

#[test]
fn glc_atomic_executes_at_tcc_and_writes_through() {
    let a = Addr(0x4000);
    let mut gpu = one_wf(
        vec![
            GpuOp::AtomicGlc(a, AtomicKind::FetchAdd(1)),
            GpuOp::AtomicGlc(a, AtomicKind::FetchAdd(1)),
            GpuOp::Release,
            GpuOp::Done,
        ],
        small_cfg(),
    );
    let mem = pump(&mut gpu, MainMemory::new(), 100_000).mem;
    assert!(gpu.is_done());
    assert_eq!(mem.read_word(a), 2, "GLC atomics reach memory through WTs");
    assert_eq!(gpu.stats().get("tcc.glc_atomics"), 2);
    assert_eq!(gpu.stats().get("tcc.req.RdBlk"), 1, "one fill, second hits TCC");
}

#[test]
fn acquire_invalidates_the_tcp() {
    let addrs = vec![Addr(0x6000)];
    let mut gpu = one_wf(
        vec![GpuOp::VecLoad(addrs.clone()), GpuOp::Acquire, GpuOp::VecLoad(addrs), GpuOp::Done],
        small_cfg(),
    );
    pump(&mut gpu, MainMemory::new(), 100_000);
    assert!(gpu.is_done());
    // Second load misses the TCP again (hits TCC).
    assert_eq!(gpu.stats().get("tcp.misses"), 2);
    assert!(gpu.stats().get("tcc.hits") >= 1);
}

#[test]
fn probe_invalidates_tcc_without_forwarding_data() {
    let la = Addr(0x7000).line();
    let mut gpu = one_wf(vec![GpuOp::VecLoad(vec![Addr(0x7000)]), GpuOp::Done], small_cfg());
    pump(&mut gpu, MainMemory::new(), 100_000);
    // The first probe finds the TCC's copy and acks without data …
    match probe(&mut gpu, Tick(1_000_000), la, ProbeKind::Invalidate)[0] {
        Action::Send(ref m) => {
            assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: None, had_copy: true, .. }));
        }
        ref other => panic!("expected send, got {other:?}"),
    }
    // … and the TCC self-invalidated: a second finds none.
    assert_eq!(gpu.stats().get("tcc.probe_invalidations"), 1, "TCC self-invalidated");
    match probe(&mut gpu, Tick(1_000_001), la, ProbeKind::Invalidate)[0] {
        Action::Send(ref m) => assert!(matches!(m.kind, MsgKind::ProbeAck { had_copy: false, .. })),
        ref other => panic!("expected send, got {other:?}"),
    }
}

#[test]
fn transition_matrix_tracks_viper_write_through_lifecycle() {
    let (a, b) = (Addr(0x5000), Addr(0x5040));
    let mut gpu = one_wf(
        vec![
            GpuOp::VecLoad(vec![a]),
            GpuOp::VecLoad(vec![b]),
            GpuOp::AtomicSlc(b, AtomicKind::FetchAdd(1)),
            GpuOp::Done,
        ],
        small_cfg(),
    );
    pump(&mut gpu, MainMemory::new(), 100_000);
    probe(&mut gpu, Tick(1_000_000), a.line(), ProbeKind::Invalidate);
    let m = gpu.transitions();
    assert_eq!(transitions(m, "I", "V", "Fill"), 2, "each load fills its line");
    assert_eq!(transitions(m, "V", "I", "AtomicSelfInval"), 1, "the SLC atomic drops b");
    assert_eq!(transitions(m, "V", "I", "ProbeInv"), 1, "the probe drops a");
    assert_eq!(m.total(), 4);
}

#[test]
fn ifetch_goes_through_sqc() {
    let mut cfg = small_cfg();
    cfg.ifetch_interval = 2;
    cfg.code_lines = 2; // wrap quickly so fetches revisit lines
    let ops: Vec<GpuOp> = (0..16).map(|_| GpuOp::Compute(1)).chain([GpuOp::Done]).collect();
    let mut gpu = one_wf(ops, cfg);
    pump(&mut gpu, MainMemory::new(), 100_000);
    assert!(gpu.is_done());
    assert!(gpu.stats().get("sqc.misses") >= 1);
    assert!(gpu.stats().get("sqc.hits") >= 1);
}

#[test]
fn more_than_64_wavefronts_all_run_to_completion() {
    const PER_CU: u64 = 40;
    let cfg = small_cfg();
    // Wavefront `g` stores its own word (eight to a line, so fills and
    // write-through queues are shared), releases, and reads it back.
    let word = |g: u64| (Addr(0x10_000 + g * 8), 1000 + g);
    let (mut programs, logs): (Vec<_>, Vec<_>) = (0..cfg.cus as u64 * PER_CU)
        .map(|g| {
            let (a, v) = word(g);
            recorded(vec![GpuOp::VecStore(vec![(a, v)]), GpuOp::Release, GpuOp::VecLoad(vec![a])])
        })
        .unzip();
    let programs = (0..cfg.cus).map(|_| programs.drain(..PER_CU as usize).collect()).collect();
    let mut gpu = GpuCluster::new(0, programs, cfg);
    let mem = pump(&mut gpu, MainMemory::new(), 1_000_000).mem;
    assert!(gpu.is_done());
    assert_eq!(gpu.stats().get("wf.done"), 2 * PER_CU);
    for (g, log) in logs.iter().enumerate() {
        let (a, v) = word(g as u64);
        assert_eq!(mem.read_word(a), v, "wavefront {g}'s store");
        assert_eq!(*log.borrow(), [None, None, None, Some(v)], "wavefront {g}'s reload");
    }
}

//! Edge cases of the requesters against the stub directory: races the
//! full-system runs only hit probabilistically are forced deterministically
//! here, the test playing the directory by hand where the race needs it.

use hsc_cluster::{
    CorePair, CpuConfig, CpuOp, CpuScript, DmaCommand, DmaEngine, GpuCluster, GpuConfig, GpuOp,
    GpuScript,
};
use hsc_mem::{Addr, LineAddr, LineData, MainMemory};
use hsc_noc::{Action, Grant, Message, MsgKind, Outbox, ProbeKind, WordMask};
use hsc_sim::{Tick, WheelQueue};

use crate::stub::{deliver, pump, recorded, sends};

fn data(v: u64) -> LineData {
    let mut d = LineData::zeroed();
    d.set_word(0, v);
    d
}

/// The wake half of a stub driver for one CorePair: the test plays the
/// directory by hand, this delivers the pair's wake-ups. Every wake the pair
/// stages must end up here — agents arm each tick once (`WakeArm`) and never
/// ask again, so a driver that throws one away leaves the pair asleep.
struct WakePump(WheelQueue<()>);

impl WakePump {
    /// A pump holding the initial wake-up at tick 0.
    fn new() -> Self {
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), ());
        WakePump(q)
    }

    /// Queues the wakes among `acts` and returns the messages sent.
    fn forward(&mut self, acts: Vec<Action>) -> Vec<Message> {
        for act in &acts {
            if let Action::Wake(t) = *act {
                self.0.schedule(t, ());
            }
        }
        sends(acts)
    }

    /// Delivers wakes until the pair emits a directory request of the
    /// given class.
    fn run_until_request(&mut self, pair: &mut CorePair, class: &str, limit: u64) -> Message {
        let mut steps = 0;
        while let Some((now, ())) = self.0.pop() {
            steps += 1;
            assert!(steps < limit, "no {class} request emitted");
            let mut out = Outbox::new(now);
            pair.on_wake(now, &mut out);
            let sent = self.forward(out.into_actions());
            if let Some(m) = sent.into_iter().find(|m| m.kind.class_name() == class) {
                return m;
            }
        }
        panic!("ran dry without a {class} request");
    }

    /// Delivers `kind` from the directory at `now`, queues the wakes the
    /// handler staged and returns what it sent.
    fn deliver(
        &mut self,
        pair: &mut CorePair,
        now: Tick,
        kind: MsgKind,
        line: LineAddr,
    ) -> Vec<Message> {
        self.forward(deliver(pair, now, line, kind))
    }
}

#[test]
fn inv_probe_during_pending_upgrade_invalidates_the_s_copy() {
    // The race: an L2 holds a line Shared, issues RdBlkM (upgrade), and an
    // invalidating probe for another agent's write arrives first. The L2
    // must invalidate and ack clean; the eventual full Resp re-fills it.
    let a = Addr(0x9000);
    let mut pair = CorePair::new(
        0,
        vec![Box::new(CpuScript::new(vec![CpuOp::Load(a), CpuOp::Store(a, 5), CpuOp::Load(a)]))],
        CpuConfig::default(),
    );
    let mut pump = WakePump::new();
    // Load miss → RdBlk.
    let req = pump.run_until_request(&mut pair, "RdBlk", 1000);
    assert_eq!(req.line, a.line());
    // Grant Shared (someone else has it); the fill's wake lets the store
    // re-attempt and issue its upgrade.
    let shared = MsgKind::Resp { data: data(1), grant: Grant::Shared };
    pump.deliver(&mut pair, Tick(100), shared, a.line());
    let up = pump.run_until_request(&mut pair, "RdBlkM", 1000);
    assert_eq!(up.line, a.line(), "upgrade issued for the stored line");
    // Before the response, an invalidating probe lands.
    let probe = MsgKind::Probe { kind: ProbeKind::Invalidate };
    let acks = pump.deliver(&mut pair, Tick(200), probe, a.line());
    match acks[0].kind {
        MsgKind::ProbeAck { dirty, had_copy, .. } => {
            assert!(had_copy, "the S copy was present");
            assert!(dirty.is_none(), "S never forwards data");
        }
        ref k => panic!("expected ProbeAck, got {}", k.class_name()),
    }
    // Now the directory answers the upgrade with full data + M.
    let modified = MsgKind::Resp { data: data(9), grant: Grant::Modified };
    pump.deliver(&mut pair, Tick(300), modified, a.line());
    // The store applied over the fresh data: line is dirty with 5.
    let dirty = pair.peek_dirty(a.line()).expect("line must be Modified");
    assert_eq!(dirty.word_at(a), 5);
}

#[test]
fn upgrade_ack_preserves_the_owned_lines_local_stores() {
    // UpgradeAck carries no data: the local O copy must survive verbatim.
    let a = Addr(0xA000);
    let mut pair = CorePair::new(
        0,
        vec![Box::new(CpuScript::new(vec![CpuOp::Store(a, 7), CpuOp::Store(a.word(1), 8)]))],
        CpuConfig::default(),
    );
    let mut pump = WakePump::new();
    let _ = pump.run_until_request(&mut pair, "RdBlkM", 1000);
    let modified = MsgKind::Resp { data: data(0), grant: Grant::Modified };
    pump.deliver(&mut pair, Tick(10), modified, a.line());
    // First store applied; now a downgrade probe turns M into O.
    pump.deliver(&mut pair, Tick(20), MsgKind::Probe { kind: ProbeKind::Downgrade }, a.line());
    // Let the second store run: O can't write, so an upgrade goes out.
    let up = pump.run_until_request(&mut pair, "RdBlkM", 1000);
    assert_eq!(up.line, a.line(), "store to an O line must request an upgrade");
    // The tracked directory answers with a data-less UpgradeAck.
    pump.deliver(&mut pair, Tick(50), MsgKind::UpgradeAck, a.line());
    let dirty = pair.peek_dirty(a.line()).expect("line Modified again");
    assert_eq!(dirty.word_at(a), 7, "first store survived the downgrade + upgrade");
    assert_eq!(dirty.word_at(a.word(1)), 8, "second store applied after UpgradeAck");
}

#[test]
fn tcc_eviction_sends_nothing() {
    // Overfill one TCC set by loads. A write-through TCC holds no dirty
    // data, so a victim leaves silently: the directory sees one RdBlk per
    // load and nothing else.
    let cfg = GpuConfig {
        cus: 1,
        tcc_bytes: 2048, // 32 lines, 16 ways → 2 sets
        tcp_bytes: 1024,
        sqc_bytes: 1024,
        ifetch_interval: 10_000,
        ..GpuConfig::default()
    };
    // 40 loads at a stride of 2 lines → one set: 24 evictions.
    let loads = (0..40).map(|i| GpuOp::VecLoad(vec![Addr(0x1000 + i * 128)])).collect();
    let mut gpu = GpuCluster::new(0, vec![vec![Box::new(GpuScript::new(loads))]], cfg);
    let requests = pump(&mut gpu, MainMemory::new(), 100_000).requests;
    for m in &requests {
        assert!(matches!(m.kind, MsgKind::RdBlk), "a TCC eviction sent {}", m.kind.class_name());
    }
    assert!(gpu.is_done());
    assert_eq!(requests.len(), 40, "one fill per load");
    assert_eq!(gpu.stats().get("tcc.evict_clean"), 40 - 16, "every fill past the 16 ways evicts");
}

#[test]
fn dma_commands_execute_strictly_in_order() {
    // A data command and a flag command issued at the same tick: the
    // flag's DmaWr must not be issued until every line of the data
    // command has been acknowledged.
    let words: Vec<u64> = (0..32).collect(); // 4 lines
    let mut dma = DmaEngine::new(
        vec![
            DmaCommand::Write { base: Addr(0x4000), words, at: Tick(0) },
            DmaCommand::Write { base: Addr(0x5000), words: vec![1], at: Tick(0) },
        ],
        16,
    );
    let mut out = Outbox::new(Tick(0));
    dma.on_wake(Tick(0), &mut out);
    let first = sends(out.into_actions());
    assert_eq!(first.len(), 4, "only the first command's lines are issued");
    assert!(first.iter().all(|m| m.line.base().0 < 0x5000));
    // Ack three of four: the flag still must not go out.
    for m in &first[..3] {
        let sent = sends(deliver(&mut dma, Tick(10), m.line, MsgKind::DmaWrAck));
        assert!(sent.is_empty(), "flag leaked before the data command completed");
    }
    // The fourth ack releases the flag command.
    let flag = sends(deliver(&mut dma, Tick(20), first[3].line, MsgKind::DmaWrAck));
    assert_eq!(flag.len(), 1);
    assert_eq!(flag[0].line, Addr(0x5000).line());
    match flag[0].kind {
        MsgKind::DmaWr { mask, .. } => assert_eq!(mask, WordMask::single(0)),
        ref k => panic!("expected DmaWr, got {}", k.class_name()),
    }
}

#[test]
fn slc_atomic_self_invalidates_cached_copies() {
    // A TCC copy of a line must not survive an SLC atomic to that line
    // (the directory-side modification would make it stale).
    let a = Addr(0x7000);
    let (program, handed) = recorded(vec![
        GpuOp::VecLoad(vec![a]),
        GpuOp::AtomicSlc(a, hsc_mem::AtomicKind::FetchAdd(1)),
        GpuOp::VecLoad(vec![a]), // must MISS and refetch
    ]);
    let cfg = GpuConfig {
        cus: 1,
        tcp_bytes: 1024,
        tcc_bytes: 2048,
        sqc_bytes: 1024,
        ifetch_interval: 10_000,
        ..GpuConfig::default()
    };
    let mut gpu = GpuCluster::new(0, vec![vec![program]], cfg);
    let run = pump(&mut gpu, MainMemory::new(), 10_000);
    for m in &run.requests {
        let class = m.kind.class_name();
        assert!(matches!(m.kind, MsgKind::RdBlk | MsgKind::AtomicReq { .. }), "unexpected {class}");
    }
    let rdblks = run.requests.iter().filter(|m| matches!(m.kind, MsgKind::RdBlk)).count();
    assert!(gpu.is_done());
    assert_eq!(
        *handed.borrow(),
        [None, Some(0), Some(0), Some(1)],
        "the atomic returns the directory's old value; the refetch sees its result"
    );
    assert_eq!(rdblks, 2, "the post-atomic load must refetch (self-invalidation)");
    assert_eq!(run.mem.read_word(a), 1);
}

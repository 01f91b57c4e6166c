//! Edge-case tests of the cluster controllers against a scripted fake
//! directory: races the full-system runs only hit probabilistically are
//! forced deterministically here.

use std::cell::RefCell;
use std::rc::Rc;

use hsc_cluster::{
    CorePair, CpuConfig, CpuOp, CpuScript, DmaCommand, DmaEngine, GpuCluster, GpuConfig, GpuOp,
    GpuScript,
};
use hsc_mem::{Addr, LineAddr, LineData, MainMemory};
use hsc_noc::{Action, AgentId, Grant, Message, MsgKind, Outbox, ProbeKind, WordMask};
use hsc_sim::{Tick, WheelQueue};

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

    /// Queues the wakes `out` staged and returns the messages it sent.
    fn forward(&mut self, out: Outbox) -> Vec<Message> {
        let mut sent = Vec::new();
        for act in out.into_actions() {
            match act {
                Action::Send(m) | Action::SendLater(_, m) => sent.push(m),
                Action::Wake(t) => self.0.schedule(t, ()),
            }
        }
        sent
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
            if let Some(m) = self.forward(out).into_iter().find(|m| m.kind.class_name() == class) {
                return m;
            }
        }
        panic!("ran dry without a {class} request");
    }

    /// Delivers `msg` from the directory at `now`, queues the wakes the
    /// handler staged and returns what it sent.
    fn deliver(
        &mut self,
        pair: &mut CorePair,
        now: Tick,
        kind: MsgKind,
        line: LineAddr,
    ) -> Vec<Message> {
        let mut out = Outbox::new(now);
        pair.on_message(now, &Message::new(AgentId::Directory, pair.agent(), line, kind), &mut out);
        self.forward(out)
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
    let mut q: WheelQueue<Ev> = WheelQueue::new();
    #[derive(Debug)]
    enum Ev {
        Wake,
        Msg(Message),
    }
    q.schedule(Tick(0), Ev::Wake);
    let mem = MainMemory::new();
    let mut rdblks = 0u64;
    let mut guard = 0;
    while let Some((now, ev)) = q.pop() {
        guard += 1;
        assert!(guard < 100_000);
        let mut out = Outbox::new(now);
        match ev {
            Ev::Wake => gpu.on_wake(now, &mut out),
            Ev::Msg(m) if m.dst == gpu.agent() => gpu.on_message(now, &m, &mut out),
            Ev::Msg(m) => {
                let resp = match m.kind {
                    MsgKind::RdBlk => {
                        rdblks += 1;
                        MsgKind::Resp { data: mem.read_line(m.line), grant: Grant::Shared }
                    }
                    ref k => panic!("a TCC eviction sent {}", k.class_name()),
                };
                q.schedule(now + 5, Ev::Msg(Message::new(AgentId::Directory, m.src, m.line, resp)));
            }
        }
        for act in out.into_actions() {
            match act {
                Action::Send(m) => q.schedule(now + 5, Ev::Msg(m)),
                Action::SendLater(t, m) => q.schedule(t + 5, Ev::Msg(m)),
                Action::Wake(t) => q.schedule(t, Ev::Wake),
            }
        }
    }
    assert!(gpu.is_done());
    assert_eq!(rdblks, 40, "one fill per load");
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
    let first: Vec<Message> = out
        .into_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send(m) => Some(m),
            _ => None,
        })
        .collect();
    assert_eq!(first.len(), 4, "only the first command's lines are issued");
    assert!(first.iter().all(|m| m.line.base().0 < 0x5000));
    // Ack three of four: the flag still must not go out.
    for m in &first[..3] {
        let mut out = Outbox::new(Tick(10));
        dma.on_message(
            Tick(10),
            &Message::new(AgentId::Directory, AgentId::Dma, m.line, MsgKind::DmaWrAck),
            &mut out,
        );
        assert!(
            out.actions().iter().all(|a| !matches!(a, Action::Send(_))),
            "flag leaked before the data command completed"
        );
    }
    // The fourth ack releases the flag command.
    let mut out = Outbox::new(Tick(20));
    dma.on_message(
        Tick(20),
        &Message::new(AgentId::Directory, AgentId::Dma, first[3].line, MsgKind::DmaWrAck),
        &mut out,
    );
    let flag: Vec<Message> = out
        .into_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send(m) => Some(m),
            _ => None,
        })
        .collect();
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
    let script = Rc::new(RefCell::new(GpuScript::new(vec![
        GpuOp::VecLoad(vec![a]),
        GpuOp::AtomicSlc(a, hsc_mem::AtomicKind::FetchAdd(1)),
        GpuOp::VecLoad(vec![a]), // must MISS and refetch
    ])));
    let cfg = GpuConfig {
        cus: 1,
        tcp_bytes: 1024,
        tcc_bytes: 2048,
        sqc_bytes: 1024,
        ifetch_interval: 10_000,
        ..GpuConfig::default()
    };
    let mut gpu = GpuCluster::new(0, vec![vec![Box::new(Rc::clone(&script))]], cfg);
    // Mini fake directory executing the atomic functionally.
    #[derive(Debug)]
    enum Ev {
        Wake,
        Msg(Message),
    }
    let mut q: WheelQueue<Ev> = WheelQueue::new();
    q.schedule(Tick(0), Ev::Wake);
    let mut mem = MainMemory::new();
    let mut rdblks = 0;
    let mut guard = 0;
    while let Some((now, ev)) = q.pop() {
        guard += 1;
        assert!(guard < 10_000);
        let mut out = Outbox::new(now);
        match ev {
            Ev::Wake => gpu.on_wake(now, &mut out),
            Ev::Msg(m) if m.dst == gpu.agent() => gpu.on_message(now, &m, &mut out),
            Ev::Msg(m) => {
                let resp = match m.kind {
                    MsgKind::RdBlk => {
                        rdblks += 1;
                        MsgKind::Resp { data: mem.read_line(m.line), grant: Grant::Shared }
                    }
                    MsgKind::AtomicReq { word, op } => {
                        let mut line = mem.read_line(m.line);
                        let old = line.apply_atomic(m.line.word_addr(word as usize), op);
                        mem.write_line(m.line, line);
                        MsgKind::AtomicResp { old }
                    }
                    ref k => panic!("unexpected {}", k.class_name()),
                };
                q.schedule(now + 5, Ev::Msg(Message::new(AgentId::Directory, m.src, m.line, resp)));
            }
        }
        for act in out.into_actions() {
            match act {
                Action::Send(m) => q.schedule(now + 5, Ev::Msg(m)),
                Action::SendLater(t, m) => q.schedule(t + 5, Ev::Msg(m)),
                Action::Wake(t) => q.schedule(t, Ev::Wake),
            }
        }
    }
    assert!(gpu.is_done());
    assert_eq!(
        script.borrow().handed(),
        [None, Some(0), Some(0), Some(1)],
        "the atomic returns the directory's old value; the refetch sees its result"
    );
    assert_eq!(rdblks, 2, "the post-atomic load must refetch (self-invalidation)");
    assert_eq!(mem.read_word(a), 1);
}

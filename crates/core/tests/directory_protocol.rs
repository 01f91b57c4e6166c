//! Protocol-level unit tests of the system-level directory, driven
//! message-by-message with a scripted harness (no clusters): each test is
//! one of the paper's transaction diagrams made executable.

use std::collections::VecDeque;

use hsc_core::{CoherenceConfig, Directory, MemoryController, UncoreConfig};
use hsc_mem::{Addr, AtomicKind, LineAddr, LineData, MainMemory};
use hsc_noc::{Action, AgentId, Grant, Message, MsgKind, Outbox, ProbeKind, WordMask};
use hsc_sim::Tick;

const N_L2: usize = 4;

/// Scripted harness: the test plays the caches; memory is automatic.
struct Harness {
    dir: Directory,
    mem: MemoryController,
    now: Tick,
    /// Messages the directory sent to caches/DMA, in order.
    to_caches: VecDeque<Message>,
    /// (due, message) waiting to re-enter the directory or memory.
    in_flight: Vec<(Tick, Message)>,
    wakes: Vec<Tick>,
}

impl Harness {
    fn new(cfg: CoherenceConfig) -> Self {
        Harness::with_words(cfg, &[])
    }

    /// A harness whose memory starts with `words` (every other word 0).
    fn with_words(cfg: CoherenceConfig, words: &[(Addr, u64)]) -> Self {
        let mut mem = MainMemory::new();
        mem.write_words(words.iter().copied());
        let uncore = UncoreConfig {
            llc_bytes: 8 * 1024, // 8 sets × 16 ways: evictable in tests
            dir_entries: 64,
            dir_ways: 4,
            ..UncoreConfig::default()
        };
        Harness {
            dir: Directory::new(cfg, uncore, N_L2, 1),
            mem: MemoryController::new(mem, 50, 10),
            now: Tick(0),
            to_caches: VecDeque::new(),
            in_flight: Vec::new(),
            wakes: Vec::new(),
        }
    }

    fn route(&mut self, from_dir: Vec<Action>) {
        for act in from_dir {
            match act {
                Action::Send(m) => self.dispatch(self.now, m),
                Action::SendLater(t, m) => self.dispatch(t, m),
                Action::Wake(t) => self.wakes.push(t),
            }
        }
    }

    fn dispatch(&mut self, at: Tick, m: Message) {
        match m.dst {
            AgentId::Memory | AgentId::Directory => self.in_flight.push((at, m)),
            _ => self.to_caches.push_back(m),
        }
    }

    /// Runs the clockwork (wakes + memory) until nothing more happens
    /// without cache involvement.
    fn settle(&mut self) {
        loop {
            // Earliest pending machine event.
            let next_wake = self.wakes.iter().copied().min();
            let next_msg = self.in_flight.iter().map(|(t, _)| *t).min();
            let Some(t) = [next_wake, next_msg].into_iter().flatten().min() else {
                return;
            };
            self.now = self.now.max(t);
            if next_wake == Some(t) {
                self.wakes.retain(|&w| w != t);
                let mut out = Outbox::new(self.now);
                self.dir.on_wake(self.now, &mut out);
                self.route(out.into_actions());
                continue;
            }
            let idx = self.in_flight.iter().position(|(tt, _)| *tt == t).unwrap();
            let (_, m) = self.in_flight.remove(idx);
            let mut out = Outbox::new(self.now);
            match m.dst {
                AgentId::Memory => self.mem.on_message(self.now, &m, &mut out),
                AgentId::Directory => self.dir.on_message(self.now, &m, &mut out),
                _ => unreachable!(),
            }
            self.route(out.into_actions());
        }
    }

    /// Sends a cache→directory message and settles the clockwork.
    fn send(&mut self, src: AgentId, line: LineAddr, kind: MsgKind) {
        self.now += 1;
        let msg = Message::new(src, AgentId::Directory, line, kind);
        let mut out = Outbox::new(self.now);
        self.dir.on_message(self.now, &msg, &mut out);
        self.route(out.into_actions());
        self.settle();
    }

    /// Pops every message currently queued for `dst`.
    fn drain_to(&mut self, dst: AgentId) -> Vec<Message> {
        let (take, keep): (Vec<_>, Vec<_>) = self.to_caches.drain(..).partition(|m| m.dst == dst);
        self.to_caches = keep.into();
        take
    }

    /// Acks every outstanding probe for `line`, as if each target cache
    /// had no copy, except `dirty_from` which forwards dirty data.
    fn ack_all_probes(&mut self, line: LineAddr, dirty_from: Option<(AgentId, LineData)>) {
        let probes: Vec<Message> = {
            let (take, keep): (Vec<_>, Vec<_>) =
                self.to_caches.drain(..).partition(|m| m.line == line && m.kind.is_probe());
            self.to_caches = keep.into();
            take
        };
        assert!(!probes.is_empty(), "no probes outstanding for {line}");
        for p in probes {
            let (dirty, had) = match &dirty_from {
                Some((who, data)) if *who == p.dst => (Some(*data), true),
                _ => (None, false),
            };
            self.send(p.dst, line, MsgKind::ProbeAck { dirty, had_copy: had, was_parked: false });
        }
    }

    fn probe_count(&self, line: LineAddr) -> usize {
        self.to_caches.iter().filter(|m| m.line == line && m.kind.is_probe()).count()
    }
}

fn data(v: u64) -> LineData {
    let mut d = LineData::zeroed();
    d.set_word(0, v);
    d
}

const L2_0: AgentId = AgentId::CorePairL2(0);
const L2_1: AgentId = AgentId::CorePairL2(1);
const TCC: AgentId = AgentId::Tcc(0);
const LINE: LineAddr = LineAddr(0x100);

// ---------------------------------------------------------------- baseline

#[test]
fn baseline_rdblk_broadcasts_and_grants_exclusive_when_alone() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    // Downgrade probes to the 3 other L2s + the TCC (stateless reads always probe the TCC).
    assert_eq!(h.probe_count(LINE), N_L2 - 1 + 1);
    h.ack_all_probes(LINE, None);
    let resp = h.drain_to(L2_0);
    assert_eq!(resp.len(), 1);
    assert!(matches!(resp[0].kind, MsgKind::Resp { grant: Grant::Exclusive, .. }));
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert!(h.dir.is_idle());
}

#[test]
fn baseline_rdblk_grants_shared_when_a_copy_exists() {
    let mut h = Harness::with_words(CoherenceConfig::baseline(), &[(LINE.base(), 7)]);
    h.send(L2_0, LINE, MsgKind::RdBlk);
    h.ack_all_probes(LINE, Some((L2_1, data(42))));
    let resp = h.drain_to(L2_0);
    match resp[0].kind {
        MsgKind::Resp { data: d, grant } => {
            assert_eq!(grant, Grant::Shared, "a dirty copy denies Exclusive");
            assert_eq!(d.word(0), 42, "the dirty copy is the payload");
        }
        ref k => panic!("expected Resp, got {}", k.class_name()),
    }
    h.send(L2_0, LINE, MsgKind::Unblock);
}

#[test]
fn baseline_waits_for_memory_even_with_dirty_ack() {
    // The Fig. 2 `_PM` discipline: acks alone do not complete the miss.
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    // Ack only some probes: no response may be sent yet.
    let probes: Vec<Message> = h.drain_to(L2_1).into_iter().filter(|m| m.kind.is_probe()).collect();
    assert_eq!(probes.len(), 1);
    h.send(
        L2_1,
        LINE,
        MsgKind::ProbeAck { dirty: Some(data(9)), had_copy: true, was_parked: false },
    );
    assert!(h.drain_to(L2_0).is_empty(), "must wait for the remaining acks + memory");
    h.ack_all_probes(LINE, None);
    let resp = h.drain_to(L2_0);
    assert_eq!(resp.len(), 1, "completes after all acks and the memory read");
    h.send(L2_0, LINE, MsgKind::Unblock);
}

/// The `fetch=` phase the stall report gives the one transaction in flight.
fn fetch_phase(h: &Harness) -> String {
    let stuck = h.dir.stuck_lines(h.now);
    assert_eq!(stuck.len(), 1, "one transaction in flight");
    let field = stuck[0].detail.split(' ').find_map(|f| f.strip_prefix("fetch="));
    field.unwrap_or_else(|| panic!("no fetch= field in {:?}", stuck[0].detail)).to_owned()
}

/// Delivers `kind` from `src` without settling; returns how many `MemRd`s
/// the directory staged in answer.
fn deliver(h: &mut Harness, src: AgentId, kind: MsgKind) -> usize {
    let mut out = Outbox::new(h.now);
    h.dir.on_message(h.now, &Message::new(src, AgentId::Directory, LINE, kind), &mut out);
    let actions = out.into_actions();
    let mem_reads =
        actions.iter().filter(|a| matches!(a, Action::Send(m) if m.kind == MsgKind::MemRd)).count();
    h.route(actions);
    mem_reads
}

/// A stateless miss reads the LLC, and sends `MemRd`, only once its probe
/// round is in: the slot elapses first and the read waits. (gem5's `_PM`
/// states run that read in parallel with the probes; ROADMAP, "Fig. 2's
/// overlapped LLC/memory read, under the checker".)
#[test]
fn a_miss_reads_the_llc_and_memory_after_its_probe_round() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    assert_eq!(deliver(&mut h, L2_0, MsgKind::RdBlk), 0);
    assert_eq!(fetch_phase(&h), "pipeline");

    let slot = h.wakes.drain(..).min().expect("the pipeline slot arms a wake");
    h.now = slot;
    let mut out = Outbox::new(h.now);
    h.dir.on_wake(h.now, &mut out);
    assert!(out.actions().is_empty(), "no MemRd while acks are outstanding");
    assert_eq!(fetch_phase(&h), "elapsed");

    let probes: Vec<Message> = h.to_caches.drain(..).filter(|m| m.kind.is_probe()).collect();
    assert_eq!(probes.len(), N_L2 - 1 + 1);
    let ack = MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false };
    let (last, rest) = probes.split_last().expect("probes went out");
    for p in rest {
        h.now += 1;
        assert_eq!(deliver(&mut h, p.dst, ack), 0);
        assert_eq!(fetch_phase(&h), "elapsed");
    }
    h.now += 1;
    assert_eq!(deliver(&mut h, last.dst, ack), 1, "the last ack sends the one MemRd");
    assert_eq!(fetch_phase(&h), "memory");

    h.settle();
    let resp = h.drain_to(L2_0);
    assert!(matches!(resp[..], [Message { kind: MsgKind::Resp { .. }, .. }]), "{resp:?}");
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert!(h.dir.is_idle());
}

/// §IV-A's lazy read: a tracked O line's read waits for the owner's ack
/// with no slot, and asks for one only when that ack comes back clean.
#[test]
fn a_clean_owner_ack_starts_the_deferred_llc_read() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlk); // L2_0 becomes the tracked owner
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);

    h.send(L2_1, LINE, MsgKind::RdBlk);
    assert_eq!(fetch_phase(&h), "deferred");
    assert!(h.wakes.is_empty(), "no slot before the owner answers");
    assert_eq!(h.dir.stats().get("dir.lazy_llc_reads"), 0);

    let probe = h.drain_to(L2_0);
    assert!(matches!(probe[..], [Message { kind: MsgKind::Probe { .. }, .. }]), "{probe:?}");
    h.now += 1;
    let clean = MsgKind::ProbeAck { dirty: None, had_copy: true, was_parked: false };
    assert_eq!(deliver(&mut h, L2_0, clean), 0);
    assert_eq!(fetch_phase(&h), "pipeline");
    assert_eq!(h.dir.stats().get("dir.lazy_llc_reads"), 1);

    h.settle();
    let resp = h.drain_to(L2_1);
    assert!(matches!(resp[..], [Message { kind: MsgKind::Resp { .. }, .. }]), "{resp:?}");
    h.send(L2_1, LINE, MsgKind::Unblock);
    assert_eq!(h.dir.stats().get("dir.lazy_llc_reads"), 1, "one lazy read");
}

#[test]
fn early_response_fires_on_first_dirty_ack() {
    let mut h = Harness::new(CoherenceConfig::early_response());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    // Consume L2_1's probe, then answer it with dirty data first.
    let p1: Vec<Message> = h.drain_to(L2_1);
    assert_eq!(p1.len(), 1);
    h.send(
        L2_1,
        LINE,
        MsgKind::ProbeAck { dirty: Some(data(5)), had_copy: true, was_parked: false },
    );
    let resp = h.drain_to(L2_0);
    assert_eq!(resp.len(), 1, "§III-A: respond on the first dirty probe ack");
    assert!(matches!(resp[0].kind, MsgKind::Resp { grant: Grant::Shared, .. }));
    // The transaction still collects the rest before unblocking.
    h.ack_all_probes(LINE, None);
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert!(h.dir.is_idle());
}

/// §III-A's early responder may unblock before the rest of its downgrade
/// round is in. The line stays blocked until those acks arrive: were it
/// released at the unblock, the late acks would close the next
/// transaction's invalidation round early, and that round's dirty ack —
/// the only copy of a CPU store — would be dropped as stale.
#[test]
fn early_unblock_holds_the_line_until_its_probe_round_is_in() {
    let mut h = Harness::new(CoherenceConfig::early_response());
    let ack = |dirty: Option<LineData>, had_copy: bool| MsgKind::ProbeAck {
        dirty,
        had_copy,
        was_parked: false,
    };
    let others = [AgentId::CorePairL2(2), AgentId::CorePairL2(3), TCC];
    // L2_0 takes the line for writing and stores word 0 = 1.
    h.send(L2_0, LINE, MsgKind::RdBlkM);
    h.ack_all_probes(LINE, None);
    assert!(matches!(h.drain_to(L2_0)[..], [Message { kind: MsgKind::Resp { .. }, .. }]));
    h.send(L2_0, LINE, MsgKind::Unblock);

    // L2_1 reads: L2_0's dirty downgrade ack earns it the early response;
    // the other three downgrade probes stay unanswered for now.
    h.send(L2_1, LINE, MsgKind::RdBlk);
    assert_eq!(h.probe_count(LINE), N_L2 - 1 + 1);
    h.to_caches.clear();
    h.send(L2_0, LINE, ack(Some(data(1)), true));
    match h.drain_to(L2_1)[..] {
        [Message { kind: MsgKind::Resp { data: d, .. }, .. }] => assert_eq!(d.word(0), 1),
        ref m => panic!("expected one early Resp, got {m:?}"),
    }

    // A GPU write-through of word 7 queues behind the read, and L2_1
    // unblocks before the late downgrade acks are in.
    let mut wt = LineData::zeroed();
    wt.set_word(7, 77);
    h.send(
        TCC,
        LINE,
        MsgKind::WriteThrough { data: wt, mask: WordMask::single(7), retains: false },
    );
    h.send(L2_1, LINE, MsgKind::Unblock);
    for who in others {
        h.send(who, LINE, ack(None, false));
    }

    // The write-through's invalidations: L2_0 brings back its store.
    let invalidated: Vec<AgentId> =
        h.to_caches.iter().filter(|m| m.kind.is_probe()).map(|m| m.dst).collect();
    assert_eq!(invalidated, [L2_0, L2_1, others[0], others[1]]);
    h.to_caches.clear();
    h.send(L2_1, LINE, ack(None, true));
    h.send(L2_0, LINE, ack(Some(data(1)), true));
    for who in &others[..2] {
        h.send(*who, LINE, ack(None, false));
    }
    assert!(matches!(h.drain_to(TCC)[..], [Message { kind: MsgKind::WtAck, .. }]));
    assert!(h.dir.is_idle());
    let mem = h.mem.memory().read_line(LINE);
    let stale = h.dir.stats().get("dir.stale_probe_acks");
    assert_eq!(
        (mem.word(0), mem.word(7), stale),
        (1, 77, 0),
        "memory word 0 = {}, word 7 = {}, dir.stale_probe_acks = {stale}: \
         the CPU store was dropped as a stale probe ack",
        mem.word(0),
        mem.word(7),
    );
}

#[test]
fn requests_to_a_blocked_line_queue_in_order() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    h.send(L2_1, LINE, MsgKind::RdBlk); // queued behind L2_0's transaction
    assert!(
        h.to_caches.iter().filter(|m| m.dst == L2_1).all(|m| m.kind.is_probe()),
        "no response to the queued requester yet"
    );
    h.ack_all_probes(LINE, None);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    // Now the queued transaction starts: L2_1 gets its own probe round.
    h.ack_all_probes(LINE, None);
    let resp = h.drain_to(L2_1);
    assert!(resp.iter().any(|m| matches!(m.kind, MsgKind::Resp { .. })));
    h.send(L2_1, LINE, MsgKind::Unblock);
    assert!(h.dir.is_idle());
}

/// A probe ack, memory reply or unblock that the line's transaction is not
/// waiting for is counted once and changes nothing, and a class the
/// directory never consumes is counted as unexpected.
#[test]
fn unawaited_acks_replies_and_unblocks_are_counted_and_ignored() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    let stale = |h: &Harness| {
        let s = h.dir.stats();
        (s.get("dir.stale_probe_acks"), s.get("dir.stale_mem_resps"), s.get("dir.stale_unblocks"))
    };
    let ack = MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false };
    let stale_reply = MsgKind::MemRdResp { data: data(99) };

    // An idle line waits for nothing.
    h.send(L2_1, LINE, ack);
    h.send(AgentId::Memory, LINE, stale_reply);
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert_eq!(stale(&h), (1, 1, 1));
    assert!(h.to_caches.is_empty() && h.dir.is_idle(), "stale inputs send nothing");

    // While its probe round is out, a read has asked memory for nothing and
    // answered nobody.
    h.send(L2_0, LINE, MsgKind::RdBlk);
    h.send(AgentId::Memory, LINE, stale_reply);
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert_eq!(stale(&h), (1, 2, 2));

    // Once the round is in, one more ack is stale too; the response carries
    // memory's data, not the stale reply's.
    h.ack_all_probes(LINE, None);
    h.send(L2_1, LINE, ack);
    assert_eq!(stale(&h), (2, 2, 2));
    match h.drain_to(L2_0)[..] {
        [Message { kind: MsgKind::Resp { data: d, grant: Grant::Exclusive }, .. }] => {
            assert_eq!(d.word(0), 0);
        }
        ref m => panic!("expected one Exclusive Resp, got {m:?}"),
    }

    // A class the directory never consumes is unexpected, not stale; the
    // awaited unblock still releases the line.
    h.send(L2_0, LINE, MsgKind::VicAck);
    assert_eq!(h.dir.stats().get("dir.unexpected.VicAck"), 1);
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert_eq!(stale(&h), (2, 2, 2));
    assert!(h.dir.is_idle());
}

// ------------------------------------------------------------- victims/LLC

#[test]
fn baseline_clean_victims_write_llc_and_memory() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(3) });
    assert!(matches!(h.drain_to(L2_0)[0].kind, MsgKind::VicAck));
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 3, "write-through to memory");
    assert!(h.dir.llc().peek(LINE).is_some(), "and cached in the LLC");
    assert!(!h.dir.llc().peek(LINE).unwrap().dirty);
}

#[test]
fn no_wb_clean_victims_skips_memory() {
    let mut h = Harness::new(CoherenceConfig::no_wb_clean_victims());
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(3) });
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 0, "§III-B: no memory write");
    assert!(h.dir.llc().peek(LINE).is_some(), "LLC still caches the victim");
}

#[test]
fn drop_clean_victims_loses_them_in_the_air() {
    let mut h = Harness::new(CoherenceConfig::drop_clean_victims());
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(3) });
    assert!(h.dir.llc().peek(LINE).is_none(), "§III-B1: not even the LLC");
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 0);
}

#[test]
fn write_back_llc_defers_dirty_victims_until_eviction() {
    let mut h = Harness::new(CoherenceConfig::llc_write_back());
    h.send(L2_0, LINE, MsgKind::VicDirty { data: data(11) });
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 0, "§III-C: no immediate memory write");
    let l = h.dir.llc().peek(LINE).unwrap();
    assert!(l.dirty, "the dirty bit defers the write-back");
    // Fill the LLC set (16 ways, 8 sets): 16 more dirty victims at the
    // same set index evict LINE, which must then reach memory.
    for i in 1..=16u64 {
        let la = LineAddr(LINE.0 + i * 8); // same set (8 sets)
        h.send(L2_0, la, MsgKind::VicDirty { data: data(100 + i) });
    }
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 11, "LLC eviction wrote it back");
}

#[test]
fn stale_victim_after_parked_invalidation_is_dropped() {
    // An invalidating probe consumed a parked victim (was_parked): the
    // in-flight VicDirty must not clobber newer data.
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(TCC, LINE, MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(5) });
    // All L2s get invalidating probes; L2_0's ack consumes a parked victim.
    let probes: Vec<Message> =
        h.to_caches.iter().filter(|m| m.line == LINE && m.kind.is_probe()).cloned().collect();
    assert!(probes
        .iter()
        .all(|p| matches!(p.kind, MsgKind::Probe { kind: ProbeKind::Invalidate })));
    for p in &probes {
        let parked = p.dst == L2_0;
        h.send(
            p.dst,
            LINE,
            MsgKind::ProbeAck {
                dirty: parked.then(|| data(7)),
                had_copy: parked,
                was_parked: parked,
            },
        );
    }
    h.to_caches.clear();
    // Atomic completed on the forwarded dirty data: 7 + 5 = 12 in memory.
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 12);
    // The stale VicDirty arrives late and must be ACKed but NOT written.
    h.send(L2_0, LINE, MsgKind::VicDirty { data: data(7) });
    assert!(matches!(h.drain_to(L2_0)[0].kind, MsgKind::VicAck));
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 12, "stale write-back clobbered the atomic");
    assert!(h.dir.is_idle());
}

// ------------------------------------------------------------ GPU requests

#[test]
fn atomic_returns_old_value_and_applies_op() {
    let mut h = Harness::with_words(CoherenceConfig::baseline(), &[(LINE.base(), 40)]);
    h.send(TCC, LINE, MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(2) });
    h.ack_all_probes(LINE, None);
    let resp = h.drain_to(TCC);
    assert!(matches!(resp[0].kind, MsgKind::AtomicResp { old: 40 }));
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 42);
    assert!(h.dir.is_idle(), "TCC transactions unblock implicitly");
}

#[test]
fn write_through_merges_masked_words_into_memory() {
    let words = [(LINE.base(), 1), (Addr(LINE.base().0 + 8), 2)];
    let mut h = Harness::with_words(CoherenceConfig::baseline(), &words);
    let mut wt = LineData::zeroed();
    wt.set_word(1, 99);
    h.send(
        TCC,
        LINE,
        MsgKind::WriteThrough { data: wt, mask: WordMask::single(1), retains: false },
    );
    h.ack_all_probes(LINE, None);
    assert!(matches!(h.drain_to(TCC)[0].kind, MsgKind::WtAck));
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 1, "unmasked word untouched");
    assert_eq!(h.mem.memory().read_line(LINE).word(1), 99, "masked word written");
}

#[test]
fn bypassing_write_through_with_a_dirty_ack_keeps_the_clean_llc_copy_equal_to_memory() {
    // The PR 11 lost update: a clean LLC copy left by a VicClean, then the
    // evicting L2 re-owns the line and dirties word 5; a TCC write-through
    // of word 7 probes that store out. Both words must reach the LLC copy,
    // or the next read hits the LLC and is served the pre-store word 5.
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(3) });
    h.send(L2_0, LINE, MsgKind::RdBlkM);
    h.ack_all_probes(LINE, None);
    h.send(L2_0, LINE, MsgKind::Unblock);
    h.to_caches.clear();

    let mut stored = data(3);
    stored.set_word(5, 55);
    let mut wt = LineData::zeroed();
    wt.set_word(7, 77);
    h.send(
        TCC,
        LINE,
        MsgKind::WriteThrough { data: wt, mask: WordMask::single(7), retains: false },
    );
    h.ack_all_probes(LINE, Some((L2_0, stored)));
    assert!(matches!(h.drain_to(TCC)[0].kind, MsgKind::WtAck));

    h.send(L2_1, LINE, MsgKind::RdBlk);
    h.ack_all_probes(LINE, None);
    match h.drain_to(L2_1)[0].kind {
        MsgKind::Resp { data: d, .. } => {
            assert_eq!((d.word(0), d.word(5), d.word(7)), (3, 55, 77), "the CPU store survives");
        }
        ref k => panic!("expected Resp, got {}", k.class_name()),
    }
    let llc = h.dir.llc().peek(LINE).expect("the victim's LLC copy is still resident");
    assert!(!llc.dirty);
    assert_eq!(llc.data, h.mem.memory().read_line(LINE), "a clean LLC line equals memory");
}

#[test]
fn use_l3_on_wt_fills_the_llc_and_skips_memory() {
    let mut h = Harness::new(CoherenceConfig::llc_write_back_l3_on_wt());
    let full = data(77);
    h.send(TCC, LINE, MsgKind::WriteThrough { data: full, mask: WordMask::full(), retains: false });
    h.ack_all_probes(LINE, None);
    assert!(matches!(h.drain_to(TCC)[0].kind, MsgKind::WtAck));
    let l = h.dir.llc().peek(LINE).expect("full-line WT allocates in the LLC");
    assert_eq!(l.data.word(0), 77);
    assert!(l.dirty, "write-back LLC defers the memory write");
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 0);
}

#[test]
fn transaction_latency_is_recorded() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    h.ack_all_probes(LINE, None);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    let s = h.dir.stats();
    assert_eq!(s.get("dir.txn_latency_count"), 1);
    assert!(s.get("dir.txn_latency_mean_ticks") > 0, "a memory-backed miss takes time");
    assert_eq!(s.get("dir.txn_latency_max_ticks"), s.get("dir.txn_latency_mean_ticks"));
}

#[test]
fn flush_is_acknowledged_and_stateless() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(TCC, LINE, MsgKind::Flush);
    assert!(matches!(h.drain_to(TCC)[0].kind, MsgKind::FlushAck));
    assert!(h.dir.is_idle());
}

// ------------------------------------------------------------------- DMA

#[test]
fn dma_write_invalidates_the_llc_copy() {
    let mut h = Harness::new(CoherenceConfig::no_wb_clean_victims());
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(5) });
    h.drain_to(L2_0);
    assert!(h.dir.llc().peek(LINE).is_some());
    let mut wr = LineData::zeroed();
    wr.set_word(0, 123);
    h.send(AgentId::Dma, LINE, MsgKind::DmaWr { data: wr, mask: WordMask::single(0) });
    h.ack_all_probes(LINE, None);
    assert!(matches!(h.drain_to(AgentId::Dma)[0].kind, MsgKind::DmaWrAck));
    assert!(h.dir.llc().peek(LINE).is_none(), "DMA accesses do not update the L3");
    assert_eq!(h.mem.memory().read_line(LINE).word(0), 123);
}

#[test]
fn dma_read_collects_dirty_data_from_probes() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.send(AgentId::Dma, LINE, MsgKind::DmaRd);
    h.ack_all_probes(LINE, Some((L2_1, data(66))));
    let resp = h.drain_to(AgentId::Dma);
    match resp[0].kind {
        MsgKind::DmaRdResp { data: d } => assert_eq!(d.word(0), 66),
        ref k => panic!("expected DmaRdResp, got {}", k.class_name()),
    }
    assert!(h.dir.is_idle());
}

// -------------------------------------------------------------- tracking

#[test]
fn tracked_compulsory_miss_sends_no_probes() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    assert_eq!(h.probe_count(LINE), 0, "§IV: I-state requests elide all probes");
    let resp = h.drain_to(L2_0);
    assert!(matches!(resp[0].kind, MsgKind::Resp { grant: Grant::Exclusive, .. }));
    h.send(L2_0, LINE, MsgKind::Unblock);
}

#[test]
fn tracked_o_state_read_probes_owner_only() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlk); // L2_0 becomes the tracked owner
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    h.send(L2_1, LINE, MsgKind::RdBlk);
    let probes: Vec<Message> = h.to_caches.iter().filter(|m| m.kind.is_probe()).cloned().collect();
    assert_eq!(probes.len(), 1, "probe the owner only");
    assert_eq!(probes[0].dst, L2_0);
    assert!(matches!(probes[0].kind, MsgKind::Probe { kind: ProbeKind::Downgrade }));
    // The owner forwards dirty data: the LLC read is elided entirely.
    let mem_reads_before = h.mem.stats().get("mem.reads");
    h.ack_all_probes(LINE, Some((L2_0, data(9))));
    let resp = h.drain_to(L2_1);
    assert!(matches!(resp[0].kind, MsgKind::Resp { grant: Grant::Shared, .. }));
    assert_eq!(
        h.mem.stats().get("mem.reads"),
        mem_reads_before,
        "§IV-A: LLC/memory read elided when the owner forwards dirty data"
    );
    h.send(L2_1, LINE, MsgKind::Unblock);
}

#[test]
fn tracked_owner_upgrade_gets_data_less_upgrade_ack() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlk);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    // Owner upgrades (e.g. its silently-E line was downgraded to O first
    // in a real system; here the entry is O with owner = L2_0 already).
    h.send(L2_0, LINE, MsgKind::RdBlkM);
    let resp = h.drain_to(L2_0);
    assert!(
        matches!(resp[0].kind, MsgKind::UpgradeAck),
        "the owner's copy is freshest: no data transfer"
    );
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert!(h.dir.is_idle());
}

#[test]
fn tracked_s_state_invalidation_multicasts_to_sharers_only() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    // Two sharers via RdBlkS (forced Shared).
    for l2 in [L2_0, L2_1] {
        h.send(l2, LINE, MsgKind::RdBlkS);
        h.drain_to(l2);
        h.send(l2, LINE, MsgKind::Unblock);
    }
    // A third L2 wants to write: only the two sharers get probes.
    let l2_2 = AgentId::CorePairL2(2);
    h.send(l2_2, LINE, MsgKind::RdBlkM);
    let probes: Vec<AgentId> =
        h.to_caches.iter().filter(|m| m.kind.is_probe()).map(|m| m.dst).collect();
    assert_eq!(probes.len(), 2, "multicast, not broadcast");
    assert!(probes.contains(&L2_0) && probes.contains(&L2_1));
    h.ack_all_probes(LINE, None);
    h.drain_to(l2_2);
    h.send(l2_2, LINE, MsgKind::Unblock);
}

#[test]
fn owner_tracking_broadcasts_invalidations() {
    let mut h = Harness::new(CoherenceConfig::owner_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlkS);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    h.send(L2_1, LINE, MsgKind::RdBlkM);
    // Without sharer identities the invalidation must broadcast
    // (everyone except the requester: 3 L2s + 1 TCC).
    assert_eq!(h.probe_count(LINE), N_L2 - 1 + 1);
    h.ack_all_probes(LINE, None);
    h.drain_to(L2_1);
    h.send(L2_1, LINE, MsgKind::Unblock);
}

#[test]
fn directory_eviction_back_invalidates_and_makes_room() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    // The test directory has 16 sets × 4 ways: fill one set (stride 16).
    let set_lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(0x200 + i * 16)).collect();
    for &la in &set_lines[..4] {
        h.send(L2_0, la, MsgKind::RdBlk);
        h.drain_to(L2_0);
        h.send(L2_0, la, MsgKind::Unblock);
    }
    // The fifth allocation must evict a tracked entry: a backward
    // invalidation (transient B) reaches the victim's owner first.
    h.send(L2_1, set_lines[4], MsgKind::RdBlk);
    let backinv: Vec<Message> = h.to_caches.iter().filter(|m| m.kind.is_probe()).cloned().collect();
    assert!(!backinv.is_empty(), "entry eviction must probe the victim's caches");
    let victim_line = backinv[0].line;
    assert!(set_lines[..4].contains(&victim_line));
    assert!(backinv
        .iter()
        .all(|m| matches!(m.kind, MsgKind::Probe { kind: ProbeKind::Invalidate })));
    // Ack the back-invalidation (owner forwards its dirty line).
    h.ack_all_probes(victim_line, Some((L2_0, data(55))));
    // The parked request now proceeds.
    let resp = h.drain_to(L2_1);
    assert!(resp.iter().any(|m| matches!(m.kind, MsgKind::Resp { .. })));
    h.send(L2_1, set_lines[4], MsgKind::Unblock);
    assert!(h.dir.is_idle());
    // The reconciled dirty data is in the LLC (write-back) or memory.
    let in_llc = h.dir.llc().peek(victim_line).map(|l| l.data.word(0));
    assert!(
        in_llc == Some(55) || h.mem.memory().read_line(victim_line).word(0) == 55,
        "backward invalidation lost the owner's dirty data"
    );
}

/// A back-invalidation is a transaction like any other to the deadlock
/// dump and the watchdog: its age counts from the eviction, not from tick
/// zero (which sorted a young `BackInval` above every real offender).
#[test]
fn stuck_back_invalidation_ages_from_the_eviction() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    let set_lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(0x200 + i * 16)).collect();
    for &la in &set_lines[..4] {
        h.send(L2_0, la, MsgKind::RdBlk);
        h.drain_to(L2_0);
        h.send(L2_0, la, MsgKind::Unblock);
    }
    // The fifth allocation parks behind a back-invalidation nobody acks.
    let evicted_at = h.now + 1; // `send` delivers one tick on
    h.send(L2_1, set_lines[4], MsgKind::RdBlk);
    assert!(evicted_at > Tick(1_000), "the fills took simulated time");
    let stuck = h.dir.stuck_lines(evicted_at + 700);
    assert_eq!(stuck.len(), 1, "the parked request has no transaction of its own yet");
    assert!(stuck[0].detail.starts_with("BackInval"), "{}", stuck[0].detail);
    assert_eq!(stuck[0].age, 700);

    h.dir.set_watchdog_limit(700);
    assert!(!h.dir.watchdog_expired(evicted_at + 700));
    assert!(h.dir.watchdog_expired(evicted_at + 701));
}

/// The watchdog reads each transaction's own start: it trips one tick
/// past the limit of the oldest, and a finished transaction stops counting.
#[test]
fn watchdog_expires_past_the_limit_of_the_oldest_transaction() {
    let mut h = Harness::new(CoherenceConfig::baseline());
    h.dir.set_watchdog_limit(100_000);
    assert!(!h.dir.watchdog_expired(Tick(u64::MAX / 2)), "nothing in flight, nothing stuck");
    let other = LineAddr(LINE.0 + 1);
    let first = h.now + 1; // `send` delivers one tick on
    h.send(L2_0, LINE, MsgKind::RdBlk);
    let second = h.now + 1;
    h.send(L2_1, other, MsgKind::RdBlk);
    assert!(second > first);
    assert!(!h.dir.watchdog_expired(first + 100_000));
    assert!(h.dir.watchdog_expired(first + 100_001));
    let ages: Vec<(LineAddr, u64)> =
        h.dir.stuck_lines(first + 100_001).iter().map(|l| (l.line, l.age)).collect();
    assert_eq!(ages, [(LINE, 100_001), (other, 100_001 - (second.0 - first.0))]);
    // Finish the older one: the younger has not reached the limit yet.
    h.ack_all_probes(LINE, None);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    assert!(!h.dir.has_active_txn(LINE));
    assert!(!h.dir.watchdog_expired(second + 100_000));
    assert!(h.dir.watchdog_expired(second + 100_001));
}

#[test]
fn write_through_with_retains_tracks_the_tcc_as_sharer() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    let full = data(7);
    h.send(TCC, LINE, MsgKind::WriteThrough { data: full, mask: WordMask::full(), retains: true });
    h.drain_to(TCC);
    // A CPU write must now invalidate the TCC (it is a tracked sharer).
    h.send(L2_0, LINE, MsgKind::RdBlkM);
    let probes: Vec<AgentId> =
        h.to_caches.iter().filter(|m| m.kind.is_probe()).map(|m| m.dst).collect();
    assert_eq!(probes, vec![TCC], "exactly the retaining TCC is invalidated");
    h.ack_all_probes(LINE, None);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
}

#[test]
fn vic_clean_from_last_sharer_returns_line_to_invalid() {
    let mut h = Harness::new(CoherenceConfig::sharer_tracking());
    h.send(L2_0, LINE, MsgKind::RdBlkS);
    h.drain_to(L2_0);
    h.send(L2_0, LINE, MsgKind::Unblock);
    h.send(L2_0, LINE, MsgKind::VicClean { data: data(1) });
    h.drain_to(L2_0);
    // Line is I again: a new RdBlkM needs no probes.
    h.send(L2_1, LINE, MsgKind::RdBlkM);
    assert_eq!(h.probe_count(LINE), 0, "last sharer gone ⇒ I ⇒ no probes");
    h.drain_to(L2_1);
    h.send(L2_1, LINE, MsgKind::Unblock);
}

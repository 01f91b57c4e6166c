//! The one stub directory the requester tests answer through, and the pump
//! that runs a requester against it.

use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;

use hsc_cluster::{CorePair, DmaEngine, GpuCluster, GpuOp, GpuScript, WavefrontProgram};
use hsc_mem::{LineAddr, LineData, MainMemory};
use hsc_noc::{Action, AgentId, Grant, Message, MsgKind, Outbox, ProbeKind, WordMask};
use hsc_sim::{Fnv1a, StatSet, Tick, TransitionMatrix, WheelQueue};

/// The face a driver needs of a requester.
pub trait Requester {
    fn agent(&self) -> AgentId;
    fn on_wake(&mut self, now: Tick, out: &mut Outbox);
    fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox);
    fn is_done(&self) -> bool;
    fn stats(&self) -> StatSet;
    fn fingerprint(&self) -> u64;
}

macro_rules! requester {
    ($ty:ty) => {
        impl Requester for $ty {
            fn agent(&self) -> AgentId {
                <$ty>::agent(self)
            }
            fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
                <$ty>::on_wake(self, now, out);
            }
            fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
                <$ty>::on_message(self, now, msg, out);
            }
            fn is_done(&self) -> bool {
                <$ty>::is_done(self)
            }
            fn stats(&self) -> StatSet {
                <$ty>::stats(self)
            }
            fn fingerprint(&self) -> u64 {
                let mut h = Fnv1a::default();
                self.hash_state(&mut h);
                h.finish()
            }
        }
    };
}
requester!(CorePair);
requester!(GpuCluster);
requester!(DmaEngine);

/// Every `last_value` a [`Recorded`] program was handed, in call order:
/// entry `i + 1` is what op `i` returned.
pub type Handed = Rc<RefCell<Vec<Option<u64>>>>;

/// A [`GpuScript`] that logs what it is handed back into a log the test
/// keeps a handle to. Its clones share the log, so a system holding one
/// must not be explored.
#[derive(Debug, Clone)]
struct Recorded {
    script: GpuScript,
    handed: Handed,
}

impl WavefrontProgram for Recorded {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        self.handed.borrow_mut().push(last);
        self.script.next_op(last)
    }
}

/// A wavefront that runs `ops` and records what it was handed, and the
/// handle to that record.
pub fn recorded(ops: Vec<GpuOp>) -> (Box<dyn WavefrontProgram>, Handed) {
    let handed = Handed::default();
    (Box::new(Recorded { script: GpuScript::new(ops), handed: Rc::clone(&handed) }), handed)
}

/// What the stub directory answers `m` with, if anything: a trivially
/// coherent directory over `mem` that sends no probes of its own. RdBlk
/// grants E to an L2 and S to a TCC (which holds only valid, clean lines);
/// a dirty victim or a probe ack's dirty data is written back.
pub fn reply(m: &Message, mem: &mut MainMemory) -> Option<MsgKind> {
    let fill = |mem: &MainMemory, grant| Some(MsgKind::Resp { data: mem.read_line(m.line), grant });
    let merge = |mem: &mut MainMemory, data: &LineData, mask: WordMask| {
        let mut line = mem.read_line(m.line);
        mask.apply(&mut line, data);
        mem.write_line(m.line, line);
    };
    match m.kind {
        MsgKind::RdBlk if m.src.is_gpu_cache() => fill(mem, Grant::Shared),
        MsgKind::RdBlk => fill(mem, Grant::Exclusive),
        MsgKind::RdBlkS => fill(mem, Grant::Shared),
        MsgKind::RdBlkM => fill(mem, Grant::Modified),
        MsgKind::VicDirty { data } => {
            mem.write_line(m.line, data);
            Some(MsgKind::VicAck)
        }
        MsgKind::VicClean { .. } => Some(MsgKind::VicAck),
        MsgKind::WriteThrough { data, mask, .. } => {
            merge(mem, &data, mask);
            Some(MsgKind::WtAck)
        }
        MsgKind::DmaWr { data, mask } => {
            merge(mem, &data, mask);
            Some(MsgKind::DmaWrAck)
        }
        MsgKind::AtomicReq { word, op } => {
            let mut line = mem.read_line(m.line);
            let old = line.apply_atomic(m.line.word_addr(word as usize), op);
            mem.write_line(m.line, line);
            Some(MsgKind::AtomicResp { old })
        }
        MsgKind::Flush => Some(MsgKind::FlushAck),
        MsgKind::DmaRd => Some(MsgKind::DmaRdResp { data: mem.read_line(m.line) }),
        MsgKind::ProbeAck { dirty, .. } => {
            if let Some(data) = dirty {
                mem.write_line(m.line, data);
            }
            None
        }
        MsgKind::Unblock => None,
        ref k => panic!("stub directory got {}", k.class_name()),
    }
}

/// One hop of the pump's network, each way.
const HOP: u64 = 10;

/// What a pumped run leaves behind.
#[derive(Debug)]
pub struct Pumped {
    /// The stub directory's memory.
    pub mem: MainMemory,
    /// Every message the requester sent the directory, in arrival order.
    pub requests: Vec<Message>,
}

/// Runs `agent` from a wake at tick 0 against the stub directory over
/// `mem` until nothing is in flight, delivering every wake it stages.
/// Panics once the run reaches `limit` events.
pub fn pump<R: Requester>(agent: &mut R, mut mem: MainMemory, limit: u64) -> Pumped {
    #[derive(Debug)]
    enum Ev {
        Wake,
        Msg(Message),
    }
    let me = agent.agent();
    let mut q: WheelQueue<Ev> = WheelQueue::new();
    q.schedule(Tick(0), Ev::Wake);
    let mut requests = Vec::new();
    let mut out = Outbox::new(Tick(0));
    let mut events = 0u64;
    while let Some((now, ev)) = q.pop() {
        events += 1;
        assert!(events < limit, "stub-directory run exceeded {limit} events");
        out.reset(now);
        match ev {
            Ev::Wake => agent.on_wake(now, &mut out),
            Ev::Msg(m) if m.dst == me => agent.on_message(now, &m, &mut out),
            Ev::Msg(m) => {
                if let Some(kind) = reply(&m, &mut mem) {
                    let resp = Message::new(AgentId::Directory, me, m.line, kind);
                    q.schedule(now + HOP, Ev::Msg(resp));
                }
                requests.push(m);
            }
        }
        for act in out.drain_actions() {
            match act {
                Action::Send(m) => q.schedule(now + HOP, Ev::Msg(m)),
                Action::SendLater(t, m) => q.schedule(t + HOP, Ev::Msg(m)),
                Action::Wake(t) => q.schedule(t, Ev::Wake),
            }
        }
    }
    Pumped { mem, requests }
}

/// Hands `agent` a message from the directory at `now` and returns the
/// actions its handler staged.
pub fn deliver<R: Requester>(
    agent: &mut R,
    now: Tick,
    line: LineAddr,
    kind: MsgKind,
) -> Vec<Action> {
    let mut out = Outbox::new(now);
    agent.on_message(now, &Message::new(AgentId::Directory, agent.agent(), line, kind), &mut out);
    out.into_actions()
}

/// Hands `agent` a directory probe of `kind` for `line` at `now` and
/// returns the actions its handler staged.
pub fn probe<R: Requester>(
    agent: &mut R,
    now: Tick,
    line: LineAddr,
    kind: ProbeKind,
) -> Vec<Action> {
    deliver(agent, now, line, MsgKind::Probe { kind })
}

/// The messages among `acts`, in order.
pub fn sends(acts: Vec<Action>) -> Vec<Message> {
    acts.into_iter()
        .filter_map(|a| match a {
            Action::Send(m) | Action::SendLater(_, m) => Some(m),
            Action::Wake(_) => None,
        })
        .collect()
}

/// How many `from → to` transitions `cause` made in `m`, named in the
/// matrix's own vocabulary.
pub fn transitions(m: &TransitionMatrix, from: &str, to: &str, cause: &str) -> u64 {
    let index = |names: &[&str], name| names.iter().position(|n| *n == name).unwrap();
    m.get(index(m.states(), from), index(m.states(), to), index(m.causes(), cause))
}

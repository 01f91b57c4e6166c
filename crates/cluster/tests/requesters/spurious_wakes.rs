//! Pins the property exact-once wake arming (`hsc_noc::WakeArm`) rests on:
//! **a duplicate wake-up is a no-op.**
//!
//! `WakeArm` drops a requester's request for a wake at a tick that already
//! has one pending. The dropped wake would have been delivered after the
//! kept one, so the dedup is exact only as long as a second `on_wake` at a
//! tick changes nothing: after the first, every core or wavefront is done,
//! blocked or ready later, and every message handler that unblocks one
//! steps it itself. A future op that left work behind for "the next wake at
//! this tick" would silently invalidate the dedup; this test would catch it.
//!
//! Each seeded case drives a `CorePair` and a `GpuCluster` against the stub
//! directory ([`reply`]) twice — once faithfully, once with the driver
//! injecting spurious `on_wake(now)` calls — and requires the same sent
//! messages at the same ticks, the same `stats()` and the same
//! `hash_state`. The directory also fires invalidating probes that land on
//! the same tick as a response, so the no-op claim is tested across the one
//! handler that does not step the agent.

use std::collections::BTreeMap;

use hsc_cluster::{
    CorePair, CoreProgram, CpuConfig, CpuOp, CpuScript, GpuCluster, GpuConfig, GpuOp, GpuScript,
    WavefrontProgram,
};
use hsc_mem::{Addr, AtomicKind, LineAddr, MainMemory};
use hsc_noc::{Action, AgentId, Message, MsgKind, Outbox, ProbeKind};
use hsc_sim::{DetRng, StatSet, Tick, WheelQueue};

use crate::stub::{reply, Requester};

const CASES: u64 = 24;
/// One NoC hop each way; a multiple of both clock periods so responses
/// keep landing on ticks that also carry wakes.
const HOP: u64 = 385;
const LINES: u64 = 24;
/// Spurious wakes per run. Bounded so the test also terminates on an agent
/// that answers every wake with another one (where it passes all the same).
const SPURIOUS: u32 = 400;
const BASE: u64 = 0x4_0000;

fn addr(rng: &mut DetRng) -> Addr {
    Addr(BASE + rng.next_below(LINES) * 64 + rng.next_below(8) * 8)
}

fn cpu_script(rng: &mut DetRng) -> Box<dyn CoreProgram> {
    let ops = (0..80)
        .map(|i| match rng.next_below(5) {
            0 => CpuOp::Compute(rng.next_below(7)),
            1 | 2 => CpuOp::Load(addr(rng)),
            3 => CpuOp::Store(addr(rng), i),
            _ => CpuOp::Atomic(addr(rng), AtomicKind::FetchAdd(1)),
        })
        .collect();
    Box::new(CpuScript::new(ops))
}

fn gpu_script(rng: &mut DetRng) -> Box<dyn WavefrontProgram> {
    let ops = (0..60)
        .map(|i| match rng.next_below(8) {
            0 | 1 => GpuOp::Compute(rng.next_below(9)),
            2 | 3 => GpuOp::VecLoad((0..=rng.next_below(4)).map(|_| addr(rng)).collect()),
            4 => GpuOp::VecStore((0..=rng.next_below(4)).map(|_| (addr(rng), i)).collect()),
            5 => GpuOp::AtomicGlc(addr(rng), AtomicKind::FetchAdd(1)),
            6 => GpuOp::AtomicSlc(addr(rng), AtomicKind::FetchAdd(1)),
            _ if rng.chance(1, 2) => GpuOp::Acquire,
            _ => GpuOp::Release,
        })
        .collect();
    Box::new(GpuScript::new(ops))
}

/// Everything a run leaves behind that a spurious wake could have moved.
#[derive(Debug, PartialEq)]
struct Outcome {
    sent: Vec<(Tick, Message)>,
    stats: StatSet,
    state: u64,
}

#[derive(Debug)]
enum Ev {
    /// A wake the agent staged.
    Wake,
    /// A wake the driver made up.
    Spurious,
    Msg(Message),
}

/// The driver's queue and what it has seen the agent do.
#[derive(Debug, Default)]
struct Driver {
    q: WheelQueue<Ev>,
    /// Staged wakes still in the queue, by tick.
    staged: BTreeMap<Tick, u32>,
    sent: Vec<(Tick, Message)>,
}

impl Driver {
    fn stage_wake(&mut self, at: Tick) {
        *self.staged.entry(at).or_default() += 1;
        self.q.schedule(at, Ev::Wake);
    }

    /// The driver's half of the contract: every staged wake is delivered.
    fn forward(&mut self, out: &mut Outbox) {
        let now = out.now();
        for act in out.drain_actions() {
            match act {
                Action::Send(m) => {
                    self.sent.push((now, m));
                    self.q.schedule(now + HOP, Ev::Msg(m));
                }
                Action::SendLater(t, m) => {
                    self.sent.push((t, m));
                    self.q.schedule(t + HOP, Ev::Msg(m));
                }
                Action::Wake(t) => self.stage_wake(t),
            }
        }
    }
}

/// Runs `agent` to completion against the stub directory. `seed` scripts the
/// directory's probes (the same in both runs of a case); with `spurious`,
/// the driver also calls `on_wake(now)` where no staged wake asked for it:
/// right after an event, when no staged wake at `now` is still to come, and
/// as an extra queued event later in the same tick.
fn drive<R: Requester>(agent: &mut R, seed: u64, spurious: bool) -> Outcome {
    let me = agent.agent();
    let mut probes = DetRng::new(seed);
    let mut noise = DetRng::new(seed ^ 0x5eed);
    let mut mem = MainMemory::new();
    let mut d = Driver::default();
    let mut out = Outbox::new(Tick(0));
    d.stage_wake(Tick(0));
    let mut budget = if spurious { SPURIOUS } else { 0 };
    let mut events = 0u64;
    while let Some((now, ev)) = d.q.pop() {
        events += 1;
        assert!(events < 1_000_000, "case {seed}: run does not terminate");
        out.reset(now);
        match ev {
            Ev::Wake => {
                let n = d.staged.get_mut(&now).expect("a queued wake is counted");
                *n -= 1;
                if *n == 0 {
                    d.staged.remove(&now);
                }
                agent.on_wake(now, &mut out);
            }
            Ev::Spurious => agent.on_wake(now, &mut out),
            Ev::Msg(m) if m.dst == me => agent.on_message(now, &m, &mut out),
            Ev::Msg(m) => {
                if let Some(kind) = reply(&m, &mut mem) {
                    // A probe for some other line first, on the response's tick.
                    if probes.chance(1, 4) {
                        let line = LineAddr(Addr(BASE).line().0 + probes.next_below(LINES));
                        let probe = MsgKind::Probe { kind: ProbeKind::Invalidate };
                        let probe = Message::new(AgentId::Directory, me, line, probe);
                        d.q.schedule(now + HOP, Ev::Msg(probe));
                    }
                    let resp = Message::new(AgentId::Directory, me, m.line, kind);
                    d.q.schedule(now + HOP, Ev::Msg(resp));
                }
                continue;
            }
        }
        d.forward(&mut out);
        if budget > 0 && noise.chance(1, 6) {
            budget -= 1;
            d.q.schedule(now, Ev::Spurious);
        }
        // A staged wake still to come at `now` is not a duplicate of
        // anything yet; waking ahead of it would do its work early.
        if budget > 0 && noise.chance(1, 4) && !d.staged.contains_key(&now) {
            budget -= 1;
            out.reset(now);
            agent.on_wake(now, &mut out);
            d.forward(&mut out);
        }
    }
    assert!(agent.is_done(), "case {seed}: the run stalled");
    Outcome { sent: d.sent, stats: agent.stats(), state: agent.fingerprint() }
}

fn corepair(seed: u64) -> CorePair {
    let mut rng = DetRng::new(seed);
    // Small caches and frequent I-fetches, so evictions, victims and all
    // three request classes take part.
    let cfg = CpuConfig {
        l2_bytes: 8 * 1024,
        l1d_bytes: 1024,
        l1i_bytes: 1024,
        ifetch_interval: 8,
        ..CpuConfig::default()
    };
    CorePair::new(0, vec![cpu_script(&mut rng), cpu_script(&mut rng)], cfg)
}

fn gpu(seed: u64) -> GpuCluster {
    let mut rng = DetRng::new(seed);
    let cfg = GpuConfig {
        cus: 2,
        tcp_bytes: 1024,
        tcc_bytes: 2048,
        sqc_bytes: 1024,
        ifetch_interval: 8,
        ..GpuConfig::default()
    };
    let programs = (0..cfg.cus).map(|_| vec![gpu_script(&mut rng), gpu_script(&mut rng)]).collect();
    GpuCluster::new(0, programs, cfg)
}

#[test]
fn spurious_wakes_leave_a_corepair_untouched() {
    for seed in 0..CASES {
        let faithful = drive(&mut corepair(seed), seed, false);
        assert!(faithful.sent.len() > 50, "case {seed}: the script must reach the directory");
        assert_eq!(faithful, drive(&mut corepair(seed), seed, true), "case {seed}");
    }
}

#[test]
fn spurious_wakes_leave_a_gpu_cluster_untouched() {
    for seed in 0..CASES {
        let faithful = drive(&mut gpu(seed), seed, false);
        assert!(faithful.sent.len() > 50, "case {seed}: the script must reach the directory");
        assert_eq!(faithful, drive(&mut gpu(seed), seed, true), "case {seed}");
    }
}

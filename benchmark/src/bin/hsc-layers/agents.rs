//! Stub-peer testbenches for the message-driven controllers: directory,
//! memory controller, CorePair, GPU cluster and DMA engine. Each records
//! one run against bench-defined peers and programs, then times replays
//! (see `harness`). Configurations are `SystemConfig::scaled`'s.

use std::collections::{HashMap, HashSet};

use hsc_benchmark::{MetricMap, Spans};
use hsc_cluster::{
    CorePair, CoreProgram, CpuOp, DmaCommand, DmaEngine, GpuCluster, GpuOp, WavefrontProgram,
};
use hsc_core::{CoherenceConfig, Directory, MemoryController, SystemConfig};
use hsc_mem::{Addr, AtomicKind, LineAddr, LineData, MainMemory};
use hsc_noc::{AgentId, Grant, Message, MsgKind, ProbeKind, WordMask};
use hsc_sim::{DetRng, Tick};

use crate::harness::{bench_replay, record, Charge, Effort, Input, Peers, Sched};

/// Inputs replayed untimed before the timed ones, so caches, directory
/// entries and the LLC hold a steady-state population.
const WARM_INPUTS: usize = 20_000;

fn msgs_in(inputs: &[(Tick, Input)]) -> usize {
    inputs.iter().filter(|(_, i)| matches!(i, Input::Msg(_))).count()
}

// ----------------------------------------------------------------------
// directory: the bench plays every cache and the memory controller
// ----------------------------------------------------------------------

/// Ticks between new requests. A transaction lives ~3,500 ticks (two
/// hops, directory + LLC slot, unblock), so about nine are in flight.
const DIR_REQUEST_INTERVAL: u64 = 400;
/// Lines the stub caches cycle over: under the scaled directory's 2,048
/// entries, so the figure is for complete read- and write-miss
/// transactions, not entry evictions.
const DIR_FOOTPRINT: u64 = 1536;

/// Infinite-capacity stub caches that answer probes and unblock honestly,
/// so a tracking directory's sharer sets stay consistent with what the
/// stubs would forward.
struct DirPeers {
    cfg: SystemConfig,
    rng: DetRng,
    /// Per L2: line → dirty.
    held: Vec<HashMap<LineAddr, bool>>,
    outstanding: HashSet<(usize, LineAddr)>,
    issued: usize,
}

impl DirPeers {
    fn new(cfg: SystemConfig) -> Self {
        DirPeers {
            cfg,
            rng: DetRng::new(11),
            held: vec![HashMap::new(); cfg.corepairs],
            outstanding: HashSet::new(),
            issued: 0,
        }
    }
}

impl Peers for DirPeers {
    fn start(&mut self, sched: &mut Sched<'_>) {
        sched.timer(Tick::ZERO);
    }

    fn on_timer(&mut self, now: Tick, sched: &mut Sched<'_>) {
        let cp = self.issued % self.cfg.corepairs;
        self.issued += 1;
        // A miss this L2 can legally have: no permission → read or write
        // miss (alternating), clean copy → write miss (upgrade).
        let (line, kind) = loop {
            let line = LineAddr(self.rng.next_below(DIR_FOOTPRINT));
            if self.outstanding.contains(&(cp, line)) {
                continue;
            }
            match self.held[cp].get(&line) {
                Some(true) => {}
                Some(false) => break (line, MsgKind::RdBlkM),
                None if self.rng.next_below(2) == 0 => break (line, MsgKind::RdBlk),
                None => break (line, MsgKind::RdBlkM),
            }
        };
        self.outstanding.insert((cp, line));
        sched.send(now, Message::new(AgentId::CorePairL2(cp), AgentId::Directory, line, kind));
        sched.timer(now + DIR_REQUEST_INTERVAL);
    }

    fn on_message(&mut self, now: Tick, msg: &Message, sched: &mut Sched<'_>) {
        let reply = |kind| Message::new(msg.dst, AgentId::Directory, msg.line, kind);
        match (msg.dst, msg.kind) {
            (AgentId::Memory, MsgKind::MemRd) => {
                let data = LineData::zeroed();
                sched.send(now + self.cfg.uncore.mem_ticks, reply(MsgKind::MemRdResp { data }));
            }
            (AgentId::Memory, MsgKind::MemWr { .. }) => {}
            (AgentId::Tcc(_), MsgKind::Probe { .. }) => {
                let ack = MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false };
                sched.send(now, reply(ack));
            }
            (AgentId::CorePairL2(cp), MsgKind::Probe { kind }) => {
                let copy = match kind {
                    ProbeKind::Invalidate => self.held[cp].remove(&msg.line),
                    ProbeKind::Downgrade => self.held[cp].get(&msg.line).copied(),
                };
                let ack = MsgKind::ProbeAck {
                    dirty: (copy == Some(true)).then(LineData::zeroed),
                    had_copy: copy.is_some(),
                    was_parked: false,
                };
                sched.send(now, reply(ack));
            }
            (AgentId::CorePairL2(cp), MsgKind::Resp { grant, .. }) => {
                self.held[cp].insert(msg.line, grant == Grant::Modified);
                self.outstanding.remove(&(cp, msg.line));
                sched.send(now, reply(MsgKind::Unblock));
            }
            (AgentId::CorePairL2(cp), MsgKind::UpgradeAck) => {
                self.held[cp].insert(msg.line, true);
                self.outstanding.remove(&(cp, msg.line));
                sched.send(now, reply(MsgKind::Unblock));
            }
            (dst, kind) => panic!("directory testbench: unexpected {} to {dst}", kind.class_name()),
        }
    }
}

fn directory(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    for (name, coherence) in [
        ("core.directory.msg_ns_stateless", CoherenceConfig::baseline()),
        ("core.directory.msg_ns_tracking", CoherenceConfig::sharer_tracking()),
    ] {
        let cfg = SystemConfig::scaled(coherence);
        let make =
            || Directory::new(cfg.coherence, cfg.uncore, cfg.corepairs, cfg.gpu_clusters.max(1));
        let total = WARM_INPUTS + effort.ops;
        let inputs = record(&mut make(), &mut DirPeers::new(cfg), cfg.network, total);
        assert_eq!(inputs.len(), total, "{name}: the request timer never stops");
        let ns =
            bench_replay(spans, name, effort, (&inputs, WARM_INPUTS), Charge::PerMessage, make);
        out.put(name, ns, "ns");
    }
}

// ----------------------------------------------------------------------
// memory controller: inputs are synthesized, it needs no peers
// ----------------------------------------------------------------------

fn memctl(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let mut rng = DetRng::new(13);
    // Two reads per write (the baseline workloads' mix), one request per
    // channel-occupancy slot and a half, so the channel is busy not full.
    let inputs: Vec<(Tick, Input)> = (0..effort.ops as u64)
        .map(|i| {
            let kind = if i % 3 == 2 {
                MsgKind::MemWr { data: LineData::zeroed(), mask: WordMask::full() }
            } else {
                MsgKind::MemRd
            };
            let line = LineAddr(rng.next_below(8192));
            let msg = Message::new(AgentId::Directory, AgentId::Memory, line, kind);
            (Tick(i * cfg.uncore.mem_occupancy_ticks * 3 / 2), Input::Msg(msg))
        })
        .collect();
    let make = || {
        MemoryController::new(
            MainMemory::new(),
            cfg.uncore.mem_ticks,
            cfg.uncore.mem_occupancy_ticks,
        )
    };
    let ns =
        bench_replay(spans, "core.memctl.msg_ns", effort, (&inputs, 0), Charge::PerMessage, make);
    out.put("core.memctl.msg_ns", ns, "ns");
}

// ----------------------------------------------------------------------
// CorePair: bench-defined programs, the bench plays the directory
// ----------------------------------------------------------------------

/// Walks `lines` consecutive lines from `base` forever (or once, if
/// `laps` is set), storing on every fourth access.
#[derive(Debug, Clone)]
struct Stride {
    base: u64,
    lines: u64,
    laps: Option<u64>,
    i: u64,
}

impl CoreProgram for Stride {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        if self.laps.is_some_and(|l| self.i >= l * self.lines) {
            return CpuOp::Done;
        }
        let a = Addr(self.base + (self.i % self.lines) * 64);
        self.i += 1;
        if self.i.is_multiple_of(4) {
            CpuOp::Store(a, self.i)
        } else {
            CpuOp::Load(a)
        }
    }
}

/// The trivially coherent directory of `corepair.rs`'s `run_pair` test
/// helper (RdBlk→E, RdBlkS→S, RdBlkM→M, victims acked), which can also
/// fire probes at the pair on a timer.
struct FakeDirectory {
    /// `(first tick, count, resident lines)` of the probe stream, if any.
    probes: Option<(Tick, usize, u64)>,
    sent: usize,
}

impl Peers for FakeDirectory {
    fn start(&mut self, sched: &mut Sched<'_>) {
        if let Some((first, _, _)) = self.probes {
            sched.timer(first);
        }
    }

    fn on_timer(&mut self, now: Tick, sched: &mut Sched<'_>) {
        let (_, count, resident) = self.probes.expect("timer armed only with a probe stream");
        if self.sent >= count {
            return;
        }
        // What a stateless directory's broadcasts look like from one L2:
        // a quarter find the line (downgrades, so it stays resident), the
        // rest find nothing.
        let i = self.sent as u64;
        let (line, kind) = match i % 8 {
            0 | 4 => (LineAddr(PROBE_BASE / 64 + i % resident), ProbeKind::Downgrade),
            1..=3 => (LineAddr(1 << 30 | i), ProbeKind::Downgrade),
            _ => (LineAddr(1 << 30 | i), ProbeKind::Invalidate),
        };
        self.sent += 1;
        let probe = MsgKind::Probe { kind };
        sched.send(now, Message::new(AgentId::Directory, AgentId::CorePairL2(0), line, probe));
        sched.timer(now + 100);
    }

    fn on_message(&mut self, now: Tick, msg: &Message, sched: &mut Sched<'_>) {
        let data = LineData::zeroed();
        let kind = match msg.kind {
            MsgKind::RdBlk => MsgKind::Resp { data, grant: Grant::Exclusive },
            MsgKind::RdBlkS => MsgKind::Resp { data, grant: Grant::Shared },
            MsgKind::RdBlkM => MsgKind::Resp { data, grant: Grant::Modified },
            MsgKind::VicDirty { .. } | MsgKind::VicClean { .. } => MsgKind::VicAck,
            MsgKind::Unblock | MsgKind::ProbeAck { .. } => return,
            ref k => panic!("fake directory got {}", k.class_name()),
        };
        sched.send(now, Message::new(AgentId::Directory, msg.src, msg.line, kind));
    }
}

const PROBE_BASE: u64 = 0x10_0000;

fn corepair(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let pair = |lines: u64, laps: Option<u64>| {
        let programs: Vec<Box<dyn CoreProgram>> = (0..2)
            .map(|core| {
                let base = PROBE_BASE + core * lines * 64;
                Box::new(Stride { base, lines, laps, i: 0 }) as Box<dyn CoreProgram>
            })
            .collect();
        CorePair::new(0, programs, cfg.cpu)
    };
    let total = WARM_INPUTS + effort.ops;
    let no_probes = || FakeDirectory { probes: None, sent: 0 };

    // Eight lines per core: after the first lap every access hits, so the
    // timed inputs are wakes that retire one op each.
    let inputs = record(&mut pair(8, None), &mut no_probes(), cfg.network, total);
    assert_eq!(msgs_in(&inputs[WARM_INPUTS..]), 0, "the hit testbench must not miss");
    let name = "cluster.corepair.wake_hit_ns";
    let ns = bench_replay(spans, name, effort, (&inputs, WARM_INPUTS), Charge::PerInput, || {
        pair(8, None)
    });
    out.put(name, ns, "ns");

    // Sixteen times the L2 per core: every access misses and evicts, so
    // the messages are the miss path — fills and victim acks.
    let big = cfg.cpu.l2_bytes / 64 * 16;
    let inputs = record(&mut pair(big, None), &mut no_probes(), cfg.network, total);
    let name = "cluster.corepair.miss_msg_ns";
    let ns =
        bench_replay(spans, name, effort, (&inputs, WARM_INPUTS), Charge::MessagesOnly, || {
            pair(big, None)
        });
    out.put(name, ns, "ns");

    // One lap over a quarter of the L2, then nothing but probes.
    let resident = cfg.cpu.l2_bytes / 64 / 4;
    let mut probing =
        FakeDirectory { probes: Some((Tick(100_000_000), effort.ops, 2 * resident)), sent: 0 };
    let inputs = record(&mut pair(resident, Some(1)), &mut probing, cfg.network, usize::MAX);
    let is_probe = |(_, i): &(Tick, Input)| {
        matches!(i, Input::Msg(Message { kind: MsgKind::Probe { .. }, .. }))
    };
    let warm = inputs.iter().position(is_probe).expect("the probe stream was recorded");
    assert!(inputs[warm..].iter().all(is_probe), "only probes follow the first probe");
    let name = "cluster.corepair.probe_ns";
    let ns = bench_replay(spans, name, effort, (&inputs, warm), Charge::PerInput, || {
        pair(resident, Some(1))
    });
    out.put(name, ns, "ns");
}

// ----------------------------------------------------------------------
// GPU cluster: bench-defined wavefronts, the bench plays the directory
// ----------------------------------------------------------------------

/// A wavefront that either re-reads four resident lines (wake-only
/// steady state) or streams stores, missing loads and SLC atomics
/// through the TCC (message steady state). Each wavefront computes for
/// its own `pause` between memory ops, so the sixteen drift apart and a
/// wake advances one or two of them, as in the CHAI kernels, instead of
/// all in lockstep.
#[derive(Debug, Clone)]
struct Wave {
    base: u64,
    streaming: bool,
    pause: u64,
    i: u64,
}

impl Wave {
    fn lanes(&self, line: u64) -> Vec<Addr> {
        (0..16).map(|lane| Addr(self.base + line * 64 + lane % 8 * 8)).collect()
    }
}

impl WavefrontProgram for Wave {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        self.i += 1;
        if !self.streaming {
            return if self.i.is_multiple_of(2) {
                GpuOp::Compute(self.pause)
            } else {
                GpuOp::VecLoad(self.lanes(self.i / 2 % 4))
            };
        }
        let line = self.i / 4;
        match self.i % 4 {
            0 => GpuOp::VecLoad(self.lanes(line)),
            1 => GpuOp::VecStore(self.lanes(line).into_iter().map(|a| (a, self.i)).collect()),
            2 => GpuOp::AtomicSlc(Addr(self.base + line % 64 * 64), AtomicKind::FetchAdd(1)),
            _ if self.i % 64 == 3 => GpuOp::Release,
            _ => GpuOp::Compute(self.pause),
        }
    }
}

/// The trivially coherent directory of `gpu.rs`'s `run_gpu` test helper.
struct FakeGpuDirectory;

impl Peers for FakeGpuDirectory {
    fn on_message(&mut self, now: Tick, msg: &Message, sched: &mut Sched<'_>) {
        let kind = match msg.kind {
            MsgKind::RdBlk => MsgKind::Resp { data: LineData::zeroed(), grant: Grant::Shared },
            MsgKind::WriteThrough { .. } => MsgKind::WtAck,
            MsgKind::AtomicReq { .. } => MsgKind::AtomicResp { old: 0 },
            MsgKind::Flush => MsgKind::FlushAck,
            ref k => panic!("fake directory got {}", k.class_name()),
        };
        sched.send(now, Message::new(AgentId::Directory, msg.src, msg.line, kind));
    }
}

fn gpu(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let cluster = |streaming: bool| {
        let programs: Vec<Vec<Box<dyn WavefrontProgram>>> = (0..cfg.gpu.cus as u64)
            .map(|cu| {
                (0..2)
                    .map(|wf| {
                        let index = cu * 2 + wf;
                        let (base, pause) = (0x100_0000 * (1 + index), 3 + index);
                        Box::new(Wave { base, streaming, pause, i: 0 }) as Box<dyn WavefrontProgram>
                    })
                    .collect()
            })
            .collect();
        GpuCluster::new(0, programs, cfg.gpu)
    };
    let total = WARM_INPUTS + effort.ops;

    let inputs = record(&mut cluster(false), &mut FakeGpuDirectory, cfg.network, total);
    // The slowest wavefronts are still fetching their last code lines.
    let fills = msgs_in(&inputs[WARM_INPUTS..]);
    assert!(fills * 1000 < effort.ops, "the wake testbench must hit in the TCP ({fills} fills)");
    let name = "cluster.gpu.wake_ns";
    let ns = bench_replay(spans, name, effort, (&inputs, WARM_INPUTS), Charge::PerInput, || {
        cluster(false)
    });
    out.put(name, ns, "ns");

    // Every wake re-arms the cluster's next wake, so wakes outnumber the
    // fills, write-through acks and atomic results by two orders of
    // magnitude here as in the CHAI runs; only the messages are charged.
    let inputs = record(&mut cluster(true), &mut FakeGpuDirectory, cfg.network, total);
    let name = "cluster.gpu.msg_ns";
    let ns =
        bench_replay(spans, name, effort, (&inputs, WARM_INPUTS), Charge::MessagesOnly, || {
            cluster(true)
        });
    out.put(name, ns, "ns");
}

// ----------------------------------------------------------------------
// DMA engine: one long read and one long write, the bench acks each line
// ----------------------------------------------------------------------

struct FakeDmaDirectory;

impl Peers for FakeDmaDirectory {
    fn on_message(&mut self, now: Tick, msg: &Message, sched: &mut Sched<'_>) {
        let kind = match msg.kind {
            MsgKind::DmaRd => MsgKind::DmaRdResp { data: LineData::zeroed() },
            MsgKind::DmaWr { .. } => MsgKind::DmaWrAck,
            ref k => panic!("fake directory got {}", k.class_name()),
        };
        sched.send(now, Message::new(AgentId::Directory, msg.src, msg.line, kind));
    }
}

fn dma(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let lines = effort.ops as u64 / 2;
    let engine = || {
        let read = DmaCommand::Read { base: Addr(0x100_0000), lines, at: Tick::ZERO };
        let words = (0..lines * 8).collect();
        let write = DmaCommand::Write { base: Addr(0x4000_0000), words, at: Tick::ZERO };
        DmaEngine::new(vec![read, write], 8)
    };
    let inputs = record(&mut engine(), &mut FakeDmaDirectory, cfg.network, usize::MAX);
    let done = msgs_in(&inputs);
    assert_eq!(done as u64, 2 * lines, "every line is acknowledged exactly once");
    // One message per line; the engine's few wakes are part of moving them.
    let name = "cluster.dma.line_ns";
    let ns = bench_replay(spans, name, effort, (&inputs, 0), Charge::PerMessage, engine);
    out.put(name, ns, "ns");
}

/// Every controller testbench.
pub fn run(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    directory(spans, effort, out);
    memctl(spans, effort, out);
    corepair(spans, effort, out);
    gpu(spans, effort, out);
    dma(spans, effort, out);
}

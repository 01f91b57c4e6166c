//! Testbenches for the passive data structures: the timing wheel, the
//! tag array, MSHRs, the victim buffer, the network, the outbox, the
//! tracking table and the LLC. Geometries are `SystemConfig::scaled`'s.

use std::hint::black_box;

use hsc_benchmark::{MetricMap, Spans};
use hsc_core::tracking::{plan, DirState, PlanReq, Requester};
use hsc_core::{CoherenceConfig, DirectoryMode, Llc, SystemConfig};
use hsc_mem::{CacheArray, CacheGeometry, LineAddr, LineData, Mshr, VictimBuffer};
use hsc_noc::{AgentId, Message, MsgKind, Network, Outbox, ProbeKind};
use hsc_sim::{DetRng, Tick, WheelQueue};

use crate::harness::{bench, Effort};

/// The delays the run loop schedules most: wake now, directory↔memory hop,
/// cache↔directory hop, DRAM access.
const NEAR_DELTAS: [u64; 4] = [0, 140, 700, 2310];
/// Upper end of the far-delay testbench: compute phases and watchdog-scale
/// sleeps land events this far out, in the wheel's upper levels.
const FAR_DELTA_MAX: u64 = 1_000_000;

fn message(i: u64) -> Message {
    let line = LineAddr(i);
    match i % 4 {
        0 => Message::new(AgentId::CorePairL2(0), AgentId::Directory, line, MsgKind::RdBlk),
        1 => Message::new(
            AgentId::Directory,
            AgentId::CorePairL2(1),
            line,
            MsgKind::Probe { kind: ProbeKind::Invalidate },
        ),
        2 => Message::new(AgentId::Directory, AgentId::Memory, line, MsgKind::MemRd),
        _ => Message::new(
            AgentId::Memory,
            AgentId::Directory,
            line,
            MsgKind::MemRdResp { data: LineData::zeroed() },
        ),
    }
}

/// The classic hold model at a fixed depth: pop the earliest event, put
/// one back `delta` later. One op = one pop + one schedule, which is what
/// the run loop pays per event in steady state. The payload is a
/// `Message`, as in the system's own queue.
fn wheel_hold(
    spans: &mut Spans,
    name: &str,
    effort: Effort,
    depth: usize,
    delta: impl Fn(&mut DetRng, usize) -> u64,
) -> f64 {
    bench(
        spans,
        name,
        effort,
        || {
            let mut rng = DetRng::new(7);
            let mut q = WheelQueue::new();
            for i in 0..depth.max(1) {
                q.schedule(Tick(delta(&mut rng, i)), message(i as u64));
            }
            (q, rng)
        },
        |(q, rng)| {
            for i in 0..effort.ops {
                let (t, m) = q.pop().expect("hold keeps the depth constant");
                q.schedule(t + delta(rng, i), m);
            }
            effort.ops
        },
    )
}

/// `sim.wheel.hold_ns_near` and `_far` at one queue depth.
pub fn wheel(spans: &mut Spans, effort: Effort, depth: usize) -> (f64, f64) {
    let near =
        wheel_hold(spans, "sim.wheel.hold_ns_near", effort, depth, |_, i| NEAR_DELTAS[i % 4]);
    let far = wheel_hold(spans, "sim.wheel.hold_ns_far", effort, depth, |rng, _| {
        rng.next_below(FAR_DELTA_MAX)
    });
    (near, far)
}

fn full_array(geometry: CacheGeometry) -> CacheArray<u64> {
    let mut arr = CacheArray::new(geometry);
    for i in 0..geometry.lines() as u64 {
        arr.insert(LineAddr(i), i);
    }
    arr
}

fn array(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
    let w8 = CacheGeometry::new(cfg.cpu.l2_bytes, cfg.cpu.l2_ways);
    let w32 = CacheGeometry::from_lines(cfg.uncore.dir_entries, cfg.uncore.dir_ways);
    assert_eq!((w8.ways(), w32.ways()), (8, 32), "metric names carry the associativity");

    for (suffix, geometry) in [("w8", w8), ("w32", w32)] {
        let lines = geometry.lines() as u64;
        // Hit: `get` + `touch`, what every controller does on a hit.
        let name = format!("mem.array.lookup_hit_ns_{suffix}");
        let ns = bench(
            spans,
            &name,
            effort,
            || full_array(geometry),
            |arr| {
                let mut acc = 0u64;
                for i in 0..effort.ops as u64 {
                    let la = LineAddr(i.wrapping_mul(131) % lines);
                    acc = acc.wrapping_add(*arr.get(la).expect("resident"));
                    arr.touch(la);
                }
                black_box(acc);
                effort.ops
            },
        );
        out.put(&name, ns, "ns");

        // Replace: insert into a full set, displacing the Tree-PLRU victim.
        let name = format!("mem.array.replace_ns_{suffix}");
        let ns = bench(
            spans,
            &name,
            effort,
            || full_array(geometry),
            |arr| {
                for i in 0..effort.ops as u64 {
                    black_box(arr.insert(LineAddr(lines + i), i));
                }
                effort.ops
            },
        );
        out.put(&name, ns, "ns");
    }

    let lines = w8.lines() as u64;
    let ns = bench(
        spans,
        "mem.array.lookup_miss_ns_w8",
        effort,
        || full_array(w8),
        |arr| {
            let mut misses = 0usize;
            for i in 0..effort.ops as u64 {
                misses += usize::from(arr.get(LineAddr(lines + i.wrapping_mul(131))).is_none());
            }
            assert_eq!(misses, effort.ops);
            effort.ops
        },
    );
    out.put("mem.array.lookup_miss_ns_w8", ns, "ns");

    // The state-aware directory replacement path: score every way, then
    // displace among the lowest-scored.
    let lines = w32.lines() as u64;
    let score = |_: LineAddr, v: &u64| (*v & 3) as u32;
    let ns = bench(
        spans,
        "mem.array.replace_scored_ns_w32",
        effort,
        || full_array(w32),
        |arr| {
            for i in 0..effort.ops as u64 {
                let la = LineAddr(lines + i);
                black_box(arr.would_evict_scored(la, score));
                black_box(arr.insert_scored(la, i, score));
            }
            effort.ops
        },
    );
    out.put("mem.array.replace_scored_ns_w32", ns, "ns");
}

fn mshr_and_victim(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    // Half-full, as the mshr_occupancy gauge reads on the busy workloads.
    let resident = cfg.cpu.mshr_capacity as u64 / 2;
    let ns = bench(
        spans,
        "mem.mshr.alloc_remove_ns",
        effort,
        || {
            let mut m: Mshr<u64> = Mshr::new(cfg.cpu.mshr_capacity);
            for i in 0..resident {
                m.alloc(LineAddr(i * 97), i).expect("below capacity");
            }
            m
        },
        |m| {
            for i in 0..effort.ops as u64 {
                let la = LineAddr(1_000_000 + i.wrapping_mul(131) % 4096);
                m.alloc(la, i).expect("below capacity");
                black_box(m.remove(la));
            }
            effort.ops
        },
    );
    out.put("mem.mshr.alloc_remove_ns", ns, "ns");

    let ns = bench(
        spans,
        "mem.victim.park_release_ns",
        effort,
        || {
            let mut v = VictimBuffer::new();
            for i in 0..4 {
                v.park(LineAddr(i * 97), LineData::zeroed(), i % 2 == 0);
            }
            v
        },
        |v| {
            for i in 0..effort.ops as u64 {
                let la = LineAddr(1_000_000 + i.wrapping_mul(131) % 4096);
                v.park(la, LineData::zeroed(), true);
                black_box(v.release(la));
            }
            effort.ops
        },
    );
    out.put("mem.victim.park_release_ns", ns, "ns");
}

fn noc(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let latency = SystemConfig::scaled(CoherenceConfig::baseline()).network;
    let msgs: Vec<Message> = (0..64).map(message).collect();
    let ns = bench(
        spans,
        "noc.network.send_ns",
        effort,
        || Network::new(latency),
        |net| {
            for i in 0..effort.ops {
                black_box(net.send(Tick(i as u64), &msgs[i % msgs.len()]).expect("real link"));
            }
            effort.ops
        },
    );
    out.put("noc.network.send_ns", ns, "ns");

    // One op = one action staged and drained; three per event, the mix a
    // directory request produces (a send, a delayed send, a wake).
    let ns = bench(
        spans,
        "noc.outbox.stage_drain_ns",
        effort,
        || Outbox::new(Tick::ZERO),
        |o| {
            for i in 0..effort.ops / 3 {
                o.reset(Tick(i as u64));
                o.send(msgs[i % msgs.len()]);
                o.send_after(700, msgs[(i + 1) % msgs.len()]);
                o.wake_after(1400);
                for act in o.drain_actions() {
                    black_box(act);
                }
            }
            effort.ops / 3 * 3
        },
    );
    out.put("noc.outbox.stage_drain_ns", ns, "ns");
}

fn tracking(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    use DirState::{I, O, S};
    use PlanReq as R;
    use Requester::{Cpu, CpuOwner, Tcc};
    // Legal rows of Table I, weighted towards the read/write misses and
    // victims that make up a tracked run.
    let rows = [
        (I, R::RdBlk, Cpu),
        (I, R::RdBlkM, Cpu),
        (S, R::RdBlk, Cpu),
        (S, R::RdBlkM, Cpu),
        (O, R::RdBlk, Cpu),
        (O, R::RdBlkM, Cpu),
        (O, R::RdBlkM, CpuOwner),
        (O, R::VicDirty, CpuOwner),
        (O, R::VicClean, CpuOwner),
        (S, R::VicClean, Cpu),
        (I, R::RdBlk, Tcc),
        (S, R::WriteThrough { retains: true }, Tcc),
        (O, R::Atomic, Tcc),
        (I, R::Atomic, Tcc),
        (O, R::RdBlk, Tcc),
        (S, R::RdBlkS, Cpu),
    ];
    let ns = bench(
        spans,
        "core.tracking.plan_ns",
        effort,
        || (),
        |()| {
            for i in 0..effort.ops {
                let (state, req, from) = black_box(rows[i % rows.len()]);
                black_box(plan(DirectoryMode::SharerTracking, state, req, from));
            }
            effort.ops
        },
    );
    out.put("core.tracking.plan_ns", ns, "ns");
}

fn llc(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    let geometry = CacheGeometry::new(cfg.uncore.llc_bytes, cfg.uncore.llc_ways);
    let lines = geometry.lines() as u64;
    let full = || {
        let mut llc = Llc::new(geometry);
        for i in 0..lines {
            llc.write(LineAddr(i), LineData::zeroed(), false);
        }
        llc
    };
    let ns = bench(spans, "core.llc.read_hit_ns", effort, full, |llc| {
        for i in 0..effort.ops as u64 {
            black_box(llc.read(LineAddr(i.wrapping_mul(131) % lines)).expect("resident"));
        }
        effort.ops
    });
    out.put("core.llc.read_hit_ns", ns, "ns");

    let ns = bench(spans, "core.llc.write_evict_ns", effort, full, |llc| {
        for i in 0..effort.ops as u64 {
            black_box(llc.write(LineAddr(lines + i), LineData::zeroed(), true));
        }
        effort.ops
    });
    out.put("core.llc.write_evict_ns", ns, "ns");
}

/// Every data-structure testbench except the wheel (which takes a depth).
pub fn run(spans: &mut Spans, effort: Effort, out: &mut MetricMap) {
    array(spans, effort, out);
    mshr_and_victim(spans, effort, out);
    noc(spans, effort, out);
    tracking(spans, effort, out);
    llc(spans, effort, out);
}

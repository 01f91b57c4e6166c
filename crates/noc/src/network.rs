use std::fmt;

use hsc_sim::{DetRng, StatSet, Tick};

use crate::message::class_slot;
use crate::{AgentId, ClassCounts, FaultPlan, FaultTargets, Message};

/// A message was sent between two agents that share no link in this
/// topology (every path goes through the directory).
///
/// Surfaced by `hsc_core::System::run` as [`SimError::Wiring`](crate::SimError::Wiring) instead of a
/// panic, so a mis-wired controller produces a diagnosable error value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WiringError {
    /// The sending agent.
    pub src: AgentId,
    /// The (unreachable) receiving agent.
    pub dst: AgentId,
}

impl fmt::Display for WiringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no direct link {}→{} in this topology", self.src, self.dst)
    }
}

impl std::error::Error for WiringError {}

/// One-way hop latencies of the system interconnect, in ticks (35 per GPU cycle).
///
/// The network is contention-free with constant per-pair latency. Constant
/// latency plus the FIFO tie-breaking of `hsc_sim::WheelQueue` keeps the
/// messages *toward the directory* in send order, which both the MOESI and
/// VIPER protocol implementations rely on (e.g. a VicDirty is never
/// overtaken by the probe-ack sent after it).
///
/// The other direction is not in send order. The directory sends probes
/// and the stale-victim `VicAck` through `send_after(dir_cycles)`, after
/// its lookup, and every other message at once, so a reply sent later can
/// reach a cache before a probe sent earlier. ROADMAP, "Model-check under
/// the ordering the timed network actually keeps", (ii), counts those
/// overtakes: 39,473 of 1,818,482 sends in `hsc fig 6`/`7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyMap {
    /// Hop between any cache/DMA agent and the directory.
    pub cache_dir: u64,
    /// Hop between the directory and the memory controller.
    pub dir_mem: u64,
}

impl Default for LatencyMap {
    /// 30 ticks cache↔directory, 10 directory↔memory-controller: a map for
    /// unit tests, not the system's (`SystemConfig` sets 700 and 140 ticks,
    /// 20 and 4 GPU cycles). DRAM time is modelled in the memory controller.
    fn default() -> Self {
        LatencyMap { cache_dir: 30, dir_mem: 10 }
    }
}

impl LatencyMap {
    /// One-way latency from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`WiringError`] on src/dst pairs that never communicate
    /// directly (e.g. L2→L2): in this topology every path goes through the
    /// directory, so such a message is a wiring bug.
    pub fn one_way(&self, src: AgentId, dst: AgentId) -> Result<u64, WiringError> {
        use AgentId::{Directory, Memory};
        match (src, dst) {
            (Directory, Memory) | (Memory, Directory) => Ok(self.dir_mem),
            (Directory, d) if d.is_probe_target() || d == AgentId::Dma => Ok(self.cache_dir),
            (s, Directory) if s.is_probe_target() || s == AgentId::Dma => Ok(self.cache_dir),
            (src, dst) => Err(WiringError { src, dst }),
        }
    }
}

/// What happens to a message entering the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Normal delivery at the given tick.
    Deliver(Tick),
    /// Duplicate fault: two deliveries of the same message.
    Twice(Tick, Tick),
    /// Drop fault: the message vanishes in the interconnect.
    Dropped,
}

/// The system interconnect: timestamps deliveries, counts every message
/// by class and, given a [`FaultPlan`], injects deterministic faults.
///
/// The paper's Figure 7 (probes sent out from the directory) and parts of
/// Figure 5 (directory↔memory reads/writes) are read off these counters at
/// the end of a run.
///
/// Fault injection (see [`FaultPlan`]) drops or duplicates messages of
/// selected classes, driven by a [`DetRng`] seeded from the plan — the
/// transient failures a robust protocol must survive or at least
/// diagnose. Every injected fault is counted under `faults.*`. Without a
/// plan `send` makes no RNG draw and the `faults.*` counters never
/// export, so fault-free runs are byte-identical to a network that had
/// no fault layer.
///
/// # Examples
///
/// ```
/// use hsc_mem::LineAddr;
/// use hsc_noc::{AgentId, Delivery, LatencyMap, Message, MsgKind, Network};
/// use hsc_sim::Tick;
///
/// let mut net = Network::new(LatencyMap::default());
/// let m = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(1), MsgKind::RdBlk);
/// assert_eq!(net.send(Tick(100), &m).unwrap(), Delivery::Deliver(Tick(130)));
/// assert_eq!(net.stats().get("net.msg.RdBlk"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyMap,
    n: NetCounts,
    plan: Option<FaultPlan>,
    rng: DetRng,
    injected: u64,
}

/// Every count the network keeps, by message class. [`Network::stats`]
/// names them and derives the totals it reports from them.
#[derive(Debug, Clone, Copy, Default)]
struct NetCounts {
    /// Messages accepted.
    msg: ClassCounts,
    /// Messages a fault dropped.
    dropped: ClassCounts,
    /// Messages a fault duplicated.
    duplicated: ClassCounts,
}

impl Network {
    /// Creates a fault-free network with the given latencies.
    #[must_use]
    pub fn new(latency: LatencyMap) -> Self {
        Network { latency, n: NetCounts::default(), plan: None, rng: DetRng::new(0), injected: 0 }
    }

    /// Installs a fault plan (`None` keeps the network fault-free).
    ///
    /// # Panics
    ///
    /// Panics if the plan targets a [`FaultTargets::Class`] that names no
    /// message class: a mistyped class would inject nothing.
    #[must_use]
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        if let Some(FaultPlan { targets: FaultTargets::Class(class), .. }) = plan {
            class_slot(class);
        }
        self.plan = plan;
        self.rng = DetRng::new(plan.map_or(0, |p| p.seed));
        self
    }

    /// Switches to *immediate delivery* by installing a zero-latency map:
    /// every accepted message arrives at its send tick (a duplicate's copy
    /// too, so the pair collapses to two same-tick deliveries).
    ///
    /// This hands delivery *ordering* to whoever drains the event queue —
    /// with latencies flattened to zero, which message is handled next is
    /// purely the driver's choice. The model checker uses this to explore
    /// all interleavings rather than the one FIFO timing would pick.
    /// Wiring validation, faults and traffic statistics are unaffected.
    pub fn set_immediate_delivery(&mut self) {
        self.latency = LatencyMap { cache_dir: 0, dir_mem: 0 };
    }

    /// Accepts `msg` at time `now`, records traffic statistics and applies
    /// any planned fault.
    ///
    /// The message is counted as traffic even when a fault drops it (it
    /// entered the interconnect); faults decide what comes out.
    ///
    /// # Errors
    ///
    /// Returns [`WiringError`] when no link exists between `msg.src` and
    /// `msg.dst`; nothing is counted in that case.
    #[inline]
    pub fn send(&mut self, now: Tick, msg: &Message) -> Result<Delivery, WiringError> {
        let arrive = now + self.latency.one_way(msg.src, msg.dst)?;
        self.n.msg.bump(&msg.kind);
        Ok(match self.plan {
            None => Delivery::Deliver(arrive),
            Some(plan) => self.inject(plan, arrive, msg),
        })
    }

    /// The fault half of [`Network::send`], kept out of line so the
    /// fault-free path stays small. Each draw is guarded by its own
    /// `ppm > 0`, so a plan draws only for the faults it can inject.
    #[inline(never)]
    fn inject(&mut self, plan: FaultPlan, arrive: Tick, msg: &Message) -> Delivery {
        const PPM: u64 = 1_000_000;
        if self.injected >= plan.max_faults || !plan.targets.matches(msg) {
            return Delivery::Deliver(arrive);
        }
        if plan.drop_ppm > 0 && self.rng.chance(u64::from(plan.drop_ppm), PPM) {
            self.injected += 1;
            self.n.dropped.bump(&msg.kind);
            return Delivery::Dropped;
        }
        if plan.dup_ppm > 0 && self.rng.chance(u64::from(plan.dup_ppm), PPM) {
            self.injected += 1;
            self.n.duplicated.bump(&msg.kind);
            // The copy takes one extra hop worth of latency so the pair
            // stays ordered (original first). Under immediate delivery the
            // hop is zero and the explorer owns their relative order.
            return Delivery::Twice(arrive, arrive + self.latency.cache_dir);
        }
        Delivery::Deliver(arrive)
    }

    /// Statistics exported for reports: traffic (`net.msg.<Class>`, and the
    /// totals `net.probes_total`, `net.mem_reads`, `net.mem_writes` summed
    /// from it) and faults (`faults.dropped[.<Class>]`,
    /// `faults.duplicated[.<Class>]`, absent until one fires).
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let mut s = StatSet::new();
        n.msg.export("net.msg", &[], &mut s);
        s.set("net.probes_total", self.probes_sent());
        s.set("net.mem_reads", self.mem_reads());
        s.set("net.mem_writes", self.mem_writes());
        s.set_nonzero("faults.dropped", n.dropped.total());
        n.dropped.export("faults.dropped", &[], &mut s);
        s.set_nonzero("faults.duplicated", n.duplicated.total());
        n.duplicated.export("faults.duplicated", &[], &mut s);
        s
    }

    /// Total faults injected so far (0 without a plan).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Total messages accepted, all classes — the dense-array replacement
    /// for summing the exported `net.msg.*` keys (the per-epoch sampler
    /// reads this every boundary).
    #[must_use]
    pub fn messages_total(&self) -> u64 {
        self.n.msg.total()
    }

    /// Total probes the directory has sent (`PrbInv` plus `PrbDown`).
    #[must_use]
    pub fn probes_sent(&self) -> u64 {
        self.n.msg.get("PrbInv") + self.n.msg.get("PrbDown")
    }

    /// Total directory→memory reads (`MemRd`).
    #[must_use]
    pub fn mem_reads(&self) -> u64 {
        self.n.msg.get("MemRd")
    }

    /// Total directory→memory writes (`MemWr`).
    #[must_use]
    pub fn mem_writes(&self) -> u64 {
        self.n.msg.get("MemWr")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgKind, ProbeKind};
    use hsc_mem::{LineAddr, LineData};

    fn msg(src: AgentId, dst: AgentId, kind: MsgKind) -> Message {
        Message::new(src, dst, LineAddr(0), kind)
    }

    #[test]
    fn latency_is_per_pair() {
        let l = LatencyMap { cache_dir: 7, dir_mem: 3 };
        assert_eq!(l.one_way(AgentId::CorePairL2(0), AgentId::Directory), Ok(7));
        assert_eq!(l.one_way(AgentId::Directory, AgentId::Tcc(0)), Ok(7));
        assert_eq!(l.one_way(AgentId::Dma, AgentId::Directory), Ok(7));
        assert_eq!(l.one_way(AgentId::Directory, AgentId::Memory), Ok(3));
        assert_eq!(l.one_way(AgentId::Memory, AgentId::Directory), Ok(3));
    }

    #[test]
    fn cache_to_cache_is_a_wiring_error() {
        let l = LatencyMap::default();
        let err = l.one_way(AgentId::CorePairL2(0), AgentId::CorePairL2(1)).unwrap_err();
        assert_eq!(err.src, AgentId::CorePairL2(0));
        assert_eq!(err.dst, AgentId::CorePairL2(1));
        assert!(err.to_string().contains("no direct link"));
        // A mis-wired send counts nothing.
        let mut net = Network::new(l);
        assert!(net
            .send(Tick(0), &msg(AgentId::CorePairL2(0), AgentId::CorePairL2(1), MsgKind::RdBlk))
            .is_err());
        assert_eq!(net.stats().get("net.msg.RdBlk"), 0);
    }

    #[test]
    fn send_timestamps_with_one_way_latency() {
        let mut net = Network::new(LatencyMap { cache_dir: 5, dir_mem: 2 });
        let t = net.send(Tick(10), &msg(AgentId::Directory, AgentId::Memory, MsgKind::MemRd));
        assert_eq!(t, Ok(Delivery::Deliver(Tick(12))));
    }

    #[test]
    fn probe_counter_aggregates_both_kinds() {
        let mut net = Network::new(LatencyMap::default());
        for kind in [ProbeKind::Invalidate, ProbeKind::Downgrade] {
            net.send(
                Tick(0),
                &msg(AgentId::Directory, AgentId::CorePairL2(0), MsgKind::Probe { kind }),
            )
            .unwrap();
        }
        assert_eq!(net.probes_sent(), 2);
        assert_eq!(net.stats().get("net.msg.PrbInv"), 1);
        assert_eq!(net.stats().get("net.msg.PrbDown"), 1);
    }

    #[test]
    fn memory_traffic_counters_split_reads_and_writes() {
        let mut net = Network::new(LatencyMap::default());
        net.send(Tick(0), &msg(AgentId::Directory, AgentId::Memory, MsgKind::MemRd)).unwrap();
        net.send(
            Tick(0),
            &msg(
                AgentId::Directory,
                AgentId::Memory,
                MsgKind::MemWr { data: LineData::zeroed(), mask: crate::WordMask::full() },
            ),
        )
        .unwrap();
        net.send(
            Tick(0),
            &msg(
                AgentId::Memory,
                AgentId::Directory,
                MsgKind::MemRdResp { data: LineData::zeroed() },
            ),
        )
        .unwrap();
        assert_eq!(net.mem_reads(), 1);
        assert_eq!(net.mem_writes(), 1);
        assert_eq!(net.stats().get("net.msg.MemRdResp"), 1);
    }

    #[test]
    fn fifo_ordering_holds_for_constant_latency() {
        // Two messages on the same pair sent at t and t+1 arrive in order.
        let mut net = Network::new(LatencyMap::default());
        let mut arrival = |t, kind| match net
            .send(Tick(t), &msg(AgentId::CorePairL2(0), AgentId::Directory, kind))
        {
            Ok(Delivery::Deliver(at)) => at,
            other => panic!("a fault-free network delivers once, got {other:?}"),
        };
        assert!(arrival(0, MsgKind::RdBlk) < arrival(1, MsgKind::Unblock));
    }
}

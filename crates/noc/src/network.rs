use std::fmt;

use hsc_sim::{CounterId, Counters, StatSet, Tick};

use crate::{AgentId, ClassCounters, Message, MsgKind};

/// A message was sent between two agents that share no link in this
/// topology (every path goes through the directory).
///
/// Surfaced by `hsc_core::System::run` as `SimError::Wiring` instead of a
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

/// One-way hop latencies of the system interconnect, in GPU cycles.
///
/// The network is contention-free with constant per-pair latency. Constant
/// latency plus the FIFO tie-breaking of `hsc_sim::WheelQueue` yields
/// point-to-point ordering, which both the MOESI and VIPER protocol
/// implementations rely on (e.g. a VicDirty is never overtaken by the
/// probe-ack sent after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyMap {
    /// Hop between any cache/DMA agent and the directory.
    pub cache_dir: u64,
    /// Hop between the directory and the memory controller.
    pub dir_mem: u64,
}

impl Default for LatencyMap {
    /// 30 cycles cache↔directory, 10 cycles directory↔memory-controller
    /// (DRAM access time itself is modelled in the memory controller).
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

/// The system interconnect: timestamps deliveries and counts every message
/// by class.
///
/// The paper's Figure 7 (probes sent out from the directory) and parts of
/// Figure 5 (directory↔memory reads/writes) are read off these counters at
/// the end of a run.
///
/// # Examples
///
/// ```
/// use hsc_mem::LineAddr;
/// use hsc_noc::{AgentId, LatencyMap, Message, MsgKind, Network};
/// use hsc_sim::Tick;
///
/// let mut net = Network::new(LatencyMap::default());
/// let m = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(1), MsgKind::RdBlk);
/// let arrive = net.send(Tick(100), &m).unwrap();
/// assert_eq!(arrive, Tick(130));
/// assert_eq!(net.stats().get("net.msg.RdBlk"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyMap,
    counters: Counters,
    by_class: ClassCounters,
    probes_total: CounterId,
    mem_reads: CounterId,
    mem_writes: CounterId,
}

impl Network {
    /// Creates a network with the given latencies.
    #[must_use]
    pub fn new(latency: LatencyMap) -> Self {
        let mut counters = Counters::new();
        let by_class = ClassCounters::register_hidden(&mut counters, "net.msg");
        let probes_total = counters.register("net.probes_total");
        let mem_reads = counters.register("net.mem_reads");
        let mem_writes = counters.register("net.mem_writes");
        Network { latency, counters, by_class, probes_total, mem_reads, mem_writes }
    }

    /// Accepts `msg` at time `now`; returns its delivery time and records
    /// traffic statistics.
    ///
    /// # Errors
    ///
    /// Returns [`WiringError`] when no link exists between `msg.src` and
    /// `msg.dst`; nothing is counted in that case.
    pub fn send(&mut self, now: Tick, msg: &Message) -> Result<Tick, WiringError> {
        let lat = self.latency.one_way(msg.src, msg.dst)?;
        self.count(msg);
        Ok(now + lat)
    }

    fn count(&mut self, msg: &Message) {
        self.counters.bump(self.by_class.id(&msg.kind));
        if msg.kind.is_probe() {
            self.counters.bump(self.probes_total);
        }
        match msg.kind {
            MsgKind::MemRd => self.counters.bump(self.mem_reads),
            MsgKind::MemWr { .. } => self.counters.bump(self.mem_writes),
            _ => {}
        }
    }

    /// Traffic counters exported for reports: `net.msg.<Class>`,
    /// `net.probes_total`, `net.mem_reads`, `net.mem_writes`.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        self.counters.export()
    }

    /// Total messages accepted, all classes — the dense-array replacement
    /// for summing the exported `net.msg.*` keys (the per-epoch sampler
    /// reads this every boundary).
    #[must_use]
    pub fn messages_total(&self) -> u64 {
        self.by_class.total(&self.counters)
    }

    /// Total probes the directory has sent.
    #[must_use]
    pub fn probes_sent(&self) -> u64 {
        self.counters.get(self.probes_total)
    }

    /// Total directory→memory reads.
    #[must_use]
    pub fn mem_reads(&self) -> u64 {
        self.counters.get(self.mem_reads)
    }

    /// Total directory→memory writes.
    #[must_use]
    pub fn mem_writes(&self) -> u64 {
        self.counters.get(self.mem_writes)
    }

    /// The configured latencies.
    #[must_use]
    pub fn latency_map(&self) -> LatencyMap {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeKind;
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
        assert_eq!(t, Ok(Tick(12)));
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
        let a = net
            .send(Tick(0), &msg(AgentId::CorePairL2(0), AgentId::Directory, MsgKind::RdBlk))
            .unwrap();
        let b = net
            .send(Tick(1), &msg(AgentId::CorePairL2(0), AgentId::Directory, MsgKind::Unblock))
            .unwrap();
        assert!(a < b);
    }
}

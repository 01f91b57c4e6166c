//! Deterministic fault injection on top of [`Network`].
//!
//! [`FaultyNetwork`] wraps the interconnect and, driven by a seeded
//! [`DetRng`], can **drop**, **duplicate** or **extra-delay** messages of
//! selected classes — the transient failures a robust coherence protocol
//! must survive (or at least diagnose). Every injected fault is counted,
//! and the whole layer is *zero-cost when disabled*: with no
//! [`FaultPlan`], `send` is a plain forward to [`Network::send`] with no
//! RNG draws and no extra statistics, so fault-free runs produce
//! byte-identical metrics to a build without this module.
//!
//! Caveat on delay faults: the protocols rely on the point-to-point FIFO
//! ordering that *constant* per-pair latency provides. An extra-delayed
//! message can be overtaken by a later one, which exercises reordering
//! tolerance the protocol does not promise — use `delay_ppm` for targeted
//! stress tests, and drops/duplicates for campaigns that assert recovery.

use hsc_sim::{CounterId, Counters, DetRng, StatSet, Tick};

use crate::network::{Network, WiringError};
use crate::{ClassCounters, Message};

/// Which message classes a [`FaultPlan`] may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultTargets {
    /// Every message class is eligible.
    #[default]
    All,
    /// Only directory-bound request classes (RdBlk*, Vic*, WT, Atomic,
    /// Flush, DMA).
    Requests,
    /// Only the request classes the retry layer actually re-sends: every
    /// directory-bound request *except* `Atomic`, which is non-idempotent
    /// (a retried fetch-add whose original survived would apply twice) and
    /// therefore never retried.
    RetryableRequests,
    /// Only messages of one exact class (see [`crate::MsgKind::class_name`]),
    /// for surgically inducing a specific loss in tests.
    Class(&'static str),
}

impl FaultTargets {
    /// Whether `msg` is eligible under this target set.
    #[must_use]
    pub fn matches(self, msg: &Message) -> bool {
        match self {
            FaultTargets::All => true,
            FaultTargets::Requests => msg.kind.is_dir_request(),
            FaultTargets::RetryableRequests => {
                msg.kind.is_dir_request() && msg.kind.class_name() != "Atomic"
            }
            FaultTargets::Class(name) => msg.kind.class_name() == name,
        }
    }
}

/// A deterministic description of which faults to inject.
///
/// Rates are in parts-per-million per *message*; decisions are drawn from
/// a [`DetRng`] seeded with `seed`, so the same plan over the same
/// workload injects the same faults every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault-decision RNG.
    pub seed: u64,
    /// Probability (ppm) of silently dropping an eligible message.
    pub drop_ppm: u32,
    /// Probability (ppm) of delivering an eligible message twice.
    pub dup_ppm: u32,
    /// Probability (ppm) of adding [`extra_delay`](FaultPlan::extra_delay)
    /// ticks to an eligible message (see the module docs for the ordering
    /// caveat).
    pub delay_ppm: u32,
    /// Ticks added by a delay fault.
    pub extra_delay: u64,
    /// Which message classes may be touched.
    pub targets: FaultTargets,
    /// Upper bound on the total number of injected faults (`u64::MAX` for
    /// unlimited). `max_faults: 1` gives a deterministic single-fault run.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan that drops eligible messages at `drop_ppm` and does nothing
    /// else.
    #[must_use]
    pub fn drops(seed: u64, drop_ppm: u32) -> FaultPlan {
        FaultPlan {
            seed,
            drop_ppm,
            dup_ppm: 0,
            delay_ppm: 0,
            extra_delay: 0,
            targets: FaultTargets::All,
            max_faults: u64::MAX,
        }
    }

    /// A plan that deterministically drops exactly the first eligible
    /// message of class `class` (rate 100%, budget 1) — the canonical way
    /// to induce one specific loss in a test.
    #[must_use]
    pub fn drop_first(class: &'static str) -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_ppm: 1_000_000,
            dup_ppm: 0,
            delay_ppm: 0,
            extra_delay: 0,
            targets: FaultTargets::Class(class),
            max_faults: 1,
        }
    }

    /// Same plan with a different target set.
    #[must_use]
    pub fn with_targets(mut self, targets: FaultTargets) -> FaultPlan {
        self.targets = targets;
        self
    }
}

/// What happened to a message entering the (possibly faulty) network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Normal delivery at the given tick.
    Deliver(Tick),
    /// Duplicate fault: two deliveries of the same message.
    Twice(Tick, Tick),
    /// Drop fault: the message vanishes in the interconnect.
    Dropped,
}

/// [`Network`] plus optional deterministic fault injection.
///
/// # Examples
///
/// ```
/// use hsc_mem::LineAddr;
/// use hsc_noc::{AgentId, Delivery, FaultPlan, FaultyNetwork, LatencyMap, Message, MsgKind};
/// use hsc_sim::Tick;
///
/// // Deterministically drop the first RdBlk.
/// let mut net = FaultyNetwork::new(LatencyMap::default(), Some(FaultPlan::drop_first("RdBlk")));
/// let m = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(1), MsgKind::RdBlk);
/// assert_eq!(net.send(Tick(0), &m).unwrap(), Delivery::Dropped);
/// assert_eq!(net.faults_injected(), 1);
/// // Budget exhausted: the next one sails through.
/// assert_eq!(net.send(Tick(5), &m).unwrap(), Delivery::Deliver(Tick(35)));
/// ```
#[derive(Debug, Clone)]
pub struct FaultyNetwork {
    inner: Network,
    plan: Option<FaultPlan>,
    rng: DetRng,
    injected: u64,
    immediate: bool,
    counters: Counters,
    ids: FaultIds,
}

/// Interned ids for the fault counters, all hidden: a fault-free run
/// exports an empty set, exactly like the old on-demand string keys.
#[derive(Debug, Clone)]
struct FaultIds {
    dropped: CounterId,
    dropped_by_class: ClassCounters,
    duplicated: CounterId,
    duplicated_by_class: ClassCounters,
    delayed: CounterId,
    delayed_by_class: ClassCounters,
}

impl FaultIds {
    fn register(counters: &mut Counters) -> FaultIds {
        FaultIds {
            dropped: counters.register_hidden("faults.dropped"),
            dropped_by_class: ClassCounters::register_hidden(counters, "faults.dropped"),
            duplicated: counters.register_hidden("faults.duplicated"),
            duplicated_by_class: ClassCounters::register_hidden(counters, "faults.duplicated"),
            delayed: counters.register_hidden("faults.delayed"),
            delayed_by_class: ClassCounters::register_hidden(counters, "faults.delayed"),
        }
    }
}

impl FaultyNetwork {
    /// Creates a network with the given latencies and optional fault plan.
    #[must_use]
    pub fn new(latency: crate::LatencyMap, plan: Option<FaultPlan>) -> FaultyNetwork {
        let mut counters = Counters::new();
        let ids = FaultIds::register(&mut counters);
        FaultyNetwork {
            inner: Network::new(latency),
            plan,
            rng: DetRng::new(plan.map_or(0, |p| p.seed)),
            injected: 0,
            immediate: false,
            counters,
            ids,
        }
    }

    /// Switches to *immediate delivery*: every accepted message arrives at
    /// its send tick instead of after the modelled latency (duplicates
    /// collapse to two same-tick copies; extra-delay faults still add their
    /// delay so the fault stays observable).
    ///
    /// This hands delivery *ordering* to whoever drains the event queue —
    /// with latencies flattened to zero, which message is handled next is
    /// purely the driver's choice. The model checker uses this to explore
    /// all interleavings rather than the one FIFO timing would pick.
    /// Wiring validation and traffic statistics are unaffected.
    pub fn set_immediate_delivery(&mut self, on: bool) {
        self.immediate = on;
    }

    /// Accepts `msg` at `now`, applying any planned fault.
    ///
    /// The message is always counted in the underlying traffic statistics
    /// (it entered the interconnect); faults decide what comes out.
    ///
    /// # Errors
    ///
    /// Returns [`WiringError`] when no link exists between the endpoints.
    pub fn send(&mut self, now: Tick, msg: &Message) -> Result<Delivery, WiringError> {
        let mut arrive = self.inner.send(now, msg)?;
        if self.immediate {
            arrive = now;
        }
        let Some(plan) = self.plan else {
            return Ok(Delivery::Deliver(arrive));
        };
        if self.injected >= plan.max_faults || !plan.targets.matches(msg) {
            return Ok(Delivery::Deliver(arrive));
        }
        const PPM: u64 = 1_000_000;
        if plan.drop_ppm > 0 && self.rng.chance(u64::from(plan.drop_ppm), PPM) {
            self.injected += 1;
            self.counters.bump(self.ids.dropped);
            self.counters.bump(self.ids.dropped_by_class.id(&msg.kind));
            return Ok(Delivery::Dropped);
        }
        if plan.dup_ppm > 0 && self.rng.chance(u64::from(plan.dup_ppm), PPM) {
            self.injected += 1;
            self.counters.bump(self.ids.duplicated);
            self.counters.bump(self.ids.duplicated_by_class.id(&msg.kind));
            // The copy takes one extra hop worth of latency so the pair
            // stays ordered (original first). Under immediate delivery both
            // land now; the explorer owns their relative order.
            let copy_at =
                if self.immediate { arrive } else { arrive + self.inner.latency_map().cache_dir };
            return Ok(Delivery::Twice(arrive, copy_at));
        }
        if plan.delay_ppm > 0 && self.rng.chance(u64::from(plan.delay_ppm), PPM) {
            self.injected += 1;
            self.counters.bump(self.ids.delayed);
            self.counters.bump(self.ids.delayed_by_class.id(&msg.kind));
            return Ok(Delivery::Deliver(arrive + plan.extra_delay));
        }
        Ok(Delivery::Deliver(arrive))
    }

    /// The configured fault plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Per-kind fault counters exported for reports:
    /// `faults.dropped[.<Class>]`, `faults.duplicated[.<Class>]`,
    /// `faults.delayed[.<Class>]`. Counters that never fired are absent,
    /// so a fault-free run exports an empty set.
    #[must_use]
    pub fn fault_stats(&self) -> StatSet {
        self.counters.export()
    }

    /// The underlying network (traffic statistics, latency map).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentId, LatencyMap, MsgKind};
    use hsc_mem::LineAddr;

    fn req(line: u64) -> Message {
        Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(line), MsgKind::RdBlk)
    }

    fn resp(line: u64) -> Message {
        Message::new(
            AgentId::Directory,
            AgentId::CorePairL2(0),
            LineAddr(line),
            MsgKind::Resp { data: hsc_mem::LineData::zeroed(), grant: crate::Grant::Shared },
        )
    }

    #[test]
    fn no_plan_is_transparent() {
        let mut net = FaultyNetwork::new(LatencyMap::default(), None);
        for i in 0..100 {
            assert!(matches!(net.send(Tick(i), &req(i)).unwrap(), Delivery::Deliver(_)));
        }
        assert_eq!(net.faults_injected(), 0);
        assert!(net.fault_stats().is_empty());
        assert_eq!(net.network().stats().get("net.msg.RdBlk"), 100);
    }

    #[test]
    fn drop_first_hits_exactly_one_message_of_the_class() {
        let mut net =
            FaultyNetwork::new(LatencyMap::default(), Some(FaultPlan::drop_first("Resp")));
        // Requests are not the targeted class.
        assert!(matches!(net.send(Tick(0), &req(1)).unwrap(), Delivery::Deliver(_)));
        assert_eq!(net.send(Tick(1), &resp(1)).unwrap(), Delivery::Dropped);
        // Budget of one: later Resps deliver.
        assert!(matches!(net.send(Tick(2), &resp(2)).unwrap(), Delivery::Deliver(_)));
        assert_eq!(net.faults_injected(), 1);
        assert_eq!(net.fault_stats().get("faults.dropped"), 1);
        assert_eq!(net.fault_stats().get("faults.dropped.Resp"), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let plan = FaultPlan::drops(42, 250_000); // 25% drops
        let run = || {
            let mut net = FaultyNetwork::new(LatencyMap::default(), Some(plan));
            (0..200)
                .map(|i| matches!(net.send(Tick(i), &req(i)).unwrap(), Delivery::Dropped))
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run());
        let dropped = a.iter().filter(|&&d| d).count();
        assert!(dropped > 10 && dropped < 100, "25% of 200 ≈ 50, got {dropped}");
    }

    #[test]
    fn duplicates_arrive_in_order_and_delays_add() {
        let mut dup = FaultyNetwork::new(
            LatencyMap::default(),
            Some(FaultPlan { dup_ppm: 1_000_000, ..FaultPlan::drops(7, 0) }),
        );
        match dup.send(Tick(0), &req(1)).unwrap() {
            Delivery::Twice(a, b) => assert!(a < b),
            other => panic!("expected a duplicate, got {other:?}"),
        }
        assert_eq!(dup.fault_stats().get("faults.duplicated.RdBlk"), 1);

        let mut slow = FaultyNetwork::new(
            LatencyMap::default(),
            Some(FaultPlan { delay_ppm: 1_000_000, extra_delay: 500, ..FaultPlan::drops(7, 0) }),
        );
        let base = Tick(0) + LatencyMap::default().cache_dir;
        assert_eq!(slow.send(Tick(0), &req(1)).unwrap(), Delivery::Deliver(base + 500));
        assert_eq!(slow.fault_stats().get("faults.delayed"), 1);
    }

    #[test]
    fn immediate_delivery_flattens_latency_but_keeps_faults() {
        let mut net =
            FaultyNetwork::new(LatencyMap::default(), Some(FaultPlan::drop_first("Resp")));
        net.set_immediate_delivery(true);
        assert_eq!(net.send(Tick(40), &req(1)).unwrap(), Delivery::Deliver(Tick(40)));
        assert_eq!(net.send(Tick(41), &resp(1)).unwrap(), Delivery::Dropped);
        assert_eq!(net.faults_injected(), 1);
        // Traffic stats still count accepted messages.
        assert_eq!(net.network().stats().get("net.msg.RdBlk"), 1);

        let mut dup = FaultyNetwork::new(
            LatencyMap::default(),
            Some(FaultPlan { dup_ppm: 1_000_000, ..FaultPlan::drops(7, 0) }),
        );
        dup.set_immediate_delivery(true);
        assert_eq!(dup.send(Tick(9), &req(1)).unwrap(), Delivery::Twice(Tick(9), Tick(9)));
    }

    #[test]
    fn targets_filter_by_request_class() {
        let plan = FaultPlan::drops(3, 1_000_000).with_targets(FaultTargets::Requests);
        let mut net = FaultyNetwork::new(LatencyMap::default(), Some(plan));
        assert_eq!(net.send(Tick(0), &req(1)).unwrap(), Delivery::Dropped);
        // Responses are never requests, so they always deliver.
        assert!(matches!(net.send(Tick(1), &resp(1)).unwrap(), Delivery::Deliver(_)));
        // Wiring errors still surface through the fault layer.
        let bad = Message::new(
            AgentId::CorePairL2(0),
            AgentId::CorePairL2(1),
            LineAddr(0),
            MsgKind::RdBlk,
        );
        assert!(net.send(Tick(2), &bad).is_err());
    }
}

//! What [`Network`](crate::Network) may do to a message: the
//! deterministic [`FaultPlan`] vocabulary.
//!
//! A plan **drops** or **duplicates** messages of selected classes — the
//! transient failures a robust coherence protocol must survive (or at
//! least diagnose). Neither fault reorders a channel: a duplicate arrives
//! one hop after its original, so the point-to-point FIFO order the
//! protocols rely on still holds.

use crate::{Message, MsgKind};

/// Which message classes a [`FaultPlan`] may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultTargets {
    /// Every message class is eligible.
    #[default]
    All,
    /// Only the request classes the retry layer actually re-sends: every
    /// directory-bound request *except* `Atomic`, which is non-idempotent
    /// (a retried fetch-add whose original survived would apply twice) and
    /// therefore never retried.
    RetryableRequests,
    /// Only messages of one exact class (see [`crate::MsgKind::class_name`]),
    /// for surgically inducing a specific loss in tests.
    /// [`Network::with_faults`](crate::Network::with_faults) rejects a name
    /// that is no class.
    Class(&'static str),
}

impl FaultTargets {
    /// Whether `msg` is eligible under this target set.
    #[must_use]
    pub fn matches(self, msg: &Message) -> bool {
        match self {
            FaultTargets::All => true,
            FaultTargets::RetryableRequests => {
                msg.kind.is_dir_request() && !matches!(msg.kind, MsgKind::AtomicReq { .. })
            }
            FaultTargets::Class(name) => msg.kind.class_name() == name,
        }
    }
}

/// A deterministic description of which faults to inject.
///
/// Rates are in parts-per-million per *message*; decisions are drawn from
/// a `DetRng` seeded with `seed`, so the same plan over the same workload
/// injects the same faults every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault-decision RNG.
    pub seed: u64,
    /// Probability (ppm) of silently dropping an eligible message.
    pub drop_ppm: u32,
    /// Probability (ppm) of delivering an eligible message twice.
    pub dup_ppm: u32,
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
        FaultPlan { seed, drop_ppm, dup_ppm: 0, targets: FaultTargets::All, max_faults: u64::MAX }
    }

    /// A plan that deterministically drops exactly the first eligible
    /// message of class `class` (rate 100%, budget 1) — the canonical way
    /// to induce one specific loss in a test.
    ///
    /// # Examples
    ///
    /// ```
    /// use hsc_mem::LineAddr;
    /// use hsc_noc::{AgentId, Delivery, FaultPlan, LatencyMap, Message, MsgKind, Network};
    /// use hsc_sim::Tick;
    ///
    /// let mut net =
    ///     Network::new(LatencyMap::default()).with_faults(Some(FaultPlan::drop_first("RdBlk")));
    /// let m = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(1), MsgKind::RdBlk);
    /// assert_eq!(net.send(Tick(0), &m).unwrap(), Delivery::Dropped);
    /// assert_eq!(net.faults_injected(), 1);
    /// // Budget exhausted: the next one sails through.
    /// assert_eq!(net.send(Tick(5), &m).unwrap(), Delivery::Deliver(Tick(35)));
    /// ```
    #[must_use]
    pub fn drop_first(class: &'static str) -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_ppm: 1_000_000,
            dup_ppm: 0,
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

/// Fault injection as [`Network::send`](crate::Network::send) applies it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentId, Delivery, LatencyMap, MsgKind, Network};
    use hsc_mem::LineAddr;
    use hsc_sim::Tick;

    fn network(plan: Option<FaultPlan>) -> Network {
        Network::new(LatencyMap::default()).with_faults(plan)
    }

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
        let mut net = network(None);
        for i in 0..100 {
            assert!(matches!(net.send(Tick(i), &req(i)).unwrap(), Delivery::Deliver(_)));
        }
        assert_eq!(net.faults_injected(), 0);
        let stats = net.stats();
        assert_eq!(stats.get("net.msg.RdBlk"), 100);
        assert!(stats.iter().all(|(k, _)| !k.starts_with("faults.")), "{stats}");
    }

    #[test]
    fn drop_first_hits_exactly_one_message_of_the_class() {
        let mut net = network(Some(FaultPlan::drop_first("Resp")));
        // Requests are not the targeted class.
        assert!(matches!(net.send(Tick(0), &req(1)).unwrap(), Delivery::Deliver(_)));
        assert_eq!(net.send(Tick(1), &resp(1)).unwrap(), Delivery::Dropped);
        // Budget of one: later Resps deliver.
        assert!(matches!(net.send(Tick(2), &resp(2)).unwrap(), Delivery::Deliver(_)));
        assert_eq!(net.faults_injected(), 1);
        assert_eq!(net.stats().get("faults.dropped"), 1);
        assert_eq!(net.stats().get("faults.dropped.Resp"), 1);
        // The dropped message still entered the interconnect.
        assert_eq!(net.stats().get("net.msg.Resp"), 2);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let plan = FaultPlan::drops(42, 250_000); // 25% drops
        let run = || {
            let mut net = network(Some(plan));
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
    fn duplicates_arrive_in_order() {
        let mut dup = network(Some(FaultPlan { dup_ppm: 1_000_000, ..FaultPlan::drops(7, 0) }));
        match dup.send(Tick(0), &req(1)).unwrap() {
            Delivery::Twice(a, b) => assert!(a < b),
            other => panic!("expected a duplicate, got {other:?}"),
        }
        assert_eq!(dup.stats().get("faults.duplicated.RdBlk"), 1);
    }

    #[test]
    fn immediate_delivery_flattens_latency_but_keeps_faults() {
        let mut net = network(Some(FaultPlan::drop_first("Resp")));
        net.set_immediate_delivery();
        assert_eq!(net.send(Tick(40), &req(1)).unwrap(), Delivery::Deliver(Tick(40)));
        assert_eq!(net.send(Tick(41), &resp(1)).unwrap(), Delivery::Dropped);
        assert_eq!(net.faults_injected(), 1);
        // Traffic stats still count accepted messages.
        assert_eq!(net.stats().get("net.msg.RdBlk"), 1);

        let mut dup = network(Some(FaultPlan { dup_ppm: 1_000_000, ..FaultPlan::drops(7, 0) }));
        dup.set_immediate_delivery();
        assert_eq!(dup.send(Tick(9), &req(1)).unwrap(), Delivery::Twice(Tick(9), Tick(9)));
    }

    #[test]
    #[should_panic(expected = "unknown message class \"RdBlkX\"")]
    fn a_mistyped_target_class_is_rejected() {
        let _ = network(Some(FaultPlan::drop_first("RdBlkX")));
    }

    #[test]
    fn targets_filter_by_request_class() {
        let plan = FaultPlan::drops(3, 1_000_000).with_targets(FaultTargets::RetryableRequests);
        let mut net = network(Some(plan));
        assert_eq!(net.send(Tick(0), &req(1)).unwrap(), Delivery::Dropped);
        // Responses are never requests, so they always deliver.
        assert!(matches!(net.send(Tick(1), &resp(1)).unwrap(), Delivery::Deliver(_)));
        // Wiring errors pass through the fault path, and count nothing.
        let bad = Message::new(
            AgentId::CorePairL2(0),
            AgentId::CorePairL2(1),
            LineAddr(0),
            MsgKind::RdBlk,
        );
        assert!(net.send(Tick(2), &bad).is_err());
        assert_eq!(net.stats().get("net.msg.RdBlk"), 1);
    }
}

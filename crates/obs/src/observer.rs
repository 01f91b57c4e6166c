//! The hook hub the simulation engine drives.
//!
//! `hsc-core`'s `System` owns one [`Observer`] and calls its hooks from
//! the dispatch and delivery paths. Every hook body is gated on the
//! subsystem being enabled; with [`ObsConfig::off`] the observer holds no
//! allocations and every hook reduces to a branch on a `bool`, so a
//! disabled run is bit-identical to one built before this crate existed.

use std::collections::BTreeMap;

use hsc_noc::{AgentId, Delivery, FlightRecord, Message};
use hsc_sim::{Histogram, Tick, TransitionMatrix};

use crate::analytics::SharingTracker;
use crate::config::ObsConfig;
use crate::perfetto::PerfettoTrace;
use crate::sampler::{EpochSampler, TimeSeries};
use crate::span::TxnTracker;

/// Events handled and simulated time advanced, per agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentProfile {
    /// Rendered agent name (`"L2[0]"`, `"DIR"`, …).
    pub agent: String,
    /// Number of events this agent handled.
    pub events_handled: u64,
    /// Total ticks the global clock advanced while delivering to this
    /// agent (time attributed to the event that woke it).
    pub ticks_advanced: u64,
}

/// Everything a run's observability produced, extracted once at the end.
#[derive(Debug, Clone, Default)]
pub struct ObsData {
    /// Per-request-class end-to-end latency histograms, in class order.
    pub latency: Vec<(String, Histogram)>,
    /// Sampled time series, in name order.
    pub time_series: Vec<TimeSeries>,
    /// Per-agent engine profile, in agent order.
    pub agents: Vec<AgentProfile>,
    /// The Perfetto event stream, if collected.
    pub perfetto: Option<PerfettoTrace>,
    /// Spans closed (transactions completed end-to-end).
    pub spans_completed: u64,
    /// Spans still open when the run ended.
    pub spans_open: u64,
    /// Per-protocol state-transition matrices, sorted by protocol name,
    /// each summed over the run's controllers of that protocol. The
    /// controllers always count; the matrices are taken out of the run
    /// only when [`ObsConfig::protocol_analytics`] was on, so this is
    /// empty otherwise.
    pub transitions: Vec<TransitionMatrix>,
    /// Directory-side sharing-pattern analytics, if collected.
    pub sharing: Option<SharingTracker>,
    /// The flight-recorder tail (newest events, oldest first) at the
    /// moment the data was taken. Always populated — the recorder is
    /// free-running — but chiefly useful after a failed run.
    pub flight: Vec<FlightRecord>,
}

/// Observability hook hub; one per [`hsc-core` `System`](ObsConfig).
#[derive(Debug, Clone, Default)]
pub struct Observer {
    enabled: bool,
    txns: Option<TxnTracker>,
    sampler: Option<EpochSampler>,
    perfetto: Option<PerfettoTrace>,
    profile: Option<BTreeMap<AgentId, (u64, u64)>>,
    inflight: BTreeMap<AgentId, u64>,
    inflight_labels: BTreeMap<AgentId, String>,
    last_event_tick: Tick,
}

impl Observer {
    /// Creates an observer for `cfg`; [`ObsConfig::off`] yields a fully
    /// inert observer.
    #[must_use]
    pub fn new(cfg: ObsConfig) -> Self {
        Observer {
            enabled: cfg.enabled(),
            txns: cfg.track_transactions.then(TxnTracker::new),
            sampler: cfg.sample_epoch_ticks.map(EpochSampler::new),
            perfetto: cfg.perfetto.then(PerfettoTrace::new),
            profile: cfg.profile_agents.then(BTreeMap::new),
            inflight: BTreeMap::new(),
            inflight_labels: BTreeMap::new(),
            last_event_tick: Tick::ZERO,
        }
    }

    /// Whether any hook does work. The engine checks this once per call
    /// site so a disabled run never pays for argument construction.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Called when the engine hands `msg` to the NoC at `now` with the
    /// fault layer's verdict: opens transaction spans, tracks per-channel
    /// in-flight depth, and emits instant events for probes and faults.
    pub fn on_send(&mut self, now: Tick, msg: &Message, delivery: &Delivery) {
        if !self.enabled {
            return;
        }
        if msg.kind.is_dir_request() && msg.src != AgentId::Directory {
            if let Some(txns) = &mut self.txns {
                let fresh = txns.open(now, msg.src, msg.line.0, msg.kind.class_name());
                if !fresh {
                    if let Some(p) = &mut self.perfetto {
                        let name = format!("resend {} {:#x}", msg.kind.class_name(), msg.line.0);
                        p.instant(&msg.src.to_string(), &name, "retry", now);
                    }
                }
            }
        }
        let copies: u64 = match delivery {
            Delivery::Deliver(_) => 1,
            Delivery::Twice(_, _) => 2,
            Delivery::Dropped => 0,
        };
        if copies > 0 {
            *self.inflight.entry(msg.dst).or_insert(0) += copies;
        }
        if let Some(p) = &mut self.perfetto {
            if msg.kind.is_probe() {
                let name = format!("{} {:#x} → {}", msg.kind.class_name(), msg.line.0, msg.dst);
                p.instant(&msg.src.to_string(), &name, "probe", now);
            }
            match delivery {
                Delivery::Dropped => {
                    let name = format!("drop {} {:#x}", msg.kind.class_name(), msg.line.0);
                    p.instant("faults", &name, "fault", now);
                }
                Delivery::Twice(_, _) => {
                    let name = format!("dup {} {:#x}", msg.kind.class_name(), msg.line.0);
                    p.instant("faults", &name, "fault", now);
                }
                Delivery::Deliver(_) => {}
            }
        }
    }

    /// Called when `msg` reaches its destination at `now`: closes spans
    /// (recording latency and a Perfetto span on the requester's track)
    /// and decrements in-flight depth.
    pub fn on_deliver(&mut self, now: Tick, msg: &Message) {
        if !self.enabled {
            return;
        }
        if let Some(n) = self.inflight.get_mut(&msg.dst) {
            *n = n.saturating_sub(1);
        }
        if msg.kind.is_requester_completion() {
            if let Some(txns) = &mut self.txns {
                if let Some(span) = txns.close(now, msg.dst, msg.line.0) {
                    if let Some(p) = &mut self.perfetto {
                        let name = format!("{} {:#x}", span.class, span.line);
                        p.complete(&msg.dst.to_string(), &name, "txn", span.start, span.latency());
                    }
                }
            }
        }
    }

    /// Called once per event popped from the queue, before it is handled:
    /// attributes the clock advance since the previous event to `agent`
    /// and counts the event against it.
    pub fn on_event(&mut self, now: Tick, agent: AgentId) {
        if !self.enabled {
            return;
        }
        let advanced = now.0.saturating_sub(self.last_event_tick.0);
        self.last_event_tick = now;
        if let Some(profile) = &mut self.profile {
            let entry = profile.entry(agent).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += advanced;
        }
    }

    /// Whether the sampler wants an epoch snapshot at `now`.
    #[must_use]
    pub fn sample_due(&self, now: Tick) -> bool {
        self.enabled && self.sampler.as_ref().is_some_and(|s| s.due(now))
    }

    /// Takes one epoch snapshot. `gauges` are recorded as-is; `counters`
    /// are cumulative values stored as per-epoch deltas. The observer adds
    /// its own gauges (per-channel NoC in-flight depth and open-span
    /// count) on top. When a Perfetto trace is being collected, every
    /// gauge also lands on a counter track, so the trace carries sharer
    /// counts and per-channel NoC utilization alongside the spans.
    pub fn sample(&mut self, now: Tick, gauges: &[(&str, u64)], counters: &[(&str, u64)]) {
        let open = self.txns.as_ref().map(TxnTracker::open_count);
        let Some(s) = &mut self.sampler else {
            return;
        };
        s.begin_epoch(now);
        for (name, v) in gauges {
            s.gauge(name, *v);
        }
        for (name, v) in counters {
            s.counter(name, *v);
        }
        if let Some(p) = &mut self.perfetto {
            for (name, v) in gauges {
                p.counter(name, now, *v);
            }
        }
        for (agent, depth) in &self.inflight {
            // The label is formatted once per agent, not once per epoch.
            let label = self
                .inflight_labels
                .entry(*agent)
                .or_insert_with(|| format!("noc.inflight.{agent}"));
            s.gauge(label, *depth);
            if let Some(p) = &mut self.perfetto {
                p.counter(label, now, *depth);
            }
        }
        if let Some(open) = open {
            s.gauge("txn.open_spans", open);
            if let Some(p) = &mut self.perfetto {
                p.counter("txn.open_spans", now, open);
            }
        }
    }

    /// Consumes the observer, returning everything it collected.
    #[must_use]
    pub fn into_data(self) -> ObsData {
        let mut data = ObsData::default();
        if let Some(txns) = self.txns {
            data.spans_completed = txns.completed();
            data.spans_open = txns.open_count();
            data.latency =
                txns.histograms().map(|(class, h)| (class.to_owned(), h.clone())).collect();
        }
        if let Some(sampler) = self.sampler {
            data.time_series = sampler.into_series();
        }
        if let Some(profile) = self.profile {
            data.agents = profile
                .into_iter()
                .map(|(agent, (events_handled, ticks_advanced))| AgentProfile {
                    agent: agent.to_string(),
                    events_handled,
                    ticks_advanced,
                })
                .collect();
        }
        data.perfetto = self.perfetto;
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsc_mem::LineAddr;
    use hsc_noc::MsgKind;

    fn rdblk(src: AgentId) -> Message {
        Message::new(src, AgentId::Directory, LineAddr(0x40), MsgKind::RdBlk)
    }

    #[test]
    fn disabled_observer_collects_nothing() {
        let mut o = Observer::new(ObsConfig::off());
        assert!(!o.is_enabled());
        let m = rdblk(AgentId::CorePairL2(0));
        o.on_send(Tick(1), &m, &Delivery::Deliver(Tick(5)));
        o.on_deliver(Tick(5), &m);
        o.on_event(Tick(5), AgentId::Directory);
        assert!(!o.sample_due(Tick(1_000_000)));
        let data = o.into_data();
        assert!(data.latency.is_empty());
        assert!(data.time_series.is_empty());
        assert!(data.agents.is_empty());
        assert!(data.perfetto.is_none());
    }

    #[test]
    fn full_observer_tracks_span_end_to_end() {
        let mut o = Observer::new(ObsConfig::full(100));
        let l2 = AgentId::CorePairL2(0);
        o.on_send(Tick(10), &rdblk(l2), &Delivery::Deliver(Tick(40)));
        // The completion closes the span keyed by (requester, line).
        let resp = Message::new(
            AgentId::Directory,
            l2,
            LineAddr(0x40),
            MsgKind::VicAck, // any completion class closes the span
        );
        o.on_deliver(Tick(210), &resp);
        let data = o.into_data();
        assert_eq!(data.spans_completed, 1);
        assert_eq!(data.latency.len(), 1);
        assert_eq!(data.latency[0].0, "RdBlk");
        assert_eq!(data.latency[0].1.max(), 200);
        let p = data.perfetto.expect("perfetto enabled");
        assert!(p.to_json_string().contains("RdBlk 0x40"));
    }

    #[test]
    fn dropped_sends_do_not_inflate_inflight() {
        let mut o = Observer::new(ObsConfig::report(100));
        let m = rdblk(AgentId::Tcc(0));
        o.on_send(Tick(10), &m, &Delivery::Dropped);
        o.on_send(Tick(20), &m, &Delivery::Twice(Tick(30), Tick(40)));
        assert_eq!(o.inflight.get(&AgentId::Directory), Some(&2));
        o.on_deliver(Tick(30), &m);
        o.on_deliver(Tick(40), &m);
        assert_eq!(o.inflight.get(&AgentId::Directory), Some(&0));
    }

    #[test]
    fn sample_records_observer_gauges_too() {
        let mut o = Observer::new(ObsConfig::report(100));
        o.on_send(Tick(10), &rdblk(AgentId::CorePairL2(0)), &Delivery::Deliver(Tick(40)));
        assert!(o.sample_due(Tick(150)));
        o.sample(Tick(150), &[("dir.inflight_txns", 1)], &[("events", 42)]);
        let data = o.into_data();
        let names: Vec<&str> = data.time_series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["dir.inflight_txns", "events", "noc.inflight.DIR", "txn.open_spans"]);
        assert_eq!(data.spans_open, 1);
    }

    #[test]
    fn profile_attributes_time_to_the_woken_agent() {
        let mut o = Observer::new(ObsConfig::report(100));
        o.on_event(Tick(10), AgentId::Directory);
        o.on_event(Tick(25), AgentId::Directory);
        o.on_event(Tick(25), AgentId::Memory);
        let data = o.into_data();
        let dir = data.agents.iter().find(|a| a.agent == "DIR").unwrap();
        assert_eq!(dir.events_handled, 2);
        assert_eq!(dir.ticks_advanced, 25);
        let mem = data.agents.iter().find(|a| a.agent == "MEM").unwrap();
        assert_eq!((mem.events_handled, mem.ticks_advanced), (1, 0));
    }
}

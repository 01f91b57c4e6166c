//! Batch timing and the record/replay testbench for message-driven layers.
//!
//! Every controller in the simulator is a deterministic state machine fed
//! `(tick, wake | message)` inputs. A testbench therefore runs in two
//! phases. **Record** (untimed): the layer under test runs against stub
//! peers — the bench playing directory, caches or memory — inside a small
//! event loop, and every input the layer receives is logged. **Replay**
//! (timed): a fresh, identical layer is fed the logged inputs from a
//! vector, one `Outbox::reset` per input exactly as `System::run` does.
//! The stub peers and the event loop are out of the timed region, so the
//! figure is the layer's own cost per event.

use std::hint::black_box;
use std::time::Instant;

use hsc_benchmark::Spans;
use hsc_cluster::{CorePair, DmaEngine, GpuCluster};
use hsc_core::{Directory, MemoryController};
use hsc_noc::{Action, AgentId, LatencyMap, Message, Outbox};
use hsc_sim::{Tick, WheelQueue};

/// How many batches each testbench runs and how many ops a batch holds.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub batches: usize,
    pub ops: usize,
}

/// Runs `measure` over fresh `setup()` state `effort.batches` times and
/// returns the smallest ns-per-op figure it reports: host noise only adds.
pub fn bench_with<S>(
    spans: &mut Spans,
    name: &str,
    effort: Effort,
    mut setup: impl FnMut() -> S,
    mut measure: impl FnMut(&mut S) -> f64,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..effort.batches {
        let mut state = setup();
        spans.begin(name, "");
        let ns_per_op = measure(&mut state);
        spans.end();
        black_box(&state);
        best = best.min(ns_per_op);
    }
    best
}

/// [`bench_with`] for the common case: time the whole of `run`, which
/// reports how many ops it did.
pub fn bench<S>(
    spans: &mut Spans,
    name: &str,
    effort: Effort,
    setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> usize,
) -> f64 {
    bench_with(spans, name, effort, setup, |state| {
        let start = Instant::now();
        let ops = run(state);
        start.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

/// One logged input to the layer under test.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    Wake,
    Msg(Message),
}

/// The message-driven face every controller shares.
pub trait Layer {
    fn agent(&self) -> AgentId;
    fn start(&mut self, _out: &mut Outbox) {}
    fn on_wake(&mut self, _now: Tick, _out: &mut Outbox) {}
    fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox);
}

macro_rules! requester_layer {
    ($ty:ty) => {
        impl Layer for $ty {
            fn agent(&self) -> AgentId {
                <$ty>::agent(self)
            }
            fn start(&mut self, out: &mut Outbox) {
                <$ty>::start(self, out);
            }
            fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
                <$ty>::on_wake(self, now, out);
            }
            fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
                <$ty>::on_message(self, now, msg, out);
            }
        }
    };
}
requester_layer!(CorePair);
requester_layer!(GpuCluster);
requester_layer!(DmaEngine);

impl Layer for Directory {
    fn agent(&self) -> AgentId {
        Directory::agent(self)
    }
    fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
        Directory::on_wake(self, now, out);
    }
    fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        Directory::on_message(self, now, msg, out);
    }
}

impl Layer for MemoryController {
    fn agent(&self) -> AgentId {
        MemoryController::agent(self)
    }
    fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        MemoryController::on_message(self, now, msg, out);
    }
}

#[derive(Debug)]
enum Ev {
    /// Wake the layer under test.
    Wake,
    /// Deliver a message (to the layer, or to a stub peer).
    Msg(Message),
    /// Fire the stub peers' own timer.
    Timer,
}

/// What stub peers may do: put messages on the (latency-only) network and
/// arm their timer.
pub struct Sched<'a> {
    queue: &'a mut WheelQueue<Ev>,
    latency: LatencyMap,
}

impl Sched<'_> {
    /// Sends `msg` at `at`; it arrives one network hop later.
    pub fn send(&mut self, at: Tick, msg: Message) {
        let hop = self.latency.one_way(msg.src, msg.dst).expect("testbenches only use real links");
        self.queue.schedule(at + hop, Ev::Msg(msg));
    }

    /// Calls [`Peers::on_timer`] at `at`.
    pub fn timer(&mut self, at: Tick) {
        self.queue.schedule(at, Ev::Timer);
    }
}

/// The bench's side of a testbench: every agent except the one under test.
pub trait Peers {
    /// Seeds the run (first requests, first timer).
    fn start(&mut self, _sched: &mut Sched<'_>) {}
    /// A message from the layer under test reached one of the stub peers.
    fn on_message(&mut self, now: Tick, msg: &Message, sched: &mut Sched<'_>);
    /// The timer armed with [`Sched::timer`] fired.
    fn on_timer(&mut self, _now: Tick, _sched: &mut Sched<'_>) {}
}

/// Runs `layer` against `peers` until the event queue drains or the layer
/// has received `max_inputs` inputs, and returns those inputs in order.
pub fn record<L: Layer>(
    layer: &mut L,
    peers: &mut dyn Peers,
    latency: LatencyMap,
    max_inputs: usize,
) -> Vec<(Tick, Input)> {
    let me = layer.agent();
    let mut queue: WheelQueue<Ev> = WheelQueue::new();
    let mut inputs = Vec::new();
    let mut out = Outbox::new(Tick::ZERO);
    layer.start(&mut out);
    apply(&mut queue, latency, &mut out);
    peers.start(&mut Sched { queue: &mut queue, latency });
    while inputs.len() < max_inputs {
        let Some((now, ev)) = queue.pop() else { break };
        out.reset(now);
        match ev {
            Ev::Wake => {
                inputs.push((now, Input::Wake));
                layer.on_wake(now, &mut out);
            }
            Ev::Msg(m) if m.dst == me => {
                inputs.push((now, Input::Msg(m)));
                layer.on_message(now, &m, &mut out);
            }
            Ev::Msg(m) => peers.on_message(now, &m, &mut Sched { queue: &mut queue, latency }),
            Ev::Timer => peers.on_timer(now, &mut Sched { queue: &mut queue, latency }),
        }
        apply(&mut queue, latency, &mut out);
    }
    inputs
}

/// Puts the layer's staged actions on the queue, as `System::apply` does.
fn apply(queue: &mut WheelQueue<Ev>, latency: LatencyMap, out: &mut Outbox) {
    let now = out.now();
    let mut sched = Sched { queue, latency };
    for act in out.drain_actions() {
        match act {
            Action::Send(m) => sched.send(now, m),
            Action::SendLater(t, m) => sched.send(t, m),
            Action::Wake(t) => sched.queue.schedule(t, Ev::Wake),
        }
    }
}

/// Which of the replayed inputs a testbench charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// The whole replay, divided by the number of inputs.
    PerInput,
    /// The whole replay, divided by the number of messages: a passive
    /// layer's wakes are part of serving the messages that caused them.
    PerMessage,
    /// Only the `on_message` calls, each timed on its own (two clock
    /// reads, ~25 ns, are included): a requester's wakes retire program
    /// ops and have a testbench of their own.
    MessagesOnly,
}

/// Feeds `inputs` to `layer` the way the run loop would and returns the
/// ns per charged unit.
fn replay<L: Layer>(layer: &mut L, inputs: &[(Tick, Input)], charge: Charge) -> f64 {
    let mut out = Outbox::new(Tick::ZERO);
    let mut msgs = 0usize;
    let mut in_msgs = std::time::Duration::ZERO;
    let start = Instant::now();
    for (now, input) in inputs {
        out.reset(*now);
        match input {
            Input::Wake => layer.on_wake(*now, &mut out),
            Input::Msg(m) if charge == Charge::MessagesOnly => {
                let t = Instant::now();
                layer.on_message(*now, m, &mut out);
                in_msgs += t.elapsed();
                msgs += 1;
            }
            Input::Msg(m) => {
                layer.on_message(*now, m, &mut out);
                msgs += 1;
            }
        }
        black_box(out.actions());
    }
    let (ns, units) = match charge {
        Charge::PerInput => (start.elapsed(), inputs.len()),
        Charge::PerMessage => (start.elapsed(), msgs),
        Charge::MessagesOnly => (in_msgs, msgs),
    };
    ns.as_nanos() as f64 / units.max(1) as f64
}

/// A record/replay testbench: `make` builds a fresh layer, the first
/// `warm` logged inputs bring it to the state under test (replayed
/// untimed), the rest are timed. Returns the min ns per charged unit.
pub fn bench_replay<L: Layer>(
    spans: &mut Spans,
    name: &str,
    effort: Effort,
    (inputs, warm): (&[(Tick, Input)], usize),
    charge: Charge,
    mut make: impl FnMut() -> L,
) -> f64 {
    assert!(inputs.len() > warm, "{name}: the recording holds no timed inputs");
    bench_with(
        spans,
        name,
        effort,
        || {
            let mut layer = make();
            layer.start(&mut Outbox::new(Tick::ZERO));
            replay(&mut layer, &inputs[..warm], Charge::PerInput);
            layer
        },
        |layer| replay(layer, &inputs[warm..], charge),
    )
}

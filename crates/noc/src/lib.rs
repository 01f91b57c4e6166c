//! Protocol message vocabulary and interconnect model for the HSC
//! reproduction.
//!
//! The paper's system (Fig. 1) connects four kinds of agents to the
//! system-level directory: CorePair L2 controllers, the GPU's TCC(s), the
//! DMA engine, and (through an ordered port) main memory. This crate
//! defines:
//!
//! * [`AgentId`] — the network endpoints,
//! * [`Message`] / [`MsgKind`] — every request, probe, acknowledgment and
//!   response named in §II of the paper (RdBlk, RdBlkS, RdBlkM, VicDirty,
//!   VicClean, WT, Atomic, Flush, DMARd, DMAWr, probes, unblocks, …),
//! * [`Network`] — a fixed-per-hop-latency interconnect that timestamps
//!   deliveries, counts traffic by message class and, given a
//!   [`FaultPlan`], drops or duplicates messages. Together with the
//!   FIFO tie-breaking of `hsc_sim::WheelQueue`, constant per-pair latency
//!   gives point-to-point ordering, which the protocols rely on,
//! * [`Event`] — a message delivery or an agent wake-up: the payload of
//!   `System`'s event queue, and, as a [`PendingEvent`], the model
//!   checker's choice view,
//! * [`SimError`] / [`DeadlockSnapshot`] — the typed outcome of a failed
//!   run, and [`FlightRecorder`] — an always-on ring of the last
//!   deliveries, dumped into diagnostics when a run fails. They live here,
//!   beside the agents and messages they are about, so every post-mortem
//!   is written in the protocol's own terms and rendered only when read.
//!
//! Figure 7 of the paper ("% reduction in probes sent out from the
//! directory") is read directly off [`Network`]'s counters.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod actions;
mod agent;
mod fault;
mod flight;
mod message;
mod network;
mod outcome;
mod retry;

pub use actions::{Action, Outbox, WakeArm};
pub use agent::AgentId;
pub use fault::{FaultPlan, FaultTargets};
pub use flight::{FlightRecord, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use message::{ClassCounts, Grant, Message, MsgKind, ProbeKind, WordMask};
pub use network::{Delivery, LatencyMap, Network, WiringError};
pub use outcome::{DeadlockSnapshot, Event, PendingEvent, SimError, StuckLine};
pub use retry::{RetryPolicy, RetryTracker};

// Compile-time proof that campaign job results built from these outcome
// types cross threads (`hsc_bench::par`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimError>();
    assert_send::<FlightRecorder>();
};

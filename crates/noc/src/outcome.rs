//! Run outcomes, typed simulation errors, and the one event type they
//! describe.
//!
//! A coherence protocol bug should surface as a *diagnosable value*, not a
//! process abort. This module provides the vocabulary every layer above
//! uses for that, in the protocol's own terms — agents, messages, lines:
//!
//! * [`Event`] — what the engine schedules: a message delivery or an
//!   agent's wake-up; [`PendingEvent`] is one still in the queue,
//! * [`SimError`] — the typed failure modes of a simulation run
//!   (deadlock/livelock, exhausted event budget, mis-wired topology),
//! * [`DeadlockSnapshot`] / [`StuckLine`] — the structured diagnostic a
//!   watchdog timeout carries, naming each stuck line, its age and the
//!   controller state blocking it. (The watchdog itself is the directory's
//!   `watchdog_expired`: the ages live in its transaction records.)
//!
//! Agents, lines and events stay typed and are named only when rendered;
//! the one free text is each controller's own `detail`.

use std::fmt;

use hsc_mem::LineAddr;
use hsc_sim::Tick;

use crate::{AgentId, FlightRecord, Message, WiringError};

/// One thing the engine can make happen: the payload of `System`'s event
/// queue, of the model checker's choice view and of stall reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// An in-flight protocol message awaiting delivery to its `dst`.
    Deliver(Message),
    /// A scheduled controller wake-up (timer, retry deadline, batching).
    Wake(AgentId),
}

/// One stuck cache line inside a [`DeadlockSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckLine {
    /// The stuck line.
    pub line: LineAddr,
    /// Ticks since the transaction on this line last made progress.
    pub age: u64,
    /// Controller-level detail: transaction kind, phase flags, queue depth.
    pub detail: String,
}

impl fmt::Display for StuckLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}: stuck for {} ticks — {}", self.line.0, self.age, self.detail)
    }
}

/// One undelivered [`Event`] at the moment a diagnostic was taken.
///
/// The shared currency between diagnostics ([`DeadlockSnapshot`]) and
/// exploration (the model checker's choice view): both describe "what
/// could still happen" with the queue entry itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PendingEvent {
    /// Tick the event was scheduled for.
    pub at: Tick,
    /// Queue sequence number (stable handle; FIFO tie-break within a tick).
    pub seq: u64,
    /// The pending event.
    pub event: Event,
}

impl fmt::Display for PendingEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.event {
            Event::Deliver(m) => write!(
                f,
                "@{} deliver {}→{} {} line {:#x}",
                self.at,
                m.src,
                m.dst,
                m.kind.class_name(),
                m.line.0
            ),
            Event::Wake(agent) => write!(f, "@{} wake {agent}", self.at),
        }
    }
}

/// Structured picture of the system at the moment a stall was diagnosed.
///
/// Built from the directory's in-flight transaction dump plus each
/// requester's outstanding-miss set, so the report names *who* is waiting
/// on *what* even when the lost message never reached the directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockSnapshot {
    /// Simulated time at which the stall was diagnosed.
    pub now: Tick,
    /// Stuck directory transactions, oldest first.
    pub lines: Vec<StuckLine>,
    /// Outstanding work per requester: the agent, the line it waits on,
    /// and what it waits for.
    pub agents: Vec<(AgentId, LineAddr, String)>,
    /// Events still undelivered when the stall was diagnosed (empty when
    /// the queue drained — the classic lost-message deadlock).
    pub pending: Vec<PendingEvent>,
    /// The flight recorder's tail: the most recent *delivered* events,
    /// oldest first — what actually happened just before the stall.
    pub flight: Vec<FlightRecord>,
}

impl DeadlockSnapshot {
    /// Whether the snapshot mentions `line` anywhere (directory transaction,
    /// agent-side outstanding miss, or undelivered message).
    #[must_use]
    pub fn mentions_line(&self, line: LineAddr) -> bool {
        self.lines.iter().any(|l| l.line == line)
            || self.agents.iter().any(|&(_, l, _)| l == line)
            || self.pending.iter().any(|p| matches!(p.event, Event::Deliver(m) if m.line == line))
    }
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "protocol stall at {}: {} stuck line(s), {} busy agent(s), {} pending event(s)",
            self.now,
            self.lines.len(),
            self.agents.len(),
            self.pending.len()
        )?;
        for l in &self.lines {
            writeln!(f, "  {l}")?;
        }
        for (agent, line, detail) in &self.agents {
            writeln!(f, "  {agent}: line {:#x}: {detail}", line.0)?;
        }
        for p in &self.pending {
            writeln!(f, "  pending: {p}")?;
        }
        if !self.flight.is_empty() {
            writeln!(f, "  last {} delivered event(s), oldest first:", self.flight.len())?;
            for e in &self.flight {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// Typed failure modes of a simulation run.
///
/// `System::run` returns `Result<Metrics, SimError>`: a protocol stall or
/// a mis-wired topology is a *value* carrying a diagnostic, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol stopped making progress: the watchdog found a
    /// transaction older than its limit, or the event queue drained with
    /// agents still busy (e.g. a request message was lost).
    Deadlock {
        /// What was stuck, where, and for how long.
        snapshot: Box<DeadlockSnapshot>,
    },
    /// The run consumed its event budget without reaching quiescence —
    /// a livelock, or simply a budget too small for the workload.
    EventBudgetExceeded {
        /// The configured budget that was exhausted.
        budget: u64,
        /// Simulated time at which the budget ran out.
        now: Tick,
    },
    /// A message was sent between agents with no link in the topology.
    Wiring(WiringError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { snapshot } => write!(f, "deadlock: {snapshot}"),
            SimError::EventBudgetExceeded { budget, now } => {
                write!(f, "event budget of {budget} exhausted at {now} without quiescence")
            }
            SimError::Wiring(e) => write!(f, "topology wiring error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, MsgKind, ProbeKind};

    #[test]
    fn snapshot_mentions_lines_and_formats() {
        let probe = Message::new(
            AgentId::Directory,
            AgentId::CorePairL2(1),
            LineAddr(0x77),
            MsgKind::Probe { kind: ProbeKind::Invalidate },
        );
        let mut fr = FlightRecorder::new(4);
        fr.push(
            Tick(470),
            &Message::new(
                AgentId::Directory,
                AgentId::CorePairL2(0),
                LineAddr(0x40),
                MsgKind::VicAck,
            ),
        );
        let snap = DeadlockSnapshot {
            now: Tick(500),
            lines: vec![StuckLine {
                line: LineAddr(0x40),
                age: 400,
                detail: "Request acks=1".into(),
            }],
            agents: vec![(AgentId::CorePairL2(0), LineAddr(0x40), "RdBlk miss".into())],
            pending: vec![PendingEvent { at: Tick(480), seq: 9, event: Event::Deliver(probe) }],
            flight: fr.tail(),
        };
        assert!(snap.mentions_line(LineAddr(0x40)));
        assert!(snap.mentions_line(LineAddr(0x77)), "pending deliveries count as mentions");
        assert!(!snap.mentions_line(LineAddr(0x41)));
        assert!(!snap.mentions_line(LineAddr(0x4)), "0x4 prefixes 0x40's rendering, not its line");
        let text = snap.to_string();
        assert!(text.contains("1 stuck line(s)"));
        assert!(text.contains("  L2[0]: line 0x40: RdBlk miss\n"));
        assert!(text.contains("pending: @480t deliver DIR→L2[1] PrbInv line 0x77"));
        assert!(text.contains("last 1 delivered event(s)"));
        assert!(text.contains("@470t L2[0] ← VicAck line 0x40"));
        let err = SimError::Deadlock { snapshot: Box::new(snap) };
        assert!(err.to_string().starts_with("deadlock"));
    }

    #[test]
    fn pending_event_displays_wakes() {
        let p = PendingEvent { at: Tick(12), seq: 0, event: Event::Wake(AgentId::Dma) };
        assert_eq!(p.to_string(), "@12t wake DMA");
    }

    #[test]
    fn wiring_error_renders_its_link() {
        let e = SimError::Wiring(WiringError { src: AgentId::CorePairL2(0), dst: AgentId::Tcc(1) });
        assert_eq!(
            e.to_string(),
            "topology wiring error: no direct link L2[0]→TCC[1] in this topology"
        );
    }
}

//! Run outcomes and typed simulation errors.
//!
//! A coherence protocol bug should surface as a *diagnosable value*, not a
//! process abort. This module provides the vocabulary every layer above
//! uses for that:
//!
//! * [`SimError`] — the typed failure modes of a simulation run
//!   (deadlock/livelock, exhausted event budget, mis-wired topology),
//! * [`DeadlockSnapshot`] / [`StuckLine`] — the structured diagnostic a
//!   watchdog timeout carries, naming each stuck line, its age and the
//!   controller state blocking it. (The watchdog itself is the directory's
//!   `watchdog_expired`: the ages live in its transaction records.)

use std::fmt;

use crate::flight::FlightEntry;
use crate::tick::Tick;

/// One stuck cache line inside a [`DeadlockSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckLine {
    /// The line address (raw line number; formatted by the owning layer).
    pub line: u64,
    /// Ticks since the transaction on this line last made progress.
    pub age: u64,
    /// Controller-level detail: transaction kind, phase flags, queue depth.
    pub detail: String,
}

impl fmt::Display for StuckLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}: stuck for {} ticks — {}", self.line, self.age, self.detail)
    }
}

/// One undelivered event at the moment a diagnostic was taken.
///
/// The shared currency between diagnostics ([`DeadlockSnapshot`]) and
/// exploration (the model checker's choice view): both need to describe
/// "what could still happen" without exposing the driver's private event
/// type, so the driver summarises each pending entry into this.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PendingEvent {
    /// Tick the event was scheduled for.
    pub at: Tick,
    /// Queue sequence number (stable handle; FIFO tie-break within a tick).
    pub seq: u64,
    /// What kind of event is pending.
    pub kind: PendingKind,
}

/// The kind of a [`PendingEvent`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PendingKind {
    /// An in-flight protocol message awaiting delivery.
    Deliver {
        /// Message class name (e.g. `"RdBlk"`, `"Probe"`).
        class: &'static str,
        /// Sender, rendered by the owning layer (e.g. `"L2#0"`).
        src: String,
        /// Receiver, rendered by the owning layer.
        dst: String,
        /// Raw line number the message concerns.
        line: u64,
    },
    /// A scheduled controller wake-up (timer, retry deadline, batching).
    Wake {
        /// The agent to be woken, rendered by the owning layer.
        agent: String,
    },
}

impl fmt::Display for PendingEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            PendingKind::Deliver { class, src, dst, line } => {
                write!(f, "@{} deliver {src}→{dst} {class} line {line:#x}", self.at)
            }
            PendingKind::Wake { agent } => write!(f, "@{} wake {agent}", self.at),
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
    /// Per-agent summaries of outstanding work (one string per busy agent).
    pub agents: Vec<String>,
    /// Events still undelivered when the stall was diagnosed (empty when
    /// the queue drained — the classic lost-message deadlock).
    pub pending: Vec<PendingEvent>,
    /// The flight recorder's tail: the most recent *delivered* events,
    /// oldest first — what actually happened just before the stall.
    pub flight: Vec<FlightEntry>,
}

impl DeadlockSnapshot {
    /// Whether the snapshot mentions `line` anywhere (directory transaction,
    /// agent-side outstanding miss, or undelivered message).
    #[must_use]
    pub fn mentions_line(&self, line: u64) -> bool {
        self.lines.iter().any(|l| l.line == line)
            || self.agents.iter().any(|a| a.contains(&format!("{line:#x}")))
            || self
                .pending
                .iter()
                .any(|p| matches!(p.kind, PendingKind::Deliver { line: l, .. } if l == line))
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
        for a in &self.agents {
            writeln!(f, "  {a}")?;
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
    Wiring {
        /// Human-readable description of the missing link.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { snapshot } => write!(f, "deadlock: {snapshot}"),
            SimError::EventBudgetExceeded { budget, now } => {
                write!(f, "event budget of {budget} exhausted at {now} without quiescence")
            }
            SimError::Wiring { detail } => write!(f, "topology wiring error: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mentions_lines_and_formats() {
        let snap = DeadlockSnapshot {
            now: Tick(500),
            lines: vec![StuckLine { line: 0x40, age: 400, detail: "Request acks=1".into() }],
            agents: vec!["L2#0: awaiting 0x40".into()],
            pending: vec![PendingEvent {
                at: Tick(480),
                seq: 9,
                kind: PendingKind::Deliver {
                    class: "Probe",
                    src: "Dir".into(),
                    dst: "L2#1".into(),
                    line: 0x77,
                },
            }],
            flight: vec![FlightEntry {
                at: Tick(470),
                agent: "L2#0".into(),
                kind: "Resp",
                line: 0x40,
            }],
        };
        assert!(snap.mentions_line(0x40));
        assert!(snap.mentions_line(0x77), "pending deliveries count as mentions");
        assert!(!snap.mentions_line(0x41));
        let text = snap.to_string();
        assert!(text.contains("1 stuck line(s)"));
        assert!(text.contains("0x40"));
        assert!(text.contains("pending: @480t deliver Dir→L2#1 Probe line 0x77"));
        assert!(text.contains("last 1 delivered event(s)"));
        assert!(text.contains("@470t L2#0 ← Resp line 0x40"));
        let err = SimError::Deadlock { snapshot: Box::new(snap) };
        assert!(err.to_string().starts_with("deadlock"));
    }

    #[test]
    fn pending_event_displays_wakes() {
        let p =
            PendingEvent { at: Tick(12), seq: 0, kind: PendingKind::Wake { agent: "DMA".into() } };
        assert_eq!(p.to_string(), "@12t wake DMA");
    }
}

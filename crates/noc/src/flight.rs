//! Always-on flight recorder: the last N deliveries, post-mortem cheap.
//!
//! When a run dies — deadlock, exhausted budget, invariant violation —
//! the question is always "what happened *just before*?". Full tracing
//! answers it but costs a string per event; the [`FlightRecorder`]
//! answers it for one plain store per delivery: a fixed-size power-of-two
//! ring of compact [`FlightRecord`]s (tick, receiver, message class, line)
//! that the engine overwrites forever and that render themselves only
//! when something goes wrong.
//!
//! # Examples
//!
//! ```
//! use hsc_mem::LineAddr;
//! use hsc_noc::{AgentId, FlightRecorder, Message, MsgKind};
//! use hsc_sim::Tick;
//!
//! let mut fr = FlightRecorder::new(4);
//! let rd = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(0x40), MsgKind::RdBlk);
//! for i in 0..6 {
//!     fr.push(Tick(i), &rd);
//! }
//! assert_eq!(fr.total(), 6);
//! let tail = fr.tail();
//! assert_eq!(tail.len(), 4, "only the newest 4 survive");
//! assert_eq!(tail.first().unwrap().at, Tick(2));
//! assert_eq!(tail.last().unwrap().to_string(), "@5t DIR ← RdBlk line 0x40");
//! ```

use std::fmt;

use hsc_mem::LineAddr;
use hsc_sim::Tick;

use crate::{AgentId, Message, MsgKind};

/// One compact flight-recorder sample: who was delivered what, where, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Delivery tick.
    pub at: Tick,
    /// The receiving agent.
    pub dst: AgentId,
    /// The message's class, as [`MsgKind::class_index`].
    pub class: u8,
    /// The line the message concerns.
    pub line: LineAddr,
}

impl FlightRecord {
    /// The message class name (e.g. `"RdBlk"`).
    #[must_use]
    pub fn class_name(&self) -> &'static str {
        MsgKind::CLASS_NAMES[usize::from(self.class)]
    }
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {} ← {} line {:#x}", self.at, self.dst, self.class_name(), self.line.0)
    }
}

/// Fixed-capacity ring buffer of the most recent [`FlightRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Pre-filled storage; `head & mask` is the next slot to overwrite.
    buf: Vec<FlightRecord>,
    mask: usize,
    /// Monotonic push count; doubles as the ring cursor.
    head: u64,
}

/// Default ring capacity: enough to cover the full fan-out of a stuck
/// transaction plus its neighbours without bloating `System`.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the newest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a nonzero power of two (the ring
    /// index is a mask, not a modulo).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "flight capacity must be a power of two");
        let blank =
            FlightRecord { at: Tick::ZERO, dst: AgentId::Directory, class: 0, line: LineAddr(0) };
        FlightRecorder { buf: vec![blank; capacity], mask: capacity - 1, head: 0 }
    }

    /// Records the delivery of `msg` at `at`. The hot path: one store,
    /// one increment.
    #[inline]
    pub fn push(&mut self, at: Tick, msg: &Message) {
        self.buf[self.head as usize & self.mask] =
            FlightRecord { at, dst: msg.dst, class: msg.kind.class_index() as u8, line: msg.line };
        self.head += 1;
    }

    /// Events recorded over the recorder's lifetime (≥ [`Self::len`]).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.head
    }

    /// Records currently held (capped at capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.head.min(self.buf.len() as u64) as usize
    }

    /// Whether nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// The surviving records, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<FlightRecord> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let start = self.head - n as u64;
        for i in 0..n as u64 {
            out.push(self.buf[(start + i) as usize & self.mask]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(dst: AgentId, line: u64, kind: MsgKind) -> Message {
        Message::new(AgentId::Directory, dst, LineAddr(line), kind)
    }

    #[test]
    fn partial_fill_keeps_everything_in_order() {
        let mut fr = FlightRecorder::new(8);
        assert!(fr.is_empty());
        fr.push(Tick(1), &msg(AgentId::CorePairL2(0), 0x40, MsgKind::RdBlk));
        fr.push(Tick(2), &msg(AgentId::Tcc(3), 0x80, MsgKind::UpgradeAck));
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.total(), 2);
        let tail = fr.tail();
        let l2 = AgentId::CorePairL2(0);
        assert_eq!(tail[0], FlightRecord { at: Tick(1), dst: l2, class: 0, line: LineAddr(0x40) });
        let tcc = AgentId::Tcc(3);
        assert_eq!(
            tail[1],
            FlightRecord { at: Tick(2), dst: tcc, class: 14, line: LineAddr(0x80) }
        );
    }

    #[test]
    fn wraparound_drops_oldest_first() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..11u64 {
            fr.push(Tick(i), &msg(AgentId::CorePairL2(i as usize % 3), i, MsgKind::VicAck));
        }
        assert_eq!(fr.total(), 11);
        assert_eq!(fr.len(), 4);
        let at: Vec<u64> = fr.tail().iter().map(|r| r.at.0).collect();
        assert_eq!(at, [7, 8, 9, 10], "the ring keeps exactly the newest capacity records");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn capacity_must_be_a_power_of_two() {
        let _ = FlightRecorder::new(6);
    }

    /// Agent indices past one byte record and render like any other.
    #[test]
    fn flight_entry_renders_one_line() {
        let mut fr = FlightRecorder::new(2);
        fr.push(
            Tick(42),
            &msg(
                AgentId::CorePairL2(1),
                0x1000,
                MsgKind::Probe { kind: crate::ProbeKind::Invalidate },
            ),
        );
        fr.push(Tick(43), &msg(AgentId::Tcc(300), 0x1000, MsgKind::WtAck));
        let tail: Vec<String> = fr.tail().iter().map(ToString::to_string).collect();
        assert_eq!(tail, ["@42t L2[1] ← PrbInv line 0x1000", "@43t TCC[300] ← WtAck line 0x1000"]);
    }
}

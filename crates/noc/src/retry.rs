//! NACK-style request retry with bounded exponential backoff.
//!
//! The coherence protocols are loss-free by construction, so requesters
//! normally fire-and-forget. Under fault injection a request (or its
//! response) can vanish; [`RetryTracker`] gives every requester a uniform
//! recovery layer: remember each outstanding request verbatim (messages
//! are `Copy`), and if no acknowledgment arrives within the policy's
//! timeout, re-send it with an exponentially growing (bounded) deadline,
//! up to a retry cap — past the cap the watchdog diagnoses the stall.
//!
//! Retry is entirely opt-in: one `Option<RetryPolicy>` (the system
//! configuration's `retry`) reaches every requester, and with `None` the
//! tracker skips all tracking (and the wake-ups it needs), so fault-free
//! runs execute the exact same event sequence as before this layer
//! existed.
//!
//! Known gap: tracking is per *line*, first request wins, and any ack
//! for the line drops it. A requester with several requests outstanding
//! on one line (a TCC's write-throughs and the `Flush` behind them) loses
//! every one but the first to a drop. Acks do not name the request they
//! answer, so no bookkeeping here can tell them apart; see ROADMAP.

use hsc_mem::{LineAddr, LineMap};
use hsc_sim::Tick;

use crate::{Message, Outbox, WakeArm};

/// When and how often an unanswered request is re-sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks to wait for an acknowledgment before the first re-send.
    pub timeout: u64,
    /// Maximum number of re-sends per request; after that the tracker
    /// gives up and leaves diagnosis to the watchdog.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// 200k ticks (~5.2 µs simulated, comfortably above a worst-case
    /// directory transaction) and 6 retries.
    fn default() -> Self {
        RetryPolicy { timeout: 200_000, max_retries: 6 }
    }
}

impl RetryPolicy {
    /// Deadline delay before re-send number `attempt` (0-based): the
    /// timeout doubles per attempt, bounded at 8×.
    #[must_use]
    pub fn backoff(self, attempt: u32) -> u64 {
        self.timeout.saturating_mul(1u64 << attempt.min(3))
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    msg: Message,
    deadline: Tick,
    attempts: u32,
}

/// Tracks outstanding requests (keyed by line) and re-sends those whose
/// deadline passes.
///
/// # Examples
///
/// ```
/// use hsc_mem::LineAddr;
/// use hsc_noc::{Action, AgentId, Message, MsgKind, Outbox, RetryPolicy, RetryTracker, WakeArm};
/// use hsc_sim::Tick;
///
/// let mut rt = RetryTracker::new(Some(RetryPolicy { timeout: 100, max_retries: 2 }));
/// let mut wakes = WakeArm::default();
/// let m = Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(4), MsgKind::RdBlk);
/// let mut out = Outbox::new(Tick(0));
/// out.send(m);
/// rt.track_sent(m, &mut wakes, &mut out); // arms a wake-up at the deadline
/// assert_eq!(out.actions(), [Action::Send(m), Action::Wake(Tick(100))]);
///
/// wakes.delivered(Tick(100));
/// let mut out = Outbox::new(Tick(100));
/// assert_eq!(rt.service(Tick(100), &mut wakes, &mut out), 1); // no ack: re-sent
/// rt.acked(LineAddr(4)); // response arrived
/// let mut out = Outbox::new(Tick(1_000));
/// assert_eq!(rt.service(Tick(1_000), &mut wakes, &mut out), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RetryTracker {
    policy: Option<RetryPolicy>,
    pending: LineMap<PendingRetry>,
}

impl RetryTracker {
    /// Creates a tracker under `policy`; with `None` it is inert (every
    /// call is one branch, so disabled retry costs nothing).
    #[must_use]
    pub fn new(policy: Option<RetryPolicy>) -> RetryTracker {
        RetryTracker { policy, pending: LineMap::new() }
    }

    /// Starts tracking `msg` (sent at `now`). First-wins per line: a
    /// second `track` for the same line keeps the original entry (see the
    /// module docs for what that loses).
    fn track(&mut self, now: Tick, msg: Message) {
        let Some(policy) = self.policy else { return };
        self.pending.get_or_insert_with(msg.line, || PendingRetry {
            msg,
            deadline: now + policy.backoff(0),
            attempts: 0,
        });
    }

    /// The request on `line` was acknowledged; stop tracking it.
    pub fn acked(&mut self, line: LineAddr) {
        self.pending.remove(line);
    }

    /// All requests whose deadline has passed at `now`, re-armed with
    /// their next backoff deadline. Requests past the retry cap are
    /// dropped from tracking instead of returned.
    fn due(&mut self, now: Tick) -> Vec<Message> {
        let Some(policy) = self.policy else { return Vec::new() };
        let mut out = Vec::new();
        self.pending.retain(|_, p| {
            if p.deadline > now {
                return true;
            }
            if p.attempts >= policy.max_retries {
                return false;
            }
            p.attempts += 1;
            p.deadline = now + policy.backoff(p.attempts);
            out.push(p.msg);
            true
        });
        out
    }

    /// The earliest deadline among tracked requests: the tick the owner's
    /// next retry wake-up is armed for.
    fn next_deadline(&self) -> Option<Tick> {
        self.pending.iter().map(|(_, p)| p.deadline).min()
    }

    /// Tracks a request the owner has just staged in `out` and arms the
    /// wake-up that will check its deadline. Like
    /// [`service`](RetryTracker::service), one branch when retry is off.
    #[inline]
    pub fn track_sent(&mut self, msg: Message, wakes: &mut WakeArm, out: &mut Outbox) {
        if self.policy.is_some() {
            self.track(out.now(), msg);
            self.arm_next(wakes, out);
        }
    }

    /// The owner's `on_wake(now)` duty: re-sends every request whose
    /// deadline has passed through `out` and arms the wake-up for the next
    /// deadline. Returns how many were re-sent, for the owner's own
    /// `retries` counter.
    #[inline]
    pub fn service(&mut self, now: Tick, wakes: &mut WakeArm, out: &mut Outbox) -> u64 {
        if self.policy.is_none() {
            return 0;
        }
        let due = self.due(now);
        for &msg in &due {
            out.send(msg);
        }
        self.arm_next(wakes, out);
        due.len() as u64
    }

    /// Arms the next deadline, once per distinct tick however often it is
    /// asked.
    fn arm_next(&self, wakes: &mut WakeArm, out: &mut Outbox) {
        if let Some(d) = self.next_deadline() {
            wakes.arm(d, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentId, MsgKind};

    fn m(line: u64) -> Message {
        Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(line), MsgKind::RdBlkM)
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy { timeout: 100, max_retries: 10 };
        assert_eq!(p.backoff(0), 100);
        assert_eq!(p.backoff(1), 200);
        assert_eq!(p.backoff(2), 400);
        assert_eq!(p.backoff(3), 800);
        assert_eq!(p.backoff(9), 800, "backoff is bounded");
    }

    #[test]
    fn due_respects_deadlines_and_rearms() {
        let mut rt = RetryTracker::new(Some(RetryPolicy { timeout: 100, max_retries: 3 }));
        rt.track(Tick(0), m(1));
        rt.track(Tick(10), m(2));
        assert_eq!(rt.next_deadline(), Some(Tick(100)));
        assert!(rt.due(Tick(99)).is_empty());
        assert_eq!(rt.due(Tick(100)), vec![m(1)]);
        // Re-armed with doubled backoff from `now`.
        assert_eq!(rt.next_deadline(), Some(Tick(110)));
        assert_eq!(rt.due(Tick(301)), vec![m(1), m(2)]);
    }

    #[test]
    fn gives_up_after_the_cap() {
        let mut rt = RetryTracker::new(Some(RetryPolicy { timeout: 10, max_retries: 1 }));
        rt.track(Tick(0), m(4));
        assert_eq!(rt.due(Tick(1000)).len(), 1); // retry #1
        assert_eq!(rt.due(Tick(2000)).len(), 0); // cap reached: abandoned
        assert!(rt.pending.is_empty());
    }

    #[test]
    fn first_wins_on_the_same_line_and_ack_clears() {
        let mut rt = RetryTracker::new(Some(RetryPolicy { timeout: 100, max_retries: 3 }));
        rt.track(Tick(0), m(7));
        rt.track(Tick(50), m(7)); // keeps the original deadline
        assert_eq!(rt.pending.len(), 1);
        assert_eq!(rt.next_deadline(), Some(Tick(100)));
        assert_eq!(rt.pending.keys().collect::<Vec<_>>(), vec![LineAddr(7)]);
        rt.acked(LineAddr(7));
        assert!(rt.pending.is_empty());
        assert_eq!(rt.next_deadline(), None);
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let mut rt = RetryTracker::new(None);
        rt.track(Tick(0), m(1));
        assert!(rt.pending.is_empty());
        assert!(rt.due(Tick(1_000_000)).is_empty());
        assert_eq!(rt.next_deadline(), None);
        let (mut wakes, mut out) = (WakeArm::default(), Outbox::new(Tick(0)));
        rt.track_sent(m(1), &mut wakes, &mut out);
        assert_eq!(rt.service(Tick(1_000_000), &mut wakes, &mut out), 0);
        assert!(out.is_empty(), "no wake-ups, no re-sends");
    }

    #[test]
    fn owner_helpers_stage_resends_and_one_wake_per_deadline() {
        use crate::Action;
        let mut rt = RetryTracker::new(Some(RetryPolicy { timeout: 100, max_retries: 3 }));
        let mut wakes = WakeArm::default();
        let mut out = Outbox::new(Tick(0));
        rt.track_sent(m(1), &mut wakes, &mut out);
        rt.track_sent(m(2), &mut wakes, &mut out);
        assert_eq!(out.actions(), [Action::Wake(Tick(100))], "same deadline, armed once");

        let mut out = Outbox::new(Tick(100));
        wakes.delivered(Tick(100));
        assert_eq!(rt.service(Tick(100), &mut wakes, &mut out), 2);
        assert_eq!(
            out.actions(),
            [Action::Send(m(1)), Action::Send(m(2)), Action::Wake(Tick(300))]
        );
    }
}

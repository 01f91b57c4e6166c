use hsc_sim::Tick;

use crate::Message;

/// A side effect a controller requests from the system driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Put a message on the NoC (the driver applies network latency).
    Send(Message),
    /// Put a message on the NoC at a future tick (used to model a
    /// controller's own access latency, e.g. the directory's 20-cycle
    /// lookup before its probes leave).
    SendLater(Tick, Message),
    /// Re-invoke this controller's `on_wake` at the given tick. A staged
    /// wake is always delivered: drivers (the engines, test pumps, stub
    /// peers) must forward every one into their queue, because agents arm
    /// each tick once ([`WakeArm`]) and will not ask again.
    Wake(Tick),
}

/// Collects the actions a controller produces while handling one event.
///
/// Controllers (`CorePair`, GPU cluster, DMA engine, directory, memory
/// controller) never touch the event queue directly; they stage sends and
/// wake-ups here and the system driver applies them. This keeps every
/// controller a plain deterministic state machine that is easy to unit-test
/// in isolation: call a handler, inspect the outbox.
///
/// # Examples
///
/// ```
/// use hsc_mem::LineAddr;
/// use hsc_noc::{Action, AgentId, Message, MsgKind, Outbox};
/// use hsc_sim::Tick;
///
/// let mut out = Outbox::new(Tick(100));
/// out.send(Message::new(AgentId::CorePairL2(0), AgentId::Directory, LineAddr(0), MsgKind::RdBlk));
/// out.wake_after(20);
/// assert_eq!(out.actions().len(), 2);
/// assert!(matches!(out.actions()[1], Action::Wake(Tick(120))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbox {
    now: Tick,
    actions: Vec<Action>,
}

impl Outbox {
    /// Creates an outbox for an event being handled at `now`.
    #[must_use]
    pub fn new(now: Tick) -> Self {
        Outbox { now, actions: Vec::new() }
    }

    /// The tick of the event being handled.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Rewinds the outbox for reuse at a new event time: staged actions
    /// are cleared but allocated capacity is kept. An event loop handling
    /// hundreds of thousands of events can reuse one outbox instead of
    /// allocating a fresh action buffer per event.
    pub fn reset(&mut self, now: Tick) {
        self.now = now;
        self.actions.clear();
    }

    /// Drains the staged actions in order, leaving the outbox empty but
    /// with its capacity intact (pairs with [`Outbox::reset`]).
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    /// Stages a message send.
    pub fn send(&mut self, msg: Message) {
        self.actions.push(Action::Send(msg));
    }

    /// Stages a message send `delay` ticks from now (network latency is
    /// applied on top by the driver).
    pub fn send_after(&mut self, delay: u64, msg: Message) {
        self.actions.push(Action::SendLater(self.now + delay, msg));
    }

    /// Stages a wake-up at an absolute tick.
    ///
    /// The contract with the driver: a staged wake is always delivered;
    /// agents arm each tick once. A requester that may ask for the same
    /// tick from several handlers stages through [`WakeArm::arm`], which
    /// refuses the second request, so a driver that throws a staged wake
    /// away leaves the agent asleep.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn wake_at(&mut self, at: Tick) {
        assert!(at >= self.now, "wake_at({at}) is before now ({})", self.now);
        self.actions.push(Action::Wake(at));
    }

    /// Stages a wake-up `delay` ticks from now.
    pub fn wake_after(&mut self, delay: u64) {
        self.actions.push(Action::Wake(self.now + delay));
    }

    /// The staged actions, in the order they were produced.
    #[must_use]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Consumes the outbox, returning the staged actions.
    #[must_use]
    pub fn into_actions(self) -> Vec<Action> {
        self.actions
    }

    /// Whether nothing was staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Keeps "at most one pending [`Action::Wake`] per (agent, tick)": the
/// set of ticks an agent already has a wake-up staged for.
///
/// A requester recomputes "when do I next have work" in every handler. If
/// each of them staged its own wake-up, every delivery at a tick that
/// already had one would be a no-op that stages yet another duplicate,
/// and the chains never die while the agent has work. Staging through
/// [`WakeArm::arm`] keeps the *first-staged* wake of each tick and drops
/// the rest, which removes only no-op events and so preserves the
/// `(tick, seq)` order of every event that survives. It must never skip a
/// tick because an *earlier* one is armed: that would move the wake
/// behind same-tick messages.
///
/// # Examples
///
/// ```
/// use hsc_noc::{Outbox, WakeArm};
/// use hsc_sim::Tick;
///
/// let mut wakes = WakeArm::default();
/// let mut out = Outbox::new(Tick(0));
/// wakes.arm(Tick(40), &mut out);
/// wakes.arm(Tick(40), &mut out); // already armed: nothing staged
/// wakes.arm(Tick(80), &mut out); // a different tick is its own wake
/// assert_eq!(out.actions().len(), 2);
///
/// // `on_wake(40)`: the wake at 40 is spent, the one at 80 still pending.
/// let mut out = Outbox::new(Tick(40));
/// wakes.delivered(Tick(40));
/// wakes.arm(Tick(80), &mut out);
/// assert!(out.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WakeArm {
    /// Ticks with a staged, not yet delivered wake-up. A handful at most
    /// (next op, next retry deadline), so a linear scan beats any set.
    armed: Vec<Tick>,
}

impl WakeArm {
    /// Stages `out.wake_at(at)` unless a wake-up at `at` is already armed.
    ///
    /// # Panics
    ///
    /// Panics if it stages and `at` is in the past (see [`Outbox::wake_at`]).
    #[inline]
    pub fn arm(&mut self, at: Tick, out: &mut Outbox) {
        if !self.armed.contains(&at) {
            self.armed.push(at);
            out.wake_at(at);
        }
    }

    /// Forgets every armed tick up to `now`; call first thing in
    /// `on_wake(now)`. (`<=` rather than `==`: the model checker may
    /// deliver a late wake-up before an earlier one, and nothing arms a
    /// tick that is already in the past.)
    #[inline]
    pub fn delivered(&mut self, now: Tick) {
        self.armed.retain(|&t| t > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentId, MsgKind};
    use hsc_mem::LineAddr;

    #[test]
    fn hot_path_copy_sizes_are_pinned() {
        use std::mem::size_of;
        const WHY: &str = "every queued event costs that many bytes twice (staged in the Outbox, \
                           then copied into the queue's slab); a deliberate growth edits this pin";
        assert!(size_of::<Message>() <= 120, "Message is {} B: {WHY}", size_of::<Message>());
        assert!(size_of::<Action>() <= 128, "Action is {} B: {WHY}", size_of::<Action>());
    }

    #[test]
    fn actions_preserve_order() {
        let mut out = Outbox::new(Tick(5));
        out.wake_after(1);
        out.send(Message::new(AgentId::Dma, AgentId::Directory, LineAddr(0), MsgKind::DmaRd));
        out.wake_at(Tick(10));
        let acts = out.into_actions();
        assert_eq!(acts.len(), 3);
        assert!(matches!(acts[0], Action::Wake(Tick(6))));
        assert!(matches!(acts[1], Action::Send(_)));
        assert!(matches!(acts[2], Action::Wake(Tick(10))));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn waking_in_the_past_panics() {
        let mut out = Outbox::new(Tick(5));
        out.wake_at(Tick(4));
    }

    #[test]
    fn wake_arm_stages_each_tick_once_until_delivered() {
        let mut wakes = WakeArm::default();
        let mut out = Outbox::new(Tick(5));
        wakes.arm(Tick(9), &mut out);
        wakes.arm(Tick(7), &mut out);
        wakes.arm(Tick(9), &mut out);
        // An earlier armed tick never suppresses a later one, or vice versa.
        assert_eq!(out.actions(), [Action::Wake(Tick(9)), Action::Wake(Tick(7))]);
        // Delivery of tick 7 leaves tick 9 armed.
        wakes.delivered(Tick(7));
        let mut out = Outbox::new(Tick(7));
        wakes.arm(Tick(9), &mut out);
        assert!(out.is_empty());
        wakes.arm(Tick(7), &mut out);
        assert_eq!(out.actions(), [Action::Wake(Tick(7))]);
        // A late delivery forgets every tick it passed.
        wakes.delivered(Tick(20));
        let mut out = Outbox::new(Tick(20));
        wakes.arm(Tick(20), &mut out);
        assert_eq!(out.actions(), [Action::Wake(Tick(20))]);
    }

    #[test]
    fn empty_outbox_reports_empty() {
        let out = Outbox::new(Tick(0));
        assert!(out.is_empty());
        assert_eq!(out.now(), Tick(0));
    }

    #[test]
    fn send_after_stamps_future_tick() {
        let mut out = Outbox::new(Tick(10));
        out.send_after(
            7,
            Message::new(AgentId::Dma, AgentId::Directory, LineAddr(0), MsgKind::DmaRd),
        );
        assert!(matches!(out.actions()[0], Action::SendLater(Tick(17), _)));
    }
}

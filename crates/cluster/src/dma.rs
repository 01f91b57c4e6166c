use std::collections::{BTreeMap, VecDeque};

use hsc_mem::{Addr, LineAddr, LineData, LineMap, WORDS_PER_LINE};
use hsc_noc::{AgentId, Message, MsgKind, Outbox, RetryPolicy, RetryTracker, WakeArm, WordMask};
use hsc_sim::{StatSet, Tick};

use crate::{DmaCommand, DmaProgram, DmaScript};

/// The DMA engine of Fig. 1: issues `DMARd`/`DMAWr` line requests to the
/// directory and never caches (so it never participates in coherence
/// state, matching §IV's "DMA requests do not lead to any state
/// alteration").
///
/// Used by workloads to stage inputs (e.g. `cedd` video frames) while the
/// CPU and GPU are running, which exercises the Fig. 3 DMA paths of the
/// directory. It runs a [`DmaProgram`] as a descriptor ring: one command
/// at a time, read from the program with one command of lookahead.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    program: Box<dyn DmaProgram>,
    /// The program's next command, pulled one ahead so its issue time can
    /// arm a wake; `None` once the program is finished.
    next: Option<DmaCommand>,
    /// Commands taken from the program so far. With `next`, the program's
    /// position, which is what the state hash folds in.
    taken: u64,
    in_flight: LineMap<()>,
    window: usize,
    pending_lines: VecDeque<(LineAddr, Option<(LineData, WordMask)>)>,
    /// Every line a DMA read has returned, for the whole run: an unbounded
    /// store, not an in-flight table, so a tree and not a `LineMap`.
    read_data: BTreeMap<LineAddr, LineData>,
    retry: RetryTracker,
    /// Every self-wake after `start` is staged through this, so the engine
    /// never has two wake-ups pending at one tick. Timing, not protocol
    /// state: excluded from `hash_state`.
    wakes: WakeArm,
    n: DmaCounts,
}

/// Every count the DMA engine keeps; [`DmaEngine::stats`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct DmaCounts {
    reads: u64,
    writes: u64,
    retries: u64,
    stale_resps: u64,
    unexpected_msgs: u64,
}

impl DmaEngine {
    /// Creates an engine that will execute `commands` in order of their
    /// issue times, keeping up to `window` line requests in flight: the
    /// [`DmaScript`] shorthand for [`DmaEngine::from_program`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or a write base is not 8-byte aligned.
    #[must_use]
    pub fn new(commands: Vec<DmaCommand>, window: usize) -> Self {
        Self::from_program(Box::new(DmaScript::new(commands)), window)
    }

    /// Creates an engine that runs `program`, keeping up to `window` line
    /// requests in flight.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn from_program(mut program: Box<dyn DmaProgram>, window: usize) -> Self {
        assert!(window > 0, "DMA window must be positive");
        DmaEngine {
            next: program.next_command(),
            program,
            taken: 0,
            in_flight: LineMap::new(),
            window,
            pending_lines: VecDeque::new(),
            read_data: BTreeMap::new(),
            retry: RetryTracker::new(None),
            wakes: WakeArm::default(),
            n: DmaCounts::default(),
        }
    }

    /// Line requests currently in flight (an occupancy gauge for the
    /// epoch sampler).
    #[must_use]
    pub fn inflight_lines(&self) -> u64 {
        self.in_flight.len() as u64
    }

    /// Enables (or disables) request retry under fault injection. Both
    /// `DMARd` and `DMAWr` are idempotent at the directory, so the engine
    /// retries every in-flight line.
    #[must_use]
    pub fn with_retry(mut self, policy: Option<RetryPolicy>) -> Self {
        self.retry = RetryTracker::new(policy);
        self
    }

    /// The NoC endpoint of the engine.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        AgentId::Dma
    }

    /// Schedules the initial wake-up; call once before the run starts.
    pub fn start(&mut self, out: &mut Outbox) {
        out.wake_after(0);
    }

    /// Whether every command has fully completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next.is_none() && self.pending_lines.is_empty() && self.in_flight.is_empty()
    }

    /// Human-readable descriptions of everything still outstanding at the
    /// engine (in-flight line requests and not-yet-issued lines), for the
    /// watchdog's deadlock snapshot.
    pub fn pending_lines(&self) -> Vec<(LineAddr, String)> {
        let mut v: Vec<(LineAddr, String)> =
            self.in_flight.keys().map(|la| (la, String::from("DMA request in flight"))).collect();
        v.extend(self.pending_lines.iter().map(|&(la, w)| {
            let what = if w.is_some() { "queued DMA write" } else { "queued DMA read" };
            (la, String::from(what))
        }));
        v
    }

    /// Data returned by completed DMA reads, by line.
    #[must_use]
    pub fn read_data(&self) -> &BTreeMap<LineAddr, LineData> {
        &self.read_data
    }

    /// Engine statistics (`dma.reads`, `dma.writes`, `dma.retries`, and
    /// the diagnostics `dma.stale_resps`, `dma.unexpected_msgs` once they
    /// fire).
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let mut s = StatSet::new();
        s.set("dma.reads", n.reads);
        s.set("dma.writes", n.writes);
        s.set("dma.retries", n.retries);
        s.set_nonzero("dma.stale_resps", n.stale_resps);
        s.set_nonzero("dma.unexpected_msgs", n.unexpected_msgs);
        s
    }

    /// Folds all protocol-relevant state into `h` for the system state
    /// fingerprint: the program's position (the lookahead command and the
    /// count taken, which together name the remaining commands of a
    /// deterministic program), queued and in-flight lines, and completed
    /// read data. Excludes retry deadlines and statistics — same scoping
    /// rules as `CorePair::hash_state`. (Command issue times are part of
    /// the scenario definition, identical in every explored interleaving,
    /// so hashing them costs nothing.)
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.next.hash(h);
        self.taken.hash(h);
        self.in_flight.hash(h);
        self.pending_lines.hash(h);
        self.read_data.hash(h);
    }

    /// Handles a completion from the directory.
    pub fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        match &msg.kind {
            MsgKind::DmaRdResp { .. } | MsgKind::DmaWrAck
                if self.in_flight.remove(msg.line).is_some() =>
            {
                if let MsgKind::DmaRdResp { data } = msg.kind {
                    self.read_data.insert(msg.line, data);
                }
                self.retry.acked(msg.line);
            }
            // A duplicate response (original + retry both answered).
            MsgKind::DmaRdResp { .. } | MsgKind::DmaWrAck => self.n.stale_resps += 1,
            _ => self.n.unexpected_msgs += 1,
        }
        self.pump(now, out);
    }

    /// Advances the engine: expands due commands and issues line requests.
    pub fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
        self.wakes.delivered(now);
        let resent = self.retry.service(now, &mut self.wakes, out);
        self.n.retries += resent;
        self.pump(now, out);
    }

    fn pump(&mut self, now: Tick, out: &mut Outbox) {
        // Commands execute strictly in order, like a descriptor ring: the
        // next command is expanded only when the previous one has fully
        // completed. This lets workloads stage data and then a ready-flag
        // as two commands and rely on the flag implying the data landed.
        while self.next.as_ref().is_some_and(|c| c.at() <= now)
            && self.pending_lines.is_empty()
            && self.in_flight.is_empty()
        {
            let cmd = self.next.take().unwrap();
            self.next = self.program.next_command();
            self.taken += 1;
            debug_assert!(
                self.next.as_ref().is_none_or(|n| n.at() >= cmd.at()),
                "a DMA program's issue times never decrease"
            );
            match cmd {
                DmaCommand::Read { base, lines, .. } => {
                    let first = base.line();
                    for i in 0..lines {
                        self.pending_lines.push_back((LineAddr(first.0 + i), None));
                    }
                }
                DmaCommand::Write { base, words, .. } => {
                    let mut idx = 0usize;
                    while idx < words.len() {
                        let a = Addr(base.0 + (idx as u64) * 8);
                        let la = a.line();
                        let mut data = LineData::zeroed();
                        let mut mask = WordMask::empty();
                        let start_word = a.word_index();
                        let n = (WORDS_PER_LINE - start_word).min(words.len() - idx);
                        for k in 0..n {
                            data.set_word(start_word + k, words[idx + k]);
                            mask.set(start_word + k);
                        }
                        idx += n;
                        self.pending_lines.push_back((la, Some((data, mask))));
                    }
                }
            }
        }
        // Issue up to the window.
        while self.in_flight.len() < self.window {
            let Some((la, write)) = self.pending_lines.pop_front() else {
                break;
            };
            self.in_flight.insert(la, ());
            let kind = match write {
                None => {
                    self.n.reads += 1;
                    MsgKind::DmaRd
                }
                Some((data, mask)) => {
                    self.n.writes += 1;
                    MsgKind::DmaWr { data, mask }
                }
            };
            let msg = Message::new(AgentId::Dma, AgentId::Directory, la, kind);
            out.send(msg);
            self.retry.track_sent(msg, &mut self.wakes, out);
        }
        // If future commands remain and nothing is in flight to re-trigger
        // us, schedule a wake at the next command time.
        if self.in_flight.is_empty() && self.pending_lines.is_empty() {
            if let Some(c) = &self.next {
                self.wakes.arm(c.at().max(now), out);
            }
        }
    }
}

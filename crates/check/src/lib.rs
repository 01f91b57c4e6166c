//! Exhaustive protocol state-space explorer and litmus harness.
//!
//! The simulator proper (`hsc-core`) runs one *timed* interleaving per
//! seed: deterministic, fast, and blind to orderings its latency model
//! never produces. This crate closes that gap for tiny configurations
//! (2–3 agents, 1–2 cache lines, programs of a handful of ops) by
//! enumerating **every** legal delivery order of the pending events and
//! asserting protocol invariants at each reached state. A choice is an
//! event, not an index: each explored state takes its choice set from
//! [`System::pending_events`] once, checks it, and hands each event to
//! [`System::step_choice`]. The invariants are:
//!
//! * **SWMR** — a settled line never has two writable copies, nor a
//!   writable copy alongside stale readers;
//! * **value coherence** — all settled copies of a line agree, and clean
//!   copies match the freshest backing store (LLC, then memory);
//! * **no stuck states** — the only state with nothing left to deliver is
//!   clean completion (unless a fault scenario explicitly expects loss).
//!
//! The search branches by cloning: at a state with `n` choices it steps
//! `n - 1` clones and the state itself, so it never re-runs a path, and a
//! violation's counterexample is read off the system in hand: its path of
//! events and its flight-recorder tail.
//! States are deduplicated with the time-abstracted
//! [`System::state_hash`], so interleavings that differ only in *when*
//! (not *in what order*) things happened collapse, keeping exploration
//! tractable. When a violation is found, a breadth-first pass over the
//! same choice DAG produces a **minimized counterexample**: the shortest
//! event sequence reaching any violating state, printable as a numbered
//! event list and exportable as a Perfetto trace. Its steps alone replay
//! it: a step's `seq` is the same on every replay of one path from one
//! start.
//!
//! The [`litmus`] module packages the directed race scenarios (victim
//! vs. probe, duplicated reply, DMA vs. dirty L2, …) that PR 1's fault
//! campaigns probed statistically, now checked exhaustively.
//!
//! # Examples
//!
//! ```
//! use hsc_check::{explore, litmus, CheckConfig};
//! use hsc_core::SystemBuilder;
//!
//! // An empty system completes from every delivery order of its
//! // initial wake-ups: one terminal state, no violations.
//! let sys = SystemBuilder::new(litmus::tiny_config()).build();
//! let report = explore(&sys, &CheckConfig::default());
//! assert!(report.counterexample.is_none());
//! assert_eq!(report.terminal_states, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use hsc_mem::{LineAddr, LineData};
use hsc_noc::{Event, FlightRecord, PendingEvent};
use hsc_obs::PerfettoTrace;
use hsc_sim::Tick;

use hsc_cluster::MoesiState;
use hsc_core::System;

pub mod litmus;

/// A predicate over a cleanly completed system: `Err(reason)` marks the
/// final state as a violation (e.g. "a store was lost"). Borrowed, so a
/// scenario built at run time can close over its own expectations.
pub type FinalCheck<'a> = &'a dyn Fn(&System) -> Result<(), String>;

/// Stop after this many *distinct* states (truncates, not fails).
const MAX_STATES: u64 = 2_000_000;

/// Do not explore interleavings longer than this many events.
const MAX_DEPTH: usize = 256;

/// What a scenario asks of its exploration beyond the invariants.
#[derive(Clone, Default)]
pub struct CheckConfig<'a> {
    /// A state with no deliverable events but unfinished work is normally
    /// a stuck-state violation; scenarios that inject message loss with
    /// retries off set this to accept the resulting stall as an outcome.
    pub deadlock_ok: bool,
    /// Predicate applied to every cleanly completed terminal state.
    pub final_check: Option<FinalCheck<'a>>,
}

impl fmt::Debug for CheckConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckConfig")
            .field("deadlock_ok", &self.deadlock_ok)
            .field("final_check", &self.final_check.is_some())
            .finish()
    }
}

/// What a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two writable copies, or a writable copy alongside other readers.
    Swmr,
    /// Copies of a settled line disagree, or clean copies diverge from
    /// the freshest backing store.
    ValueCoherence,
    /// No deliverable events left but some agent still has work.
    Stuck,
    /// A cleanly completed run failed the scenario's final-state check.
    FinalState,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Swmr => "SWMR",
            ViolationKind::ValueCoherence => "value-coherence",
            ViolationKind::Stuck => "stuck-state",
            ViolationKind::FinalState => "final-state",
        })
    }
}

/// A violating interleaving: the event sequence (one [`PendingEvent`] per
/// step, in delivery order) that drives the explored system into the
/// violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics ("line 0x1000: 2 writable copies", …).
    pub detail: String,
    /// The chosen events, as they were pending when each was delivered;
    /// [`System::step_choice`] on each, in order, replays the path.
    pub steps: Vec<PendingEvent>,
    /// Whether the minimizer produced this (shortest known) or it is the
    /// raw DFS path.
    pub minimized: bool,
    /// The explored system's flight-recorder tail at the violating state:
    /// the last delivered messages (tick, destination, class, line),
    /// oldest first — the post-mortem view the steps list abstracts.
    pub flight: Vec<FlightRecord>,
}

impl Counterexample {
    /// The counterexample as a Perfetto trace: one instant event per
    /// delivery, on a single `counterexample` track, timestamped by step
    /// index so the viewer shows the order, not the (abstracted) time.
    #[must_use]
    pub fn to_perfetto(&self) -> PerfettoTrace {
        let mut t = PerfettoTrace::new();
        for (i, s) in self.steps.iter().enumerate() {
            t.instant("counterexample", &s.to_string(), "check", Tick(i as u64));
        }
        t.instant(
            "counterexample",
            &format!("{}: {}", self.kind, self.detail),
            "violation",
            Tick(self.steps.len() as u64),
        );
        // The flight tail keeps its own (real-tick) track: the
        // counterexample track is ordered by step index, the flight track
        // by simulated time.
        t.append_flight_tail(&self.flight);
        t
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violation after {} event(s){}: {}",
            self.kind,
            self.steps.len(),
            if self.minimized { " (minimized)" } else { "" },
            self.detail
        )?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {s}", i + 1)?;
        }
        if !self.flight.is_empty() {
            writeln!(
                f,
                "  flight recorder ({} delivered event(s), oldest first):",
                self.flight.len()
            )?;
            for e in &self.flight {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// What an exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct (time-abstracted) states reached.
    pub states: u64,
    /// States with nothing left to deliver and all work done.
    pub terminal_states: u64,
    /// Whether the state or depth limit (2,000,000 distinct states, 256
    /// events) cut the exploration short.
    pub truncated: bool,
    /// The first violation found, minimized, or `None` if every
    /// reachable state passed.
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// Whether every explored state satisfied every invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Exhaustively explores every delivery order of `root`'s event DAG
/// under `cfg`, returning statistics and the first violation found.
/// `root` itself is left as it was: the search runs on clones of it.
///
/// # Panics
///
/// Panics if the system reports a wiring error — that is a
/// configuration bug, not a protocol state to explore.
#[must_use]
pub fn explore(root: &System, cfg: &CheckConfig<'_>) -> ExploreReport {
    let mut start = root.clone();
    start.enable_choice_mode();
    let mut st = Search {
        cfg,
        visited: HashSet::new(),
        states: 0,
        terminals: 0,
        truncated: false,
        stop: false,
        violation: None,
    };
    st.dfs(&mut start.clone(), &mut Vec::new());

    let counterexample = st.violation.take().map(|raw| minimize(&start, cfg).unwrap_or(raw));
    ExploreReport {
        states: st.states,
        terminal_states: st.terminals,
        truncated: st.truncated,
        counterexample,
    }
}

struct Search<'a> {
    cfg: &'a CheckConfig<'a>,
    visited: HashSet<u64>,
    states: u64,
    terminals: u64,
    truncated: bool,
    stop: bool,
    violation: Option<Counterexample>,
}

impl Search<'_> {
    fn dfs(&mut self, sys: &mut System, path: &mut Vec<PendingEvent>) {
        if self.stop {
            return;
        }
        if !self.visited.insert(sys.state_hash()) {
            return;
        }
        self.states += 1;
        if self.states >= MAX_STATES {
            self.truncated = true;
            self.stop = true;
        }
        let pending = sys.pending_events();
        if let Some((kind, detail)) = classify(sys, &pending, self.cfg) {
            let steps = path.clone();
            let flight = sys.flight_tail();
            self.violation = Some(Counterexample { kind, detail, steps, minimized: false, flight });
            self.stop = true;
            return;
        }
        if pending.is_empty() {
            self.terminals += 1;
            return;
        }
        if path.len() >= MAX_DEPTH {
            self.truncated = true;
            return;
        }
        let n = pending.len();
        for (i, ev) in pending.into_iter().enumerate() {
            // Every child but the last steps a clone; the last one steps
            // `sys` itself, which no later sibling needs. The clone is
            // boxed: a 256-deep search then fits a 2 MiB thread stack
            // even unoptimized.
            let mut clone;
            let child = if i + 1 < n {
                clone = Box::new(sys.clone());
                &mut *clone
            } else {
                &mut *sys
            };
            child.step_choice(&ev).expect("explored step cannot fail");
            path.push(ev);
            self.dfs(child, path);
            path.pop();
            if self.stop {
                return;
            }
        }
    }
}

/// Checks every invariant at one state whose choice set is `pending`.
fn classify(
    sys: &System,
    pending: &[PendingEvent],
    cfg: &CheckConfig<'_>,
) -> Option<(ViolationKind, String)> {
    if let Some(v) = check_coherence(sys, pending) {
        return Some(v);
    }
    if pending.is_empty() {
        if !sys.is_done() {
            if cfg.deadlock_ok {
                return None;
            }
            let busy: Vec<String> = sys
                .deadlock_snapshot()
                .agents
                .iter()
                .map(|(agent, la, detail)| format!("{agent}: line {:#x}: {detail}", la.0))
                .collect();
            return Some((
                ViolationKind::Stuck,
                format!("nothing deliverable but work remains: [{}]", busy.join("; ")),
            ));
        }
        if let Some(f) = cfg.final_check {
            if let Err(reason) = f(sys) {
                return Some((ViolationKind::FinalState, reason));
            }
        }
    }
    None
}

/// The SWMR and value-coherence invariants over every *settled* line — a
/// line with no directory transaction, no L2 miss outstanding, no parked
/// victim and no pending message touching it. Lines mid-transaction are
/// legitimately incoherent (that is what the transaction is fixing);
/// TCP/TCC copies are exempt by design — VIPER tolerates stale GPU lines
/// until the next acquire.
fn check_coherence(sys: &System, pending: &[PendingEvent]) -> Option<(ViolationKind, String)> {
    let mut unsettled: HashSet<LineAddr> = HashSet::new();
    for ev in pending {
        if let Event::Deliver(m) = ev.event {
            unsettled.insert(m.line);
        }
    }
    let mut copies: BTreeMap<LineAddr, Vec<L2Copy>> = BTreeMap::new();
    for (i, cp) in sys.corepairs().iter().enumerate() {
        unsettled.extend(cp.mshr_lines());
        unsettled.extend(cp.victim_snapshot().into_iter().map(|(la, _)| la));
        for (la, state, data) in cp.l2_snapshot() {
            copies.entry(la).or_default().push((i, state, data));
        }
    }
    let dir = sys.directory();

    for (la, cs) in &copies {
        if unsettled.contains(la) || dir.has_active_txn(*la) {
            continue;
        }
        let writers = cs.iter().filter(|(_, s, _)| s.can_write()).count();
        let owners = cs.iter().filter(|(_, s, _)| *s == MoesiState::Owned).count();
        if writers > 1 {
            return Some((
                ViolationKind::Swmr,
                format!("line {:#x}: {writers} writable copies in {}", la.0, describe(cs, 0)),
            ));
        }
        if writers == 1 && cs.len() > 1 {
            return Some((
                ViolationKind::Swmr,
                format!(
                    "line {:#x}: a writable copy coexists with {} other(s) in {}",
                    la.0,
                    cs.len() - 1,
                    describe(cs, 0)
                ),
            ));
        }
        if owners > 1 {
            return Some((
                ViolationKind::Swmr,
                format!("line {:#x}: {owners} Owned copies in {}", la.0, describe(cs, 0)),
            ));
        }
        let backing = dir.llc().peek(*la).map_or_else(|| sys.memory().read_line(*la), |l| l.data);
        if let Some(detail) = divergence(*la, cs, backing) {
            return Some((ViolationKind::ValueCoherence, detail));
        }
    }
    None
}

/// One L2's copy of a line: the pair's index, its state, its data.
type L2Copy = (usize, MoesiState, LineData);

/// Value coherence of one settled line's L2 copies: they agree, and with
/// no dirty copy among them they equal `backing` (the LLC's copy, else
/// memory's). A divergence names the first word that differs.
fn divergence(la: LineAddr, cs: &[L2Copy], backing: LineData) -> Option<String> {
    let first = cs[0].2;
    let diff = |d: &LineData| (0..d.words().len()).find(|&w| d.word(w) != first.word(w));
    if let Some(w) = cs.iter().find_map(|(_, _, d)| diff(d)) {
        return Some(format!("line {:#x}: copies disagree in {}", la.0, describe(cs, w)));
    }
    if cs.iter().any(|(_, s, _)| s.forwards_dirty()) {
        return None;
    }
    diff(&backing).map(|w| {
        format!(
            "line {:#x}: clean copies (word{w}={:#x}) diverge from backing (word{w}={:#x})",
            la.0,
            first.word(w),
            backing.word(w)
        )
    })
}

/// Each copy's holder, state and word `w`.
fn describe(cs: &[L2Copy], w: usize) -> String {
    let parts: Vec<String> =
        cs.iter().map(|(cp, s, d)| format!("L2[{cp}]:{s:?}(word{w}={:#x})", d.word(w))).collect();
    format!("[{}]", parts.join(", "))
}

/// Breadth-first search from `start` for the *shortest* path to any
/// violating state, using the same visited-set abstraction as the DFS.
/// A node is the event it stepped and a parent pointer, replayed when
/// expanded: a frontier of whole systems would cost ≈ 87 KB a node.
/// Returns `None` only if the violation is unreachable within the limits
/// (possible when the DFS truncated).
fn minimize(start: &System, cfg: &CheckConfig<'_>) -> Option<Counterexample> {
    struct Node {
        parent: usize,
        step: Option<PendingEvent>,
    }
    let mut nodes: Vec<Node> = vec![Node { parent: usize::MAX, step: None }];
    let mut visited: HashSet<u64> = HashSet::new();
    let mut frontier: Vec<usize> = vec![0];
    let mut expanded: u64 = 0;

    let path_of = |nodes: &[Node], mut idx: usize| {
        let mut p = Vec::new();
        while let Some(ev) = &nodes[idx].step {
            p.push(ev.clone());
            idx = nodes[idx].parent;
        }
        p.reverse();
        p
    };

    visited.insert(start.state_hash());
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &idx in &frontier {
            let steps = path_of(&nodes, idx);
            let mut sys = start.clone();
            for ev in &steps {
                sys.step_choice(ev).expect("replayed step cannot fail");
            }
            let pending = sys.pending_events();
            if let Some((kind, detail)) = classify(&sys, &pending, cfg) {
                let flight = sys.flight_tail();
                return Some(Counterexample { kind, detail, steps, minimized: true, flight });
            }
            expanded += 1;
            if expanded >= MAX_STATES || steps.len() >= MAX_DEPTH {
                continue;
            }
            for ev in pending {
                let mut child = sys.clone();
                child.step_choice(&ev).expect("minimizer step cannot fail");
                if visited.insert(child.state_hash()) {
                    nodes.push(Node { parent: idx, step: Some(ev) });
                    next.push(nodes.len() - 1);
                }
            }
        }
        frontier = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsc_core::SystemBuilder;

    fn empty() -> System {
        SystemBuilder::new(litmus::tiny_config()).build()
    }

    #[test]
    fn empty_system_has_one_terminal_state() {
        let r = explore(&empty(), &CheckConfig::default());
        assert!(r.passed());
        // Orders of the initial wake-ups are distinct states, but they
        // all drain into the single completed state.
        assert_eq!(r.terminal_states, 1);
        assert!(r.states >= 1);
        assert!(!r.truncated);
    }

    #[test]
    fn final_check_failures_become_counterexamples() {
        let cfg = CheckConfig {
            final_check: Some(&|_s: &System| Err("always wrong".to_owned())),
            ..CheckConfig::default()
        };
        let r = explore(&empty(), &cfg);
        let cx = r.counterexample.expect("must fail");
        assert_eq!(cx.kind, ViolationKind::FinalState);
        assert!(cx.minimized);
        assert!(cx.to_string().contains("always wrong"));
        assert_eq!(
            cx.to_perfetto().len(),
            cx.steps.len() + 1 + cx.flight.len(),
            "one instant per step + verdict + flight tail"
        );
    }

    #[test]
    fn state_count_is_deterministic() {
        let sys = empty();
        let a = explore(&sys, &CheckConfig::default());
        let b = explore(&sys, &CheckConfig::default());
        assert_eq!(a.states, b.states);
        assert_eq!(a.terminal_states, b.terminal_states);
    }

    #[test]
    fn divergence_names_the_first_word_that_differs() {
        // Equal in word 0, different in word 7: the message must not print
        // two equal word-0 values.
        let a = LineData::from_words([5, 0, 0, 0, 0, 0, 0, 1]);
        let b = LineData::from_words([5, 0, 0, 0, 0, 0, 0, 2]);
        let la = LineAddr(0x1000);
        let s = MoesiState::Shared;
        assert_eq!(
            divergence(la, &[(0, s, a), (1, s, b)], a).as_deref(),
            Some("line 0x1000: copies disagree in [L2[0]:Shared(word7=0x1), L2[1]:Shared(word7=0x2)]")
        );
        assert_eq!(
            divergence(la, &[(0, s, a)], b).as_deref(),
            Some("line 0x1000: clean copies (word7=0x1) diverge from backing (word7=0x2)")
        );
        assert_eq!(divergence(la, &[(0, s, a), (1, s, a)], a), None);
        assert_eq!(divergence(la, &[(0, MoesiState::Owned, a)], b), None, "dirty copy");
    }
}

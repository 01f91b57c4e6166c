//! In-memory trace representation, canonical serialization, and the
//! expected-final-memory computation that makes traces self-verifying.

use std::collections::BTreeMap;
use std::fmt;

use hsc_mem::{Addr, AtomicKind};

/// First line of every trace file (the version gate).
pub const TRACE_HEADER: &str = "hsc-trace v1";

/// Base byte address of the reserved expectation-mismatch flag words: one
/// word per stream, written by a replayed program the first time a
/// `read … expect v` (or `atomic … expect v`) sees a different value, and
/// checked by [`super::TraceWorkload`]'s `verify`. Traces may not touch
/// this range; the parser rejects addresses inside it.
pub const MISMATCH_BASE: u64 = 0x7FF0_0000;

/// Number of reserved mismatch-flag words (one per stream; also the
/// maximum stream count a trace may declare).
pub const RESERVED_WORDS: u64 = 256;

/// The kind of agent a trace stream replays on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// A CPU thread (in-order, blocking; placed two-per-CorePair).
    Cpu,
    /// A GPU wavefront (vector ops, SLC atomics, acquire/release fences).
    Gpu,
    /// DMA transfers (line reads, word writes; never caches).
    Dma,
}

impl StreamKind {
    /// The keyword used in the text format.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            StreamKind::Cpu => "cpu",
            StreamKind::Gpu => "gpu",
            StreamKind::Dma => "dma",
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A GPU memory fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Acquire: invalidate the CU's TCP so later loads see fresh data.
    Acquire,
    /// Release: block until prior stores are system-visible.
    Release,
}

impl FenceKind {
    /// The keyword used in the text format.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            FenceKind::Acquire => "acquire",
            FenceKind::Release => "release",
        }
    }
}

/// One operation of a trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// Load the word at `addr`; if `expect` is set, the replayed program
    /// raises its stream's mismatch flag when the loaded value differs.
    Read {
        /// Word address (8-byte aligned).
        addr: Addr,
        /// Expected loaded value, if the trace asserts one.
        expect: Option<u64>,
    },
    /// Store `value` to the word at `addr`.
    Write {
        /// Word address (8-byte aligned).
        addr: Addr,
        /// Value stored.
        value: u64,
    },
    /// Read-modify-write the word at `addr`; `expect` names the expected
    /// *old* value, if asserted.
    Atomic {
        /// Word address (8-byte aligned).
        addr: Addr,
        /// The read-modify-write applied.
        kind: AtomicKind,
        /// Expected old value, if the trace asserts one.
        expect: Option<u64>,
    },
    /// A GPU memory fence (gpu streams only).
    Fence(FenceKind),
}

impl TraceOp {
    /// The word address this op touches, if it touches memory.
    #[must_use]
    pub fn addr(&self) -> Option<Addr> {
        match self {
            TraceOp::Read { addr, .. }
            | TraceOp::Write { addr, .. }
            | TraceOp::Atomic { addr, .. } => Some(*addr),
            TraceOp::Fence(_) => None,
        }
    }

    /// Whether this op can change the word at its address.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, TraceOp::Write { .. } | TraceOp::Atomic { .. })
    }
}

/// One per-agent operation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStream {
    /// What kind of agent replays this stream.
    pub kind: StreamKind,
    /// The operations, in program order.
    pub ops: Vec<TraceOp>,
}

/// A parsed trace: initial memory contents plus per-agent streams.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceProgram {
    /// Pre-run word initializations, in file order.
    pub init: Vec<(Addr, u64)>,
    /// The streams, in declaration order (replay assigns CPU threads,
    /// wavefronts and DMA commands in this order).
    pub streams: Vec<TraceStream>,
}

/// A malformed-trace diagnosis: the 1-based input line and what is wrong
/// with it. The parser never panics; every rejection comes back as one of
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the input text.
    pub line: usize,
    /// What is wrong with that line.
    pub message: String,
}

impl TraceError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        TraceError { line, message: message.into() }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// What the trace pins the final coherent value of one word to.
///
/// Computed from the trace alone (no simulation) by
/// [`TraceProgram::expected_final`]; see DESIGN.md "Trace-driven
/// workloads" for the soundness argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// The final value is determined regardless of interleaving: the word
    /// is never written, has a single writing stream (its program order
    /// fixes the value timeline), or is written only by commutative
    /// atomics of one kind (order-independent fold).
    Exact(u64),
    /// Multiple streams plain-store the word: the final value is the last
    /// store of *some* stream, so it must be a member of this set (sorted,
    /// deduplicated).
    OneOf(Vec<u64>),
    /// Writer mix the trace cannot predict (e.g. stores racing atomics, or
    /// mixed atomic kinds): verification skips the word.
    Unconstrained,
}

impl TraceProgram {
    /// Number of streams of the given kind.
    #[must_use]
    pub fn stream_count(&self, kind: StreamKind) -> usize {
        self.streams.iter().filter(|s| s.kind == kind).count()
    }

    /// Canonical text form: parses back to an equal program, and
    /// re-serializing the re-parse is byte-identical (the round-trip
    /// contract the differential fuzz pins).
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(TRACE_HEADER);
        out.push('\n');
        for (a, v) in &self.init {
            writeln!(out, "init 0x{:x} {v}", a.0).unwrap();
        }
        for s in &self.streams {
            writeln!(out, "stream {}", s.kind).unwrap();
            for op in &s.ops {
                match op {
                    TraceOp::Read { addr, expect } => {
                        write!(out, "read 0x{:x}", addr.0).unwrap();
                        if let Some(e) = expect {
                            write!(out, " expect {e}").unwrap();
                        }
                        out.push('\n');
                    }
                    TraceOp::Write { addr, value } => {
                        writeln!(out, "write 0x{:x} {value}", addr.0).unwrap();
                    }
                    TraceOp::Atomic { addr, kind, expect } => {
                        write!(out, "atomic 0x{:x} ", addr.0).unwrap();
                        match kind {
                            AtomicKind::FetchAdd(v) => write!(out, "add {v}").unwrap(),
                            AtomicKind::Exchange(v) => write!(out, "exch {v}").unwrap(),
                            AtomicKind::CompareSwap { expect, new } => {
                                write!(out, "cas {expect} {new}").unwrap();
                            }
                            AtomicKind::FetchMax(v) => write!(out, "max {v}").unwrap(),
                            AtomicKind::FetchMin(v) => write!(out, "min {v}").unwrap(),
                            AtomicKind::FetchAnd(v) => write!(out, "and {v}").unwrap(),
                            AtomicKind::FetchOr(v) => write!(out, "or {v}").unwrap(),
                            AtomicKind::FetchXor(v) => write!(out, "xor {v}").unwrap(),
                        }
                        if let Some(e) = expect {
                            write!(out, " expect {e}").unwrap();
                        }
                        out.push('\n');
                    }
                    TraceOp::Fence(k) => writeln!(out, "fence {}", k.keyword()).unwrap(),
                }
            }
        }
        out
    }

    /// The initial value of the word at `a` (last `init` wins; untouched
    /// memory is zero, like freshly mapped anonymous memory).
    #[must_use]
    pub fn initial_word(&self, a: Addr) -> u64 {
        self.init.iter().rev().find(|(ia, _)| *ia == a).map_or(0, |(_, v)| *v)
    }

    /// Computes, from the trace alone, what each touched word must hold
    /// after a coherent run — the heart of trace self-verification:
    ///
    /// * **no writer** → [`Expectation::Exact`] (the initial value);
    /// * **one writing stream** → `Exact` (replay that stream's writes in
    ///   program order; in-order agents and coherence make its value
    ///   timeline interleaving-independent);
    /// * **many writers, all commutative atomics of one kind**
    ///   (`add`/`max`/`min`/`and`/`or`/`xor`) → `Exact` (order-free fold);
    /// * **many writers, all plain stores** → [`Expectation::OneOf`] the
    ///   streams' last-stored values (the global last write is the last
    ///   write of some stream);
    /// * anything else → [`Expectation::Unconstrained`] (skipped).
    #[must_use]
    pub fn expected_final(&self) -> BTreeMap<Addr, Expectation> {
        // Per word address: per-stream write ops, in program order.
        let mut writers: BTreeMap<Addr, Vec<(usize, Vec<TraceOp>)>> = BTreeMap::new();
        // Every touched word with its initial value: collecting lets the
        // last `init` win, as `initial_word` does with a scan per word.
        let mut touched: BTreeMap<Addr, u64> = self.init.iter().copied().collect();
        for (si, s) in self.streams.iter().enumerate() {
            for op in &s.ops {
                let Some(a) = op.addr() else { continue };
                touched.entry(a).or_insert(0);
                if !op.is_write() {
                    continue;
                }
                let per_addr = writers.entry(a).or_default();
                match per_addr.last_mut() {
                    Some((last_si, ops)) if *last_si == si => ops.push(*op),
                    _ => per_addr.push((si, vec![*op])),
                }
            }
        }
        // A stream may appear in several runs of `per_addr` only if another
        // stream wrote in between — impossible here since we walk streams
        // one at a time, so each stream contributes exactly one entry.
        let mut out = BTreeMap::new();
        for (a, init) in touched {
            let exp = match writers.get(&a) {
                None => Expectation::Exact(init),
                Some(per_stream) if per_stream.len() == 1 => {
                    let mut v = init;
                    for op in &per_stream[0].1 {
                        v = match op {
                            TraceOp::Write { value, .. } => *value,
                            TraceOp::Atomic { kind, .. } => kind.next(v),
                            _ => unreachable!("only writes are collected"),
                        };
                    }
                    Expectation::Exact(v)
                }
                Some(per_stream) => multi_writer_expectation(init, per_stream),
            };
            out.insert(a, exp);
        }
        out
    }
}

/// Discriminant for "same commutative atomic kind" across writers.
fn commutative_class(k: AtomicKind) -> Option<u8> {
    match k {
        AtomicKind::FetchAdd(_) => Some(0),
        AtomicKind::FetchMax(_) => Some(1),
        AtomicKind::FetchMin(_) => Some(2),
        AtomicKind::FetchAnd(_) => Some(3),
        AtomicKind::FetchOr(_) => Some(4),
        AtomicKind::FetchXor(_) => Some(5),
        AtomicKind::Exchange(_) | AtomicKind::CompareSwap { .. } => None,
    }
}

fn multi_writer_expectation(init: u64, per_stream: &[(usize, Vec<TraceOp>)]) -> Expectation {
    let all_ops = || per_stream.iter().flat_map(|(_, ops)| ops.iter());
    // All commutative atomics of one kind: fold order-free.
    let classes: Vec<Option<u8>> = all_ops()
        .map(|op| match op {
            TraceOp::Atomic { kind, .. } => commutative_class(*kind),
            _ => None,
        })
        .collect();
    if let Some(class) = classes[0] {
        if classes.iter().all(|c| *c == Some(class)) {
            let mut v = init;
            for op in all_ops() {
                if let TraceOp::Atomic { kind, .. } = op {
                    v = kind.next(v);
                }
            }
            return Expectation::Exact(v);
        }
    }
    // All plain stores: the final value is some stream's last store.
    if all_ops().all(|op| matches!(op, TraceOp::Write { .. })) {
        let mut candidates: Vec<u64> = per_stream
            .iter()
            .map(|(_, ops)| match ops.last() {
                Some(TraceOp::Write { value, .. }) => *value,
                _ => unreachable!("all ops are stores"),
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        return Expectation::OneOf(candidates);
    }
    Expectation::Unconstrained
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(a: u64) -> TraceOp {
        TraceOp::Read { addr: Addr(a), expect: None }
    }
    fn write(a: u64, v: u64) -> TraceOp {
        TraceOp::Write { addr: Addr(a), value: v }
    }
    fn add(a: u64, v: u64) -> TraceOp {
        TraceOp::Atomic { addr: Addr(a), kind: AtomicKind::FetchAdd(v), expect: None }
    }
    fn stream(kind: StreamKind, ops: Vec<TraceOp>) -> TraceStream {
        TraceStream { kind, ops }
    }

    #[test]
    fn read_only_words_expect_their_initial_value() {
        let p = TraceProgram {
            init: vec![(Addr(0x100), 7)],
            streams: vec![
                stream(StreamKind::Cpu, vec![read(0x100), read(0x200)]),
                stream(StreamKind::Gpu, vec![read(0x100)]),
            ],
        };
        let exp = p.expected_final();
        assert_eq!(exp[&Addr(0x100)], Expectation::Exact(7));
        assert_eq!(exp[&Addr(0x200)], Expectation::Exact(0), "untouched memory is zero");
    }

    #[test]
    fn single_writer_replays_program_order() {
        let p = TraceProgram {
            init: vec![(Addr(0x100), 5)],
            streams: vec![
                stream(
                    StreamKind::Cpu,
                    vec![
                        write(0x100, 9),
                        add(0x100, 3),
                        TraceOp::Atomic {
                            addr: Addr(0x100),
                            kind: AtomicKind::CompareSwap { expect: 12, new: 40 },
                            expect: None,
                        },
                    ],
                ),
                stream(StreamKind::Gpu, vec![read(0x100)]),
            ],
        };
        assert_eq!(p.expected_final()[&Addr(0x100)], Expectation::Exact(40));
    }

    #[test]
    fn commuting_atomics_fold_order_free() {
        let p = TraceProgram {
            init: vec![(Addr(0x40), 100)],
            streams: vec![
                stream(StreamKind::Cpu, vec![add(0x40, 1), add(0x40, 2)]),
                stream(StreamKind::Gpu, vec![add(0x40, 10)]),
            ],
        };
        assert_eq!(p.expected_final()[&Addr(0x40)], Expectation::Exact(113));
    }

    #[test]
    fn racing_stores_yield_a_candidate_set() {
        let p = TraceProgram {
            init: vec![],
            streams: vec![
                stream(StreamKind::Cpu, vec![write(0x80, 1), write(0x80, 2)]),
                stream(StreamKind::Gpu, vec![write(0x80, 9)]),
            ],
        };
        // Last store per stream: 2 and 9 (the intermediate 1 cannot win).
        assert_eq!(p.expected_final()[&Addr(0x80)], Expectation::OneOf(vec![2, 9]));
    }

    #[test]
    fn stores_racing_atomics_are_unconstrained() {
        let p = TraceProgram {
            init: vec![],
            streams: vec![
                stream(StreamKind::Cpu, vec![write(0x80, 1)]),
                stream(StreamKind::Gpu, vec![add(0x80, 1)]),
            ],
        };
        assert_eq!(p.expected_final()[&Addr(0x80)], Expectation::Unconstrained);
    }

    #[test]
    fn mixed_atomic_kinds_are_unconstrained() {
        let p = TraceProgram {
            init: vec![],
            streams: vec![
                stream(StreamKind::Cpu, vec![add(0x80, 1)]),
                stream(
                    StreamKind::Gpu,
                    vec![TraceOp::Atomic {
                        addr: Addr(0x80),
                        kind: AtomicKind::FetchMax(5),
                        expect: None,
                    }],
                ),
            ],
        };
        assert_eq!(p.expected_final()[&Addr(0x80)], Expectation::Unconstrained);
    }

    #[test]
    fn exchange_by_many_streams_is_unconstrained() {
        let p = TraceProgram {
            init: vec![],
            streams: vec![
                stream(
                    StreamKind::Cpu,
                    vec![TraceOp::Atomic {
                        addr: Addr(0x80),
                        kind: AtomicKind::Exchange(1),
                        expect: None,
                    }],
                ),
                stream(
                    StreamKind::Gpu,
                    vec![TraceOp::Atomic {
                        addr: Addr(0x80),
                        kind: AtomicKind::Exchange(2),
                        expect: None,
                    }],
                ),
            ],
        };
        assert_eq!(p.expected_final()[&Addr(0x80)], Expectation::Unconstrained);
    }

    #[test]
    fn last_init_wins() {
        let p = TraceProgram {
            init: vec![(Addr(0x100), 1), (Addr(0x108), 7), (Addr(0x100), 2)],
            streams: vec![stream(StreamKind::Cpu, vec![add(0x108, 1), read(0x110)])],
        };
        assert_eq!(p.initial_word(Addr(0x100)), 2);
        // The expectations start from `initial_word`, duplicates included.
        let exp = p.expected_final();
        for a in [0x100, 0x110] {
            assert_eq!(exp[&Addr(a)], Expectation::Exact(p.initial_word(Addr(a))));
        }
        assert_eq!(exp[&Addr(0x108)], Expectation::Exact(p.initial_word(Addr(0x108)) + 1));
    }

    #[test]
    fn counts_cover_kinds_and_ops() {
        let p = TraceProgram {
            init: vec![],
            streams: vec![
                stream(StreamKind::Cpu, vec![read(0), read(8)]),
                stream(StreamKind::Dma, vec![read(64)]),
            ],
        };
        assert_eq!(p.stream_count(StreamKind::Cpu), 1);
        assert_eq!(p.stream_count(StreamKind::Gpu), 0);
        assert_eq!(p.stream_count(StreamKind::Dma), 1);
    }
}

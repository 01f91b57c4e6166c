//! Trace-driven workloads: replayable access streams from files and a
//! seeded traffic generator (the closed ROADMAP item "trace-driven
//! workloads").
//!
//! The paper evaluates coherence on a fixed set of CHAI benchmarks; this
//! module opens the scenario space to *unbounded* workloads the way the
//! cachesim exemplars drive every simulator from `<input_file>` trace
//! arguments, and the way Rhea generates stimulus streams for RTL
//! coherence validation:
//!
//! * [`TraceProgram`] — the in-memory form of the versioned plain-text
//!   **`hsc-trace v1`** format: per-agent streams of
//!   `read`/`write`/`atomic`/`fence` operations with word addresses and
//!   optional expected data, plus initial memory contents. The
//!   dependency-free parser reports malformed input as line-numbered
//!   [`TraceError`]s — never panics — and the canonical serializer
//!   round-trips byte-identically.
//! * [`TraceWorkload`] — a [`crate::Workload`] that schedules the parsed
//!   streams onto CPU threads, GPU wavefronts, and the DMA engine, and
//!   self-verifies by computing the expected final coherent memory from
//!   the trace alone (see [`TraceProgram::expected_final`]).
//! * [`gen`] — a deterministic seeded traffic generator (zipf-distributed
//!   addresses, tunable read/write/atomic mix, sharing-degree and
//!   ping-pong knobs) that emits the same format, so scenario count is
//!   unbounded; `hsc trace-gen` writes corpus files.
//!
//! # Format
//!
//! ```text
//! hsc-trace v1
//! # full-line comments and blank lines are ignored
//! init 0x1000 42            # pre-run memory word (before any stream)
//! stream cpu
//! read 0x1000 expect 42     # optional expected loaded value
//! write 0x1040 7
//! atomic 0x1080 add 1       # add|exch|max|min|and|or|xor <v> | cas <e> <n>
//! stream gpu
//! read 0x1000
//! fence acquire             # acquire|release — gpu streams only
//! stream dma
//! read 0x2000               # one-line DMA read
//! write 0x2040 3            # one-word DMA write
//! ```
//!
//! Addresses are 8-byte-aligned byte addresses (hex `0x…` or decimal);
//! values are `u64`. `expect` is allowed on `read`/`atomic` in `cpu` and
//! `gpu` streams (for atomics it names the expected *old* value);
//! `atomic` and `fence` are rejected on `dma` streams, `fence` on `cpu`
//! streams. The address range starting at [`MISMATCH_BASE`] is reserved
//! for the expectation-mismatch flags and rejected by the parser.

mod format;
pub mod gen;
mod parse;
mod workload;
mod zipf;

pub use format::{
    Expectation, FenceKind, StreamKind, TraceError, TraceOp, TraceProgram, TraceStream,
    MISMATCH_BASE, RESERVED_WORDS, TRACE_HEADER,
};
pub use gen::{presets, TrafficSpec};
pub use workload::TraceWorkload;
pub use zipf::Zipf;

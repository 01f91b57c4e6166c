//! Deterministic discrete-event simulation core for the HSC reproduction.
//!
//! This crate provides the timing substrate shared by every other crate in
//! the workspace:
//!
//! * [`Tick`] — the global simulated-time unit (1/38.5 GHz ≈ 26 ps),
//! * [`WheelQueue`] — a timing ring of timestamped events (one slot per
//!   tick for the next 8192 ticks, a heap beyond) with deterministic FIFO
//!   tie-breaking and O(1) insert/pop for the small fixed deltas the
//!   simulator overwhelmingly schedules,
//! * [`StatSet`] and [`Histogram`] — what a run exports: the string-keyed
//!   counter set each controller's `stats()` writes from its plain counter
//!   fields at report time, and latency distributions; every figure of
//!   the paper is regenerated from them,
//! * [`DetRng`] — a small, seedable, splittable PRNG so that workload
//!   generation is reproducible bit-for-bit across runs and platforms,
//! * [`TransitionMatrix`] — dense `[from][to][cause]` protocol-transition
//!   counters (one array increment per transition; controllers derive
//!   the counters a transition implies from its cells),
//! * [`Fnv1a`] — the stable hasher behind state fingerprints.
//!
//! Nothing here names an agent, a message or a line: the events a run
//! schedules, its typed outcome (`SimError`) and its post-mortem (the
//! flight recorder, stall snapshots) live in `hsc-noc`, beside the
//! protocol vocabulary they are written in.
//!
//! The simulator is single-threaded by design: determinism is what lets the
//! test-suite assert exact probe/memory-access counts against golden values.
//! Parallelism lives one layer up, in `hsc_bench::par`, which runs whole
//! independent simulations as campaign jobs — each worker owns its engine;
//! only plain-data results ([`StatSet`], [`Histogram`], and the run's typed
//! outcome) cross threads, merged deterministically in job-submission order.
//!
//! # Examples
//!
//! ```
//! use hsc_sim::{Tick, WheelQueue};
//!
//! let mut q = WheelQueue::new();
//! q.schedule(Tick(5), "later");
//! q.schedule(Tick(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Tick(1), "sooner"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fnv;
mod rng;
mod stats;
mod tick;
mod transition;
mod wheel;

pub use fnv::{fnv1a, Fnv1a};
pub use rng::DetRng;
pub use stats::{Histogram, StatSet};
pub use tick::Tick;
pub use transition::TransitionMatrix;
pub use wheel::{Held, WheelQueue};

// Compile-time proof that campaign job results built from this crate's
// statistics cross threads (`hsc_bench::par`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StatSet>();
    assert_send::<Histogram>();
    assert_send::<TransitionMatrix>();
};

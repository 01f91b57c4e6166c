//! Observability layer for the HSC reproduction.
//!
//! Everything here is diagnostic: enabling it must never change what the
//! simulator computes, and disabling it must cost nothing. Five pillars:
//!
//! * [`TxnTracker`] — a span per coherence transaction (request dispatch →
//!   requester completion), aggregated into per-class latency
//!   [`hsc_sim::Histogram`]s,
//! * [`EpochSampler`] — occupancy gauges and counter deltas sampled at
//!   fixed epochs of simulated time,
//! * [`PerfettoTrace`] — Chrome-trace-format JSON
//!   loadable in `ui.perfetto.dev`,
//! * [`RunReport`] — the versioned machine-readable JSON report emitted by
//!   the bench binaries behind `--report`,
//! * [`SharingTracker`] — directory-side sharing-pattern analytics
//!   (sharer-count and probe-fan-out histograms, per-line lifetime
//!   classification into private / read-shared / migratory / ping-pong).
//!
//! The engine drives all of it through one [`Observer`], whose hooks are
//! inert when built from [`ObsConfig::off`].
//!
//! # Examples
//!
//! ```
//! use hsc_obs::{ObsConfig, Observer};
//!
//! let o = Observer::new(ObsConfig::off());
//! assert!(!o.is_enabled());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytics;
mod config;
pub mod json;
mod observer;
mod perfetto;
mod report;
mod sampler;
mod span;

pub use analytics::{
    LineSharing, Offender, SharingClass, SharingReport, SharingTracker, SHARING_HIST_SLOTS,
    SHARING_LINE_CAP, TOP_OFFENDERS,
};
pub use config::ObsConfig;
pub use observer::{AgentProfile, ObsData, Observer};
pub use perfetto::PerfettoTrace;
pub use report::{
    git_describe, LatencySummary, RunRecord, RunReport, REPORT_SCHEMA, REPORT_SCHEMA_VERSION,
};
pub use sampler::{EpochSampler, TimeSeries};
pub use span::{ClosedSpan, TxnTracker};

// Compile-time proof that run records and collected observer output are
// `Send`: parallel campaign workers (`hsc_bench::par`) return them across
// threads, and the driver collects them in submission order.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ObsData>();
    assert_send::<RunRecord>();
    assert_send::<RunReport>();
    assert_send::<TimeSeries>();
    assert_send::<AgentProfile>();
    assert_send::<PerfettoTrace>();
    assert_send::<SharingTracker>();
    assert_send::<SharingReport>();
};

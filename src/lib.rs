//! `hsc-repro` — umbrella crate of the HSC reproduction.
//!
//! Re-exports the whole workspace under one name so the examples and
//! integration tests (and downstream users who just want "the simulator")
//! need a single dependency. See README.md for the architecture overview
//! and DESIGN.md for the paper-to-module map.
//!
//! # Quick start
//!
//! ```
//! use hsc_repro::prelude::*;
//!
//! // Run the input-partitioned histogram on the baseline protocol and on
//! // the paper's sharer-tracking directory, both functionally verified.
//! let bench = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
//! let base = run_workload_on(&bench, SystemConfig::with_coherence(CoherenceConfig::baseline()));
//! let trk =
//!     run_workload_on(&bench, SystemConfig::with_coherence(CoherenceConfig::sharer_tracking()));
//! assert!(trk.probes_sent < base.probes_sent);
//! ```

#![warn(missing_docs)]

pub use hsc_bench as bench;
pub use hsc_check as check;
pub use hsc_cluster as cluster;
pub use hsc_core as core;
pub use hsc_mem as mem;
pub use hsc_noc as noc;
pub use hsc_obs as obs;
pub use hsc_sim as sim;
pub use hsc_workloads as workloads;

/// The names almost every user of the simulator needs.
pub mod prelude {
    pub use hsc_bench::par::{Campaign, JobError, JobResult, Parallelism};
    pub use hsc_check::litmus::Litmus;
    pub use hsc_check::{explore, CheckConfig, Counterexample, ExploreReport, ViolationKind};
    pub use hsc_cluster::{CoreProgram, CpuOp, CpuScript, GpuOp, GpuScript, WavefrontProgram};
    pub use hsc_core::{
        CleanVictimPolicy, CoherenceConfig, DirReplacementPolicy, DirectoryMode, LlcWritePolicy,
        Metrics, System, SystemBuilder, SystemConfig, TraceConfig,
    };
    pub use hsc_mem::{Addr, AtomicKind, LineAddr};
    pub use hsc_noc::{
        DeadlockSnapshot, Event, FaultPlan, FaultTargets, PendingEvent, RetryPolicy, SimError,
    };
    pub use hsc_obs::{ObsConfig, ObsData, RunReport};
    pub use hsc_workloads::{
        all_workloads, collaborative_workloads, extension_workloads, run_workload_observed,
        run_workload_on, workload_by_name, Bs, Cedd, Hsti, Hsto, ObservedRun, Pad, Rscd, Rsct, Sc,
        Tq, Tqh, Trns, Workload, WorkloadError,
    };
}

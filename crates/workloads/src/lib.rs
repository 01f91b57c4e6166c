//! CHAI-like collaborative CPU/GPU benchmarks for the HSC reproduction.
//!
//! Each module reproduces the *collaboration pattern* of one CHAI
//! benchmark (§V of the paper) as deterministic core/wavefront state
//! machines, with functional verification of the computed result at the
//! end of the run — so a coherence-protocol bug fails a test instead of
//! silently skewing a figure.
//!
//! | id | pattern |
//! |----|---------|
//! | `bs`   | Bézier surface: data-parallel tile split, read-shared control points |
//! | `cedd` | Canny edge detection: CPU↔GPU 4-stage pipeline over DMA-staged frames |
//! | `pad`  | in-place array padding: partitioned with neighbour flag sync |
//! | `sc`   | stream compaction: shared atomic input/output cursors |
//! | `tq`   | task-queue system: CPU producers, GPU consumers, SLC-atomic queues |
//! | `hsti` | input-partitioned histogram: shared-bin atomics (high contention) |
//! | `hsto` | output-partitioned histogram: private bins (read-only sharing) |
//! | `trns` | in-place transposition: per-cycle CAS claims, fine-grain sync |
//! | `rscd` | RANSAC, data-parallel: broadcast model, partitioned points |
//! | `rsct` | RANSAC, task-parallel: shared iteration counter |
//! | `tqh`  | task-queue histogram (extension: the paper could not run it on gem5) |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod runner;
pub mod trace;
pub mod util;

mod bs;
mod cedd;
mod hsti;
mod hsto;
mod pad;
mod rscd;
mod rsct;
mod sc;
mod tq;
mod tqh;
mod trns;

pub use bs::Bs;
pub use cedd::Cedd;
pub use hsti::Hsti;
pub use hsto::Hsto;
pub use pad::Pad;
pub use rscd::Rscd;
pub use rsct::Rsct;
pub use runner::{
    run_workload_observed, run_workload_on, ObservedRun, Workload, WorkloadError,
    DEFAULT_EVENT_BUDGET,
};
pub use sc::Sc;
pub use tq::Tq;
pub use tqh::Tqh;
pub use trns::Trns;

/// The paper's ten benchmarks at their default (paper-shaped) sizes, in
/// the order the figures present them (the extension `tqh` is separate).
#[must_use]
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Bs::default()),
        Box::new(Cedd::default()),
        Box::new(Pad::default()),
        Box::new(Sc::default()),
        Box::new(Tq::default()),
        Box::new(Hsti::default()),
        Box::new(Hsto::default()),
        Box::new(Trns::default()),
        Box::new(Rscd::default()),
        Box::new(Rsct::default()),
    ]
}

/// The paper-extension benchmarks: CHAI applications the paper could not
/// run on its gem5 baseline, reimplemented here (§V: "we were unable to
/// get 4 of 14 benchmarks running").
#[must_use]
pub fn extension_workloads() -> Vec<Box<dyn Workload>> {
    vec![Box::new(Tqh::default())]
}

/// The five most collaborative benchmarks, used for the paper's Figs 6/7
/// ("the five benchmarks tested"); see EXPERIMENTS.md for the selection
/// rationale.
#[must_use]
pub fn collaborative_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Cedd::default()),
        Box::new(Sc::default()),
        Box::new(Tq::default()),
        Box::new(Hsti::default()),
        Box::new(Trns::default()),
    ]
}

/// Looks up a benchmark by its CHAI identifier, searching the paper's
/// ten benchmarks and the extension set alike.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().chain(extension_workloads()).find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_by_name_covers_both_suites() {
        for w in all_workloads().iter().chain(extension_workloads().iter()) {
            let found = workload_by_name(w.name())
                .unwrap_or_else(|| panic!("{} not found by name", w.name()));
            assert_eq!(found.name(), w.name());
        }
        // tqh lives only in extension_workloads(); it used to be
        // unreachable by name.
        assert!(workload_by_name("tqh").is_some(), "extension workloads are searched");
        assert!(workload_by_name("nope").is_none());
    }
}

//! The paper's contribution: the system-level directory, the shared LLC,
//! the three §III protocol optimizations, the §IV precise state-tracking
//! directory, and the system assembly that wires them to the CPU/GPU/DMA
//! cluster models.
//!
//! # Layers
//!
//! * [`Directory`] — baseline stateless directory (Fig. 2/Fig. 3 semantics)
//!   plus every enhancement, selected by [`CoherenceConfig`]:
//!   * `early_dirty_response` — §III-A,
//!   * [`CleanVictimPolicy`] — §III-B and the §III-B1 drop variant,
//!   * [`LlcWritePolicy`] + `use_l3_on_wt` — §III-C,
//!   * [`DirectoryMode`] — §IV owner- and sharer-tracking (Table I lives
//!     in [`tracking::plan`]),
//!   * [`DirReplacementPolicy`] — the §VII state-aware ablation.
//! * [`Llc`] — the 16 MB victim LLC with the §III-C dirty bit.
//! * [`MemoryController`] — the ordered memory port with posted writes.
//! * [`System`] / [`SystemBuilder`] — full-system assembly
//!   (Tables II & III defaults in [`SystemConfig`]) and the deterministic
//!   event loop; [`Metrics`] is what the figure benches read.
//!
//! # Examples
//!
//! ```
//! use hsc_core::{CoherenceConfig, SystemBuilder, SystemConfig};
//!
//! // An empty system drains immediately.
//! let cfg = SystemConfig::with_coherence(CoherenceConfig::sharer_tracking());
//! let mut sys = SystemBuilder::new(cfg).build();
//! let m = sys.run(1_000_000).expect("empty system completes");
//! assert_eq!(m.probes_sent, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod directory;
mod llc;
mod memctl;
mod system;
pub mod tracking;

pub use config::{
    CleanVictimPolicy, CoherenceConfig, DirReplacementPolicy, DirectoryMode, LlcWritePolicy,
    SystemConfig, UncoreConfig,
};
pub use directory::{Directory, DEFAULT_WATCHDOG_TICKS};
pub use hsc_obs::{ObsConfig, ObsData};
pub use llc::{Llc, LlcEviction, LlcLine};
pub use memctl::MemoryController;
pub use system::{Metrics, System, SystemBuilder, TraceConfig};
pub use tracking::{DirEntry, DirState, SharerSet};

// Compile-time proof that everything a parallel campaign job returns or
// captures (`hsc_bench::par`) crosses threads. A `System` itself is built,
// run, and dropped inside one worker and never needs to be `Send`; its
// inputs and outputs do.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Metrics>();
    assert_send::<ObsData>();
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<CoherenceConfig>();
    assert_send_sync::<ObsConfig>();
};

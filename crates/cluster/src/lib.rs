//! CPU, GPU and DMA cluster models for the HSC reproduction.
//!
//! This crate models the three request-generating subsystems of the
//! paper's Fig. 1:
//!
//! * [`CorePair`] — two in-order x86-class cores behind private L1Ds, a
//!   shared L1I and a shared, inclusive, **MOESI** L2 (the agent the
//!   directory probes). Exclusive lines upgrade to Modified silently;
//!   clean evictions are noisy (`VicClean`), exactly as §II-B/§II-D
//!   describe.
//! * [`GpuCluster`] — compute units with 16-lane SIMDs, per-CU TCP (L1)
//!   and SQC (I-cache), and a shared TCC (L2) implementing the **VIPER**
//!   VI protocol: write-through, GLC (device-scope) atomics at the TCC,
//!   SLC (system-scope) atomics bypassing it, self-invalidation on probes
//!   without data forwarding.
//! * [`DmaEngine`] — issues `DMARd`/`DMAWr` line streams and never caches.
//!
//! Workloads drive the clusters through the [`CoreProgram`] /
//! [`WavefrontProgram`] traits: tiny state machines that may branch on
//! loaded values, which is how spin-loops, work-queues and CAS retry loops
//! are expressed (see `hsc-workloads`). The DMA engine runs a
//! [`DmaProgram`], its descriptor ring, the same way.
//!
//! Timing uses an exact common clock: 1 tick = 1/38.5 GHz ≈ 26 ps, so a
//! 3.5 GHz CPU cycle is 11 ticks and a 1.1 GHz GPU cycle is 35 ticks
//! (Table III frequencies with zero rounding error).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clocks;
mod corepair;
mod dma;
mod gpu;
mod moesi;
mod mutant;
mod ops;

pub use clocks::{cpu_cycles, gpu_cycles, TICKS_PER_CPU_CYCLE, TICKS_PER_GPU_CYCLE};
pub use corepair::{CorePair, CpuConfig};
pub use dma::DmaEngine;
pub use gpu::{GpuCluster, GpuConfig};
pub use moesi::MoesiState;
pub use mutant::Mutant;
pub use ops::{
    CoreProgram, CpuOp, CpuScript, DmaCommand, DmaProgram, DmaScript, GpuOp, GpuScript,
    WavefrontProgram,
};

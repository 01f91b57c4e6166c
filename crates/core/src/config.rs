use hsc_cluster::{CpuConfig, GpuConfig};
use hsc_noc::{FaultPlan, LatencyMap, RetryPolicy};

/// What happens to clean L2 victims at the directory (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CleanVictimPolicy {
    /// Baseline: write both the LLC and main memory.
    #[default]
    WriteLlcAndMemory,
    /// §III-B: write only the LLC — memory already has the data.
    WriteLlcOnly,
    /// §III-B1: drop clean victims entirely (they are "lost in the air").
    Drop,
}

/// Write policy of the shared LLC (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlcWritePolicy {
    /// Baseline: every LLC write also writes main memory.
    #[default]
    WriteThrough,
    /// §III-C: victims write only the LLC; a dirty bit defers the memory
    /// write until the LLC line is itself evicted.
    WriteBack,
}

/// How much sharing state the system-level directory keeps (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryMode {
    /// Baseline gem5 model: no state; every request broadcasts probes.
    #[default]
    Stateless,
    /// Track I/S/O and the owner; reads in S skip probes, reads in O
    /// probe only the owner, but invalidations still broadcast.
    OwnerTracking,
    /// Additionally track a full-map sharer bitmap; invalidations become
    /// multicasts to the tracked sharers.
    SharerTracking,
}

impl DirectoryMode {
    /// Whether any per-line directory state is kept.
    #[must_use]
    pub fn tracks(self) -> bool {
        self != DirectoryMode::Stateless
    }

    /// Whether the sharer bitmap is maintained and used for multicast.
    #[must_use]
    pub fn tracks_sharers(self) -> bool {
        self == DirectoryMode::SharerTracking
    }
}

/// Victim selection policy of the directory cache (§VII future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirReplacementPolicy {
    /// Plain Tree-PLRU (the paper's default).
    #[default]
    TreePlru,
    /// Prefer evicting unmodified entries with the fewest sharers,
    /// cascading into Tree-PLRU for ties (the paper's proposed policy).
    StateAware,
}

/// All protocol-behaviour knobs of the system-level directory: the three
/// §III optimizations plus the §IV precise state tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// §III-A: respond to the requester on the first dirty probe ack of a
    /// downgrade probe round, before the remaining acks/memory return.
    pub early_dirty_response: bool,
    /// §III-B / §III-B1: clean-victim handling.
    pub clean_victims: CleanVictimPolicy,
    /// §III-C: LLC write policy.
    pub llc_policy: LlcWritePolicy,
    /// `useL3OnWT`: GPU write-throughs and system atomics also write the
    /// LLC instead of bypassing it.
    pub use_l3_on_wt: bool,
    /// §IV: directory state tracking.
    pub directory: DirectoryMode,
    /// §VII: directory-cache replacement policy.
    pub dir_replacement: DirReplacementPolicy,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            early_dirty_response: false,
            clean_victims: CleanVictimPolicy::WriteLlcAndMemory,
            llc_policy: LlcWritePolicy::WriteThrough,
            use_l3_on_wt: false,
            directory: DirectoryMode::Stateless,
            dir_replacement: DirReplacementPolicy::TreePlru,
        }
    }
}

impl CoherenceConfig {
    /// The unmodified gem5 HSC baseline.
    #[must_use]
    pub fn baseline() -> Self {
        CoherenceConfig::default()
    }

    /// Baseline + §III-A early response on dirty probe acknowledgment.
    #[must_use]
    pub fn early_response() -> Self {
        CoherenceConfig { early_dirty_response: true, ..CoherenceConfig::default() }
    }

    /// Baseline + §III-B no write-back of clean victims to memory.
    #[must_use]
    pub fn no_wb_clean_victims() -> Self {
        CoherenceConfig {
            clean_victims: CleanVictimPolicy::WriteLlcOnly,
            ..CoherenceConfig::default()
        }
    }

    /// Baseline + §III-B1 clean victims dropped entirely.
    #[must_use]
    pub fn drop_clean_victims() -> Self {
        CoherenceConfig { clean_victims: CleanVictimPolicy::Drop, ..CoherenceConfig::default() }
    }

    /// §III-C write-back LLC (implies clean victims stop writing memory).
    #[must_use]
    pub fn llc_write_back() -> Self {
        CoherenceConfig {
            clean_victims: CleanVictimPolicy::WriteLlcOnly,
            llc_policy: LlcWritePolicy::WriteBack,
            ..CoherenceConfig::default()
        }
    }

    /// §III-C write-back LLC with `useL3OnWT` (GPU write-throughs and
    /// system atomics fill the LLC), the configuration the paper calls
    /// `llcWB+useL3OnWT`.
    #[must_use]
    pub fn llc_write_back_l3_on_wt() -> Self {
        CoherenceConfig { use_l3_on_wt: true, ..CoherenceConfig::llc_write_back() }
    }

    /// §IV owner-tracking directory on top of the write-back LLC.
    #[must_use]
    pub fn owner_tracking() -> Self {
        CoherenceConfig {
            directory: DirectoryMode::OwnerTracking,
            ..CoherenceConfig::llc_write_back_l3_on_wt()
        }
    }

    /// §IV sharer-tracking (full-map) directory on top of the write-back
    /// LLC.
    #[must_use]
    pub fn sharer_tracking() -> Self {
        CoherenceConfig {
            directory: DirectoryMode::SharerTracking,
            ..CoherenceConfig::llc_write_back_l3_on_wt()
        }
    }
}

/// Geometry and timing of the directory + LLC (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreConfig {
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Directory cache entry count (Table II: 256 KB at ~8 B/entry).
    pub dir_entries: u64,
    /// Directory cache associativity.
    pub dir_ways: usize,
    /// Directory lookup latency in GPU cycles.
    pub dir_cycles: u64,
    /// LLC access latency in GPU cycles.
    pub llc_cycles: u64,
    /// DRAM access latency in ticks (1 tick ≈ 26 ps).
    pub mem_ticks: u64,
    /// Per-access channel occupancy in ticks (the bandwidth term: 64 B at
    /// ~25 GB/s ≈ 100 ticks).
    pub mem_occupancy_ticks: u64,
}

impl Default for UncoreConfig {
    /// Table II: 16 MB/16-way LLC (20 cy), 256 KB/32-way directory
    /// (20 cy); ~60 ns DRAM.
    fn default() -> Self {
        UncoreConfig {
            llc_bytes: 16 * 1024 * 1024,
            llc_ways: 16,
            dir_entries: 32 * 1024,
            dir_ways: 32,
            dir_cycles: 20,
            llc_cycles: 20,
            mem_ticks: 2310,
            mem_occupancy_ticks: 100,
        }
    }
}

/// Full system configuration: Tables II & III plus the coherence knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of CorePairs (Table III: 4 → 8 CPUs).
    pub corepairs: usize,
    /// Number of GPU clusters, each with its own TCC (Table III: 1; more
    /// exercise the multi-TCC probe paths, cf. the HMG-style future work).
    pub gpu_clusters: usize,
    /// Per-CorePair cache configuration.
    pub cpu: CpuConfig,
    /// GPU cluster configuration.
    pub gpu: GpuConfig,
    /// Directory + LLC configuration.
    pub uncore: UncoreConfig,
    /// Coherence protocol knobs.
    pub coherence: CoherenceConfig,
    /// Interconnect latencies.
    pub network: LatencyMap,
    /// Deterministic fault injection on the interconnect. `None` (the
    /// default) bypasses the fault layer entirely — fault-free runs are
    /// bit-identical to a build without it.
    pub faults: Option<FaultPlan>,
    /// Request retry for every requester — CorePair L2s, TCCs and the DMA
    /// engine. `None` (the default) skips all retry bookkeeping and
    /// wake-ups, so fault-free runs are bit-identical to a build without
    /// the retry layer.
    pub retry: Option<RetryPolicy>,
    /// Watchdog limit: a directory transaction older than this many ticks
    /// makes `System::run` return `SimError::Deadlock`.
    pub watchdog_ticks: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            corepairs: 4,
            gpu_clusters: 1,
            cpu: CpuConfig::default(),
            gpu: GpuConfig::default(),
            uncore: UncoreConfig::default(),
            coherence: CoherenceConfig::baseline(),
            network: LatencyMap {
                cache_dir: 700, // 20 GPU cycles per hop
                dir_mem: 140,   // 4 GPU cycles to the memory controller
            },
            faults: None,
            retry: None,
            watchdog_ticks: crate::directory::DEFAULT_WATCHDOG_TICKS,
        }
    }
}

impl SystemConfig {
    /// The default Table II/III system with the given coherence knobs.
    #[must_use]
    pub fn with_coherence(coherence: CoherenceConfig) -> Self {
        SystemConfig { coherence, ..SystemConfig::default() }
    }

    /// The **evaluation** configuration used by the figure-regeneration
    /// benches: cache and directory capacities scaled down ~32× to match
    /// the benchmarks' ~100× scaled working sets, so the capacity effects
    /// the paper measures (victim write-back traffic, LLC and directory
    /// pressure) appear at simulation-friendly sizes. Latencies, agent
    /// counts, associativities and every protocol policy stay at their
    /// Table II/III values. See EXPERIMENTS.md for the calibration note.
    #[must_use]
    pub fn scaled(coherence: CoherenceConfig) -> Self {
        let mut s = SystemConfig::with_coherence(coherence);
        s.cpu.l1d_bytes = 4 * 1024;
        s.cpu.l1i_bytes = 2 * 1024;
        s.cpu.l2_bytes = 32 * 1024;
        s.gpu.tcp_bytes = 2 * 1024;
        s.gpu.tcc_bytes = 32 * 1024;
        s.gpu.sqc_bytes = 4 * 1024;
        s.uncore.llc_bytes = 512 * 1024;
        s.uncore.dir_entries = 2048;
        s
    }

    /// Enables `policy` on every requester (CorePair L2s, TCCs, DMA
    /// engine) — the usual companion to a [`FaultPlan`].
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Installs a fault plan (see [`FaultPlan`]); pair with
    /// [`SystemConfig::with_retry`] for loss recovery.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_the_paper_defaults() {
        let c = CoherenceConfig::baseline();
        assert!(!c.early_dirty_response);
        assert_eq!(c.clean_victims, CleanVictimPolicy::WriteLlcAndMemory);
        assert_eq!(c.llc_policy, LlcWritePolicy::WriteThrough);
        assert!(!c.use_l3_on_wt);
        assert_eq!(c.directory, DirectoryMode::Stateless);
        assert!(!c.directory.tracks());
    }

    #[test]
    fn presets_compose_incrementally() {
        assert!(CoherenceConfig::early_response().early_dirty_response);
        assert_eq!(
            CoherenceConfig::no_wb_clean_victims().clean_victims,
            CleanVictimPolicy::WriteLlcOnly
        );
        let wb = CoherenceConfig::llc_write_back();
        assert_eq!(wb.llc_policy, LlcWritePolicy::WriteBack);
        assert!(!wb.use_l3_on_wt);
        assert!(CoherenceConfig::llc_write_back_l3_on_wt().use_l3_on_wt);
        let own = CoherenceConfig::owner_tracking();
        assert!(own.directory.tracks());
        assert!(!own.directory.tracks_sharers());
        assert!(CoherenceConfig::sharer_tracking().directory.tracks_sharers());
    }

    #[test]
    fn table_ii_and_iii_defaults() {
        let s = SystemConfig::default();
        assert_eq!(s.corepairs, 4);
        assert_eq!(s.cpu.l2_bytes, 2 * 1024 * 1024);
        assert_eq!(s.cpu.l2_ways, 8);
        assert_eq!(s.gpu.cus, 8);
        assert_eq!(s.gpu.tcc_bytes, 256 * 1024);
        assert_eq!(s.uncore.llc_bytes, 16 * 1024 * 1024);
        assert_eq!(s.uncore.llc_ways, 16);
        assert_eq!(s.uncore.dir_ways, 32);
        assert_eq!(s.uncore.dir_cycles, 20);
        assert_eq!(s.uncore.llc_cycles, 20);
    }
}

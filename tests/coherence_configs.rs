//! Cross-crate integration tests: every benchmark family verifies
//! functionally under every coherence configuration, and the headline
//! relations of the paper's figures hold qualitatively.

use hsc_repro::prelude::*;

fn all_configs() -> Vec<(&'static str, CoherenceConfig)> {
    vec![
        ("baseline", CoherenceConfig::baseline()),
        ("early_response", CoherenceConfig::early_response()),
        ("no_wb_clean_victims", CoherenceConfig::no_wb_clean_victims()),
        ("drop_clean_victims", CoherenceConfig::drop_clean_victims()),
        ("llc_write_back", CoherenceConfig::llc_write_back()),
        ("llc_write_back_l3_on_wt", CoherenceConfig::llc_write_back_l3_on_wt()),
        ("owner_tracking", CoherenceConfig::owner_tracking()),
        ("sharer_tracking", CoherenceConfig::sharer_tracking()),
    ]
}

/// Small-but-not-tiny instances so cache pressure exists on the scaled
/// evaluation config, which is where protocol corner cases live.
fn small_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Bs { surface_points: 4096, cpu_threads: 4, wavefronts: 8, ..Bs::default() }),
        Box::new(Cedd {
            frames: 2,
            pixels: 256,
            cpu_per_stage: 2,
            wfs_per_stage: 4,
            ..Cedd::default()
        }),
        Box::new(Pad {
            rows: 64,
            cols: 12,
            pad: 4,
            cpu_threads: 4,
            wavefronts: 4,
            ..Pad::default()
        }),
        Box::new(Sc { elements: 4096, cpu_threads: 4, wavefronts: 8, ..Sc::default() }),
        Box::new(Tq { tasks: 256, producers: 2, cpu_consumers: 2, wavefronts: 8, ..Tq::default() }),
        Box::new(Hsti {
            elements: 2048,
            bins: 32,
            cpu_threads: 4,
            wavefronts: 8,
            ..Hsti::default()
        }),
        Box::new(Hsto {
            elements: 2048,
            bins: 48,
            cpu_threads: 4,
            wavefronts: 8,
            ..Hsto::default()
        }),
        Box::new(Trns { rows: 32, cols: 33, cpu_threads: 4, wavefronts: 8, ..Trns::default() }),
        Box::new(Rscd {
            iterations: 6,
            points: 1024,
            cpu_threads: 4,
            wavefronts: 8,
            ..Rscd::default()
        }),
        Box::new(Rsct {
            iterations: 8,
            points: 1024,
            cpu_threads: 4,
            wavefronts: 8,
            ..Rsct::default()
        }),
    ]
}

#[test]
fn every_workload_verifies_under_every_config() {
    for w in small_suite() {
        for (name, cfg) in all_configs() {
            // run_workload_on panics with the benchmark's own diagnostic
            // if functional verification fails.
            let r = run_workload_on(w.as_ref(), SystemConfig::scaled(cfg));
            assert!(r.gpu_cycles > 0, "{}/{name} took no time", w.name());
        }
    }
}

/// Every setting of the knobs a configuration is built from, 72 in all
/// (`dir_replacement` aside); the presets above are 8 of them.
fn every_knob_combination() -> Vec<CoherenceConfig> {
    let mut v = Vec::new();
    for early_dirty_response in [false, true] {
        for clean_victims in [
            CleanVictimPolicy::WriteLlcAndMemory,
            CleanVictimPolicy::WriteLlcOnly,
            CleanVictimPolicy::Drop,
        ] {
            for llc_policy in [LlcWritePolicy::WriteThrough, LlcWritePolicy::WriteBack] {
                for use_l3_on_wt in [false, true] {
                    for directory in [
                        DirectoryMode::Stateless,
                        DirectoryMode::OwnerTracking,
                        DirectoryMode::SharerTracking,
                    ] {
                        v.push(CoherenceConfig {
                            early_dirty_response,
                            clean_victims,
                            llc_policy,
                            use_l3_on_wt,
                            directory,
                            ..CoherenceConfig::default()
                        });
                    }
                }
            }
        }
    }
    v
}

/// §III-A's early answer to a CPU read must record the reader as a sharer
/// under §IV's tracking, as every other CPU read's reply does; no preset
/// combines the two.
#[test]
fn trns_verifies_with_early_response_under_sharer_tracking() {
    let cfg = CoherenceConfig { early_dirty_response: true, ..CoherenceConfig::sharer_tracking() };
    let r = run_workload_on(&Trns::default(), SystemConfig::scaled(cfg));
    assert!(r.gpu_cycles > 0);
}

#[test]
#[ignore = "soak: 720 runs, about 20 s; run with --release -- --ignored"]
fn every_knob_combination_verifies_every_workload() {
    let configs = every_knob_combination();
    assert_eq!(configs.len(), 72);
    let mut failures = Vec::new();
    let mut runs = 0;
    for cfg in configs {
        for w in all_workloads() {
            runs += 1;
            let run =
                run_workload_observed(w.as_ref(), SystemConfig::scaled(cfg), ObsConfig::off());
            if let Err(e) = run.outcome {
                failures.push(format!("{} on {cfg:?}: {e}", w.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {runs} runs failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_workload_verifies_on_the_full_table_ii_system() {
    for w in small_suite() {
        let r =
            run_workload_on(w.as_ref(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
        assert!(r.gpu_cycles > 0);
    }
}

#[test]
fn tracking_reduces_probes_on_every_collaborative_benchmark() {
    for w in small_suite() {
        let base = run_workload_on(w.as_ref(), SystemConfig::scaled(CoherenceConfig::baseline()));
        let own =
            run_workload_on(w.as_ref(), SystemConfig::scaled(CoherenceConfig::owner_tracking()));
        let shr =
            run_workload_on(w.as_ref(), SystemConfig::scaled(CoherenceConfig::sharer_tracking()));
        assert!(
            own.probes_sent < base.probes_sent,
            "{}: owner tracking must cut probes ({} vs {})",
            w.name(),
            own.probes_sent,
            base.probes_sent
        );
        assert!(
            shr.probes_sent <= own.probes_sent,
            "{}: sharer multicast can only tighten the probe set",
            w.name()
        );
    }
}

#[test]
fn write_back_llc_never_increases_memory_writes() {
    for w in small_suite() {
        let base = run_workload_on(w.as_ref(), SystemConfig::scaled(CoherenceConfig::baseline()));
        let wb =
            run_workload_on(w.as_ref(), SystemConfig::scaled(CoherenceConfig::llc_write_back()));
        assert!(
            wb.mem_writes <= base.mem_writes,
            "{}: llcWB must not add memory writes ({} vs {})",
            w.name(),
            wb.mem_writes,
            base.mem_writes
        );
    }
}

#[test]
fn state_aware_replacement_verifies_under_pressure() {
    let mut cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
    cfg.coherence.dir_replacement = DirReplacementPolicy::StateAware;
    cfg.uncore.dir_entries = 256; // heavy entry-eviction traffic
    for w in small_suite() {
        let _ = run_workload_on(w.as_ref(), cfg);
    }
}

#[test]
fn two_gpu_clusters_stay_coherent() {
    // Table III has one TCC; the protocol supports several (the directory
    // tracks each as a separate agent). Run collaborative benchmarks with
    // two GPU clusters under baseline and sharer tracking.
    for cfg in [CoherenceConfig::baseline(), CoherenceConfig::sharer_tracking()] {
        let mut sys_cfg = SystemConfig::scaled(cfg);
        sys_cfg.gpu_clusters = 2;
        let w = Hsti { elements: 2048, bins: 32, cpu_threads: 4, wavefronts: 8, ..Hsti::default() };
        let r = run_workload_on(&w, sys_cfg);
        assert!(r.gpu_cycles > 0);
        let w = Tq { tasks: 256, producers: 2, cpu_consumers: 2, wavefronts: 8, ..Tq::default() };
        let _ = run_workload_on(&w, sys_cfg);
        let w =
            Cedd { frames: 2, pixels: 256, cpu_per_stage: 2, wfs_per_stage: 4, ..Cedd::default() };
        let _ = run_workload_on(&w, sys_cfg);
    }
}

#[test]
fn device_exclusive_variants_verify() {
    // Degenerate placements — everything on the CPU, or everything on the
    // GPU — must still verify: the protocols cannot depend on both device
    // types participating.
    let cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
    let cpu_only: Vec<Box<dyn Workload>> = vec![
        Box::new(Bs { surface_points: 2048, cpu_threads: 8, wavefronts: 0, ..Bs::default() }),
        Box::new(Hsti {
            elements: 1024,
            bins: 16,
            cpu_threads: 8,
            wavefronts: 0,
            ..Hsti::default()
        }),
        Box::new(Hsto {
            elements: 1024,
            bins: 24,
            cpu_threads: 8,
            wavefronts: 0,
            ..Hsto::default()
        }),
        Box::new(Sc { elements: 2048, cpu_threads: 8, wavefronts: 0, ..Sc::default() }),
        Box::new(Trns { rows: 16, cols: 17, cpu_threads: 8, wavefronts: 0, ..Trns::default() }),
        Box::new(Rscd {
            iterations: 4,
            points: 512,
            cpu_threads: 8,
            wavefronts: 0,
            ..Rscd::default()
        }),
        Box::new(Rsct {
            iterations: 6,
            points: 512,
            cpu_threads: 8,
            wavefronts: 0,
            ..Rsct::default()
        }),
        Box::new(Pad {
            rows: 32,
            cols: 12,
            pad: 4,
            cpu_threads: 8,
            wavefronts: 0,
            ..Pad::default()
        }),
    ];
    for w in cpu_only {
        let _ = run_workload_on(w.as_ref(), cfg);
    }
    let gpu_only: Vec<Box<dyn Workload>> = vec![
        Box::new(Bs { surface_points: 2048, cpu_threads: 0, wavefronts: 8, ..Bs::default() }),
        Box::new(Hsti {
            elements: 1024,
            bins: 16,
            cpu_threads: 0,
            wavefronts: 8,
            ..Hsti::default()
        }),
        Box::new(Hsto {
            elements: 1024,
            bins: 24,
            cpu_threads: 0,
            wavefronts: 8,
            ..Hsto::default()
        }),
        Box::new(Sc { elements: 2048, cpu_threads: 0, wavefronts: 8, ..Sc::default() }),
        Box::new(Trns { rows: 16, cols: 17, cpu_threads: 0, wavefronts: 8, ..Trns::default() }),
        Box::new(Rscd {
            iterations: 4,
            points: 512,
            cpu_threads: 0,
            wavefronts: 8,
            ..Rscd::default()
        }),
        Box::new(Rsct {
            iterations: 6,
            points: 512,
            cpu_threads: 0,
            wavefronts: 8,
            ..Rsct::default()
        }),
        Box::new(Pad {
            rows: 32,
            cols: 12,
            pad: 4,
            cpu_threads: 0,
            wavefronts: 8,
            ..Pad::default()
        }),
    ];
    for w in gpu_only {
        let _ = run_workload_on(w.as_ref(), cfg);
    }
}

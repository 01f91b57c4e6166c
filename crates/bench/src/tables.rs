//! Tables I–III, each printed from the live implementation so that no
//! table can drift from the simulator's behaviour or defaults.

use std::io::{self, Write};

use hsc_cluster::{TICKS_PER_CPU_CYCLE, TICKS_PER_GPU_CYCLE};
use hsc_core::tracking::{describe, legal_rows, DirState};
use hsc_core::{CoherenceConfig, DirectoryMode, SystemConfig};

use crate::RULE;

/// Regenerates **Table I**: the state-transition table of the §IV
/// tracking directory, printed from the same
/// [`hsc_core::tracking::plan`] function the directory executes. The
/// rows a live run exercises are `hsc report analyze`'s directory matrix.
pub fn table1(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "={RULE}")?;
    writeln!(out, "Table I: state machine of the precise state-tracking directory")?;
    writeln!(out, "(rows printed from hsc_core::tracking::plan — the live protocol)")?;
    writeln!(out, "={RULE}")?;
    for mode in [DirectoryMode::OwnerTracking, DirectoryMode::SharerTracking] {
        writeln!(out, "\n--- {mode:?} ---")?;
        for state in [DirState::I, DirState::S, DirState::O] {
            for (req, from) in legal_rows(mode, state) {
                writeln!(out, "{}", describe(mode, state, req, from))?;
            }
        }
    }
    writeln!(out, "\nOmitted rows (e.g. VicDirty in S) are illegal, as in the paper.")
}

fn human(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{} MB", bytes / (1024 * 1024))
    } else {
        format!("{} KB", bytes / 1024)
    }
}

fn write_config(out: &mut dyn Write, title: &str, s: &SystemConfig) -> io::Result<()> {
    writeln!(out, "\n--- {title} ---")?;
    writeln!(out, "{:<16} {:>10} {:>10} {:>12}", "cache", "size", "assoc", "latency")?;
    let rows = [
        // ~8 B per directory entry, as sized in DESIGN.md
        ("Directory", s.uncore.dir_entries * 8, s.uncore.dir_ways, s.uncore.dir_cycles),
        ("LLC", s.uncore.llc_bytes, s.uncore.llc_ways, s.uncore.llc_cycles),
        ("L2", s.cpu.l2_bytes, s.cpu.l2_ways, s.cpu.l2_cycles),
        ("L1D", s.cpu.l1d_bytes, s.cpu.l1d_ways, s.cpu.l1_cycles),
        ("L1I", s.cpu.l1i_bytes, s.cpu.l1i_ways, s.cpu.l1_cycles),
        ("TCC", s.gpu.tcc_bytes, s.gpu.tcc_ways, s.gpu.tcc_cycles),
        ("TCP", s.gpu.tcp_bytes, s.gpu.tcp_ways, s.gpu.tcp_cycles),
        ("SQC", s.gpu.sqc_bytes, s.gpu.sqc_ways, s.gpu.sqc_cycles),
    ];
    for (name, size, ways, cycles) in rows {
        let lat = format!("{cycles} cy");
        writeln!(out, "{name:<16} {:>10} {ways:>6}-way {lat:>12}", human(size))?;
    }
    writeln!(out, "block size: 64 B; replacement: Tree-PLRU everywhere")
}

/// Regenerates **Table II**: cache configurations, printed from the live
/// `SystemConfig::default()`. The scaled evaluation variant is shown
/// alongside.
pub fn table2(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{RULE}")?;
    writeln!(out, "Table II: cache configurations (printed from SystemConfig)")?;
    writeln!(out, "{RULE}")?;
    write_config(out, "Table II defaults", &SystemConfig::default())?;
    write_config(
        out,
        "scaled evaluation config (used by the figure benches)",
        &SystemConfig::scaled(CoherenceConfig::baseline()),
    )
}

/// Regenerates **Table III**: system configuration, printed from the live
/// `SystemConfig::default()`.
pub fn table3(out: &mut dyn Write) -> io::Result<()> {
    let s = SystemConfig::default();
    writeln!(out, "{RULE}")?;
    writeln!(out, "Table III: system configuration (printed from SystemConfig)")?;
    writeln!(out, "{RULE}")?;
    let rows = [
        ("#CUs / #SIMD lanes per vector op", format!("{} / {}", s.gpu.cus, s.gpu.lanes)),
        ("#TCPs per CU", "1".to_owned()),
        ("#TCCs", "1".to_owned()),
        ("#CorePairs / #CPUs", format!("{} / {}", s.corepairs, s.corepairs * 2)),
        ("CPU freq.", format!("3.5 GHz ({TICKS_PER_CPU_CYCLE} ticks/cycle)")),
        ("GPU freq.", format!("1.1 GHz ({TICKS_PER_GPU_CYCLE} ticks/cycle)")),
        (
            "DRAM",
            format!(
                "{} ticks latency, {} ticks/line occupancy",
                s.uncore.mem_ticks, s.uncore.mem_occupancy_ticks
            ),
        ),
        (
            "NoC one-way hops",
            format!("cache↔dir {} ticks, dir↔mem {} ticks", s.network.cache_dir, s.network.dir_mem),
        ),
    ];
    for (name, value) in rows {
        writeln!(out, "{name:<34} {value}")?;
    }
    Ok(())
}

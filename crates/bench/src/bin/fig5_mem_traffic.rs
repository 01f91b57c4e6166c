//! Regenerates **Figure 5**: directory↔memory reads and writes under
//! baseline / noWBcleanVic / llcWB / llcWB+useL3OnWT (the paper's four
//! bars), plus the §III-B1 "drop clean victims" ablation column.

use hsc_bench::par::parse_sweep_cli;
use hsc_bench::{header, mean, paper, pct_saved, sweep};
use hsc_core::CoherenceConfig;
use hsc_workloads::all_workloads;

fn main() {
    let par = parse_sweep_cli("fig5_mem_traffic");
    header(
        "Figure 5",
        "#memory reads/writes from the directory per configuration",
        paper::FIG5_AVG_MEM_REDUCTION_PCT,
    );
    let configs = [
        ("baseline", CoherenceConfig::baseline()),
        ("noWBcleanVic", CoherenceConfig::no_wb_clean_victims()),
        ("dropCleanVic", CoherenceConfig::drop_clean_victims()),
        ("llcWB", CoherenceConfig::llc_write_back()),
        ("llcWB+useL3OnWT", CoherenceConfig::llc_write_back_l3_on_wt()),
    ];
    let workloads = all_workloads();
    let cells = sweep(&workloads, &configs, par);
    println!("{:8} {:>16} {:>7} {:>7} {:>10}", "bench", "config", "memRd", "memWr", "saved%");
    let mut best_saved = Vec::new();
    for chunk in cells.chunks(configs.len()) {
        let base = chunk[0].metrics.mem_reads + chunk[0].metrics.mem_writes;
        for c in chunk {
            let acc = c.metrics.mem_reads + c.metrics.mem_writes;
            println!(
                "{:8} {:>16} {:>7} {:>7} {:>10.2}",
                c.workload,
                c.config,
                c.metrics.mem_reads,
                c.metrics.mem_writes,
                pct_saved(base, acc)
            );
        }
        let wb = &chunk[4]; // llcWB+useL3OnWT, the paper's right-most bar
        best_saved.push(pct_saved(base, wb.metrics.mem_reads + wb.metrics.mem_writes));
        println!();
    }
    println!("----------------------------------------------------------------");
    println!(
        "average memory-access reduction (llcWB+useL3OnWT): {:.2}%  (paper: {:.2}%)",
        mean(&best_saved),
        paper::FIG5_AVG_MEM_REDUCTION_PCT
    );
}

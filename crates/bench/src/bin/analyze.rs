//! Protocol characterization: measured state-transition matrices and
//! sharing-pattern classification for one collaborative workload.
//!
//! Runs the chosen benchmark once with the protocol-analytics pillar
//! enabled and prints, in the style of the paper's protocol tables:
//!
//! * one transition matrix per protocol (`moesi-l2`, `viper-tcc`, `llc`,
//!   `directory`): a dense `from × to` grid summed over causes, then the
//!   per-cause breakdown of every non-zero cell;
//! * the directory's sharing analytics: sharer-count and probe-fan-out
//!   histograms, the private / read-shared / migratory / ping-pong line
//!   classification, and the worst ping-pong offender lines.
//!
//! Flags:
//!
//! * positional `<workload>` — benchmark id (`cedd`, `sc`, …; default
//!   `cedd`);
//! * `--config <baseline|sharer_tracking>` — coherence configuration
//!   (default `sharer_tracking`, the paper's §IV directory);
//! * `--report <path>` — additionally write a run report carrying the
//!   same matrices and sharing sections.

use hsc_bench::reporting::{outcome_label, write_report, REPORT_EPOCH_TICKS};
use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};
use hsc_obs::{RunRecord, RunReport, SharingClass, SharingReport};
use hsc_sim::TransitionMatrix;
use hsc_workloads::{run_workload_observed, workload_by_name, Workload};

struct Options {
    workload: String,
    config: &'static str,
    report: Option<String>,
}

fn usage_exit(message: &str) -> ! {
    eprintln!("analyze: {message}");
    eprintln!(
        "usage: analyze [<workload>] [--config <baseline|sharer_tracking>] [--report <path>]"
    );
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options { workload: "cedd".to_owned(), config: "sharer_tracking", report: None };
    let mut args = args.peekable();
    let mut saw_workload = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                let raw = args.next().ok_or("--config requires an operand")?;
                opts.config = match raw.as_str() {
                    "baseline" => "baseline",
                    "sharer_tracking" => "sharer_tracking",
                    other => return Err(format!("unknown config '{other}'")),
                };
            }
            "--report" => {
                opts.report = Some(args.next().ok_or("--report requires a path operand")?);
            }
            other if !other.starts_with('-') && !saw_workload => {
                opts.workload = other.to_owned();
                saw_workload = true;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn coherence(label: &str) -> CoherenceConfig {
    match label {
        "baseline" => CoherenceConfig::baseline(),
        _ => CoherenceConfig::sharer_tracking(),
    }
}

/// Prints one matrix as a `from × to` grid (summed over causes) followed
/// by the per-cause breakdown of every non-zero cell.
fn print_matrix(m: &TransitionMatrix) {
    println!();
    println!("{} transition matrix ({} transition(s)):", m.protocol(), m.total());
    let states = m.states();
    let causes = m.causes();
    print!("  {:>10}", "from\\to");
    for to in states {
        print!(" {to:>10}");
    }
    println!();
    for (fi, from) in states.iter().enumerate() {
        print!("  {from:>10}");
        for ti in 0..states.len() {
            let sum: u64 = (0..causes.len()).map(|ci| m.get(fi, ti, ci)).sum();
            if sum == 0 {
                print!(" {:>10}", ".");
            } else {
                print!(" {sum:>10}");
            }
        }
        println!();
    }
    println!("  by cause:");
    for (fi, ti, ci, n) in m.nonzero() {
        println!("    {:>2}→{:<2} {:<16} {n:>10}", states[fi], states[ti], causes[ci]);
    }
}

fn print_hist(label: &str, hist: &[u64]) {
    let total: u64 = hist.iter().sum();
    println!("  {label} ({total} sample(s)):");
    let last = hist.len() - 1;
    for (i, &n) in hist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bucket = if i == last { format!("{i}+") } else { format!("{i}") };
        let pct = if total > 0 { 100.0 * n as f64 / total as f64 } else { 0.0 };
        println!("    {bucket:>4} {n:>10}  {pct:>5.1}%");
    }
}

fn print_sharing(sh: &SharingReport) {
    println!();
    println!(
        "directory sharing analytics ({} line(s) tracked, {} access(es) beyond cap):",
        sh.tracked_lines, sh.dropped_lines
    );
    print_hist("sharer count at directory lookup", &sh.sharer_hist);
    print_hist("probe fan-out per transaction", &sh.fanout_hist);
    let classified: u64 = sh.class_counts.iter().sum();
    println!("  line classification ({classified} line(s)):");
    for (class, &n) in SharingClass::ALL.iter().zip(&sh.class_counts) {
        let pct = if classified > 0 { 100.0 * n as f64 / classified as f64 } else { 0.0 };
        println!("    {:<12} {n:>8}  {pct:>5.1}%", class.name());
    }
    if !sh.top_pingpong.is_empty() {
        println!("  worst ping-pong lines (writer alternations / writes):");
        for o in &sh.top_pingpong {
            println!("    line {:#x}  {} / {}", o.line, o.writer_flips, o.writes);
        }
    }
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => usage_exit(&msg),
    };
    let Some(w) = workload_by_name(&opts.workload) else {
        usage_exit(&format!("unknown workload '{}'", opts.workload));
    };
    let w: &dyn Workload = w.as_ref();
    let cfg = SystemConfig::scaled(coherence(opts.config));
    let obs = ObsConfig { protocol_analytics: true, ..ObsConfig::report(REPORT_EPOCH_TICKS) };

    println!("================================================================");
    println!("Protocol characterization: {} on {} (scaled system)", w.name(), opts.config);
    println!("({})", w.description());
    println!("================================================================");

    let run = run_workload_observed(w, cfg, obs);
    match &run.outcome {
        Ok(r) => println!(
            "run completed: {} tick(s), {} event(s) handled",
            r.metrics.ticks, r.metrics.events
        ),
        Err(e) => println!("run FAILED ({e}) — analytics below cover the run up to the failure"),
    }

    for m in &run.obs.transitions {
        print_matrix(m);
    }
    match run.obs.sharing.as_ref().map(|t| t.report()) {
        Some(sh) => print_sharing(&sh),
        None => println!("(no sharing analytics collected)"),
    }

    if let Some(path) = &opts.report {
        let mut report = RunReport::new("analyze");
        report.fingerprint_config(&cfg);
        let mut rec = RunRecord {
            workload: w.name().to_owned(),
            config: opts.config.to_owned(),
            outcome: outcome_label(&run.outcome).to_owned(),
            ..RunRecord::default()
        };
        if let Ok(r) = &run.outcome {
            rec.ticks = r.metrics.ticks;
            rec.gpu_cycles = r.metrics.gpu_cycles;
            rec.counters = r.metrics.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        }
        rec.attach_obs(&run.obs);
        if run.outcome.is_err() {
            rec.attach_flight(&run.obs.flight);
        }
        report.runs.push(rec);
        write_report(&report, std::path::Path::new(path));
    }

    if run.outcome.is_err() {
        std::process::exit(1);
    }
}

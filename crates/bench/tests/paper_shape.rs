//! The paper's shape, pinned: EXPERIMENTS.md's verdicts on Fig. 4–7 as
//! assertions over the figure functions' own numbers, with tolerance
//! bands — next to, not instead of, the exact values `benchmark_pins.rs`
//! holds. A protocol change that moves a pin on purpose still cannot flip
//! one of these verdicts without failing here.
//!
//! Each sweep runs once per test binary and is shared by the figures that
//! read it, by the test that `hsc repro` is its ten sections in order, and
//! by the test that EXPERIMENTS.md's Fig. 4, 6 and 7 tables are the
//! figures' own output.

use std::io::Write;
use std::sync::OnceLock;

use hsc_bench::characterize::characterize;
use hsc_bench::figures::{
    ablation, extension, fig4, fig4_saved, fig5, fig5_saved, fig6, fig6_saved, fig7, fig7_saved,
    optimization_sweep, tracking_sweep,
};
use hsc_bench::par::Parallelism;
use hsc_bench::repro::sections;
use hsc_bench::tables::{table1, table2, table3};
use hsc_bench::Cell;
use hsc_workloads::all_workloads;

fn par() -> Parallelism {
    Parallelism::of(2)
}

fn optimizations() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| optimization_sweep(par()))
}

fn tracking() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| tracking_sweep(par()))
}

/// Fig. 4: the three §III optimizations are worth little — each averages
/// under 2 % (the paper: 1.68 % over all three) — and responding early is
/// the one that helps most.
#[test]
fn fig4_every_optimization_is_under_two_percent_and_early_response_leads() {
    let saved = fig4_saved(optimizations());
    let early = saved.average("earlyResp");
    for config in saved.configs {
        let avg = saved.average(config);
        assert!(avg < 2.0, "{config} averages {avg:.2}%");
        assert!(avg <= early, "{config} ({avg:.2}%) beats earlyResp ({early:.2}%)");
    }
    assert!(early > 0.0, "earlyResp saves cycles on average ({early:.2}%)");
}

/// Fig. 5: a write-back LLC that also serves write-throughs removes about
/// half of the directory's memory accesses (the paper: 50.38 %), and
/// dropping clean victims costs `trns` memory reads instead of saving any.
#[test]
fn fig5_llc_write_back_halves_memory_traffic_and_trns_regresses_when_dropping_victims() {
    let saved = fig5_saved(optimizations());
    let best = saved.average("llcWB+useL3OnWT");
    assert!((40.0..=70.0).contains(&best), "llcWB+useL3OnWT averages {best:.2}%");
    let trns = saved.get("trns", "dropCleanVic");
    assert!(trns < 0.0, "trns under dropCleanVic saves {trns:.2}%, expected a regression");
}

/// Fig. 6: state tracking speeds up every collaborative benchmark; the
/// queue- and histogram-bound ones gain most, `cedd` less, `trns` least.
/// `sc` and `tq` are within a point of each other and are not ordered.
#[test]
fn fig6_tracking_speeds_up_every_benchmark_in_the_expected_order() {
    let saved = fig6_saved(tracking());
    for (bench, vals) in &saved.rows {
        assert!(vals.iter().all(|&v| v > 0.0), "{bench} is slower with tracking: {vals:?}");
    }
    let sharers = |bench| saved.get(bench, "sharerTracking");
    for top in ["sc", "tq", "hsti"] {
        assert!(sharers(top) > sharers("cedd"), "{top} should gain more than cedd");
    }
    assert!(sharers("cedd") > sharers("trns"), "cedd should gain more than trns");
}

/// Fig. 7: tracking sharers never sends more probes than tracking only the
/// owner, and both remove well over half of them (the paper: 80.3 %).
#[test]
fn fig7_sharer_tracking_saves_at_least_what_owner_tracking_does_and_both_over_sixty_percent() {
    let saved = fig7_saved(tracking());
    for (bench, vals) in &saved.rows {
        assert!(vals[1] >= vals[0], "{bench}: sharer {:.2}% < owner {:.2}%", vals[1], vals[0]);
    }
    for config in saved.configs {
        let avg = saved.average(config);
        assert!(avg > 60.0, "{config} averages {avg:.2}%");
    }
}

fn rendered(section: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> String {
    let mut out = Vec::new();
    section(&mut out).expect("writing to a Vec");
    String::from_utf8(out).expect("sections write UTF-8")
}

/// `hsc repro`'s stdout is the ten sections in the paper's order, joined
/// by blank lines, then the closing line.
#[test]
fn repro_is_the_ten_sections_joined_by_blank_lines() {
    let (opt, trk) = (optimizations(), tracking());
    let ten = [
        rendered(|out| table2(out)),
        rendered(|out| table3(out)),
        rendered(|out| fig4(opt, out)),
        rendered(|out| fig5(opt, out)),
        rendered(|out| fig6(trk, out)),
        rendered(|out| fig7(trk, out)),
        rendered(|out| table1(out)),
        rendered(|out| ablation(par(), out)),
        rendered(|out| characterize(&all_workloads(), par(), None, out)),
        rendered(|out| extension(par(), out)),
    ];
    assert!(ten.iter().all(|section| section.ends_with('\n') && section.len() > 100));
    let want = ten.join("\n") + "\nAll experiments regenerated.\n";
    assert_eq!(rendered(|out| sections(opt, trk, par(), out)), want);
}

/// EXPERIMENTS.md's Fig. 4, 6 and 7 blocks are `hsc fig 4|6|7`'s output
/// below its five-line header, so a change that moves a figure must update
/// its table.
#[test]
fn experiments_md_tables_are_the_figures_output() {
    const DOC: &str = include_str!("../../../EXPERIMENTS.md");
    let block = |heading: &str| {
        let at = DOC.find(heading).unwrap_or_else(|| panic!("EXPERIMENTS.md lacks {heading:?}"));
        let body = &DOC[at..];
        let body = &body[body.find("```\n").expect("a fenced block") + 4..];
        &body[..body.find("```\n").expect("a closed block")]
    };
    let (opt, trk) = (optimizations(), tracking());
    for (heading, section) in [
        ("### Figure 4 ", rendered(|out| fig4(opt, out))),
        ("### Figure 6 ", rendered(|out| fig6(trk, out))),
        ("### Figure 7 ", rendered(|out| fig7(trk, out))),
    ] {
        let below_header = section.splitn(6, '\n').nth(5).expect("a five-line header");
        assert_eq!(block(heading), below_header, "EXPERIMENTS.md {heading}block");
    }
}

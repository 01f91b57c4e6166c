//! The post-mortem renderings a user reads when a protocol run fails are
//! pinned character for character: two deadlock snapshots' `Display`, and
//! a minimized counterexample's `Display` and Perfetto JSON. The fixtures
//! under `tests/fixtures/` were written by the string-typed diagnostics
//! that the typed `Event` vocabulary replaced, so a rendering drift in
//! the typed ones fails here. Regenerate with `UPDATE_GOLDEN=1 cargo test
//! --test rendering_fixtures` only for an intended format change, and
//! audit the diff.

use std::path::PathBuf;

use hsc_repro::cluster::Mutant;
use hsc_repro::prelude::*;

fn check_fixture(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    if let Some((i, (w, g))) = want.lines().zip(got.lines()).enumerate().find(|(_, (w, g))| w != g)
    {
        panic!("{name} differs at line {}:\n  fixture: {w}\n  output:  {g}", i + 1);
    }
    assert_eq!(want, got, "{name}: same lines, different line count or final newline");
}

fn deadlock_rendering(mut sys: System) -> String {
    match sys.run(10_000_000) {
        Err(SimError::Deadlock { snapshot }) => snapshot.to_string(),
        other => panic!("expected a diagnosed deadlock, got {other:?}"),
    }
}

/// One thread loading one word whose `RdBlk` is dropped with retries off:
/// the request never reaches the directory, so the stall is the waiting
/// L2 alone, with nothing delivered and nothing pending.
fn lost_request() -> System {
    const TARGET: Addr = Addr(0x4_0000);
    let mut b =
        SystemBuilder::new(SystemConfig::default().with_faults(FaultPlan::drop_first("RdBlk")));
    b.init_words([(TARGET, 42)]);
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Load(TARGET)])));
    b.build()
}

/// `hsti` under a one-tick watchdog, stopped at its first poll: a stuck
/// line, the TCC waiting on it, the probe acks still in flight, and a
/// full 64-entry flight tail.
fn watchdog_stop() -> System {
    let w = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    cfg.watchdog_ticks = 1;
    let mut b = SystemBuilder::new(cfg);
    w.build(&mut b);
    b.build()
}

#[test]
fn post_mortem_renderings_match_their_fixtures() {
    check_fixture("deadlock_drop_rdblk.txt", &deadlock_rendering(lost_request()));
    check_fixture("deadlock_watchdog_hsti.txt", &deadlock_rendering(watchdog_stop()));
}

/// Two writers under the MOESI mutant that drops an owner's dirty probe
/// data: the counterexample the checker's seeded-bug test provokes.
#[test]
fn counterexample_renderings_match_their_fixtures() {
    let l = Litmus::by_name("two_writers").expect("catalog scenario");
    let report = Litmus { mutant: Mutant::DropDirtyProbeData, ..l }.check_exhaustive();
    let cx = report.counterexample().expect("the mutant must be caught");
    check_fixture("counterexample_two_writers.txt", &cx.to_string());
    check_fixture("counterexample_two_writers.perfetto.json", &cx.to_perfetto().to_json_string());
}

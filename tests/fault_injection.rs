//! Fault injection, retry recovery, and the watchdog diagnosis path:
//! `System::run` must turn every induced protocol failure into a typed
//! [`SimError`] with a useful snapshot — never a panic — and seeded fault
//! plans must be perfectly reproducible.

use hsc_repro::noc::AgentId;
use hsc_repro::prelude::*;

const TARGET: Addr = Addr(0x4_0000);

/// One thread that loads `TARGET` once. If the load's `RdBlk` (or its
/// response) is lost and never retried, this thread blocks forever.
fn one_load_system(cfg: SystemConfig) -> System {
    let mut b = SystemBuilder::new(cfg);
    b.init_words([(TARGET, 42)]);
    b.add_cpu_thread(Box::new(CpuScript::new(vec![CpuOp::Load(TARGET)])));
    b.build()
}

/// The DMA engine reads `TARGET`'s line once: its `DmaRd` is the only
/// request on the line.
fn one_dma_read_system(cfg: SystemConfig) -> System {
    use hsc_repro::cluster::{DmaCommand, DmaScript};
    let mut b = SystemBuilder::new(cfg);
    b.init_words([(TARGET, 42)]);
    let read = DmaCommand::Read { base: TARGET, lines: 1, at: hsc_repro::sim::Tick(0) };
    b.with_dma(Box::new(DmaScript::new(vec![read])));
    b.build()
}

/// One wavefront loads `TARGET` once: a TCC miss whose `RdBlk` is the only
/// request on the line.
fn one_gpu_load_system(cfg: SystemConfig) -> System {
    let mut b = SystemBuilder::new(cfg);
    b.init_words([(TARGET, 42)]);
    b.add_wavefront(Box::new(GpuScript::new(vec![GpuOp::VecLoad(vec![TARGET])])));
    b.build()
}

/// Runs `build` under `plan`, once without retries — the loss must be a
/// deadlock naming `TARGET`'s line — and once with `with_retry`, which must
/// recover with exactly one re-send counted under `retries_key`.
fn lost_request_recovers_only_with_retry(
    build: fn(SystemConfig) -> System,
    plan: FaultPlan,
    retries_key: &str,
) -> System {
    let mut sys = build(SystemConfig::default().with_faults(plan));
    match sys.run(10_000_000) {
        Err(SimError::Deadlock { snapshot }) => assert!(
            snapshot.mentions_line(TARGET.line()),
            "snapshot must name the stuck line {:#x}:\n{snapshot}",
            TARGET.line().0
        ),
        other => panic!("{plan:?} without retries: expected a diagnosed deadlock, got {other:?}"),
    }
    let cfg = SystemConfig::default().with_retry(RetryPolicy::default()).with_faults(plan);
    let mut sys = build(cfg);
    let m = sys.run(10_000_000).expect("one with_retry must recover every requester kind");
    assert_eq!(m.stats.get("faults.dropped"), 1);
    assert_eq!(m.stats.get(retries_key), 1, "{retries_key}");
    sys
}

/// A dropped request with retries disabled must surface as a *diagnosed*
/// deadlock: a `SimError::Deadlock` whose snapshot names the stuck line.
#[test]
fn dropped_request_without_retries_is_a_diagnosed_deadlock() {
    let cfg = SystemConfig::default().with_faults(FaultPlan::drop_first("RdBlk"));
    let mut sys = one_load_system(cfg);
    match sys.run(10_000_000) {
        Err(SimError::Deadlock { snapshot }) => {
            assert!(
                snapshot.mentions_line(TARGET.line()),
                "snapshot must name the stuck line {:#x}:\n{snapshot}",
                TARGET.line().0
            );
            assert!(!snapshot.agents.is_empty(), "the waiting L2 must be reported");
        }
        other => panic!("expected a diagnosed deadlock, got {other:?}"),
    }
    assert_eq!(sys.metrics().stats.get("faults.dropped"), 1);
}

/// The same loss with retries enabled must recover: the request is
/// re-sent after the timeout and the run completes with the right value.
#[test]
fn dropped_request_with_retries_recovers() {
    let cfg = SystemConfig::default()
        .with_retry(RetryPolicy::default())
        .with_faults(FaultPlan::drop_first("RdBlk"));
    let mut sys = one_load_system(cfg);
    let m = sys.run(10_000_000).expect("retry must recover a dropped request");
    assert_eq!(m.stats.get("faults.dropped"), 1);
    assert_eq!(m.stats.get("faults.dropped.RdBlk"), 1);
    assert_eq!(m.stats.get("cp0.l2.retries"), 1);
    assert_eq!(sys.final_word(TARGET), 42);
}

/// The one `SystemConfig::retry` reaches the DMA engine: a dropped `DmaRd`
/// is re-sent and the read returns the line's data.
#[test]
fn dropped_dma_read_recovers_only_with_retry() {
    let sys = lost_request_recovers_only_with_retry(
        one_dma_read_system,
        FaultPlan::drop_first("DmaRd"),
        "dma.retries",
    );
    let read = sys.dma().read_data();
    assert_eq!(read.len(), 1);
    assert_eq!(read[&TARGET.line()].word_at(TARGET), 42);
}

/// The one `SystemConfig::retry` reaches the TCC: a dropped GPU fill
/// request is re-sent.
#[test]
fn dropped_gpu_load_recovers_only_with_retry() {
    lost_request_recovers_only_with_retry(
        one_gpu_load_system,
        FaultPlan::drop_first("RdBlk"),
        "tcc.retries",
    );
}

/// Known gap (ROADMAP): `RetryTracker` keeps one request per line, first
/// wins, and any ack for the line clears it. Two wavefronts write through
/// one shared line and release it, so the TCC has two `WT`s and then two
/// `Flush`es outstanding on that line; only the first `WT` is tracked, its
/// ack clears it, and a dropped `Flush` is never re-sent.
#[test]
#[ignore = "known: retry tracks one request per line, so a dropped Flush behind a WT on the \
            same line is never re-sent (see ROADMAP)"]
fn dropped_flush_behind_a_same_line_write_through_recovers() {
    let shared = Addr(TARGET.0 + 8);
    let cfg = SystemConfig::default()
        .with_retry(RetryPolicy::default())
        .with_faults(FaultPlan::drop_first("Flush"));
    let mut b = SystemBuilder::new(cfg);
    for (i, a) in [TARGET, shared].into_iter().enumerate() {
        let store = GpuOp::VecStore(vec![(a, i as u64 + 1)]);
        b.add_wavefront(Box::new(GpuScript::new(vec![store, GpuOp::Release])));
    }
    let mut sys = b.build();
    let m = sys.run(10_000_000).expect("retry must recover the dropped Flush");
    assert_eq!(m.stats.get("faults.dropped"), 1);
    assert_eq!((sys.final_word(TARGET), sys.final_word(shared)), (1, 2));
}

/// A lost *response* leaves the directory's transaction open, so the
/// stall report must name all three dimensions: the stuck line (with its
/// transaction phase), the busy agent, and the stall time — all through
/// the plain `Display` rendering a CLI user would see.
#[test]
fn deadlock_display_names_line_phase_and_agents() {
    let cfg = SystemConfig::default().with_faults(FaultPlan::drop_first("Resp"));
    let mut sys = one_load_system(cfg);
    let err = sys.run(10_000_000).expect_err("a dropped response cannot complete");
    let SimError::Deadlock { snapshot } = &err else {
        panic!("expected a diagnosed deadlock, got {err:?}");
    };
    assert!(
        !snapshot.lines.is_empty(),
        "the directory transaction must be reported stuck:\n{snapshot}"
    );
    let text = err.to_string();
    assert!(text.starts_with("deadlock: protocol stall at"), "header missing:\n{text}");
    assert!(text.contains("0x1000"), "must name the stuck line:\n{text}");
    assert!(text.contains("stuck for"), "must give the transaction age:\n{text}");
    assert!(text.contains("responded="), "must show the transaction phase flags:\n{text}");
    assert!(text.contains("L2[0]"), "must name the waiting agent:\n{text}");
}

/// An induced deadlock's snapshot carries the flight recorder's tail: the
/// last deliveries the engine made, oldest first, rendered as part of the
/// post-mortem. The tail must name the request that started the stuck
/// transaction and stay within the ring's bounded capacity.
#[test]
fn deadlock_snapshot_carries_the_flight_recorder_tail() {
    let cfg = SystemConfig::default().with_faults(FaultPlan::drop_first("Resp"));
    let mut sys = one_load_system(cfg);
    let err = sys.run(10_000_000).expect_err("a dropped response cannot complete");
    let SimError::Deadlock { snapshot } = &err else {
        panic!("expected a diagnosed deadlock, got {err:?}");
    };
    assert!(
        !snapshot.flight.is_empty(),
        "deliveries happened before the stall, so the tail must too"
    );
    assert!(
        snapshot.flight.len() <= hsc_repro::noc::DEFAULT_FLIGHT_CAPACITY,
        "the ring is bounded"
    );
    for w in snapshot.flight.windows(2) {
        assert!(w[0].at <= w[1].at, "the tail must be oldest-first");
    }
    assert!(
        snapshot.flight.iter().any(|e| e.class_name() == "RdBlk" && e.dst == AgentId::Directory),
        "the load's request reaching the directory must be on record: {:?}",
        snapshot.flight
    );
    let text = err.to_string();
    assert!(
        text.contains("delivered event(s), oldest first"),
        "the rendering must include the post-mortem:\n{text}"
    );
    assert!(text.contains("DIR ← RdBlk"), "entries render agent and class:\n{text}");
}

/// The watchdog judges the next event while it is still queued, so the
/// snapshot of a run it stops is whole: the event that found the stall is
/// among the pending ones, at the tick the stuck lines are aged against.
/// Here that event is one of the probe acks the stuck transaction waits
/// for, so the acks in flight must add up to the directory's count.
#[test]
fn watchdog_snapshot_still_holds_the_event_that_tripped_it() {
    let w = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    cfg.watchdog_ticks = 1; // any transaction in flight at a poll is "stuck"
    let mut b = SystemBuilder::new(cfg);
    w.build(&mut b);
    let mut sys = b.build();
    let Err(SimError::Deadlock { snapshot }) = sys.run(u64::MAX) else {
        panic!("a one-tick watchdog must stop the run at its first poll");
    };
    assert_eq!(snapshot.pending.first().map(|p| p.at), Some(snapshot.now), "{snapshot}");
    assert_eq!(snapshot.pending, sys.pending_events(), "the snapshot took nothing out");
    let [stuck] = &snapshot.lines[..] else {
        panic!("expected one stuck line:\n{snapshot}");
    };
    let acks_in_flight = snapshot
        .pending
        .iter()
        .filter(|p| matches!(p.event, Event::Deliver(m) if m.kind.class_name() == "PrbAck" && m.line == stuck.line))
        .count();
    assert!(
        acks_in_flight > 0 && stuck.detail.contains(&format!(" acks={acks_in_flight} ")),
        "{acks_in_flight} probe ack(s) in flight must be all the directory waits for:\n{snapshot}"
    );
}

/// The stall report and the model checker's choice view share one event
/// vocabulary ([`PendingEvent`]): wakes and message deliveries both
/// render as readable one-liners naming the participants.
#[test]
fn pending_events_render_wakes_and_deliveries() {
    let mut sys = one_load_system(SystemConfig::default());
    sys.enable_choice_mode();
    let pend = sys.pending_events();
    assert!(
        pend.iter().any(|p| p.to_string().contains("wake")),
        "initial agent wake-ups must be pending: {pend:?}"
    );
    for _ in 0..64 {
        if let Some(p) = sys
            .pending_events()
            .iter()
            .find(|p| matches!(p.event, Event::Deliver(m) if m.line == LineAddr(0x1000)))
        {
            let s = p.to_string();
            assert!(s.contains("deliver"), "{s}");
            assert!(s.contains("RdBlk"), "{s}");
            assert!(s.contains("line 0x1000"), "{s}");
            return;
        }
        let next = sys.pending_events().first().cloned();
        let next = next.expect("queue drained before the load's request appeared");
        sys.step_choice(&next).expect("fault-free stepping cannot fail");
    }
    panic!("the load's RdBlk never became a pending delivery");
}

/// SLC atomics are non-idempotent at the directory — a retried fetch-add
/// whose original survived would apply twice — so the retry layer must
/// *never* re-send one. A lost atomic therefore deadlocks even with
/// retries enabled everywhere, with zero retry attempts recorded.
#[test]
fn slc_atomics_are_never_retried() {
    let cfg = SystemConfig::default()
        .with_retry(RetryPolicy::default())
        .with_faults(FaultPlan::drop_first("Atomic"));
    let mut b = SystemBuilder::new(cfg);
    b.init_words([(TARGET, 7)]);
    let fetch_add = GpuOp::AtomicSlc(TARGET, AtomicKind::FetchAdd(1));
    b.add_wavefront(Box::new(GpuScript::new(vec![fetch_add])));
    let mut sys = b.build();
    match sys.run(10_000_000) {
        Err(SimError::Deadlock { snapshot }) => {
            assert!(
                snapshot.mentions_line(TARGET.line()),
                "the lost atomic's line must be diagnosed:\n{snapshot}"
            );
        }
        other => panic!("a lost SLC atomic must deadlock, not be retried: {other:?}"),
    }
    assert_eq!(sys.metrics().stats.get("faults.dropped"), 1);
    assert_eq!(
        sys.metrics().stats.get("tcc.retries"),
        0,
        "the TCC must not have re-sent the atomic"
    );
}

/// The target-set logic behind that invariant: `RetryableRequests`
/// excludes the `Atomic` class that `All` and an exact class include.
#[test]
fn retryable_targets_exclude_atomics() {
    use hsc_repro::noc::{Message, MsgKind};
    let atomic = Message {
        src: AgentId::Tcc(0),
        dst: AgentId::Directory,
        line: TARGET.line(),
        kind: MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(1) },
    };
    assert!(FaultTargets::All.matches(&atomic));
    assert!(!FaultTargets::RetryableRequests.matches(&atomic));
    assert!(FaultTargets::Class("Atomic").matches(&atomic));
}

fn run_hsti(plan: Option<FaultPlan>, retry: Option<RetryPolicy>) -> Result<Metrics, SimError> {
    let w = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let mut cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking());
    if let Some(p) = plan {
        cfg = cfg.with_faults(p);
    }
    if let Some(r) = retry {
        cfg = cfg.with_retry(r);
    }
    let mut b = SystemBuilder::new(cfg);
    w.build(&mut b);
    b.build().run(50_000_000)
}

/// A seeded fault plan is fully deterministic: two identical runs give
/// identical metrics — or the identical typed error.
#[test]
fn seeded_fault_runs_are_deterministic() {
    for plan in [
        FaultPlan::drops(7, 3_000),
        FaultPlan::drops(11, 20_000),
        FaultPlan::drops(13, 5_000).with_targets(FaultTargets::RetryableRequests),
    ] {
        let a = run_hsti(Some(plan), Some(RetryPolicy::default()));
        let b = run_hsti(Some(plan), Some(RetryPolicy::default()));
        assert_eq!(a, b, "same seed must reproduce the same outcome (plan {plan:?})");
    }
}

/// A total reported beside its per-class keys is their sum, on a seeded
/// run that both drops and duplicates messages: `faults.dropped` and
/// `faults.duplicated`, `net.probes_total` (`PrbInv` + `PrbDown`),
/// `net.mem_reads` and `net.mem_writes` (`MemRd`, `MemWr`), and every
/// `*.unexpected_msgs` that has per-class keys.
#[test]
fn reported_totals_are_the_sums_of_their_classes() {
    let plan = FaultPlan { dup_ppm: 5_000, ..FaultPlan::drops(7, 3_000) };
    let w = Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 };
    let cfg = SystemConfig::scaled(CoherenceConfig::sharer_tracking())
        .with_faults(plan)
        .with_retry(RetryPolicy::default());
    let mut b = SystemBuilder::new(cfg);
    w.build(&mut b);
    let mut sys = b.build();
    // A stalled run keeps its counters, and they must add up all the same.
    let _ = sys.run(50_000_000);
    let s = sys.metrics().stats;
    for total in ["faults.dropped", "faults.duplicated"] {
        assert!(s.get(total) > 0, "the plan must inject {total}");
        assert_eq!(s.get(total), s.sum_prefix(&format!("{total}.")), "{total}");
    }
    assert_eq!(s.get("net.probes_total"), s.get("net.msg.PrbInv") + s.get("net.msg.PrbDown"));
    assert_eq!(s.get("net.mem_reads"), s.get("net.msg.MemRd"));
    assert_eq!(s.get("net.mem_writes"), s.get("net.msg.MemWr"));
    // The DMA engine counts its unexpected messages without classes.
    for (key, total) in s.iter().filter(|(k, _)| k.ends_with(".unexpected_msgs")) {
        if !key.starts_with("dma.") {
            let classes = format!("{}.unexpected.", key.trim_end_matches(".unexpected_msgs"));
            assert_eq!(total, s.sum_prefix(&classes), "{key}");
        }
    }
}

/// The fault layer is zero-cost when it never fires: a plan with rate 0
/// produces byte-identical metrics to no plan at all.
#[test]
fn zero_rate_plan_is_byte_identical_to_no_plan() {
    let golden = run_hsti(None, None).expect("fault-free hsti completes");
    let armed = run_hsti(Some(FaultPlan::drops(99, 0)), None).expect("0-rate plan completes");
    assert_eq!(golden, armed);
}

//! The observability layer's three load-bearing guarantees: it is
//! zero-cost when disabled (golden metrics stay byte-identical), it is
//! deterministic when enabled (seeded runs sample identical series), and
//! its two export formats (run report, Perfetto trace) are well-formed
//! JSON with the documented structure.

use hsc_repro::obs::json::{parse, Value};
use hsc_repro::obs::{RunRecord, REPORT_SCHEMA, REPORT_SCHEMA_VERSION};
use hsc_repro::prelude::*;

/// Epoch fine enough that the small seeded run below crosses several
/// boundaries.
const EPOCH: u64 = 4_096;

fn bench() -> Hsti {
    Hsti { elements: 256, bins: 8, cpu_threads: 2, wavefronts: 2, seed: 1 }
}

fn observed(obs: ObsConfig) -> ObservedRun {
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());
    run_workload_observed(&bench(), cfg, obs)
}

/// Observability is zero-cost when off AND non-perturbing when on: the
/// simulated machine's metrics are byte-identical whether the observer
/// records everything or nothing (it only ever reads simulation state).
#[test]
fn full_observability_leaves_metrics_byte_identical() {
    let golden = observed(ObsConfig::off()).outcome.expect("golden run completes");
    let watched = observed(ObsConfig::full(EPOCH)).outcome.expect("observed run completes");
    assert_eq!(golden, watched);
}

/// Seeded observed runs are fully deterministic: epoch boundaries,
/// sampled values, latency histograms and span counts all reproduce.
#[test]
fn observed_runs_are_deterministic() {
    let a = observed(ObsConfig::full(EPOCH)).obs;
    let b = observed(ObsConfig::full(EPOCH)).obs;
    assert_eq!(a.time_series, b.time_series, "sampled series must reproduce");
    assert_eq!(a.latency, b.latency, "latency histograms must reproduce");
    assert_eq!(a.spans_completed, b.spans_completed);
    assert!(a.spans_completed > 0, "the run must complete transactions");
    assert_eq!(a.spans_open, 0, "a quiesced run leaves no open span");
    let series = a.time_series.iter().find(|s| !s.points.is_empty()).expect("non-empty series");
    assert!(series.points.len() >= 2, "the run must cross several epochs");
    for w in series.points.windows(2) {
        assert!(w[1].0 > w[0].0, "epoch stamps must be strictly increasing");
        assert_eq!((w[1].0 - w[0].0) % EPOCH, 0, "stamps sit on epoch boundaries");
    }
}

/// The run report renders to parseable JSON carrying the versioned
/// schema envelope, the run's counters, per-class latency summaries and
/// at least two sampled time series.
#[test]
fn run_report_json_has_the_documented_schema() {
    let run = observed(ObsConfig::report(EPOCH));
    let r = run.outcome.as_ref().expect("report run completes");
    let cfg = SystemConfig::scaled(CoherenceConfig::baseline());

    let mut report = RunReport::new("observability-test");
    report.fingerprint_config(&cfg);
    let mut rec = RunRecord {
        workload: "hsti".to_owned(),
        config: "baseline".to_owned(),
        outcome: "completed".to_owned(),
        ticks: r.ticks,
        gpu_cycles: r.gpu_cycles,
        counters: r.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        ..RunRecord::default()
    };
    rec.attach_obs(&run.obs);
    report.runs.push(rec);

    let doc = parse(&report.to_json_string()).expect("report must be valid JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(REPORT_SCHEMA));
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_f64),
        Some(REPORT_SCHEMA_VERSION as f64)
    );
    assert!(doc.get("git").and_then(Value::as_str).is_some());
    let fp = doc.get("config").and_then(|c| c.get("fingerprint")).and_then(Value::as_str);
    assert_eq!(fp.map(str::len), Some(16), "fingerprint is 16 hex chars");
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs array");
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.get("outcome").and_then(Value::as_str), Some("completed"));
    let counters = run.get("counters").and_then(Value::as_object).expect("counters");
    assert!(!counters.is_empty());
    let latency = run.get("latency").and_then(Value::as_object).expect("latency");
    assert!(!latency.is_empty(), "completed transactions must yield latency classes");
    for summary in latency.values() {
        for field in ["count", "mean", "p50", "p95", "p99", "max"] {
            assert!(summary.get(field).and_then(Value::as_f64).is_some(), "missing {field}");
        }
    }
    let series = run.get("time_series").and_then(Value::as_object).expect("time_series");
    assert!(series.len() >= 2, "report must carry at least two time series");
}

/// The protocol-analytics pillar is free when off and additive when on:
/// the simulated machine's metrics are identical either way, the
/// analytics-off report carries none of the optional analytics sections,
/// and the analytics-on record differs from it **only** by the added
/// sections — stripping them back out restores byte-identical JSON.
#[test]
fn protocol_analytics_are_zero_cost_off_and_purely_additive_on() {
    let golden = observed(ObsConfig::report(EPOCH));
    let analytics = observed(ObsConfig { protocol_analytics: true, ..ObsConfig::report(EPOCH) });
    assert_eq!(
        golden.outcome.as_ref().expect("golden run completes"),
        analytics.outcome.as_ref().expect("analytics run completes"),
        "analytics must not perturb the simulated machine"
    );

    let record = |run: &ObservedRun| {
        let mut rec = RunRecord {
            workload: "hsti".to_owned(),
            config: "baseline".to_owned(),
            outcome: "completed".to_owned(),
            ..RunRecord::default()
        };
        rec.attach_obs(&run.obs);
        rec
    };
    let report_of = |rec: RunRecord| {
        let mut report = RunReport::new("observability-test");
        report.runs.push(rec);
        report
    };

    let off_json = report_of(record(&golden)).to_json_string();
    for key in ["\"transitions\"", "\"sharing\"", "\"flight_recorder\""] {
        assert!(!off_json.contains(key), "analytics-off report must not carry {key}");
    }

    let on_rec = record(&analytics);
    let on_json = report_of(on_rec.clone()).to_json_string();
    assert!(on_json.contains("\"transitions\"") && on_json.contains("\"moesi-l2\""));
    assert!(on_json.contains("\"sharing\"") && on_json.contains("\"ping_pong\""));

    // The analytics pillar also contributes the `dir.sharers` gauge — it
    // must appear only when the pillar is on.
    assert!(on_rec.time_series.iter().any(|s| s.name == "dir.sharers"));
    assert!(!off_json.contains("dir.sharers"));

    // Strip everything the pillar added (sections plus its gauge): the
    // rest must be the byte-wise same report, proving the pillar is
    // purely additive rather than reshaping existing fields.
    let mut stripped = on_rec;
    stripped.transitions.clear();
    stripped.sharing = None;
    stripped.flight.clear();
    stripped.time_series.retain(|s| s.name != "dir.sharers");
    assert_eq!(report_of(stripped).to_json_string(), off_json);
}

/// The Perfetto export is a valid Chrome-trace JSON object: a
/// `traceEvents` array whose events all carry `ph`/`pid`/`tid`, with one
/// thread-name metadata record per track and at least one complete span.
#[test]
fn perfetto_trace_is_valid_chrome_trace_json() {
    let run = observed(ObsConfig::full(EPOCH));
    run.outcome.expect("trace run completes");
    let trace = run.obs.perfetto.expect("perfetto enabled");
    assert!(!trace.is_empty());

    let doc = parse(&trace.to_json_string()).expect("trace must be valid JSON");
    assert!(doc.get("displayTimeUnit").and_then(Value::as_str).is_some());
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(!events.is_empty());
    let mut spans = 0;
    let mut tracks = 0;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("every event has a phase");
        assert!(e.get("pid").and_then(Value::as_f64).is_some());
        assert!(e.get("tid").and_then(Value::as_f64).is_some());
        match ph {
            "X" => {
                spans += 1;
                assert!(e.get("dur").and_then(Value::as_f64).is_some(), "spans carry dur");
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
            }
            "M" => tracks += 1,
            _ => {}
        }
    }
    assert!(spans > 0, "completed transactions must appear as complete spans");
    assert!(tracks >= 2, "trace must name several agent tracks");
}

//! Versioned machine-readable run reports.
//!
//! A [`RunReport`] is the JSON artifact the bench binaries emit behind
//! `--report <path>`: a schema-versioned envelope (tool, command, git
//! revision, config fingerprint) around one [`RunRecord`] per simulated
//! run. Downstream tooling keys on `schema` + `schema_version` and must
//! reject reports whose version it does not know.

use hsc_noc::FlightRecord;
use hsc_sim::{fnv1a, Histogram, TransitionMatrix};

use crate::analytics::{SharingClass, SharingReport, SharingTracker};
use crate::json::JsonWriter;
use crate::observer::{AgentProfile, ObsData};
use crate::sampler::TimeSeries;

/// The schema identifier every report carries.
pub const REPORT_SCHEMA: &str = "hsc-run-report";

/// The one schema version. The protocol-analytics sections
/// (`transitions`, `sharing`, `flight_recorder`) are optional parts of it:
/// a run that collected none simply omits them.
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// Latency percentiles for one request class, precomputed from its
/// [`Histogram`] so report consumers need no bucket math.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Request class name (`"RdBlk"`, …).
    pub class: String,
    /// Number of completed transactions.
    pub count: u64,
    /// Mean latency in ticks.
    pub mean: f64,
    /// 50th percentile latency in ticks.
    pub p50: u64,
    /// 95th percentile latency in ticks.
    pub p95: u64,
    /// 99th percentile latency in ticks.
    pub p99: u64,
    /// Largest observed latency in ticks.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes one class histogram.
    #[must_use]
    pub fn from_histogram(class: &str, h: &Histogram) -> Self {
        LatencySummary {
            class: class.to_owned(),
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// One simulated run inside a report.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Workload name (`"tq"`, `"hsti"`, …).
    pub workload: String,
    /// Coherence configuration label (`"baseline"`, …).
    pub config: String,
    /// How the run ended: `"completed"`, or a one-word failure kind
    /// (`"deadlock"`, `"verification-failed"`, …; `hsc_bench` lists them
    /// all as `reporting::RUN_OUTCOMES`).
    pub outcome: String,
    /// Total simulated ticks.
    pub ticks: u64,
    /// Total simulated GPU cycles.
    pub gpu_cycles: u64,
    /// The merged end-of-run counters, in key order.
    pub counters: Vec<(String, u64)>,
    /// Per-class transaction latency summaries.
    pub latency: Vec<LatencySummary>,
    /// Sampled time series.
    pub time_series: Vec<TimeSeries>,
    /// Per-agent engine profile.
    pub agents: Vec<AgentProfile>,
    /// Per-protocol state-transition matrices (empty unless protocol
    /// analytics were on).
    pub transitions: Vec<TransitionMatrix>,
    /// Directory sharing-pattern summary (absent unless protocol
    /// analytics were on).
    pub sharing: Option<SharingReport>,
    /// Flight-recorder tail, attached only to failed runs
    /// ([`RunRecord::attach_flight`]).
    pub flight: Vec<FlightRecord>,
}

impl RunRecord {
    /// Fills the observability-derived fields from `data`, including the
    /// protocol-analytics sections when they were collected. The flight
    /// tail is *not* attached here — it is always non-empty (the recorder
    /// is free-running), so a clean run would needlessly carry it; failure
    /// paths call [`RunRecord::attach_flight`] explicitly.
    pub fn attach_obs(&mut self, data: &ObsData) {
        self.latency = data
            .latency
            .iter()
            .map(|(class, h)| LatencySummary::from_histogram(class, h))
            .collect();
        self.time_series = data.time_series.clone();
        self.agents = data.agents.clone();
        self.transitions = data.transitions.clone();
        self.sharing = data.sharing.as_ref().map(SharingTracker::report);
    }

    /// Attaches a flight-recorder tail (the post-mortem of a failed run).
    pub fn attach_flight(&mut self, tail: &[FlightRecord]) {
        self.flight = tail.to_vec();
    }
}

/// The versioned report envelope.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Name of the binary that produced the report.
    pub command: String,
    /// `git describe --always --dirty` of the producing tree, or
    /// `"unknown"` outside a git checkout.
    pub git: String,
    /// Stable fingerprint of the simulated configuration.
    pub config_fingerprint: String,
    /// Human-oriented one-line description of the configuration.
    pub config_summary: String,
    /// One record per simulated run.
    pub runs: Vec<RunRecord>,
}

impl RunReport {
    /// Creates an empty report for `command`, stamping the git revision.
    #[must_use]
    pub fn new(command: &str) -> Self {
        RunReport { command: command.to_owned(), git: git_describe(), ..RunReport::default() }
    }

    /// Sets the config fingerprint and summary from any `Debug`-rendered
    /// configuration value.
    pub fn fingerprint_config<C: std::fmt::Debug>(&mut self, config: &C) {
        let rendered = format!("{config:?}");
        self.config_fingerprint = format!("{:016x}", fnv1a(rendered.as_bytes()));
        self.config_summary = rendered;
    }

    /// Serializes the report to its JSON schema.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string(REPORT_SCHEMA);
        w.key("schema_version");
        w.uint(REPORT_SCHEMA_VERSION);
        w.key("command");
        w.string(&self.command);
        w.key("git");
        w.string(&self.git);
        w.key("config");
        w.begin_object();
        w.key("fingerprint");
        w.string(&self.config_fingerprint);
        w.key("summary");
        w.string(&self.config_summary);
        w.end_object();
        w.key("runs");
        w.begin_array();
        for run in &self.runs {
            write_run(&mut w, run);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

fn write_run(w: &mut JsonWriter, run: &RunRecord) {
    w.begin_object();
    w.key("workload");
    w.string(&run.workload);
    w.key("config");
    w.string(&run.config);
    w.key("outcome");
    w.string(&run.outcome);
    w.key("ticks");
    w.uint(run.ticks);
    w.key("gpu_cycles");
    w.uint(run.gpu_cycles);
    w.key("counters");
    w.begin_object();
    for (k, v) in &run.counters {
        w.key(k);
        w.uint(*v);
    }
    w.end_object();
    w.key("latency");
    w.begin_object();
    for l in &run.latency {
        w.key(&l.class);
        w.begin_object();
        w.key("count");
        w.uint(l.count);
        w.key("mean");
        w.float(l.mean);
        w.key("p50");
        w.uint(l.p50);
        w.key("p95");
        w.uint(l.p95);
        w.key("p99");
        w.uint(l.p99);
        w.key("max");
        w.uint(l.max);
        w.end_object();
    }
    w.end_object();
    w.key("time_series");
    w.begin_object();
    for series in &run.time_series {
        w.key(&series.name);
        w.begin_array();
        for (t, v) in &series.points {
            w.begin_array();
            w.uint(*t);
            w.uint(*v);
            w.end_array();
        }
        w.end_array();
    }
    w.end_object();
    w.key("agents");
    w.begin_object();
    for a in &run.agents {
        w.key(&a.agent);
        w.begin_object();
        w.key("events_handled");
        w.uint(a.events_handled);
        w.key("ticks_advanced");
        w.uint(a.ticks_advanced);
        w.end_object();
    }
    w.end_object();
    // The analytics sections, emitted only when collected.
    if !run.transitions.is_empty() {
        w.key("transitions");
        w.begin_object();
        for m in &run.transitions {
            w.key(m.protocol());
            w.begin_object();
            w.key("states");
            w.begin_array();
            for s in m.states() {
                w.string(s);
            }
            w.end_array();
            w.key("causes");
            w.begin_array();
            for c in m.causes() {
                w.string(c);
            }
            w.end_array();
            w.key("total");
            w.uint(m.total());
            w.key("cells");
            w.begin_array();
            for (from, to, cause, count) in m.nonzero() {
                w.begin_array();
                w.uint(from as u64);
                w.uint(to as u64);
                w.uint(cause as u64);
                w.uint(count);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
    }
    if let Some(sh) = &run.sharing {
        w.key("sharing");
        w.begin_object();
        w.key("sharer_hist");
        w.begin_array();
        for &c in &sh.sharer_hist {
            w.uint(c);
        }
        w.end_array();
        w.key("fanout_hist");
        w.begin_array();
        for &c in &sh.fanout_hist {
            w.uint(c);
        }
        w.end_array();
        w.key("classes");
        w.begin_object();
        for (class, &count) in SharingClass::ALL.iter().zip(&sh.class_counts) {
            w.key(class.name());
            w.uint(count);
        }
        w.end_object();
        w.key("tracked_lines");
        w.uint(sh.tracked_lines);
        w.key("dropped_lines");
        w.uint(sh.dropped_lines);
        w.key("top_pingpong");
        w.begin_array();
        for o in &sh.top_pingpong {
            w.begin_object();
            w.key("line");
            w.uint(o.line);
            w.key("writer_flips");
            w.uint(o.writer_flips);
            w.key("writes");
            w.uint(o.writes);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    if !run.flight.is_empty() {
        w.key("flight_recorder");
        w.begin_array();
        for r in &run.flight {
            w.begin_object();
            w.key("at");
            w.uint(r.at.0);
            w.key("agent");
            w.string(&r.dst.to_string());
            w.key("kind");
            w.string(r.class_name());
            w.key("line");
            w.uint(r.line.0);
            w.end_object();
        }
        w.end_array();
    }
    w.end_object();
}

/// `git describe --always --dirty` of the current tree, `"unknown"` when
/// git or the checkout is unavailable.
#[must_use]
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use hsc_mem::LineAddr;
    use hsc_noc::{AgentId, FlightRecorder, Message, MsgKind};

    #[test]
    fn report_json_matches_schema() {
        let mut report = RunReport::new("unit-test");
        report.fingerprint_config(&("some config", 42));
        let mut h = Histogram::new();
        for v in [100, 200, 300] {
            h.record(v);
        }
        report.runs.push(RunRecord {
            workload: "tq".into(),
            config: "baseline".into(),
            outcome: "completed".into(),
            ticks: 12345,
            gpu_cycles: 352,
            counters: vec![("dir.probes_sent".into(), 7), ("l2.retries".into(), 0)],
            latency: vec![LatencySummary::from_histogram("RdBlk", &h)],
            time_series: vec![
                TimeSeries { name: "dir.inflight_txns".into(), points: vec![(100, 2), (200, 0)] },
                TimeSeries { name: "net.messages".into(), points: vec![(100, 40)] },
            ],
            agents: vec![AgentProfile {
                agent: "DIR".into(),
                events_handled: 9,
                ticks_advanced: 1000,
            }],
            transitions: Vec::new(),
            sharing: None,
            flight: Vec::new(),
        });
        let v = parse(&report.to_json_string()).expect("schema JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(REPORT_SCHEMA_VERSION as f64));
        assert!(!v.get("git").unwrap().as_str().unwrap().is_empty());
        let fp = v.get("config").unwrap().get("fingerprint").unwrap();
        assert_eq!(fp.as_str().unwrap().len(), 16);
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(run.get("outcome").unwrap().as_str(), Some("completed"));
        // Zero-valued counters must be present, not omitted.
        assert_eq!(run.get("counters").unwrap().get("l2.retries").unwrap().as_f64(), Some(0.0));
        let rdblk = run.get("latency").unwrap().get("RdBlk").unwrap();
        assert_eq!(rdblk.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(rdblk.get("max").unwrap().as_f64(), Some(300.0));
        assert!(rdblk.get("p50").unwrap().as_f64().unwrap() >= 100.0);
        let ts = run.get("time_series").unwrap().as_object().unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn analytics_sections_are_optional_within_the_one_schema_version() {
        let mut report = RunReport::new("unit-test");
        let mut run = RunRecord {
            workload: "tq".into(),
            outcome: "completed".into(),
            ..RunRecord::default()
        };
        report.runs.push(run.clone());
        let json = report.to_json_string();
        assert!(json.contains("\"schema_version\":2"));
        assert!(!json.contains("\"transitions\""));
        assert!(!json.contains("\"flight_recorder\""));

        let mut m = TransitionMatrix::new("moesi-l2", &["I", "M"], &["Fill"]);
        m.record(0, 1, 0);
        run.transitions = vec![m];
        run.sharing = Some({
            let mut t = SharingTracker::new();
            t.on_lookup(2);
            t.on_access(0x40, AgentId::CorePairL2(0), true);
            t.on_access(0x40, AgentId::CorePairL2(1), true);
            t.report()
        });
        let mut fr = FlightRecorder::new(2);
        let l2 = AgentId::CorePairL2(0);
        fr.push(
            hsc_sim::Tick(7),
            &Message::new(l2, AgentId::Directory, LineAddr(0x40), MsgKind::RdBlk),
        );
        run.attach_flight(&fr.tail());
        let mut with_sections = RunReport::new("unit-test");
        with_sections.runs.push(run);
        let v = parse(&with_sections.to_json_string()).expect("report JSON parses");
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(REPORT_SCHEMA_VERSION as f64));
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        let moesi = run.get("transitions").unwrap().get("moesi-l2").unwrap();
        assert_eq!(moesi.get("total").unwrap().as_f64(), Some(1.0));
        let cell = &moesi.get("cells").unwrap().as_array().unwrap()[0];
        let cell: Vec<f64> = cell.as_array().unwrap().iter().map(|x| x.as_f64().unwrap()).collect();
        assert_eq!(cell, [0.0, 1.0, 0.0, 1.0]);
        let sharing = run.get("sharing").unwrap();
        assert_eq!(sharing.get("tracked_lines").unwrap().as_f64(), Some(1.0));
        assert_eq!(sharing.get("classes").unwrap().get("ping_pong").unwrap().as_f64(), Some(1.0));
        let flight = run.get("flight_recorder").unwrap().as_array().unwrap();
        assert_eq!(flight[0].get("agent").unwrap().as_str(), Some("DIR"));
        assert_eq!(flight[0].get("kind").unwrap().as_str(), Some("RdBlk"));
        assert_eq!(flight[0].get("line").unwrap().as_f64(), Some(64.0));
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let mut a = RunReport::new("x");
        a.fingerprint_config(&1234_u32);
        let mut b = RunReport::new("x");
        b.fingerprint_config(&1234_u32);
        assert_eq!(a.config_fingerprint, b.config_fingerprint);
        let mut c = RunReport::new("x");
        c.fingerprint_config(&1235_u32);
        assert_ne!(a.config_fingerprint, c.config_fingerprint);
    }
}

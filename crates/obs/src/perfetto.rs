//! Chrome-trace-format export for `ui.perfetto.dev`.
//!
//! [`PerfettoTrace`] accumulates events and serializes them as a Chrome
//! "JSON Array Format" trace object: one *track* (pid 0, one tid) per
//! agent, `"X"` complete events for transaction spans, and `"i"` instant
//! events for probes, faults, and retries. The `ts`/`dur` fields carry raw
//! simulator ticks in the microsecond slot — one displayed microsecond is
//! one tick (≈26 ps of modeled time); only relative durations matter when
//! inspecting a trace.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use hsc_noc::FlightRecord;
use hsc_sim::Tick;

use crate::json::JsonWriter;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Complete { dur: u64 },
    Instant,
    Counter { value: u64 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ts: u64,
    tid: u64,
    phase: Phase,
}

/// An in-memory Chrome-trace event stream.
///
/// # Examples
///
/// ```
/// use hsc_obs::PerfettoTrace;
/// use hsc_sim::Tick;
///
/// let mut t = PerfettoTrace::new();
/// t.complete("L2[0]", "RdBlk 0x40", "txn", Tick(100), 250);
/// t.instant("DIR", "PrbInv 0x40", "probe", Tick(150));
/// let json = t.to_json_string();
/// assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"i\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfettoTrace {
    events: Vec<TraceEvent>,
    tracks: BTreeMap<String, u64>,
}

impl PerfettoTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        PerfettoTrace::default()
    }

    fn tid(&mut self, track: &str) -> u64 {
        if let Some(&tid) = self.tracks.get(track) {
            return tid;
        }
        let tid = self.tracks.len() as u64;
        self.tracks.insert(track.to_owned(), tid);
        tid
    }

    /// Adds a complete (`"X"`) event of `dur` ticks on `track`.
    pub fn complete(&mut self, track: &str, name: &str, cat: &'static str, ts: Tick, dur: u64) {
        let tid = self.tid(track);
        self.events.push(TraceEvent {
            name: name.to_owned(),
            cat,
            ts: ts.0,
            tid,
            phase: Phase::Complete { dur },
        });
    }

    /// Adds an instant (`"i"`) event on `track`.
    pub fn instant(&mut self, track: &str, name: &str, cat: &'static str, ts: Tick) {
        let tid = self.tid(track);
        self.events.push(TraceEvent {
            name: name.to_owned(),
            cat,
            ts: ts.0,
            tid,
            phase: Phase::Instant,
        });
    }

    /// Adds a counter (`"C"`) sample: `track` becomes a dedicated counter
    /// track (sharer counts, per-channel NoC depth, …) whose value
    /// Perfetto renders as a stepped area chart.
    pub fn counter(&mut self, track: &str, ts: Tick, value: u64) {
        let tid = self.tid(track);
        self.events.push(TraceEvent {
            name: track.to_owned(),
            cat: "counter",
            ts: ts.0,
            tid,
            phase: Phase::Counter { value },
        });
    }

    /// Appends a flight-recorder tail as instant events on a dedicated
    /// `"flight"` track: the post-mortem view of the last deliveries,
    /// attached when a run dies so the trace ends with what happened
    /// just before.
    pub fn append_flight_tail(&mut self, tail: &[FlightRecord]) {
        for r in tail {
            let name = format!("{} ← {} line {:#x}", r.dst, r.class_name(), r.line.0);
            self.instant("flight", &name, "flight", r.at);
        }
    }

    /// Number of recorded events (metadata excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as a Chrome-trace JSON object with a
    /// `traceEvents` array, starting with one `thread_name` metadata
    /// record per track.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        for (name, tid) in &self.tracks {
            w.begin_object();
            w.key("name");
            w.string("thread_name");
            w.key("ph");
            w.string("M");
            w.key("pid");
            w.uint(0);
            w.key("tid");
            w.uint(*tid);
            w.key("args");
            w.begin_object();
            w.key("name");
            w.string(name);
            w.end_object();
            w.end_object();
        }
        for ev in &self.events {
            w.begin_object();
            w.key("name");
            w.string(&ev.name);
            w.key("cat");
            w.string(ev.cat);
            w.key("ph");
            match ev.phase {
                Phase::Complete { dur } => {
                    w.string("X");
                    w.key("dur");
                    w.uint(dur);
                }
                Phase::Instant => {
                    w.string("i");
                    w.key("s");
                    w.string("t");
                }
                Phase::Counter { value } => {
                    w.string("C");
                    w.key("args");
                    w.begin_object();
                    w.key("value");
                    w.uint(value);
                    w.end_object();
                }
            }
            w.key("ts");
            w.uint(ev.ts);
            w.key("pid");
            w.uint(0);
            w.key("tid");
            w.uint(ev.tid);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes the trace JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use hsc_mem::LineAddr;
    use hsc_noc::{AgentId, FlightRecorder, Message, MsgKind};

    #[test]
    fn trace_json_is_well_formed_with_track_metadata() {
        let mut t = PerfettoTrace::new();
        t.complete("L2[0]", "RdBlk 0x40", "txn", Tick(100), 250);
        t.complete("L2[0]", "RdBlkM 0x80", "txn", Tick(400), 90);
        t.instant("DIR", "fault: drop RdBlk", "fault", Tick(500));
        let v = parse(&t.to_json_string()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 tracks of metadata + 3 events.
        assert_eq!(events.len(), 5);
        let metas: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(metas, ["DIR", "L2[0]"]);
        let x = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(100.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(250.0));
    }

    #[test]
    fn same_track_reuses_tid() {
        let mut t = PerfettoTrace::new();
        t.instant("A", "one", "c", Tick(1));
        t.instant("B", "two", "c", Tick(2));
        t.instant("A", "three", "c", Tick(3));
        let v = parse(&t.to_json_string()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let tids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(tids[0], tids[2]);
        assert_ne!(tids[0], tids[1]);
    }

    #[test]
    fn counter_samples_serialize_with_value_args() {
        let mut t = PerfettoTrace::new();
        t.counter("noc.inflight.DIR", Tick(100), 3);
        t.counter("noc.inflight.DIR", Tick(200), 1);
        let v = parse(&t.to_json_string()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .map(|e| e.get("args").unwrap().get("value").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(counters, [3.0, 1.0]);
    }

    #[test]
    fn flight_tail_lands_on_one_flight_track() {
        let mut t = PerfettoTrace::new();
        let mut fr = FlightRecorder::new(4);
        let l2 = AgentId::CorePairL2(0);
        fr.push(Tick(5), &Message::new(l2, AgentId::Directory, LineAddr(0x40), MsgKind::RdBlk));
        fr.push(Tick(9), &Message::new(AgentId::Directory, l2, LineAddr(0x40), MsgKind::VicAck));
        t.append_flight_tail(&fr.tail());
        assert_eq!(t.len(), 2);
        let json = t.to_json_string();
        assert!(json.contains("DIR \\u2190 RdBlk line 0x40") || json.contains("DIR ← RdBlk"));
        assert!(json.contains("L2[0] \\u2190 VicAck line 0x40") || json.contains("L2[0] ← VicAck"));
    }
}

//! Shared pieces of the `hsc` benchmark harness: the nearest-rank
//! percentile helper every host-time metric goes through, the host-speed
//! reference the end-to-end times are scaled by, the in-memory span
//! recorder behind `trace.json`, and the metric map both bins print.
//!
//! Nothing here touches the simulator; `hsc-e2e` and `hsc-layers` call
//! into its public functions from outside and time those calls.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

use hsc_obs::json::{JsonWriter, Value};

/// Nearest-rank percentiles over wall-clock samples.
pub mod stats {
    /// The `pct`-th percentile (1–100) of `samples` by the nearest-rank
    /// rule: the value at 1-based rank `ceil(pct/100 × n)` of the sorted
    /// samples, so the result is always one of the samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `pct` is outside 1–100.
    #[must_use]
    pub fn percentile(samples: &[f64], pct: usize) -> f64 {
        assert!(!samples.is_empty(), "percentile of no samples");
        assert!((1..=100).contains(&pct), "percentile {pct} outside 1-100");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Integer ceil: 0.1 × 40 in floating point is not exactly 4.
        let rank = (pct * sorted.len()).div_ceil(100);
        sorted[rank - 1]
    }

    /// 10th percentile: the raw host time the per-layer figures are set
    /// against. The simulator is deterministic and single-threaded, so
    /// within one state of the host its noise only adds.
    #[must_use]
    pub fn p10(samples: &[f64]) -> f64 {
        percentile(samples, 10)
    }

    /// Median: the statistic of the end-to-end host times, taken over
    /// reps already scaled by [`crate::calib`].
    #[must_use]
    pub fn p50(samples: &[f64]) -> f64 {
        percentile(samples, 50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(samples: &[f64]) -> f64 {
        percentile(samples, 90)
    }
}

/// The host-speed reference: a fixed piece of simulator-shaped work, timed
/// right before every rep, by which the rep's host times are scaled.
///
/// This host is a few cores of a shared machine. Its speed moves by 10 %
/// from one half-minute to the next and by a third for minutes at a time
/// when a neighbour is busy, with no steal time to show for it (README
/// "Noise"); no statistic over raw wall-clock reps taken inside such a
/// phase sees past it. The reference slows down with the simulator, so
/// the ratio of the two holds still, and multiplying it by
/// [`REFERENCE_NS`] reads as milliseconds on the quiet host again.
///
/// The reference must never change: every end-to-end host time is in its
/// units. It uses nothing of the simulator, only `std`.
pub mod calib {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use std::hint::black_box;
    use std::time::Instant;

    /// Events one [`spin`] handles, over both of its loops.
    pub const EVENTS: u64 = 200_000;

    /// What one [`spin`] takes on the host the benchmark was defined on
    /// (Xeon @ 2.1 GHz, 2 vCPUs) when nothing disturbs it, in ns: the
    /// median of 20 000 runs of its first loop over 50 quiet minutes
    /// (5.57 ms) times the median ratio of the whole spin to that loop
    /// over 4 900 spins (2.43).
    pub const REFERENCE_NS: f64 = 13_500_000.0;

    /// A discrete-event loop in miniature, run twice: over 20 000 lines
    /// (½ MB of state, inside the L2) and over 150 000 (4 MB, outside
    /// it), because the simulator's workloads reach both and a busy
    /// neighbour costs the larger footprint more. Returns the ns it took.
    #[must_use]
    pub fn spin() -> u64 {
        let started = Instant::now();
        black_box(event_loop(20_000) ^ event_loop(150_000));
        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// 100 000 times: pop the earliest of 64 pending events off a binary
    /// heap, look a pseudo-random one of `lines` lines up in a hash map and
    /// update it, schedule the successor. Branchy and pointer-chasing, as
    /// `System::run` is.
    fn event_loop(lines: u64) -> u64 {
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..64).map(|i| Reverse((i, i))).collect();
        let mut state: HashMap<u64, u64> = HashMap::new();
        let (mut rng, mut acc) = (1u64, 0u64);
        for _ in 0..EVENTS / 2 {
            let Reverse((tick, id)) = heap.pop().expect("the heap holds 64 events");
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let line = state.entry((rng >> 40) % lines).or_insert(0);
            *line = line.wrapping_add(id);
            acc ^= *line;
            heap.push(Reverse((tick + 1 + (rng >> 60), id)));
        }
        acc
    }

    /// `ns` measured next to a [`spin`] of `spin_ns`, at the reference
    /// host's speed.
    #[must_use]
    pub fn scaled(ns: u64, spin_ns: u64) -> f64 {
        ns as f64 * REFERENCE_NS / spin_ns.max(1) as f64
    }
}

/// One harness span: a call the benchmark made into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within one `trace.json`.
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// What was called (`generate`, `build`, `run`, `verify`, a testbench
    /// name, …).
    pub name: String,
    /// Workload the call served; empty for workload-independent spans.
    pub workload: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child, and a span's self time is its
/// duration minus its direct children's. Nothing is written until
/// [`Spans::write_json`], so recording costs two clock reads per span —
/// the same two the harness takes to time the call anyway.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, workload: &str) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent,
            name: name.to_owned(),
            workload: workload.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a harness bug).
    pub fn end(&mut self) -> u64 {
        let i = self.open.pop().expect("Spans::end without a matching begin");
        let end_ns = self.now_ns();
        self.spans[i].end_ns = end_ns;
        end_ns - self.spans[i].start_ns
    }

    /// Times `f` inside a span and returns its result with the span's
    /// duration in ns.
    pub fn time<T>(&mut self, name: &str, workload: &str, f: impl FnOnce() -> T) -> (T, u64) {
        self.begin(name, workload);
        let out = f();
        (out, self.end())
    }

    /// Adopts spans recorded by a child process (`hsc-layers`) under the
    /// innermost open span: ids are re-based, roots re-parented, and
    /// times shifted so the child's clock origin lands at `offset_ns`.
    pub fn adopt(&mut self, child: &[Span], offset_ns: u64) {
        let base = self.spans.len() as u64;
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        for s in child {
            self.spans.push(Span {
                id: s.id + base,
                parent: if s.parent == 0 { parent } else { s.parent + base },
                name: s.name.clone(),
                workload: s.workload.clone(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
            });
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans as a JSON array under the writer's current key.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("id");
            w.uint(s.id);
            w.key("parent");
            w.uint(s.parent);
            w.key("name");
            w.string(&s.name);
            w.key("workload");
            w.string(&s.workload);
            w.key("start_ns");
            w.uint(s.start_ns);
            w.key("end_ns");
            w.uint(s.end_ns);
            w.end_object();
        }
        w.end_array();
    }

    /// Reads back what [`Spans::write_json`] wrote.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed span.
    pub fn parse_json(v: &Value) -> Result<Vec<Span>, String> {
        let arr = v.as_array().ok_or("spans: not an array")?;
        arr.iter()
            .enumerate()
            .map(|(i, s)| {
                let num = |k: &str| {
                    s.get(k)
                        .and_then(Value::as_f64)
                        .map(|f| f as u64)
                        .ok_or_else(|| format!("spans[{i}]: missing number {k:?}"))
                };
                let text = |k: &str| {
                    s.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("spans[{i}]: missing string {k:?}"))
                };
                Ok(Span {
                    id: num("id")?,
                    parent: num("parent")?,
                    name: text("name")?,
                    workload: text("workload")?,
                    start_ns: num("start_ns")?,
                    end_ns: num("end_ns")?,
                })
            })
            .collect()
    }
}

/// Metric name → value and unit, kept in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricMap(BTreeMap<String, (f64, String)>);

impl MetricMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        MetricMap::default()
    }

    /// Records `name = value unit`, replacing any earlier value.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(name, (value, unit))| (name.as_str(), *value, unit.as_str()))
    }

    /// Copies every metric of `other` into this map.
    pub fn extend(&mut self, other: &MetricMap) {
        self.0.extend(other.0.iter().map(|(k, v)| (k.clone(), v.clone())));
    }

    /// Appends the contract's `{"name": {"value": v, "unit": "u"}, …}`
    /// object under the writer's current key.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, value, unit) in self.iter() {
            w.key(name);
            w.begin_object();
            w.key("value");
            w.float(value);
            w.key("unit");
            w.string(unit);
            w.end_object();
        }
        w.end_object();
    }

    /// Reads back what [`MetricMap::write_json`] wrote.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed metric.
    pub fn parse_json(v: &Value) -> Result<MetricMap, String> {
        let mut out = MetricMap::new();
        for (name, entry) in v.as_object().ok_or("metrics: not an object")? {
            let value = entry.get("value").and_then(Value::as_f64);
            let unit = entry.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => out.put(name, value, unit),
                _ => return Err(format!("metric {name:?} lacks a numeric value or a unit")),
            }
        }
        Ok(out)
    }
}

//! `hsc-e2e`: the end-to-end half of the `hsc` benchmark.
//!
//! Runs the selected workloads in *interleaved rounds* — every round runs
//! each workload once, in fixed order — and reports, per workload, the
//! median host time of `System::run` and of set-up across rounds, each rep
//! scaled by the host-speed reference timed right before it
//! (`hsc_benchmark::calib`), next to the exact simulated quantities of
//! the paper's Figs. 5–7. Every rep is verified and must reproduce the
//! warm-up rep's simulated numbers bit for bit.
//!
//! With `--trace 1` each workload then runs once more with the
//! simulator's observability on, the per-layer testbenches of
//! `hsc-layers` run as a child process, and the two are combined into the
//! per-layer metrics; every call the harness made into a layer is written
//! to `trace.json` as a span.
//!
//! Two ways to say how long to measure: `--rounds N` (the suite: the same
//! work on both sides of a comparison) or `--seconds S` (the driver's
//! contract: one workload, fixed time). README.md has the definitions.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hsc_bench::par::Parallelism;
use hsc_bench::sweep;
use hsc_benchmark::stats::{p10, p50, p90};
use hsc_benchmark::{calib, MetricMap, Spans};
use hsc_core::{CoherenceConfig, Metrics, ObsConfig, ObsData, SystemBuilder, SystemConfig};
use hsc_obs::json::{self, JsonWriter, Value};
use hsc_sim::StatSet;
use hsc_workloads::trace::{TraceWorkload, TrafficSpec};
use hsc_workloads::{
    collaborative_workloads, Cedd, Hsti, Sc, Trns, Workload, DEFAULT_EVENT_BUDGET,
};

const WORKLOADS: [&str; 7] = [
    "cedd.base",
    "hsti.base",
    "trns.track",
    "sc.base",
    "gen.private",
    "gen.hotspot",
    "fig67.sweep",
];

/// The simulated quantities every workload had when the benchmark was
/// defined, at seed 11. Its event counts for `cedd.base`, `sc.base` and
/// `hsti.base` are those of the committed `BENCH_eae9805.json`.
const BASELINE: &str = include_str!("../../baseline.json");

/// `--seed` when none is given; the seed `baseline.json` was taken at.
const DEFAULT_SEED: u64 = 11;
const DEFAULT_ROUNDS: usize = 40;
const QUICK_ROUNDS: usize = 3;
/// Fewest timed reps a fork of a `--seconds` run takes, however slow the host.
const MIN_REPS: usize = 2;
/// Fresh processes the timed reps are spread over (see `main`); 1 with
/// `--quick`.
const SUITE_FORKS: usize = 4;
const CONTRACT_FORKS: usize = 6;

/// The traced run's observability: everything but the Perfetto stream.
const TRACED: ObsConfig = ObsConfig {
    track_transactions: true,
    sample_epoch_ticks: Some(100_000),
    perfetto: false,
    profile_agents: true,
    protocol_analytics: true,
};

fn sweep_configs() -> [(&'static str, CoherenceConfig); 3] {
    [
        ("baseline", CoherenceConfig::baseline()),
        ("ownerTracking", CoherenceConfig::owner_tracking()),
        ("sharerTracking", CoherenceConfig::sharer_tracking()),
    ]
}

/// One simulated system to build and run: a workload under one coherence
/// configuration on `SystemConfig::scaled`.
struct Cell {
    /// Produces the workload; for `gen.*` this is `TrafficSpec::generate`.
    make: Box<dyn Fn() -> Box<dyn Workload>>,
    coherence: CoherenceConfig,
}

impl Cell {
    fn chai<W: Workload + Default + 'static>(coherence: CoherenceConfig) -> Cell {
        Cell { make: Box::new(|| Box::new(W::default()) as Box<dyn Workload>), coherence }
    }

    fn generated(spec: String, coherence: CoherenceConfig) -> Cell {
        let spec = TrafficSpec::parse(&spec).expect("the benchmark's own trace-gen specs parse");
        Cell { make: Box::new(move || Box::new(TraceWorkload::new(spec.generate()))), coherence }
    }
}

/// The cells of benchmark workload `name`. `fig67.sweep` has fifteen;
/// every other workload has one.
fn cells_of(name: &str, seed: u64) -> Vec<Cell> {
    let base = CoherenceConfig::baseline();
    let track = CoherenceConfig::sharer_tracking();
    match name {
        "cedd.base" => vec![Cell::chai::<Cedd>(base)],
        "hsti.base" => vec![Cell::chai::<Hsti>(base)],
        "trns.track" => vec![Cell::chai::<Trns>(track)],
        "sc.base" => vec![Cell::chai::<Sc>(base)],
        // Fixed seed, 1 % shared accesses: see README "Deviations".
        "gen.private" => vec![Cell::generated("private,ops=20000,shared=1".into(), track)],
        "gen.hotspot" => {
            vec![Cell::generated(format!("hotspot,dma=2,ops=20000,seed={seed}"), base)]
        }
        "fig67.sweep" => collaborative_workloads()
            .into_iter()
            .flat_map(|w| {
                let name = w.name();
                sweep_configs().map(move |(_, coherence)| Cell {
                    make: Box::new(move || {
                        hsc_workloads::workload_by_name(name).expect("collaborative workload")
                    }),
                    coherence,
                })
            })
            .collect(),
        other => unreachable!("workload {other} was validated against WORKLOADS"),
    }
}

/// The simulated quantities a rep must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Sim {
    events: u64,
    ticks: u64,
    gpu_cycles: u64,
    probes: u64,
    mem_reads: u64,
    mem_writes: u64,
}

impl Sim {
    fn of(m: &Metrics) -> Sim {
        Sim {
            events: m.events,
            ticks: m.ticks,
            gpu_cycles: m.gpu_cycles,
            probes: m.probes_sent,
            mem_reads: m.mem_reads,
            mem_writes: m.mem_writes,
        }
    }

    fn fields(self) -> [u64; 6] {
        [self.events, self.ticks, self.gpu_cycles, self.probes, self.mem_reads, self.mem_writes]
    }

    fn from_fields(f: &[u64]) -> Result<Sim, String> {
        let &[events, ticks, gpu_cycles, probes, mem_reads, mem_writes] = f else {
            return Err(format!("a fork reported {} simulated quantities, not 6", f.len()));
        };
        Ok(Sim { events, ticks, gpu_cycles, probes, mem_reads, mem_writes })
    }

    /// What `baseline.json` records for a workload, by its key there.
    fn recorded(self) -> [(&'static str, u64); 4] {
        [
            ("events", self.events),
            ("sim_gpu_cycles", self.gpu_cycles),
            ("sim_probes", self.probes),
            ("sim_mem_accesses", self.mem_reads + self.mem_writes),
        ]
    }

    fn add(&mut self, o: Sim) {
        self.events += o.events;
        self.ticks += o.ticks;
        self.gpu_cycles += o.gpu_cycles;
        self.probes += o.probes;
        self.mem_reads += o.mem_reads;
        self.mem_writes += o.mem_writes;
    }
}

/// Host times of one rep, in ns, and what it simulated.
#[derive(Debug, Clone, Copy, Default)]
struct Rep {
    /// The `calib::spin` right before the rep; 0 in the traced pass.
    calib_ns: u64,
    gen_ns: u64,
    build_ns: u64,
    run_ns: u64,
    verify_ns: u64,
    sim: Sim,
}

impl Rep {
    fn setup_ns(&self) -> u64 {
        self.gen_ns + self.build_ns
    }
}

/// What the traced run adds: merged counters and the observer's data.
#[derive(Default)]
struct Traced {
    stats: StatSet,
    /// Events handled per agent kind: corepair, gpu, dma, directory, memctl.
    agent_events: [u64; 5],
    /// Σ of the `queue.events` gauge and its sample count.
    depth_sum: u64,
    depth_samples: u64,
    /// Σ mean × count and Σ count of directory transaction latency.
    txn_ticks: f64,
    txn_count: u64,
    /// Σ over cells of the `run` and `verify` spans.
    run_ns: u64,
    verify_ns: u64,
}

impl Traced {
    fn absorb(&mut self, metrics: &Metrics, obs: &ObsData) {
        for a in &obs.agents {
            let kind = match a.agent.as_str() {
                n if n.starts_with("L2[") => 0,
                n if n.starts_with("TCC[") => 1,
                "DMA" => 2,
                "DIR" => 3,
                "MEM" => 4,
                other => panic!("agent profile names unknown agent {other:?}"),
            };
            self.agent_events[kind] += a.events_handled;
        }
        if let Some(depth) = obs.time_series.iter().find(|s| s.name == "queue.events") {
            self.depth_sum += depth.points.iter().map(|&(_, v)| v).sum::<u64>();
            self.depth_samples += depth.points.len() as u64;
        }
        let count = metrics.stats.get("dir.txn_latency_count");
        self.txn_ticks += metrics.stats.get("dir.txn_latency_mean_ticks") as f64 * count as f64;
        self.txn_count += count;
        self.stats.merge(&metrics.stats);
    }
}

/// Builds, runs and verifies one cell inside harness spans.
fn run_cell(
    spans: &mut Spans,
    workload: &str,
    cell: &Cell,
    obs: ObsConfig,
    traced: Option<&mut Traced>,
) -> Result<Rep, String> {
    let (w, gen_ns) = spans.time("generate", workload, || (cell.make)());
    let (mut sys, build_ns) = spans.time("build", workload, || {
        let mut b = SystemBuilder::new(SystemConfig::scaled(cell.coherence));
        b.with_observability(obs);
        w.build(&mut b);
        b.build()
    });
    let (outcome, run_ns) = spans.time("run", workload, || sys.run(DEFAULT_EVENT_BUDGET));
    let metrics = outcome.map_err(|e| format!("{} under {workload}: {e}", w.name()))?;
    let (verdict, verify_ns) = spans.time("verify", workload, || w.verify(&sys));
    verdict.map_err(|e| format!("{} under {workload}: verification failed: {e}", w.name()))?;
    if let Some(t) = traced {
        t.absorb(&metrics, &sys.take_obs_data());
        t.run_ns += run_ns;
        t.verify_ns += verify_ns;
    }
    Ok(Rep { calib_ns: 0, gen_ns, build_ns, run_ns, verify_ns, sim: Sim::of(&metrics) })
}

/// One timed rep of a benchmark workload, after a spin of the host-speed
/// reference. For `fig67.sweep` set-up is building and dropping all
/// fifteen systems, and the run is the `sweep` call (which builds, runs
/// and verifies each cell itself).
fn timed_rep(spans: &mut Spans, name: &str, cells: &[Cell]) -> Result<Rep, String> {
    spans.begin("rep", name);
    let (calib_ns, _) = spans.time("calibrate", name, calib::spin);
    let rep = if name == "fig67.sweep" {
        let ((), build_ns) = spans.time("build", name, || {
            for cell in cells {
                let w = (cell.make)();
                let mut b = SystemBuilder::new(SystemConfig::scaled(cell.coherence));
                w.build(&mut b);
                drop(b.build());
            }
        });
        let workloads = collaborative_workloads();
        let (swept, run_ns) = spans.time("sweep", name, || {
            catch_unwind(AssertUnwindSafe(|| {
                sweep(&workloads, &sweep_configs(), Parallelism::of(1))
            }))
        });
        swept.map_err(|_| format!("{name}: a sweep cell failed (see the panic above)")).map(|c| {
            let mut sim = Sim::default();
            c.iter().for_each(|cell| sim.add(Sim::of(&cell.metrics)));
            Rep { calib_ns: 0, gen_ns: 0, build_ns, run_ns, verify_ns: 0, sim }
        })
    } else {
        run_cell(spans, name, &cells[0], ObsConfig::off(), None)
    };
    spans.end();
    rep.map(|rep| Rep { calib_ns, ..rep })
}

/// Everything measured for one benchmark workload.
struct Bench {
    name: &'static str,
    cells: Vec<Cell>,
    warm: Sim,
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    traced: Option<Traced>,
}

fn ms(samples: impl Iterator<Item = u64>) -> Vec<f64> {
    samples.map(|ns| ns as f64 / 1e6).collect()
}

impl Bench {
    fn run_wall_ms(&self) -> Vec<f64> {
        ms(self.reps.iter().map(|r| r.run_ns))
    }

    /// Median reference spin over the reference host's: how much slower
    /// than that host this one ran while the reps were taken.
    fn host_slowdown(&self) -> f64 {
        p50(&ms(self.reps.iter().map(|r| r.calib_ns))) * 1e6 / calib::REFERENCE_NS
    }

    fn end_to_end(&self) -> MetricMap {
        let mut m = MetricMap::new();
        let scaled = |ns: fn(&Rep) -> u64| -> Vec<f64> {
            self.reps.iter().map(|r| calib::scaled(ns(r), r.calib_ns)).collect()
        };
        m.put("run_norm_ms", p50(&scaled(|r| r.run_ns)) / 1e6, "ms");
        m.put("setup_s", p50(&scaled(Rep::setup_ns)) / 1e9, "s");
        m.put("sim_gpu_cycles", self.warm.gpu_cycles as f64, "cycles");
        m.put("sim_probes", self.warm.probes as f64, "count");
        let mem = self.warm.mem_reads + self.warm.mem_writes;
        m.put("sim_mem_accesses", mem as f64, "count");
        m
    }
}

/// How many of the quantities `baseline.json` records for `b` this run
/// simulated differently, each named on stderr; `None` for `gen.hotspot`
/// at a seed other than the baseline's, which has nothing to match.
///
/// A warning, not a failure: a protocol change moves these on purpose and
/// records new ones; a simulator-speed change must leave the count at 0.
fn baseline_mismatches(baseline: &Value, b: &Bench, seed: u64) -> Option<u64> {
    let at = baseline.get("seed").and_then(Value::as_f64).expect("baseline.json has a seed");
    if b.name == "gen.hotspot" && seed as f64 != at {
        return None;
    }
    let recorded = baseline
        .get("workloads")
        .and_then(|w| w.get(b.name))
        .unwrap_or_else(|| panic!("baseline.json records workload {}", b.name));
    let mut mismatches = 0;
    for (key, got) in b.warm.recorded() {
        let want = recorded.get(key).and_then(Value::as_f64);
        if want != Some(got as f64) {
            mismatches += 1;
            eprintln!(
                "hsc-e2e: warning: {} simulated {key} = {got}, baseline.json has {}",
                b.name,
                want.map_or("nothing".to_owned(), |w| w.to_string())
            );
        }
    }
    Some(mismatches)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Σ of every counter whose key ends with `suffix` (the per-CorePair
/// counters carry a `cpN.` prefix).
fn sum_suffix(stats: &StatSet, suffix: &str) -> u64 {
    stats.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| v).sum()
}

/// What `hsc-layers` printed: its metrics and the wheel hold figures per
/// requested depth.
struct Layers {
    metrics: MetricMap,
    wheel: Vec<(u64, f64, f64)>,
}

impl Layers {
    fn ns(&self, name: &str) -> f64 {
        self.metrics.get(name).unwrap_or(0.0)
    }
}

/// The per-layer metrics of one workload: counts from the traced run,
/// host times from the timed reps, testbench figures from `layers`, and
/// the products of the two.
fn per_layer(b: &Bench, layers: Option<&Layers>, peak_rss_kb: u64) -> MetricMap {
    let t = b.traced.as_ref().expect("per-layer metrics need the traced run");
    let s = &t.stats;
    let wall = b.run_wall_ms();
    let build_ms = p10(&ms(b.reps.iter().map(|r| r.build_ns)));
    // A rep's run time is `System::run` alone, except for the sweep, whose
    // timed call also builds and verifies each cell. What the simulator's
    // layers can account for is that call less the untraced build p10 and
    // the traced pass's verify (which observability does not touch).
    let sweep = b.name == "fig67.sweep";
    let verify_ms =
        if sweep { t.verify_ns as f64 / 1e6 } else { p10(&ms(b.reps.iter().map(|r| r.verify_ns))) };
    let sim_wall = p10(&wall) - if sweep { build_ms + verify_ms } else { 0.0 };
    let events = b.warm.events;
    let mut m = MetricMap::new();

    m.put("core.system.events", events as f64, "count");
    m.put("core.system.ns_per_event", sim_wall * 1e6 / events as f64, "ns");
    m.put("core.system.ticks_per_event", ratio(b.warm.ticks, events), "ticks");
    let [corepair, gpu, dma, directory, memctl] = t.agent_events;
    m.put("cluster.corepair.events", corepair as f64, "count");
    m.put("cluster.gpu.events", gpu as f64, "count");
    m.put("cluster.dma.events", dma as f64, "count");
    m.put("core.directory.events", directory as f64, "count");
    m.put("core.memctl.events", memctl as f64, "count");
    let messages = s.sum_prefix("net.msg.");
    m.put("noc.network.messages", messages as f64, "count");

    let (l2_hits, l2_misses) = (sum_suffix(s, ".l2.hits"), sum_suffix(s, ".l2.misses"));
    m.put("cluster.corepair.l2_hit_ratio", ratio(l2_hits, l2_hits + l2_misses), "ratio");
    let (tcc_hits, tcc_misses) = (s.get("tcc.hits"), s.get("tcc.misses"));
    m.put("cluster.gpu.tcc_hit_ratio", ratio(tcc_hits, tcc_hits + tcc_misses), "ratio");
    let (llc_hits, llc_misses) = (s.get("llc.hits"), s.get("llc.misses"));
    m.put("core.llc.hit_ratio", ratio(llc_hits, llc_hits + llc_misses), "ratio");
    let requests = s.sum_prefix("dir.requests.");
    m.put("core.directory.probes_per_request", ratio(s.get("dir.probes_sent"), requests), "ratio");
    m.put("core.directory.queued_requests", s.get("dir.queued_requests") as f64, "count");
    let txn_mean = if t.txn_count == 0 { 0.0 } else { t.txn_ticks / t.txn_count as f64 };
    m.put("core.directory.txn_latency_mean_ticks", txn_mean, "ticks");
    m.put("core.memctl.busy_ticks", s.get("mem.busy_ticks") as f64, "ticks");
    let retries = sum_suffix(s, ".l2.retries") + s.get("tcc.retries") + s.get("dma.retries");
    m.put("cluster.retries", retries as f64, "count");
    let depth = ratio(t.depth_sum, t.depth_samples);
    m.put("sim.wheel.mean_depth", depth, "count");

    m.put("workloads.gen_ms", p10(&ms(b.reps.iter().map(|r| r.gen_ns))), "ms");
    m.put("workloads.build_ms", build_ms, "ms");
    m.put("workloads.verify_ms", verify_ms, "ms");
    m.put("obs.traced_overhead_pct", (t.run_ns as f64 / 1e6 / sim_wall - 1.0) * 100.0, "%");
    m.put("noise.run_wall_ms_p10", p10(&wall), "ms");
    m.put("noise.run_wall_ms_p50", p50(&wall), "ms");
    m.put("noise.run_wall_ms_p90", p90(&wall), "ms");
    m.put("noise.reps", wall.len() as f64, "count");
    m.put("noise.host_slowdown_p50", b.host_slowdown(), "ratio");
    m.put("host.peak_rss_kb", peak_rss_kb as f64, "kB");

    let Some(l) = layers else {
        return m;
    };
    m.extend(&l.metrics);
    let want = wheel_depth(depth);
    let &(_, near, far) =
        l.wheel.iter().find(|w| w.0 == want).expect("hsc-layers ran every requested depth");
    m.put("sim.wheel.hold_ns_near", near, "ns");
    m.put("sim.wheel.hold_ns_far", far, "ns");

    // est_busy = count × testbench ns. By Little's law the mean delay of
    // an event in the wheel is depth × ticks per event; past the largest
    // near delta (a DRAM access) the far figure applies.
    let hold = if depth * ratio(b.warm.ticks, events) > 2310.0 { far } else { near };
    let wheel_ms = events as f64 * hold / 1e6;
    let noc_ms =
        messages as f64 * (l.ns("noc.network.send_ns") + l.ns("noc.outbox.stage_drain_ns")) / 1e6;
    // Messages each agent kind received, from the counters of what it
    // asked for (every request is answered once) and what it was probed.
    let l2_probes = sum_suffix(s, ".l2.probes_received");
    let l2_fills = s
        .iter()
        .filter(|(k, _)| {
            k.contains(".l2.req.") || k.ends_with(".l2.vic_clean") || k.ends_with(".l2.vic_dirty")
        })
        .map(|(_, v)| v)
        .sum::<u64>();
    let l2_wakes = corepair.saturating_sub(l2_probes + l2_fills);
    let corepair_ms = (l2_probes as f64 * l.ns("cluster.corepair.probe_ns")
        + l2_fills as f64 * l.ns("cluster.corepair.miss_msg_ns")
        + l2_wakes as f64 * l.ns("cluster.corepair.wake_hit_ns"))
        / 1e6;
    let tcc_msgs = s.sum_prefix("tcc.req.") + s.get("tcc.probes_received");
    let gpu_ms = (tcc_msgs as f64 * l.ns("cluster.gpu.msg_ns")
        + gpu.saturating_sub(tcc_msgs) as f64 * l.ns("cluster.gpu.wake_ns"))
        / 1e6;
    // Under the sweep a third of the cells are stateless; weigh by cell.
    let tracking = b.cells.iter().filter(|c| c.coherence.directory.tracks()).count() as f64
        / b.cells.len() as f64;
    let dir_ns = tracking * l.ns("core.directory.msg_ns_tracking")
        + (1.0 - tracking) * l.ns("core.directory.msg_ns_stateless");
    let dir_msgs =
        requests + s.get("net.msg.PrbAck") + s.get("net.msg.Unblock") + s.get("net.msg.MemRdResp");
    let directory_ms = dir_msgs as f64 * dir_ns / 1e6;
    let memctl_ms = memctl as f64 * l.ns("core.memctl.msg_ns") / 1e6;
    m.put("sim.wheel.est_busy_ms", wheel_ms, "ms");
    m.put("noc.network.est_busy_ms", noc_ms, "ms");
    m.put("cluster.corepair.est_busy_ms", corepair_ms, "ms");
    m.put("cluster.gpu.est_busy_ms", gpu_ms, "ms");
    m.put("core.directory.est_busy_ms", directory_ms, "ms");
    m.put("core.memctl.est_busy_ms", memctl_ms, "ms");
    let attributed = wheel_ms + noc_ms + corepair_ms + gpu_ms + directory_ms + memctl_ms;
    m.put("core.system.unattributed_share", 1.0 - attributed / sim_wall, "ratio");
    m
}

/// The queue depth the wheel testbench runs at for a traced mean depth.
fn wheel_depth(mean_depth: f64) -> u64 {
    (mean_depth.round() as u64).clamp(1, 1 << 20)
}

/// `VmHWM` of this process, in kB; 0 where `/proc` is not available.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `hsc-layers` as a child, waits for it, and parses what it printed.
/// The child's spans are adopted under this call's own span.
fn run_layers(
    bin: &PathBuf,
    quick: bool,
    depths: &[u64],
    spans: &mut Spans,
) -> Result<Layers, String> {
    let list: Vec<String> = depths.iter().map(u64::to_string).collect();
    let mut cmd = Command::new(bin);
    cmd.arg("--depth").arg(list.join(",")).stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    spans.begin("hsc-layers", "");
    let started_ns = spans.spans().last().map_or(0, |s| s.start_ns);
    let parsed =
        cmd.output().map_err(|e| format!("cannot run {}: {e}", bin.display())).and_then(|output| {
            if !output.status.success() {
                return Err(format!("{} exited with {}", bin.display(), output.status));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let v = json::parse(text.lines().last().unwrap_or(""))?;
            let metrics = MetricMap::parse_json(v.get("metrics").ok_or("no metrics")?)?;
            let wheel = v
                .get("wheel")
                .and_then(Value::as_array)
                .ok_or("no wheel figures")?
                .iter()
                .map(|w| {
                    let f = |k| w.get(k).and_then(Value::as_f64);
                    Some((f("depth")? as u64, f("near")?, f("far")?))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed wheel figures")?;
            spans.adopt(&Spans::parse_json(v.get("spans").ok_or("no spans")?)?, started_ns);
            Ok(Layers { metrics, wheel })
        });
    spans.end();
    parsed
}

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    rounds: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    fork_child: bool,
    layers_bin: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: hsc-e2e [--workload NAME] [--seed N] [--rounds N | --seconds S] \
[--trace 0|1] [--quick] [--layers-bin PATH] [--out FILE] [--trace-out FILE]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        rounds: None,
        seconds: None,
        trace: None,
        quick: false,
        fork_child: false,
        layers_bin: None,
        out: None,
        trace_out: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut operand = || args.next().ok_or_else(|| format!("{arg} requires an operand"));
        let count = |raw: String| {
            raw.parse::<usize>().ok().filter(|&n| n >= 1).ok_or(format!("{arg}: bad count {raw:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = operand()?;
                let known = WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
                    format!("unknown workload {name:?} (expected one of {})", WORKLOADS.join(", "))
                })?;
                o.workloads = vec![known];
            }
            "--seed" => {
                let raw = operand()?;
                o.seed = raw.parse().map_err(|_| format!("--seed: {raw:?} is not a u64"))?;
            }
            "--rounds" => o.rounds = Some(count(operand()?)?),
            "--seconds" => {
                let raw = operand()?;
                let s = raw.parse::<f64>().ok().filter(|s| (0.0..=600.0).contains(s));
                o.seconds = Some(s.ok_or(format!("--seconds: {raw:?} is not in 0-600"))?);
            }
            "--trace" => {
                o.trace = Some(match operand()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--quick" => o.quick = true,
            // Internal: this process is one fork of a parent hsc-e2e.
            "--fork-child" => o.fork_child = true,
            "--layers-bin" => o.layers_bin = Some(PathBuf::from(operand()?)),
            "--out" => o.out = Some(PathBuf::from(operand()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(operand()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.rounds.is_some() && o.seconds.is_some() {
        return Err("--rounds and --seconds are mutually exclusive".into());
    }
    Ok(o)
}

fn write_file(path: &PathBuf, text: String) -> Result<(), String> {
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One fork: a fresh process that warms up, runs its share of the timed
/// rounds, and prints its raw samples and spans as one JSON line for the
/// parent to pool. See `main` for why the timed reps are forked. A
/// `--seconds` share covers the warm-up too, so a run lasts what it was
/// asked to.
fn fork_child(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let mut spans = Spans::new();
    let mut benches: Vec<Bench> = Vec::new();
    spans.begin("warm-up", "");
    for &name in &opts.workloads {
        let cells = cells_of(name, opts.seed);
        let warm = match timed_rep(&mut spans, name, &cells) {
            Ok(rep) => rep.sim,
            Err(e) => {
                eprintln!("hsc-e2e: warm-up rep of workload {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (reps, traced) = (Vec::new(), None);
        benches.push(Bench { name, cells, warm, reps, attempted: 1, failed: 0, traced });
    }
    spans.end();

    let budget = opts.seconds.map(Duration::from_secs_f64);
    let mut round = 0usize;
    loop {
        let done = match (budget, opts.rounds) {
            (Some(b), _) => round >= MIN_REPS && started.elapsed() >= b,
            (None, rounds) => round >= rounds.unwrap_or(1),
        };
        if done {
            break;
        }
        round += 1;
        spans.begin("round", "");
        for b in &mut benches {
            b.attempted += 1;
            match timed_rep(&mut spans, b.name, &b.cells) {
                Ok(rep) if rep.sim == b.warm => b.reps.push(rep),
                Ok(rep) => {
                    b.failed += 1;
                    eprintln!(
                        "hsc-e2e: {} broke determinism: {:?}, warm-up had {:?}",
                        b.name, rep.sim, b.warm
                    );
                }
                Err(e) => {
                    b.failed += 1;
                    eprintln!("hsc-e2e: {e}");
                }
            }
        }
        spans.end();
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workloads");
    w.begin_object();
    for b in &benches {
        w.key(b.name);
        w.begin_object();
        w.key("attempted");
        w.uint(b.attempted);
        w.key("failed");
        w.uint(b.failed);
        w.key("sim");
        w.begin_array();
        b.warm.fields().into_iter().for_each(|v| w.uint(v));
        w.end_array();
        w.key("reps");
        w.begin_array();
        for r in &b.reps {
            w.begin_array();
            [r.calib_ns, r.gen_ns, r.build_ns, r.run_ns, r.verify_ns]
                .into_iter()
                .for_each(|v| w.uint(v));
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.key("peak_rss_kb");
    w.uint(peak_rss_kb());
    w.key("spans");
    spans.write_json(&mut w);
    w.end_object();
    println!("{}", w.finish());
    ExitCode::SUCCESS
}

/// Spawns one fork of this binary, waits for it, and pools what it
/// measured into `benches`. Returns the fork's peak resident set, in kB.
fn run_fork(
    opts: &Options,
    share: &[String; 2],
    benches: &mut [Bench],
    spans: &mut Spans,
) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--fork-child").arg("--seed").arg(opts.seed.to_string()).args(share);
    if let [one] = opts.workloads.as_slice() {
        cmd.arg("--workload").arg(one);
    }
    spans.begin("fork", "");
    let started_ns = spans.spans().last().map_or(0, |s| s.start_ns);
    let pooled = cmd
        .stdout(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start a fork: {e}"))
        .and_then(|output| {
            if !output.status.success() {
                return Err(format!("a fork exited with {}", output.status));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let v = json::parse(text.lines().last().unwrap_or(""))?;
            let nums = |v: &Value| -> Option<Vec<u64>> {
                v.as_array()?.iter().map(|n| n.as_f64().map(|f| f as u64)).collect()
            };
            for b in benches.iter_mut() {
                let w =
                    v.get("workloads").and_then(|w| w.get(b.name)).ok_or("fork lost a workload")?;
                let count = |k| w.get(k).and_then(Value::as_f64).map(|f| f as u64);
                let first_fork = b.attempted == 0;
                b.attempted += count("attempted").ok_or("fork lost attempted")?;
                b.failed += count("failed").ok_or("fork lost failed")?;
                let sim = Sim::from_fields(&w.get("sim").and_then(nums).ok_or("fork lost sim")?)?;
                if first_fork {
                    b.warm = sim;
                } else if sim != b.warm {
                    b.failed += 1;
                    eprintln!("hsc-e2e: {}: forks disagree: {sim:?} vs {:?}", b.name, b.warm);
                    continue;
                }
                for r in w.get("reps").and_then(Value::as_array).ok_or("fork lost reps")? {
                    let [calib_ns, gen_ns, build_ns, run_ns, verify_ns] =
                        nums(r).and_then(|r| <[u64; 5]>::try_from(r).ok()).ok_or("bad rep")?;
                    b.reps.push(Rep { calib_ns, gen_ns, build_ns, run_ns, verify_ns, sim });
                }
            }
            spans.adopt(&Spans::parse_json(v.get("spans").ok_or("fork lost spans")?)?, started_ns);
            v.get("peak_rss_kb")
                .and_then(Value::as_f64)
                .map(|kb| kb as u64)
                .ok_or("fork lost rss".into())
        });
    spans.end();
    pooled
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("hsc-e2e: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.fork_child {
        return fork_child(&opts);
    }
    // The driver's contract: `--seconds` runs print one JSON object as
    // their last line, with the end-to-end metrics (`--trace 0`) or the
    // per-layer ones (`--trace 1`). Suite runs report both.
    let contract = opts.seconds.is_some();
    let traced = opts.trace.unwrap_or(!contract);
    let mut spans = Spans::new();

    // The timed reps run in forks — fresh processes, one after another —
    // and their samples are pooled before any statistic is taken. About
    // one process in ten runs a workload 7-11 % slower from its first rep
    // to its last (README "Noise"): where its pages landed, not what the
    // host was doing, so no statistic within one process can see past it.
    // A traced `--seconds` run spends a third of its time on timed reps
    // (the traced overhead and unattributed share need an untraced p10);
    // the traced run and the testbenches take the rest.
    let forks = match (opts.quick, contract) {
        (true, _) => 1,
        (false, true) => CONTRACT_FORKS,
        (false, false) => SUITE_FORKS,
    };
    let rounds = opts.rounds.unwrap_or(if opts.quick { QUICK_ROUNDS } else { DEFAULT_ROUNDS });
    let shares: Vec<[String; 2]> = match opts.seconds {
        Some(s) => {
            let each = if traced { s / 3.0 } else { s } / forks as f64;
            vec![["--seconds".to_owned(), each.to_string()]; forks]
        }
        None => (0..forks)
            .map(|f| rounds / forks + usize::from(f < rounds % forks))
            .filter(|&share| share > 0)
            .map(|share| ["--rounds".to_owned(), share.to_string()])
            .collect(),
    };

    let mut benches: Vec<Bench> = opts
        .workloads
        .iter()
        .map(|&name| {
            let (cells, warm, reps) = (cells_of(name, opts.seed), Sim::default(), Vec::new());
            Bench { name, cells, warm, reps, attempted: 0, failed: 0, traced: None }
        })
        .collect();
    // Peak resident set of the processes that ran the timed reps.
    let mut rss = 0;
    for share in &shares {
        match run_fork(&opts, share, &mut benches, &mut spans) {
            Ok(kb) => rss = rss.max(kb),
            Err(e) => {
                eprintln!("hsc-e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let baseline = json::parse(BASELINE).expect("baseline.json parses");
    let mismatches: Vec<Option<u64>> =
        benches.iter().map(|b| baseline_mismatches(&baseline, b, opts.seed)).collect();
    if let Some(b) = benches.iter().find(|b| b.reps.is_empty()) {
        eprintln!("hsc-e2e: every timed rep of workload {} failed", b.name);
        return ExitCode::FAILURE;
    }

    let mut layers = None;
    if traced {
        spans.begin("traced", "");
        for b in &mut benches {
            let mut t = Traced::default();
            let mut sim = Sim::default();
            b.attempted += 1;
            spans.begin("rep", b.name);
            let outcome = b.cells.iter().try_for_each(|cell| {
                run_cell(&mut spans, b.name, cell, TRACED, Some(&mut t)).map(|rep| sim.add(rep.sim))
            });
            spans.end();
            match outcome {
                Ok(()) if sim == b.warm => {}
                Ok(()) => {
                    b.failed += 1;
                    eprintln!("hsc-e2e: {} traced run broke determinism: {sim:?}", b.name);
                }
                Err(e) => {
                    b.failed += 1;
                    eprintln!("hsc-e2e: traced run: {e}");
                }
            }
            assert_eq!(
                t.agent_events.iter().sum::<u64>(),
                sim.events,
                "{}: per-agent event counts must sum to the events processed",
                b.name
            );
            b.traced = Some(t);
        }
        spans.end();

        let mut depths: Vec<u64> = benches
            .iter()
            .filter_map(|b| b.traced.as_ref())
            .map(|t| wheel_depth(ratio(t.depth_sum, t.depth_samples)))
            .collect();
        depths.sort_unstable();
        depths.dedup();
        layers = match &opts.layers_bin {
            None => {
                eprintln!("hsc-e2e: no --layers-bin: testbench and derived metrics are missing");
                None
            }
            Some(bin) => match run_layers(bin, opts.quick, &depths, &mut spans) {
                Ok(l) => Some(l),
                Err(e) => {
                    eprintln!(
                        "hsc-e2e: hsc-layers: {e}: testbench and derived metrics are missing"
                    );
                    None
                }
            },
        };
    }

    let results: BTreeMap<&str, (MetricMap, MetricMap)> = benches
        .iter()
        .map(|b| {
            let layer = if traced { per_layer(b, layers.as_ref(), rss) } else { MetricMap::new() };
            (b.name, (b.end_to_end(), layer))
        })
        .collect();

    for (b, mismatched) in benches.iter().zip(&mismatches) {
        let (e2e, layer) = &results[b.name];
        let line: Vec<String> = e2e
            .iter()
            .chain(layer.iter())
            .map(|(name, value, unit)| format!("{name}={value} {unit}"))
            .collect();
        println!(
            "hsc-e2e {}: failed_runs={} of {} attempted; baseline_mismatches={}; \
             host_slowdown={:.3} (raw run p50 {:.3} ms); {}",
            b.name,
            b.failed,
            b.attempted,
            mismatched.map_or("unchecked (seed)".to_owned(), |n| n.to_string()),
            b.host_slowdown(),
            p50(&b.run_wall_ms()),
            line.join("; ")
        );
    }

    if let Some(path) = &opts.out {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("hsc-benchmark/v1");
        w.key("seed");
        w.uint(opts.seed);
        w.key("quick");
        w.boolean(opts.quick);
        w.key("workloads");
        w.begin_object();
        for (b, mismatched) in benches.iter().zip(&mismatches) {
            let (e2e, layer) = &results[b.name];
            w.key(b.name);
            w.begin_object();
            w.key("attempted");
            w.uint(b.attempted);
            w.key("failed");
            w.uint(b.failed);
            if let Some(n) = mismatched {
                w.key("baseline_mismatches");
                w.uint(*n);
            }
            w.key("end_to_end");
            e2e.write_json(&mut w);
            w.key("per_layer");
            layer.write_json(&mut w);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        if let Err(e) = write_file(path, w.finish()) {
            eprintln!("hsc-e2e: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.trace_out {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("spans");
        spans.write_json(&mut w);
        w.end_object();
        if let Err(e) = write_file(path, w.finish()) {
            eprintln!("hsc-e2e: {e}");
            return ExitCode::FAILURE;
        }
    }

    let failed: u64 = benches.iter().map(|b| b.failed).sum();
    if contract {
        let b = &benches[0];
        let (e2e, layer) = &results[b.name];
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.boolean(failed == 0);
        w.key("attempted");
        w.uint(b.attempted);
        w.key("failed");
        w.uint(b.failed);
        w.key("metrics");
        (if traced { layer } else { e2e }).write_json(&mut w);
        w.end_object();
        println!("{}", w.finish());
        // The driver reads failures from the object, not the exit code.
        return ExitCode::SUCCESS;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

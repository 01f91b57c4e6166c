use std::collections::VecDeque;

use hsc_mem::{Addr, CacheArray, CacheGeometry, InsertOutcome, LineAddr, LineData, LineMap, Mshr};
use hsc_noc::{
    AgentId, ClassCounts, Message, MsgKind, Outbox, ProbeKind, RetryPolicy, RetryTracker, WakeArm,
    WordMask,
};
use hsc_sim::{StatSet, Tick, TransitionMatrix};

use crate::{gpu_cycles, GpuOp, WavefrontProgram};

/// Base byte address of the shared GPU kernel code region (SQC fetches).
const GPU_CODE_BASE: u64 = 0x5000_0000_0000;

/// VIPER TCC transition-matrix vocabulary. `I` is absence from the cache
/// array, `V` a resident line (always whole and clean: the TCC writes
/// through).
const VIPER_STATES: &[&str] = &["I", "V"];
const VIPER_CAUSES: &[&str] = &["Fill", "ProbeInv", "AtomicSelfInval", "EvictClean"];
const VT_I: usize = 0;
const VT_V: usize = 1;
const VC_FILL: usize = 0;
const VC_PROBE_INV: usize = 1;
const VC_ATOMIC_SELF_INVAL: usize = 2;
const VC_EVICT_CLEAN: usize = 3;

/// Configuration of the GPU cluster (Table II / Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of compute units.
    pub cus: usize,
    /// SIMD lanes per vector op (16 in Table III).
    pub lanes: usize,
    /// TCP (per-CU L1) size in bytes.
    pub tcp_bytes: u64,
    /// TCP associativity.
    pub tcp_ways: usize,
    /// TCC (shared L2) size in bytes.
    pub tcc_bytes: u64,
    /// TCC associativity.
    pub tcc_ways: usize,
    /// SQC (shared I-cache) size in bytes.
    pub sqc_bytes: u64,
    /// SQC associativity.
    pub sqc_ways: usize,
    /// TCP access latency in GPU cycles.
    pub tcp_cycles: u64,
    /// TCC access latency in GPU cycles.
    pub tcc_cycles: u64,
    /// SQC access latency in GPU cycles.
    pub sqc_cycles: u64,
    /// One SQC fetch per this many wavefront ops.
    pub ifetch_interval: u64,
    /// Number of distinct kernel code lines.
    pub code_lines: u64,
    /// TCC MSHR capacity.
    pub mshr_capacity: usize,
}

impl Default for GpuConfig {
    /// Table II: 16 KB/16-way TCP (4 cy), 256 KB/16-way TCC (8 cy),
    /// 32 KB/8-way SQC (1 cy); Table III: 8 CUs, 16 lanes.
    fn default() -> Self {
        GpuConfig {
            cus: 8,
            lanes: 16,
            tcp_bytes: 16 * 1024,
            tcp_ways: 16,
            tcc_bytes: 256 * 1024,
            tcc_ways: 16,
            sqc_bytes: 32 * 1024,
            sqc_ways: 8,
            tcp_cycles: 4,
            tcc_cycles: 8,
            sqc_cycles: 1,
            ifetch_interval: 32,
            code_lines: 32,
            mshr_capacity: 512,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockKind {
    /// Waiting for TCC line fills of `pending_lines`.
    Fill,
    /// Waiting for an SLC atomic response.
    SlcAtomic,
    /// Waiting for outstanding write-throughs (and the flush fence).
    Release,
}

#[derive(Debug, Clone)]
struct WfCtx {
    /// The CU this wavefront runs on, whose TCP it reads through.
    cu: usize,
    program: Box<dyn WavefrontProgram>,
    ready_at: Tick,
    blocked: Option<BlockKind>,
    last_value: Option<u64>,
    pending: Option<GpuOp>,
    pending_ifetch: bool,
    pending_lines: LineMap<()>,
    outstanding_wt: u64,
    flush_pending: bool,
    last_wt_line: Option<LineAddr>,
    done: bool,
    ops_since_ifetch: u64,
    next_code_line: u64,
    ops_retired: u64,
}

impl WfCtx {
    fn is_runnable(&self) -> bool {
        !self.done && self.blocked.is_none()
    }
}

/// The wavefronts `step_all` visits: bit `i` is set iff `wfs[i]` is
/// runnable (neither done nor blocked). Only `GpuOp::Done`, a block and
/// an unblock move a bit, so a wavefront that cannot run costs nothing
/// per event.
#[derive(Debug, Clone)]
struct Runnable(Vec<u64>);

impl Runnable {
    /// All of `n` wavefronts runnable.
    fn full(n: usize) -> Self {
        let mut set = Runnable(vec![0; n.div_ceil(64)]);
        (0..n).for_each(|i| set.insert(i));
        set
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

#[derive(Debug, Clone)]
struct TccTxn {
    /// Wavefronts (indices into `GpuCluster::wfs`) waiting on this fill
    /// (an SQC miss waits as its wavefront, through
    /// `WfCtx::pending_ifetch`).
    waiters: Vec<usize>,
}

/// The GPU cluster: CUs with TCPs and a shared SQC in front of one TCC,
/// implementing the VIPER VI protocol of §II-C.
///
/// * TCPs and the TCC are write-through and no-allocate-on-write: a store
///   updates the copies already resident and goes to the directory as a
///   `WriteThrough`, so every cached line is whole and clean. TCPs are
///   bulk-invalidated by acquire fences (they are never probed by the
///   directory); a release fence waits for the wavefront's write-through
///   acks and a `Flush` fence.
/// * GLC (device-scope) atomics execute at the TCC; SLC (system-scope)
///   atomics bypass it (self-invalidating any cached copy) and execute at
///   the directory.
/// * On probes the TCC **never forwards data** but invalidates itself.
#[derive(Debug, Clone)]
pub struct GpuCluster {
    agent: AgentId,
    cfg: GpuConfig,
    /// Each CU's TCP, by CU index.
    tcps: Vec<CacheArray<LineData>>,
    /// Every wavefront, CU-major and wavefront-minor: the issue order.
    /// Everything else names a wavefront by its index here.
    wfs: Vec<WfCtx>,
    /// Derived from `wfs` (their `done` and `blocked`): excluded from
    /// `hash_state`.
    runnable: Runnable,
    tcc: CacheArray<LineData>,
    tcc_mshr: Mshr<TccTxn>,
    wt_waiters: LineMap<VecDeque<usize>>,
    slc_waiters: LineMap<VecDeque<usize>>,
    flush_waiters: LineMap<VecDeque<usize>>,
    /// Buffers one vector op sorts its lanes into by line, kept between
    /// ops so the per-op path does not allocate. Empty between ops.
    line_scratch: Vec<LineAddr>,
    store_scratch: Vec<(Addr, u64)>,
    sqc: CacheArray<()>,
    retry: RetryTracker,
    /// Every self-wake after `start` is staged through this, so the TCC
    /// never has two wake-ups pending at one tick. Timing, not protocol
    /// state: excluded from `hash_state`.
    wakes: WakeArm,
    /// Every TCC state transition, by cause; excluded from `hash_state`.
    /// `stats` sums its cells into the eviction and probe-invalidation
    /// counters.
    transitions: TransitionMatrix,
    n: GpuCounts,
}

/// Every count a GPU cluster keeps; [`GpuCluster::stats`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct GpuCounts {
    tcp_hits: u64,
    tcp_misses: u64,
    lane0_refetches: u64,
    sqc_hits: u64,
    sqc_misses: u64,
    tcc_hits: u64,
    tcc_misses: u64,
    glc_atomics: u64,
    probes_received: u64,
    retries: u64,
    vec_loads: u64,
    vec_stores: u64,
    atomics_glc: u64,
    atomics_slc: u64,
    acquires: u64,
    releases: u64,
    compute_ops: u64,
    done: u64,
    stale_resps: u64,
    /// Messages of a class the TCC never expects, dropped.
    unexpected: ClassCounts,
    /// Requests sent to the directory (`RdBlk`, `WT`, `Atomic`, `Flush`).
    req: ClassCounts,
}

impl GpuCluster {
    /// Creates GPU cluster `index` (its TCC is `AgentId::Tcc(index)`).
    /// `programs[cu]` lists the wavefronts resident on each CU.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cfg.cus`.
    #[must_use]
    pub fn new(
        index: usize,
        programs: Vec<Vec<Box<dyn WavefrontProgram>>>,
        cfg: GpuConfig,
    ) -> Self {
        assert_eq!(programs.len(), cfg.cus, "one wavefront list per CU");
        let tcps = (0..cfg.cus)
            .map(|_| CacheArray::new(CacheGeometry::new(cfg.tcp_bytes, cfg.tcp_ways)))
            .collect();
        let wfs: Vec<WfCtx> = programs
            .into_iter()
            .enumerate()
            .flat_map(|(cu, wfs)| wfs.into_iter().map(move |program| (cu, program)))
            .map(|(cu, program)| WfCtx {
                cu,
                program,
                ready_at: Tick::ZERO,
                blocked: None,
                last_value: None,
                pending: None,
                pending_ifetch: false,
                pending_lines: LineMap::new(),
                outstanding_wt: 0,
                flush_pending: false,
                last_wt_line: None,
                done: false,
                ops_since_ifetch: 0,
                next_code_line: 0,
                ops_retired: 0,
            })
            .collect();
        GpuCluster {
            agent: AgentId::Tcc(index),
            cfg,
            tcps,
            runnable: Runnable::full(wfs.len()),
            wfs,
            tcc: CacheArray::new(CacheGeometry::new(cfg.tcc_bytes, cfg.tcc_ways)),
            tcc_mshr: Mshr::new(cfg.mshr_capacity),
            wt_waiters: LineMap::new(),
            slc_waiters: LineMap::new(),
            flush_waiters: LineMap::new(),
            line_scratch: Vec::new(),
            store_scratch: Vec::new(),
            sqc: CacheArray::new(CacheGeometry::new(cfg.sqc_bytes, cfg.sqc_ways)),
            retry: RetryTracker::new(None),
            wakes: WakeArm::default(),
            transitions: TransitionMatrix::new("viper-tcc", VIPER_STATES, VIPER_CAUSES),
            n: GpuCounts::default(),
        }
    }

    /// Enables (or disables) request retry under fault injection. `None`
    /// (the default) skips all retry bookkeeping and wake-ups. When
    /// enabled, the TCC retries fills, write-throughs and flush fences;
    /// SLC atomics are never retried because they are not idempotent at
    /// the directory (a retry whose original survived would apply the
    /// atomic twice) — a lost atomic is left to the watchdog to diagnose.
    #[must_use]
    pub fn with_retry(mut self, policy: Option<RetryPolicy>) -> Self {
        self.retry = RetryTracker::new(policy);
        self
    }

    /// The TCC's transition matrix.
    #[must_use]
    pub fn transitions(&self) -> &TransitionMatrix {
        &self.transitions
    }

    /// Occupied TCC MSHR entries (an occupancy gauge for the epoch
    /// sampler).
    #[must_use]
    pub fn mshr_occupancy(&self) -> u64 {
        self.tcc_mshr.len() as u64
    }

    /// Waiter queues open at the TCC: one per line in each of the
    /// write-through, SLC-atomic and flush maps, however many wavefronts
    /// it holds (an occupancy gauge for the epoch sampler).
    #[must_use]
    pub fn waiter_occupancy(&self) -> u64 {
        (self.wt_waiters.len() + self.slc_waiters.len() + self.flush_waiters.len()) as u64
    }

    /// The NoC endpoint of this cluster's TCC.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// Schedules the initial wake-up; call once before the run starts.
    pub fn start(&mut self, out: &mut Outbox) {
        out.wake_after(0);
        debug_assert!(self.runnable_is_exact(), "runnable set out of step at start");
    }

    /// Whether every wavefront retired and nothing is outstanding.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.wfs.iter().all(|w| w.done)
            && self.tcc_mshr.is_empty()
            && self.wt_waiters.is_empty()
            && self.slc_waiters.is_empty()
            && self.flush_waiters.is_empty()
    }

    /// Cluster statistics (`tcp.hits`, `tcc.misses`, `wf.vec_loads`, …).
    /// The fixed keys export even at 0, so reports and time series list
    /// quiet counters; the diagnostic and per-class keys only once they
    /// fire.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let t = &self.transitions;
        let mut s = StatSet::new();
        for (key, v) in [
            ("tcp.hits", n.tcp_hits),
            ("tcp.misses", n.tcp_misses),
            ("tcp.lane0_refetches", n.lane0_refetches),
            ("sqc.hits", n.sqc_hits),
            ("sqc.misses", n.sqc_misses),
            ("tcc.hits", n.tcc_hits),
            ("tcc.misses", n.tcc_misses),
            ("tcc.evict_clean", t.get(VT_V, VT_I, VC_EVICT_CLEAN)),
            ("tcc.glc_atomics", n.glc_atomics),
            ("tcc.probes_received", n.probes_received),
            ("tcc.probe_invalidations", t.get(VT_V, VT_I, VC_PROBE_INV)),
            ("tcc.retries", n.retries),
            ("wf.vec_loads", n.vec_loads),
            ("wf.vec_stores", n.vec_stores),
            ("wf.atomics_glc", n.atomics_glc),
            ("wf.atomics_slc", n.atomics_slc),
            ("wf.acquires", n.acquires),
            ("wf.releases", n.releases),
            ("wf.compute_ops", n.compute_ops),
            ("wf.done", n.done),
        ] {
            s.set(key, v);
        }
        s.set_nonzero("tcc.stale_resps", n.stale_resps);
        s.set_nonzero("tcc.unexpected_msgs", n.unexpected.total());
        n.unexpected.export("tcc.unexpected", &[], &mut s);
        n.req.export("tcc.req", &[], &mut s);
        s
    }

    /// Human-readable descriptions of everything still outstanding at
    /// this TCC (fills, write-throughs, SLC atomics, flush fences), for
    /// the watchdog's deadlock snapshot.
    pub fn pending_lines(&self) -> Vec<(LineAddr, String)> {
        let mut v: Vec<(LineAddr, String)> = self
            .tcc_mshr
            .iter()
            .map(|(la, txn)| (la, format!("fill, {} waiter(s)", txn.waiters.len())))
            .collect();
        v.extend(
            self.wt_waiters.iter().map(|(la, q)| (la, format!("{} write-through ack(s)", q.len()))),
        );
        v.extend(
            self.slc_waiters
                .iter()
                .map(|(la, q)| (la, format!("{} SLC atomic response(s)", q.len()))),
        );
        v.extend(
            self.flush_waiters.iter().map(|(la, q)| (la, format!("{} flush ack(s)", q.len()))),
        );
        v
    }

    /// Folds all protocol-relevant state into `h` for the system state
    /// fingerprint. Excludes timing (`ready_at`), retry deadlines and
    /// statistics — same scoping rules as `CorePair::hash_state`; cache
    /// arrays (TCPs, TCC, SQC — whose misses trigger fills) are hashed
    /// with placement and replacement bits.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        for w in &self.wfs {
            w.done.hash(h);
            w.blocked.hash(h);
            w.last_value.hash(h);
            w.pending.hash(h);
            w.pending_ifetch.hash(h);
            w.pending_lines.hash(h);
            w.outstanding_wt.hash(h);
            w.flush_pending.hash(h);
            w.last_wt_line.hash(h);
            w.ops_since_ifetch.hash(h);
            w.next_code_line.hash(h);
            w.ops_retired.hash(h);
        }
        for tcp in &self.tcps {
            tcp.hash_state(h);
        }
        self.tcc.hash_state(h);
        self.sqc.hash_state(h);
        for (la, txn) in self.tcc_mshr.iter() {
            (la, &txn.waiters).hash(h);
        }
        self.wt_waiters.hash(h);
        self.slc_waiters.hash(h);
        self.flush_waiters.hash(h);
    }

    /// Handles a message delivered to the TCC.
    pub fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        debug_assert_eq!(msg.dst, self.agent);
        match msg.kind {
            MsgKind::Resp { data, .. } => self.on_fill(now, msg.line, data, out),
            MsgKind::WtAck => self.on_wt_ack(now, msg.line, out),
            MsgKind::AtomicResp { old } => self.on_atomic_resp(now, msg.line, old, out),
            MsgKind::FlushAck => self.on_flush_ack(now, msg.line, out),
            MsgKind::Probe { kind } => self.on_probe(msg.line, kind, out),
            ref other => {
                // Duplicated or mis-routed message under fault injection:
                // count and drop instead of aborting the run.
                self.n.unexpected.bump(other);
            }
        }
        debug_assert!(self.runnable_is_exact(), "runnable set out of step after a message");
    }

    /// Advances every wavefront as far as the current tick allows and
    /// re-sends any timed-out requests (when a retry policy is configured).
    pub fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
        self.wakes.delivered(now);
        let resent = self.retry.service(now, &mut self.wakes, out);
        self.n.retries += resent;
        self.step_all(now, out);
        debug_assert!(self.runnable_is_exact(), "runnable set out of step after a wake");
    }

    /// Steps every runnable wavefront that is ready by `now`, in index
    /// order, then arms a wake for the earliest one ready later. Stepping
    /// a wavefront moves only its own `done`, `blocked` and `ready_at`
    /// (and its own bit), so one pass over a snapshot of each word sees
    /// what a scan of every wavefront would.
    fn step_all(&mut self, now: Tick, out: &mut Outbox) {
        let mut next: Option<Tick> = None;
        for word_idx in 0..self.runnable.0.len() {
            let mut word = self.runnable.0[word_idx];
            while word != 0 {
                let i = word_idx * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.wfs[i].ready_at <= now {
                    self.step_wf(i, now, out);
                }
                let w = &self.wfs[i];
                if w.is_runnable() && w.ready_at > now {
                    next = Some(next.map_or(w.ready_at, |t| t.min(w.ready_at)));
                }
            }
        }
        if let Some(t) = next {
            self.wakes.arm(t, out);
        }
    }

    /// Whether `runnable` holds exactly the runnable wavefronts, and no
    /// index past the last.
    fn runnable_is_exact(&self) -> bool {
        let words = self.runnable.0.len();
        words == self.wfs.len().div_ceil(64)
            && (0..words * 64).all(|i| {
                self.runnable.contains(i) == self.wfs.get(i).is_some_and(WfCtx::is_runnable)
            })
    }

    /// Parks wavefront `i` until `kind` resolves.
    fn block(&mut self, i: usize, kind: BlockKind) {
        self.wfs[i].blocked = Some(kind);
        self.runnable.remove(i);
    }

    /// Makes the blocked wavefront `i` runnable again from `ready_at`.
    fn unblock(&mut self, i: usize, ready_at: Tick) {
        let w = &mut self.wfs[i];
        w.blocked = None;
        w.ready_at = ready_at;
        self.runnable.insert(i);
    }

    #[allow(clippy::too_many_lines)]
    fn step_wf(&mut self, i: usize, now: Tick, out: &mut Outbox) {
        loop {
            let w = &mut self.wfs[i];
            if !w.is_runnable() || w.ready_at > now {
                return;
            }
            if w.ops_since_ifetch >= self.cfg.ifetch_interval && w.pending.is_none() {
                w.ops_since_ifetch = 0;
                let la = LineAddr(
                    Addr(GPU_CODE_BASE).line().0 + (w.next_code_line % self.cfg.code_lines),
                );
                w.next_code_line += 1;
                self.access_ifetch(i, la, now, out);
                continue;
            }
            let (op, first_attempt) = match w.pending.take() {
                Some(op) => (op, false),
                None => {
                    let lv = w.last_value.take();
                    (w.program.next_op(lv), true)
                }
            };
            if first_attempt {
                w.ops_retired += 1;
                w.ops_since_ifetch += 1;
            }
            match op {
                GpuOp::Compute(cy) => {
                    self.n.compute_ops += 1;
                    if cy > 0 {
                        w.ready_at = now + gpu_cycles(cy);
                        return;
                    }
                }
                GpuOp::Done => {
                    w.done = true;
                    self.runnable.remove(i);
                    self.n.done += 1;
                    return;
                }
                GpuOp::VecLoad(addrs) => {
                    if first_attempt {
                        self.n.vec_loads += 1;
                    }
                    if self.access_vec_load(i, addrs, now, out) {
                        return;
                    }
                }
                GpuOp::VecStore(stores) => {
                    self.n.vec_stores += 1;
                    self.access_vec_store(i, &stores, now, out);
                    return;
                }
                GpuOp::AtomicGlc(a, k) => {
                    if first_attempt {
                        self.n.atomics_glc += 1;
                    }
                    if self.access_glc_atomic(i, a, k, now, out) {
                        return;
                    }
                }
                GpuOp::AtomicSlc(a, k) => {
                    self.n.atomics_slc += 1;
                    self.access_slc_atomic(i, a, k, out);
                    return;
                }
                GpuOp::Acquire => {
                    self.n.acquires += 1;
                    // VIPER acquire: bulk-invalidate this CU's TCP.
                    w.ready_at = now + gpu_cycles(self.cfg.tcp_cycles);
                    self.tcps[w.cu].invalidate_all();
                    return;
                }
                GpuOp::Release => {
                    self.n.releases += 1;
                    if self.begin_release(i, now, out) {
                        return;
                    }
                }
            }
        }
    }

    /// Returns `true` if the wavefront is now waiting.
    fn access_vec_load(&mut self, i: usize, addrs: Vec<Addr>, now: Tick, out: &mut Outbox) -> bool {
        assert!(!addrs.is_empty(), "VecLoad needs at least one lane");
        assert!(addrs.len() <= self.cfg.lanes, "more lanes than the SIMD width");
        let cu = self.wfs[i].cu;
        // The distinct lines in address order; `retain` then narrows the
        // buffer down to the ones that missed both the TCP and the TCC.
        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.extend(addrs.iter().map(|a| a.line()));
        lines.sort_unstable();
        lines.dedup();
        let mut needs_tcc = false;
        lines.retain(|&la| {
            let tcp = &mut self.tcps[cu];
            if let Some(way) = tcp.lookup(la) {
                self.n.tcp_hits += 1;
                tcp.touch_way(way);
                return false;
            }
            self.n.tcp_misses += 1;
            needs_tcc = true;
            // Try the TCC.
            if let Some(way) = self.tcc.lookup(la) {
                self.n.tcc_hits += 1;
                self.tcc.touch_way(way);
                let _ = tcp.insert(la, *self.tcc.meta(way));
                false
            } else {
                self.n.tcc_misses += 1;
                true
            }
        });
        if lines.is_empty() {
            self.line_scratch = lines;
            let lat = if needs_tcc {
                gpu_cycles(self.cfg.tcp_cycles + self.cfg.tcc_cycles)
            } else {
                gpu_cycles(self.cfg.tcp_cycles)
            };
            // A scattered vector op can touch more lines than the TCP set
            // holds, so lane 0's line may already have been displaced by a
            // later lane's fill; fall back to the TCC, or refetch it.
            let lane0 = addrs[0];
            let l0 = lane0.line();
            let v = self.tcps[cu].get(l0).or_else(|| self.tcc.get(l0)).map(|l| l.word_at(lane0));
            let Some(v) = v else {
                self.n.lane0_refetches += 1;
                self.request_fill(l0, i, out);
                let w = &mut self.wfs[i];
                w.pending_lines.insert(l0, ());
                w.pending = Some(GpuOp::VecLoad(addrs));
                self.block(i, BlockKind::Fill);
                return true;
            };
            let w = &mut self.wfs[i];
            w.last_value = Some(v);
            w.ready_at = now + lat;
            true
        } else {
            for la in lines.drain(..) {
                self.request_fill(la, i, out);
                self.wfs[i].pending_lines.insert(la, ());
            }
            self.line_scratch = lines;
            self.wfs[i].pending = Some(GpuOp::VecLoad(addrs));
            self.block(i, BlockKind::Fill);
            true
        }
    }

    fn request_fill(&mut self, la: LineAddr, waiter: usize, out: &mut Outbox) {
        if let Some(txn) = self.tcc_mshr.get_mut(la) {
            txn.waiters.push(waiter);
            return;
        }
        self.tcc_mshr
            .alloc(la, TccTxn { waiters: vec![waiter] })
            .expect("TCC MSHR capacity exceeded");
        let msg = Message::new(self.agent, AgentId::Directory, la, MsgKind::RdBlk);
        self.n.req.bump(&msg.kind);
        out.send(msg);
        self.retry.track_sent(msg, &mut self.wakes, out);
    }

    fn access_vec_store(&mut self, i: usize, stores: &[(Addr, u64)], now: Tick, out: &mut Outbox) {
        assert!(!stores.is_empty(), "VecStore needs at least one lane");
        assert!(stores.len() <= self.cfg.lanes, "more lanes than the SIMD width");
        let cu = self.wfs[i].cu;
        // Group by line, lines in address order; the sort is stable, so
        // within a line the lanes keep their order (a later lane wins).
        let mut sorted = std::mem::take(&mut self.store_scratch);
        sorted.extend_from_slice(stores);
        sorted.sort_by_key(|&(a, _)| a.line());
        for writes in sorted.chunk_by(|a, b| a.0.line() == b.0.line()) {
            let la = writes[0].0.line();
            let mut data = LineData::zeroed();
            let mut mask = WordMask::empty();
            for &(a, v) in writes {
                data.set_word_at(a, v);
                mask.set(a.word_index());
            }
            // Keep our own TCP and the TCC fresh (no-allocate), then write
            // through.
            if let Some(l) = self.tcps[cu].get_mut(la) {
                mask.apply(l, &data);
            }
            let retains = self.tcc.get_mut(la).map(|l| mask.apply(l, &data)).is_some();
            self.send_wt(la, data, mask, i, retains, out);
        }
        sorted.clear();
        self.store_scratch = sorted;
        let w = &mut self.wfs[i];
        w.last_value = None;
        w.ready_at = now + gpu_cycles(self.cfg.tcp_cycles);
    }

    fn send_wt(
        &mut self,
        la: LineAddr,
        data: LineData,
        mask: WordMask,
        i: usize,
        retains: bool,
        out: &mut Outbox,
    ) {
        let w = &mut self.wfs[i];
        w.outstanding_wt += 1;
        w.last_wt_line = Some(la);
        self.wt_waiters.get_or_insert_with(la, VecDeque::new).push_back(i);
        let msg = Message::new(
            self.agent,
            AgentId::Directory,
            la,
            MsgKind::WriteThrough { data, mask, retains },
        );
        self.n.req.bump(&msg.kind);
        out.send(msg);
        self.retry.track_sent(msg, &mut self.wakes, out);
    }

    /// Returns `true` if the wavefront is now waiting.
    fn access_glc_atomic(
        &mut self,
        i: usize,
        a: Addr,
        k: hsc_mem::AtomicKind,
        now: Tick,
        out: &mut Outbox,
    ) -> bool {
        let la = a.line();
        if let Some(way) = self.tcc.lookup(la) {
            let l = self.tcc.meta_mut(way);
            let old = l.apply_atomic(a, k);
            let mut data = LineData::zeroed();
            data.set_word_at(a, l.word_at(a));
            self.tcc.touch_way(way);
            self.n.glc_atomics += 1;
            self.send_wt(la, data, WordMask::single(a.word_index()), i, true, out);
            // Invalidate stale TCP copies in this CU so later loads re-read.
            let w = &mut self.wfs[i];
            self.tcps[w.cu].invalidate(la);
            w.last_value = Some(old);
            w.ready_at = now + gpu_cycles(self.cfg.tcc_cycles);
            true
        } else {
            self.request_fill(la, i, out);
            let w = &mut self.wfs[i];
            w.pending_lines.insert(la, ());
            w.pending = Some(GpuOp::AtomicGlc(a, k));
            self.block(i, BlockKind::Fill);
            true
        }
    }

    fn access_slc_atomic(&mut self, i: usize, a: Addr, k: hsc_mem::AtomicKind, out: &mut Outbox) {
        let la = a.line();
        // SLC requests bypass the TCC (§II-C); drop any local copies so we
        // cannot read stale data afterwards.
        if self.tcc.invalidate(la).is_some() {
            self.transitions.record(VT_V, VT_I, VC_ATOMIC_SELF_INVAL);
        }
        self.tcps[self.wfs[i].cu].invalidate(la);
        self.slc_waiters.get_or_insert_with(la, VecDeque::new).push_back(i);
        self.wfs[i].pending = None;
        self.block(i, BlockKind::SlcAtomic);
        let msg = Message::new(
            self.agent,
            AgentId::Directory,
            la,
            MsgKind::AtomicReq { word: a.word_index() as u8, op: k },
        );
        self.n.req.bump(&msg.kind);
        out.send(msg);
    }

    /// Returns `true` if the wavefront is now waiting.
    fn begin_release(&mut self, i: usize, now: Tick, out: &mut Outbox) -> bool {
        let w = &mut self.wfs[i];
        let fence_line = w.last_wt_line;
        if w.outstanding_wt == 0 && fence_line.is_none() {
            // Nothing to wait for.
            w.ready_at = now + gpu_cycles(self.cfg.tcp_cycles);
            return true;
        }
        if let Some(la) = fence_line {
            // Per-line flush fence (§II-A "Flush request … for supporting
            // Store Release"); FIFO ordering guarantees the ack arrives
            // after all our write-through acks for that line.
            w.flush_pending = true;
            self.flush_waiters.get_or_insert_with(la, VecDeque::new).push_back(i);
            let msg = Message::new(self.agent, AgentId::Directory, la, MsgKind::Flush);
            self.n.req.bump(&msg.kind);
            out.send(msg);
            self.retry.track_sent(msg, &mut self.wakes, out);
        }
        self.block(i, BlockKind::Release);
        true
    }

    fn access_ifetch(&mut self, i: usize, la: LineAddr, now: Tick, out: &mut Outbox) {
        if let Some(way) = self.sqc.lookup(la) {
            self.n.sqc_hits += 1;
            self.sqc.touch_way(way);
            self.wfs[i].ready_at = now + gpu_cycles(self.cfg.sqc_cycles);
            return;
        }
        self.n.sqc_misses += 1;
        if let Some(way) = self.tcc.lookup(la) {
            self.n.tcc_hits += 1;
            self.tcc.touch_way(way);
            let _ = self.sqc.insert(la, ());
            self.wfs[i].ready_at = now + gpu_cycles(self.cfg.sqc_cycles + self.cfg.tcc_cycles);
            return;
        }
        self.n.tcc_misses += 1;
        let w = &mut self.wfs[i];
        w.pending_ifetch = true;
        w.pending_lines.insert(la, ());
        self.block(i, BlockKind::Fill);
        self.request_fill(la, i, out);
    }

    fn on_fill(&mut self, now: Tick, la: LineAddr, data: LineData, out: &mut Outbox) {
        self.retry.acked(la);
        let Some(txn) = self.tcc_mshr.remove(la) else {
            // Stale or duplicate fill (a retried RdBlk that raced its
            // original, or a duplicated Resp under fault injection). TCC
            // requests carry no Unblock, so there is nothing to answer;
            // drop it.
            self.n.stale_resps += 1;
            return;
        };
        // A line with a fill in flight is never resident (every request
        // is a miss), so this inserts, and an eviction sends nothing: the
        // TCC holds no dirty data.
        if fill(&mut self.tcc, la, data) {
            self.transitions.record(VT_V, VT_I, VC_EVICT_CLEAN);
        }
        self.transitions.record(VT_I, VT_V, VC_FILL);
        for i in txn.waiters {
            let w = &mut self.wfs[i];
            fill(&mut self.tcps[w.cu], la, data);
            w.pending_lines.remove(la);
            if w.pending_lines.is_empty() {
                let ready_at = if w.pending_ifetch {
                    w.pending_ifetch = false;
                    fill(&mut self.sqc, la, ());
                    now + gpu_cycles(self.cfg.sqc_cycles + self.cfg.tcc_cycles)
                } else {
                    now // re-attempt the pending op
                };
                self.unblock(i, ready_at);
            }
        }
        // TCC requests carry no Unblock: the directory unblocks implicitly
        // (§II-D, footnote 3).
        self.step_all(now, out);
    }

    fn on_wt_ack(&mut self, now: Tick, la: LineAddr, out: &mut Outbox) {
        self.retry.acked(la);
        let Some(q) = self.wt_waiters.get_mut(la) else {
            self.n.stale_resps += 1;
            return;
        };
        let i = q.pop_front().expect("WtAck queue empty");
        if q.is_empty() {
            self.wt_waiters.remove(la);
        }
        let w = &mut self.wfs[i];
        w.outstanding_wt -= 1;
        if w.blocked == Some(BlockKind::Release) && w.outstanding_wt == 0 && !w.flush_pending {
            self.unblock(i, now);
        }
        self.step_all(now, out);
    }

    fn on_atomic_resp(&mut self, now: Tick, la: LineAddr, old: u64, out: &mut Outbox) {
        let Some(q) = self.slc_waiters.get_mut(la) else {
            self.n.stale_resps += 1;
            return;
        };
        let i = q.pop_front().expect("SLC waiter queue empty");
        if q.is_empty() {
            self.slc_waiters.remove(la);
        }
        let w = &mut self.wfs[i];
        debug_assert_eq!(w.blocked, Some(BlockKind::SlcAtomic));
        w.last_value = Some(old);
        self.unblock(i, now);
        self.step_all(now, out);
    }

    fn on_flush_ack(&mut self, now: Tick, la: LineAddr, out: &mut Outbox) {
        self.retry.acked(la);
        let Some(q) = self.flush_waiters.get_mut(la) else {
            self.n.stale_resps += 1;
            return;
        };
        let i = q.pop_front().expect("flush waiter queue empty");
        if q.is_empty() {
            self.flush_waiters.remove(la);
        }
        let w = &mut self.wfs[i];
        w.flush_pending = false;
        w.last_wt_line = None;
        if w.blocked == Some(BlockKind::Release) && w.outstanding_wt == 0 {
            self.unblock(i, now);
        }
        self.step_all(now, out);
    }

    fn on_probe(&mut self, la: LineAddr, kind: ProbeKind, out: &mut Outbox) {
        self.n.probes_received += 1;
        // §II-C: the TCC never forwards modified data on probes but does
        // invalidate itself.
        let way = self.tcc.lookup(la);
        let had_copy = way.is_some();
        if let (ProbeKind::Invalidate, Some(way)) = (kind, way) {
            self.tcc.invalidate_way(way);
            self.transitions.record(VT_V, VT_I, VC_PROBE_INV);
        }
        out.send(Message::new(
            self.agent,
            AgentId::Directory,
            la,
            MsgKind::ProbeAck { dirty: None, had_copy, was_parked: false },
        ));
    }
}

/// Leaves `la` in `cache` holding `line`, most-recently used: updates
/// the copy if present, else inserts. Returns whether that evicted a line.
fn fill<S>(cache: &mut CacheArray<S>, la: LineAddr, line: S) -> bool {
    if let Some(way) = cache.lookup(la) {
        *cache.meta_mut(way) = line;
        cache.touch_way(way);
        false
    } else {
        matches!(cache.insert(la, line), InsertOutcome::Evicted(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuScript;
    use hsc_mem::{AtomicKind, MainMemory};
    use hsc_noc::{Action, Grant};
    use hsc_sim::WheelQueue;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn small_cfg() -> GpuConfig {
        GpuConfig {
            cus: 2,
            tcp_bytes: 1024,
            tcc_bytes: 4096,
            sqc_bytes: 1024,
            ifetch_interval: 1000,
            ..GpuConfig::default()
        }
    }

    /// Runs the cluster against a trivially coherent fake directory.
    fn run_gpu(gpu: &mut GpuCluster, mem: &mut MainMemory, limit: u64) {
        #[derive(Debug)]
        enum Ev {
            Wake,
            Msg(Message),
        }
        let mut q: WheelQueue<Ev> = WheelQueue::new();
        q.schedule(Tick(0), Ev::Wake);
        let hop = 10u64;
        let mut steps = 0u64;
        while let Some((now, ev)) = q.pop() {
            steps += 1;
            assert!(steps < limit, "fake-directory GPU run exceeded {limit} events");
            let mut out = Outbox::new(now);
            match ev {
                Ev::Wake => gpu.on_wake(now, &mut out),
                Ev::Msg(m) if m.dst == gpu.agent() => gpu.on_message(now, &m, &mut out),
                Ev::Msg(m) => {
                    let resp = match m.kind {
                        MsgKind::RdBlk => Some(MsgKind::Resp {
                            data: mem.read_line(m.line),
                            grant: Grant::Shared,
                        }),
                        MsgKind::WriteThrough { data, mask, .. } => {
                            let mut line = mem.read_line(m.line);
                            mask.apply(&mut line, &data);
                            mem.write_line(m.line, line);
                            Some(MsgKind::WtAck)
                        }
                        MsgKind::AtomicReq { word, op } => {
                            let mut line = mem.read_line(m.line);
                            let old = line.apply_atomic(m.line.word_addr(word as usize), op);
                            mem.write_line(m.line, line);
                            Some(MsgKind::AtomicResp { old })
                        }
                        MsgKind::Flush => Some(MsgKind::FlushAck),
                        ref k => panic!("fake directory got {}", k.class_name()),
                    };
                    if let Some(kind) = resp {
                        q.schedule(
                            now + hop,
                            Ev::Msg(Message::new(AgentId::Directory, m.src, m.line, kind)),
                        );
                    }
                }
            }
            for act in out.into_actions() {
                match act {
                    Action::Send(m) => q.schedule(now + hop, Ev::Msg(m)),
                    Action::SendLater(t, m) => q.schedule(t + 5, Ev::Msg(m)),
                    Action::Wake(t) => q.schedule(t, Ev::Wake),
                }
            }
        }
    }

    fn one_wf(ops: Vec<GpuOp>, cfg: GpuConfig) -> GpuCluster {
        one_wf_observed(ops, cfg).0
    }

    /// Also returns a handle to the script, for the values it was handed.
    fn one_wf_observed(ops: Vec<GpuOp>, cfg: GpuConfig) -> (GpuCluster, Rc<RefCell<GpuScript>>) {
        let script = Rc::new(RefCell::new(GpuScript::new(ops)));
        let mut programs: Vec<Vec<Box<dyn WavefrontProgram>>> =
            (0..cfg.cus).map(|_| Vec::new()).collect();
        programs[0].push(Box::new(Rc::clone(&script)));
        (GpuCluster::new(0, programs, cfg), script)
    }

    #[test]
    fn vec_store_writes_through_to_memory() {
        let stores: Vec<(Addr, u64)> = (0..16).map(|i| (Addr(0x1000 + i * 8), i)).collect();
        let mut gpu =
            one_wf(vec![GpuOp::VecStore(stores), GpuOp::Release, GpuOp::Done], small_cfg());
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        for i in 0..16u64 {
            assert_eq!(mem.read_word(Addr(0x1000 + i * 8)), i);
        }
        assert!(gpu.stats().get("tcc.req.WT") >= 2, "two lines written through");
        assert_eq!(gpu.stats().get("tcc.req.Flush"), 1, "release sends the fence");
    }

    #[test]
    fn vec_load_misses_then_hits_tcp() {
        let addrs: Vec<Addr> = (0..16).map(|i| Addr(0x2000 + i * 8)).collect();
        let mut gpu = one_wf(
            vec![GpuOp::VecLoad(addrs.clone()), GpuOp::VecLoad(addrs), GpuOp::Done],
            small_cfg(),
        );
        let mut mem = MainMemory::new();
        mem.write_word(Addr(0x2000), 99);
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        assert!(gpu.stats().get("tcc.misses") >= 1);
        assert!(gpu.stats().get("tcp.hits") >= 2, "second load hits the TCP");
        assert_eq!(gpu.stats().get("tcc.req.RdBlk"), 2, "one fill per line");
    }

    #[test]
    fn slc_atomic_executes_at_directory_and_returns_old() {
        let a = Addr(0x3000);
        let (mut gpu, seen) = one_wf_observed(
            vec![
                GpuOp::AtomicSlc(a, AtomicKind::FetchAdd(5)),
                GpuOp::AtomicSlc(a, AtomicKind::FetchAdd(5)),
                GpuOp::Done,
            ],
            small_cfg(),
        );
        let mut mem = MainMemory::new();
        mem.write_word(a, 100);
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        assert_eq!(mem.read_word(a), 110);
        assert_eq!(
            seen.borrow().handed(),
            [None, Some(100), Some(105)],
            "each atomic returns the old value"
        );
        assert_eq!(gpu.stats().get("tcc.req.Atomic"), 2);
    }

    #[test]
    fn glc_atomic_executes_at_tcc_and_writes_through() {
        let a = Addr(0x4000);
        let mut gpu = one_wf(
            vec![
                GpuOp::AtomicGlc(a, AtomicKind::FetchAdd(1)),
                GpuOp::AtomicGlc(a, AtomicKind::FetchAdd(1)),
                GpuOp::Release,
                GpuOp::Done,
            ],
            small_cfg(),
        );
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        assert_eq!(mem.read_word(a), 2, "GLC atomics reach memory through WTs");
        assert_eq!(gpu.stats().get("tcc.glc_atomics"), 2);
        assert_eq!(gpu.stats().get("tcc.req.RdBlk"), 1, "one fill, second hits TCC");
    }

    #[test]
    fn acquire_invalidates_the_tcp() {
        let addrs = vec![Addr(0x6000)];
        let mut gpu = one_wf(
            vec![GpuOp::VecLoad(addrs.clone()), GpuOp::Acquire, GpuOp::VecLoad(addrs), GpuOp::Done],
            small_cfg(),
        );
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        // Second load misses the TCP again (hits TCC).
        assert_eq!(gpu.stats().get("tcp.misses"), 2);
        assert!(gpu.stats().get("tcc.hits") >= 1);
    }

    #[test]
    fn probe_invalidates_tcc_without_forwarding_data() {
        let mut gpu = one_wf(vec![GpuOp::VecLoad(vec![Addr(0x7000)]), GpuOp::Done], small_cfg());
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.tcc.contains(Addr(0x7000).line()));
        let mut out = Outbox::new(Tick(1_000_000));
        gpu.on_probe(Addr(0x7000).line(), ProbeKind::Invalidate, &mut out);
        match out.actions()[0] {
            Action::Send(ref m) => {
                assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: None, had_copy: true, .. }));
            }
            ref other => panic!("expected send, got {other:?}"),
        }
        assert!(!gpu.tcc.contains(Addr(0x7000).line()), "TCC self-invalidated");
    }

    #[test]
    fn transition_matrix_tracks_viper_write_through_lifecycle() {
        let (a, b) = (Addr(0x5000), Addr(0x5040));
        let mut gpu = one_wf(
            vec![
                GpuOp::VecLoad(vec![a]),
                GpuOp::VecLoad(vec![b]),
                GpuOp::AtomicSlc(b, AtomicKind::FetchAdd(1)),
                GpuOp::Done,
            ],
            small_cfg(),
        );
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        gpu.on_probe(a.line(), ProbeKind::Invalidate, &mut Outbox::new(Tick(1_000_000)));
        let m = gpu.transitions();
        assert_eq!(m.get(VT_I, VT_V, VC_FILL), 2, "each load fills its line");
        assert_eq!(m.get(VT_V, VT_I, VC_ATOMIC_SELF_INVAL), 1, "the SLC atomic drops b");
        assert_eq!(m.get(VT_V, VT_I, VC_PROBE_INV), 1, "the probe drops a");
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn ifetch_goes_through_sqc() {
        let mut cfg = small_cfg();
        cfg.ifetch_interval = 2;
        cfg.code_lines = 2; // wrap quickly so fetches revisit lines
        let ops: Vec<GpuOp> = (0..16).map(|_| GpuOp::Compute(1)).chain([GpuOp::Done]).collect();
        let mut gpu = one_wf(ops, cfg);
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 100_000);
        assert!(gpu.is_done());
        assert!(gpu.stats().get("sqc.misses") >= 1);
        assert!(gpu.stats().get("sqc.hits") >= 1);
    }

    #[test]
    fn more_than_64_wavefronts_all_run_to_completion() {
        const PER_CU: u64 = 40;
        let cfg = small_cfg();
        // Wavefront `g` stores its own word (eight to a line, so fills and
        // write-through queues are shared), releases, and reads it back.
        let word = |g: u64| (Addr(0x10_000 + g * 8), 1000 + g);
        let scripts: Vec<Rc<RefCell<GpuScript>>> = (0..cfg.cus as u64 * PER_CU)
            .map(|g| {
                let (a, v) = word(g);
                let ops =
                    vec![GpuOp::VecStore(vec![(a, v)]), GpuOp::Release, GpuOp::VecLoad(vec![a])];
                Rc::new(RefCell::new(GpuScript::new(ops)))
            })
            .collect();
        let programs = scripts
            .chunks(PER_CU as usize)
            .map(|cu| {
                cu.iter().map(|s| Box::new(Rc::clone(s)) as Box<dyn WavefrontProgram>).collect()
            })
            .collect();
        let mut gpu = GpuCluster::new(0, programs, cfg);
        let mut mem = MainMemory::new();
        run_gpu(&mut gpu, &mut mem, 1_000_000);
        assert!(gpu.is_done());
        assert_eq!(gpu.stats().get("wf.done"), 2 * PER_CU);
        for (g, s) in scripts.iter().enumerate() {
            let (a, v) = word(g as u64);
            assert_eq!(mem.read_word(a), v, "wavefront {g}'s store");
            assert_eq!(s.borrow().handed(), [None, None, None, Some(v)], "wavefront {g}'s reload");
        }
    }
}

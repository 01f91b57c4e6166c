use hsc_mem::{Addr, CacheArray, CacheGeometry, LineAddr, LineData, Mshr, VictimBuffer};
use hsc_noc::{
    AgentId, ClassCounts, Message, MsgKind, Outbox, ProbeKind, RetryPolicy, RetryTracker, WakeArm,
};
use hsc_sim::{StatSet, Tick, TransitionMatrix};

use crate::{cpu_cycles, CoreProgram, CpuOp, MoesiState};

/// State vocabulary of the CorePair's transition matrix: I (absent from
/// the L2) plus the four [`MoesiState`] variants.
const MOESI_STATES: &[&str] = &["I", "S", "E", "O", "M"];
/// Cause vocabulary: what made an L2 line change state.
const MOESI_CAUSES: &[&str] = &["Fill", "SilentEM", "UpgradeAck", "ProbeInv", "ProbeDown", "Evict"];

const ST_I: usize = 0;
const ST_S: usize = 1;
const ST_E: usize = 2;
const ST_O: usize = 3;
const ST_M: usize = 4;
const CAUSE_FILL: usize = 0;
const CAUSE_SILENT_EM: usize = 1;
const CAUSE_UPGRADE_ACK: usize = 2;
const CAUSE_PROBE_INV: usize = 3;
const CAUSE_PROBE_DOWN: usize = 4;
const CAUSE_EVICT: usize = 5;

/// Dense matrix index of a present line's state.
fn st(s: MoesiState) -> usize {
    match s {
        MoesiState::Shared => ST_S,
        MoesiState::Exclusive => ST_E,
        MoesiState::Owned => ST_O,
        MoesiState::Modified => ST_M,
    }
}

/// Base byte address of the synthetic per-core instruction regions.
///
/// Placed far above any workload data so I-fetch RdBlkS traffic never
/// aliases with data lines.
const CODE_REGION_BASE: u64 = 0x4000_0000_0000;

/// Configuration of one CorePair (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// L1 data cache size in bytes (per core).
    pub l1d_bytes: u64,
    /// L1 data cache associativity.
    pub l1d_ways: usize,
    /// Shared L1 instruction cache size in bytes.
    pub l1i_bytes: u64,
    /// Shared L1 instruction cache associativity.
    pub l1i_ways: usize,
    /// Shared inclusive L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L1 access latency in CPU cycles.
    pub l1_cycles: u64,
    /// L2 access latency in CPU cycles.
    pub l2_cycles: u64,
    /// One synthetic instruction fetch is issued every this many retired
    /// ops (exercises the RdBlkS path of §II-A).
    pub ifetch_interval: u64,
    /// Number of distinct code lines each core cycles through.
    pub code_lines: u64,
    /// MSHR capacity of the L2.
    pub mshr_capacity: usize,
}

impl Default for CpuConfig {
    /// Table II: 64 KB/2-way L1D, 32 KB/2-way L1I, 2 MB/8-way L2, 1-cycle
    /// L1/L2 access latencies.
    fn default() -> Self {
        CpuConfig {
            l1d_bytes: 64 * 1024,
            l1d_ways: 2,
            l1i_bytes: 32 * 1024,
            l1i_ways: 2,
            l2_bytes: 2 * 1024 * 1024,
            l2_ways: 8,
            l1_cycles: 1,
            l2_cycles: 1,
            ifetch_interval: 32,
            code_lines: 64,
            mshr_capacity: 16,
        }
    }
}

#[derive(Debug, Clone, Hash)]
struct L2Line {
    state: MoesiState,
    data: LineData,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TxnKind {
    Read,
    ReadInstr,
    Write,
}

#[derive(Debug, Clone)]
struct L2Txn {
    kind: TxnKind,
    waiters: Waiters,
}

/// The cores blocked on one miss, in arrival order. Inline: a CorePair
/// has two cores and a blocked core issues nothing, so two slots suffice.
#[derive(Debug, Clone, Copy)]
struct Waiters {
    len: u8,
    cores: [usize; 2],
}

impl Waiters {
    fn one(core: usize) -> Self {
        Waiters { len: 1, cores: [core, 0] }
    }

    fn push(&mut self, core: usize) {
        self.cores[usize::from(self.len)] = core;
        self.len += 1;
    }

    fn as_slice(&self) -> &[usize] {
        &self.cores[..usize::from(self.len)]
    }
}

#[derive(Debug, Clone)]
struct CoreCtx {
    program: Box<dyn CoreProgram>,
    ready_at: Tick,
    blocked_line: Option<LineAddr>,
    last_value: Option<u64>,
    pending: Option<CpuOp>,
    pending_ifetch: bool,
    done: bool,
    ops_since_ifetch: u64,
    next_code_line: u64,
    code_base: LineAddr,
    ops_retired: u64,
}

/// A CorePair: two in-order cores, private L1Ds, a shared L1I and a
/// shared, inclusive MOESI L2 — the unit the system-level directory sees
/// as one `AgentId::CorePairL2`.
///
/// The L1s are tag-only latency filters (the L2 is inclusive and holds the
/// authoritative data); all coherence happens at the L2:
///
/// * load misses send `RdBlk`, store misses/upgrades send `RdBlkM`,
///   I-fetch misses send `RdBlkS`;
/// * Exclusive lines silently upgrade to Modified on stores;
/// * evictions notify the directory noisily (`VicClean` from E/S,
///   `VicDirty` from M/O) and park the line in a victim buffer that
///   incoming probes snoop until the directory acknowledges the victim —
///   this closes the writeback/probe race;
/// * downgrade probes move M→O (the dirty cache stays owner and forwards
///   data), invalidating probes forward dirty data and invalidate.
#[derive(Debug, Clone)]
pub struct CorePair {
    agent: AgentId,
    cfg: CpuConfig,
    cores: Vec<CoreCtx>,
    l1d: Vec<CacheArray<()>>,
    l1i: CacheArray<()>,
    l2: CacheArray<L2Line>,
    mshr: Mshr<L2Txn>,
    victims: VictimBuffer,
    retry: RetryTracker,
    /// Every self-wake after `start` is staged through this, so the pair
    /// never has two wake-ups pending at one tick. Timing, not protocol
    /// state: excluded from `hash_state`.
    wakes: WakeArm,
    n: CpCounts,
    /// Every MOESI state transition, by cause; excluded from `hash_state`.
    /// `stats` sums its cells into the victim, silent-upgrade and
    /// probe-invalidation counters.
    transitions: TransitionMatrix,
}

/// Every count a CorePair keeps; [`CorePair::stats`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct CpCounts {
    loads: u64,
    stores: u64,
    atomics: u64,
    compute_ops: u64,
    done: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    l1i_hits: u64,
    l1i_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    upgrades: u64,
    probes_received: u64,
    retries: u64,
    stale_resps: u64,
    /// Messages of a class the L2 never expects, dropped.
    unexpected: ClassCounts,
    /// Requests sent to the directory.
    req: ClassCounts,
}

impl CorePair {
    /// Creates CorePair number `index` running the given thread programs
    /// (at most two — Table III has two cores per pair; fewer threads
    /// leave cores idle).
    ///
    /// # Panics
    ///
    /// Panics if more than two programs are supplied.
    #[must_use]
    pub fn new(index: usize, programs: Vec<Box<dyn CoreProgram>>, cfg: CpuConfig) -> Self {
        assert!(programs.len() <= 2, "a CorePair has two cores");
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(c, program)| CoreCtx {
                program,
                ready_at: Tick::ZERO,
                blocked_line: None,
                last_value: None,
                pending: None,
                pending_ifetch: false,
                done: false,
                ops_since_ifetch: 0,
                next_code_line: 0,
                code_base: Addr(CODE_REGION_BASE + ((index * 2 + c) as u64) * cfg.code_lines * 64)
                    .line(),
                ops_retired: 0,
            })
            .collect();
        CorePair {
            agent: AgentId::CorePairL2(index),
            cfg,
            cores,
            l1d: (0..2)
                .map(|_| CacheArray::new(CacheGeometry::new(cfg.l1d_bytes, cfg.l1d_ways)))
                .collect(),
            l1i: CacheArray::new(CacheGeometry::new(cfg.l1i_bytes, cfg.l1i_ways)),
            l2: CacheArray::new(CacheGeometry::new(cfg.l2_bytes, cfg.l2_ways)),
            mshr: Mshr::new(cfg.mshr_capacity),
            victims: VictimBuffer::new(),
            retry: RetryTracker::new(None),
            wakes: WakeArm::default(),
            n: CpCounts::default(),
            transitions: TransitionMatrix::new("moesi-l2", MOESI_STATES, MOESI_CAUSES),
        }
    }

    /// Enables (or disables) request retry under fault injection. `None`
    /// (the default) skips all retry bookkeeping and wake-ups, so
    /// fault-free runs are bit-identical to a build without the retry
    /// layer.
    #[must_use]
    pub fn with_retry(mut self, policy: Option<RetryPolicy>) -> Self {
        self.retry = RetryTracker::new(policy);
        self
    }

    /// This L2's state-transition matrix.
    #[must_use]
    pub fn transitions(&self) -> &TransitionMatrix {
        &self.transitions
    }

    /// Occupied MSHR entries (an occupancy gauge for the epoch sampler).
    #[must_use]
    pub fn mshr_occupancy(&self) -> u64 {
        self.mshr.len() as u64
    }

    /// Victim-buffer entries awaiting write-back (an occupancy gauge for
    /// the epoch sampler).
    #[must_use]
    pub fn victim_occupancy(&self) -> u64 {
        self.victims.len() as u64
    }

    /// The NoC endpoint of this CorePair's L2.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// Schedules the initial wake-up; call once before the run starts.
    pub fn start(&mut self, out: &mut Outbox) {
        out.wake_after(0);
    }

    /// Whether every core has retired its program and no transaction or
    /// victim write-back is outstanding.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(|c| c.done) && self.mshr.is_empty() && self.victims.is_empty()
    }

    /// Per-pair statistics (`l2.hits`, `l2.misses`, `core.loads`, …). The
    /// fixed keys export even at 0, so reports and time series list quiet
    /// counters; the diagnostic and per-class keys only once they fire.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let t = &self.transitions;
        let mut s = StatSet::new();
        for (key, v) in [
            ("core.loads", n.loads),
            ("core.stores", n.stores),
            ("core.atomics", n.atomics),
            ("core.compute_ops", n.compute_ops),
            ("core.done", n.done),
            ("l1d.hits", n.l1d_hits),
            ("l1d.misses", n.l1d_misses),
            ("l1i.hits", n.l1i_hits),
            ("l1i.misses", n.l1i_misses),
            ("l2.hits", n.l2_hits),
            ("l2.misses", n.l2_misses),
            ("l2.upgrades", n.upgrades),
            ("l2.silent_e_to_m", t.get(ST_E, ST_M, CAUSE_SILENT_EM)),
            ("l2.vic_clean", t.get(ST_S, ST_I, CAUSE_EVICT) + t.get(ST_E, ST_I, CAUSE_EVICT)),
            ("l2.vic_dirty", t.get(ST_O, ST_I, CAUSE_EVICT) + t.get(ST_M, ST_I, CAUSE_EVICT)),
            ("l2.probes_received", n.probes_received),
            ("l2.probe_invalidations", t.entering(ST_I, CAUSE_PROBE_INV)),
            ("l2.retries", n.retries),
        ] {
            s.set(key, v);
        }
        s.set_nonzero("l2.stale_resps", n.stale_resps);
        s.set_nonzero("l2.unexpected_msgs", n.unexpected.total());
        n.unexpected.export("l2.unexpected", &[], &mut s);
        n.req.export("l2.req", &[], &mut s);
        s
    }

    /// Human-readable descriptions of everything still outstanding at
    /// this L2 (in-flight MSHR transactions and parked victims), for the
    /// watchdog's deadlock snapshot.
    pub fn pending_lines(&self) -> Vec<(LineAddr, String)> {
        let mut v: Vec<(LineAddr, String)> = self
            .mshr
            .iter()
            .map(|(la, txn)| (la, format!("{:?} miss, {} waiter(s)", txn.kind, txn.waiters.len)))
            .collect();
        v.extend(self.victims.lines().map(|la| (la, String::from("parked victim write-back"))));
        v
    }

    /// Direct lookup of a dirty copy of `la` (M/O in the L2 or dirty in
    /// the victim buffer), for end-of-run memory reconstruction.
    #[must_use]
    pub fn peek_dirty(&self, la: LineAddr) -> Option<LineData> {
        if let Some(line) = self.l2.get(la) {
            if line.state.forwards_dirty() {
                return Some(line.data);
            }
        }
        self.victims.get(la).filter(|e| e.dirty).map(|e| e.data)
    }

    /// Dirty lines still held (M/O in the L2 or dirty in the victim
    /// buffer); used to reconstruct final memory for verification.
    pub fn dirty_lines(&self) -> Vec<(LineAddr, LineData)> {
        self.l2
            .iter()
            .filter(|(_, l)| l.state.forwards_dirty())
            .map(|(la, l)| (la, l.data))
            .collect()
    }

    /// Every valid line in the L2 with its MOESI state and data, in
    /// address order — the protocol-visible cache contents the model
    /// checker's SWMR and value-coherence invariants range over.
    pub fn l2_snapshot(&self) -> Vec<(LineAddr, MoesiState, LineData)> {
        self.l2.iter().map(|(la, l)| (la, l.state, l.data)).collect()
    }

    /// Entries parked in the victim buffer, in address order.
    pub fn victim_snapshot(&self) -> Vec<(LineAddr, hsc_mem::VictimEntry)> {
        self.victims.iter().map(|(la, &e)| (la, e)).collect()
    }

    /// Lines with an in-flight L2 miss transaction, in address order.
    pub fn mshr_lines(&self) -> Vec<LineAddr> {
        self.mshr.iter().map(|(la, _)| la).collect()
    }

    /// Folds all protocol-relevant state into `h` for the system state
    /// fingerprint. Deliberately *excludes* timing (`ready_at`), the retry
    /// tracker's deadlines and statistics, so states that differ only in
    /// when things happen hash alike; cache arrays (including the tag-only
    /// L1s, whose hit pattern steers L2 recency) are hashed with their
    /// placement and replacement bits, which decide future evictions.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        for c in &self.cores {
            c.done.hash(h);
            c.blocked_line.hash(h);
            c.last_value.hash(h);
            c.pending.hash(h);
            c.pending_ifetch.hash(h);
            c.ops_since_ifetch.hash(h);
            c.next_code_line.hash(h);
            c.ops_retired.hash(h);
        }
        for l1 in &self.l1d {
            l1.hash_state(h);
        }
        self.l1i.hash_state(h);
        self.l2.hash_state(h);
        for (la, txn) in self.mshr.iter() {
            (la, txn.kind, txn.waiters.as_slice()).hash(h);
        }
        for (la, e) in self.victims.iter() {
            (la, e).hash(h);
        }
    }

    /// Handles a message delivered to this CorePair's L2.
    pub fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        debug_assert_eq!(msg.dst, self.agent);
        match msg.kind {
            MsgKind::Resp { data, grant } => self.on_resp(now, msg.line, data, grant, out),
            MsgKind::UpgradeAck => self.on_upgrade_ack(now, msg.line, out),
            MsgKind::VicAck => {
                self.retry.acked(msg.line);
                self.victims.release(msg.line);
            }
            MsgKind::Probe { kind } => self.on_probe(msg.line, kind, out),
            ref other => {
                // Under fault injection (duplication) or a mis-wired
                // topology a message this agent never expects can arrive;
                // count and drop it instead of aborting the run.
                self.n.unexpected.bump(other);
            }
        }
    }

    /// Advances both cores as far as the current tick allows and re-sends
    /// any timed-out requests (when a retry policy is configured).
    pub fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
        self.wakes.delivered(now);
        let resent = self.retry.service(now, &mut self.wakes, out);
        self.n.retries += resent;
        self.step_cores(now, out);
    }

    fn on_resp(
        &mut self,
        now: Tick,
        la: LineAddr,
        data: LineData,
        grant: hsc_noc::Grant,
        out: &mut Outbox,
    ) {
        self.retry.acked(la);
        let Some(txn) = self.mshr.remove(la) else {
            // Stale or duplicate response (a retried request that raced
            // its original, or a duplicated message under fault
            // injection). The local copy — if any — is at least as fresh
            // as this data, so leave the cache untouched; but the
            // directory opened a transaction for the duplicate request
            // and is waiting on our Unblock, so still send it.
            self.n.stale_resps += 1;
            out.send(Message::new(self.agent, AgentId::Directory, la, MsgKind::Unblock));
            return;
        };
        self.fill_line(la, MoesiState::from_grant(grant), data, out);
        out.send(Message::new(self.agent, AgentId::Directory, la, MsgKind::Unblock));
        self.complete_waiters(now, la, txn.waiters.as_slice());
        self.step_cores(now, out);
    }

    fn on_upgrade_ack(&mut self, now: Tick, la: LineAddr, out: &mut Outbox) {
        self.retry.acked(la);
        let Some(txn) = self.mshr.remove(la) else {
            // Stale duplicate (see on_resp); unblock the directory and
            // leave our state alone.
            self.n.stale_resps += 1;
            out.send(Message::new(self.agent, AgentId::Directory, la, MsgKind::Unblock));
            return;
        };
        if let Some(line) = self.l2.get_mut(la) {
            let from = st(line.state);
            line.state = MoesiState::Modified;
            self.transitions.record(from, ST_M, CAUSE_UPGRADE_ACK);
        } else {
            // The line was victimized while the upgrade was in flight
            // (possible only with fault-induced reordering); the write
            // will re-miss and fetch a fresh copy.
            self.n.stale_resps += 1;
        }
        out.send(Message::new(self.agent, AgentId::Directory, la, MsgKind::Unblock));
        self.complete_waiters(now, la, txn.waiters.as_slice());
        self.step_cores(now, out);
    }

    fn complete_waiters(&mut self, now: Tick, la: LineAddr, waiters: &[usize]) {
        let fill_lat = cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles);
        for &c in waiters {
            let core = &mut self.cores[c];
            debug_assert_eq!(core.blocked_line, Some(la));
            core.blocked_line = None;
            if core.pending_ifetch {
                // Instruction fetch completes directly: fill the L1I tag.
                core.pending_ifetch = false;
                core.ready_at = now + fill_lat;
                fill_tag(&mut self.l1i, la);
            } else {
                // Data ops re-attempt against the freshly filled L2 (the
                // hit path charges the access latency).
                core.ready_at = now;
            }
        }
    }

    fn step_cores(&mut self, now: Tick, out: &mut Outbox) {
        for i in 0..self.cores.len() {
            self.step_core(i, now, out);
        }
        // One wake-up at the earliest future readiness.
        let next = self
            .cores
            .iter()
            .filter(|c| !c.done && c.blocked_line.is_none())
            .map(|c| c.ready_at)
            .filter(|&t| t > now)
            .min();
        if let Some(t) = next {
            self.wakes.arm(t, out);
        }
    }

    fn step_core(&mut self, i: usize, now: Tick, out: &mut Outbox) {
        loop {
            let c = &mut self.cores[i];
            if c.done || c.blocked_line.is_some() || c.ready_at > now {
                return;
            }
            // Periodic synthetic instruction fetch (RdBlkS exerciser).
            if c.ops_since_ifetch >= self.cfg.ifetch_interval && c.pending.is_none() {
                c.ops_since_ifetch = 0;
                let la = LineAddr(c.code_base.0 + (c.next_code_line % self.cfg.code_lines));
                c.next_code_line += 1;
                self.access_ifetch(i, la, now, out);
                continue;
            }
            let c = &mut self.cores[i];
            let (op, first_attempt) = match c.pending.take() {
                Some(op) => (op, false),
                None => {
                    let lv = c.last_value.take();
                    (c.program.next_op(lv), true)
                }
            };
            let c = &mut self.cores[i];
            if first_attempt {
                c.ops_retired += 1;
                c.ops_since_ifetch += 1;
            }
            match op {
                CpuOp::Compute(cy) => {
                    self.n.compute_ops += 1;
                    if cy > 0 {
                        c.ready_at = now + cpu_cycles(cy);
                        return;
                    }
                }
                CpuOp::Done => {
                    c.done = true;
                    self.n.done += 1;
                    return;
                }
                CpuOp::Load(a) => {
                    if first_attempt {
                        self.n.loads += 1;
                    }
                    if self.access_load(i, a, now, out) {
                        return; // hit with latency, or miss (blocked)
                    }
                }
                CpuOp::Store(a, v) => {
                    if first_attempt {
                        self.n.stores += 1;
                    }
                    if self.access_store(i, a, v, now, CpuOp::Store(a, v), out) {
                        return;
                    }
                }
                CpuOp::Atomic(a, k) => {
                    if first_attempt {
                        self.n.atomics += 1;
                    }
                    if self.access_store(i, a, 0, now, CpuOp::Atomic(a, k), out) {
                        return;
                    }
                }
            }
        }
    }

    /// Returns `true` if the core is now waiting (hit latency or miss).
    fn access_load(&mut self, i: usize, a: Addr, now: Tick, out: &mut Outbox) -> bool {
        let la = a.line();
        if let Some(way) = self.l2.lookup(la) {
            let v = self.l2.meta(way).data.word_at(a);
            let lat = if fill_tag(&mut self.l1d[i], la) {
                self.n.l1d_hits += 1;
                cpu_cycles(self.cfg.l1_cycles)
            } else {
                self.n.l1d_misses += 1;
                cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles)
            };
            self.n.l2_hits += 1;
            self.l2.touch_way(way);
            let c = &mut self.cores[i];
            c.last_value = Some(v);
            c.ready_at = now + lat;
            true
        } else {
            self.n.l2_misses += 1;
            self.miss(i, la, TxnKind::Read, Some(CpuOp::Load(a)), out);
            true
        }
    }

    /// Store/atomic path; `true` if the core is now waiting.
    fn access_store(
        &mut self,
        i: usize,
        a: Addr,
        v: u64,
        now: Tick,
        op: CpuOp,
        out: &mut Outbox,
    ) -> bool {
        let la = a.line();
        match self.l2.lookup(la).map(|w| (w, self.l2.meta(w).state.can_write())) {
            Some((way, true)) => {
                let line = self.l2.meta_mut(way);
                if line.state == MoesiState::Exclusive {
                    line.state = MoesiState::Modified; // silent E→M (§II-B)
                    self.transitions.record(ST_E, ST_M, CAUSE_SILENT_EM);
                }
                let c = &mut self.cores[i];
                match op {
                    CpuOp::Store(_, _) => {
                        line.data.set_word_at(a, v);
                        c.last_value = None;
                    }
                    CpuOp::Atomic(_, k) => {
                        let old = line.data.apply_atomic(a, k);
                        c.last_value = Some(old);
                    }
                    _ => unreachable!("access_store only handles stores/atomics"),
                }
                self.n.l2_hits += 1;
                let lat = if fill_tag(&mut self.l1d[i], la) {
                    cpu_cycles(self.cfg.l1_cycles)
                } else {
                    cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles)
                };
                self.l2.touch_way(way);
                self.cores[i].ready_at = now + lat;
                true
            }
            Some((_, false)) => {
                // Present but S/O: upgrade.
                self.n.upgrades += 1;
                self.miss(i, la, TxnKind::Write, Some(op), out);
                true
            }
            None => {
                self.n.l2_misses += 1;
                self.miss(i, la, TxnKind::Write, Some(op), out);
                true
            }
        }
    }

    fn access_ifetch(&mut self, i: usize, la: LineAddr, now: Tick, out: &mut Outbox) {
        if let Some(way) = self.l1i.lookup(la) {
            self.n.l1i_hits += 1;
            self.l1i.touch_way(way);
            self.cores[i].ready_at = now + cpu_cycles(self.cfg.l1_cycles);
            return;
        }
        if let Some(way) = self.l2.lookup(la) {
            self.n.l1i_misses += 1;
            self.n.l2_hits += 1;
            let _ = self.l1i.insert(la, ());
            self.l2.touch_way(way);
            self.cores[i].ready_at = now + cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles);
            return;
        }
        self.n.l1i_misses += 1;
        self.n.l2_misses += 1;
        self.miss(i, la, TxnKind::ReadInstr, None, out);
    }

    /// Blocks core `i` on line `la`: joins the MSHR entry already in
    /// flight for it or allocates one and sends the request. `op` is the
    /// data op to re-attempt once the line fills; `None` is an
    /// instruction fetch, which completes without one.
    fn miss(&mut self, i: usize, la: LineAddr, kind: TxnKind, op: Option<CpuOp>, out: &mut Outbox) {
        let c = &mut self.cores[i];
        c.pending = op;
        c.pending_ifetch = op.is_none();
        c.blocked_line = Some(la);
        if let Some(txn) = self.mshr.get_mut(la) {
            txn.waiters.push(i);
            return;
        }
        self.mshr
            .alloc(la, L2Txn { kind, waiters: Waiters::one(i) })
            .expect("CorePair MSHR sized for max 2 outstanding ops");
        let msg = match kind {
            TxnKind::Read => MsgKind::RdBlk,
            TxnKind::ReadInstr => MsgKind::RdBlkS,
            TxnKind::Write => MsgKind::RdBlkM,
        };
        self.n.req.bump(&msg);
        let msg = Message::new(self.agent, AgentId::Directory, la, msg);
        out.send(msg);
        self.retry.track_sent(msg, &mut self.wakes, out);
    }

    fn fill_line(&mut self, la: LineAddr, state: MoesiState, data: LineData, out: &mut Outbox) {
        if let Some(way) = self.l2.lookup(la) {
            let line = self.l2.meta_mut(way);
            self.transitions.record(st(line.state), st(state), CAUSE_FILL);
            // Upgrade response for a line still held (S/O → M). An Owned
            // line is *dirtier* than anything the directory can send (the
            // stateless directory reads the possibly-stale LLC/memory for
            // RdBlkM data): the local copy must win or earlier stores are
            // lost. Clean S/E copies take the response data, which the
            // probe round guarantees is the freshest in the system.
            if !line.state.forwards_dirty() {
                line.data = data;
            }
            line.state = state;
            self.l2.touch_way(way);
            return;
        }
        // A full set victimizes, avoiding lines with in-flight transactions.
        let mshr = &self.mshr;
        if let Some(victim) = self.l2.victim_scored(la, |tag, _| u32::from(mshr.contains(tag))) {
            let vtag = self.l2.tag(victim);
            let vline = self.l2.invalidate_way(victim);
            self.transitions.record(st(vline.state), ST_I, CAUSE_EVICT);
            let dirty = vline.state.forwards_dirty();
            let kind = if dirty {
                MsgKind::VicDirty { data: vline.data }
            } else {
                MsgKind::VicClean { data: vline.data }
            };
            self.victims.park(vtag, vline.data, dirty);
            let vic = Message::new(self.agent, AgentId::Directory, vtag, kind);
            out.send(vic);
            self.retry.track_sent(vic, &mut self.wakes, out);
            for l1 in &mut self.l1d {
                l1.invalidate(vtag);
            }
            self.l1i.invalidate(vtag);
        }
        self.transitions.record(ST_I, st(state), CAUSE_FILL);
        self.l2.insert(la, L2Line { state, data });
    }

    fn on_probe(&mut self, la: LineAddr, kind: ProbeKind, out: &mut Outbox) {
        self.n.probes_received += 1;
        let mut dirty: Option<LineData> = None;
        let mut had_copy = false;
        let mut was_parked = false;
        if let Some(entry) = self.victims.get(la).copied() {
            had_copy = true;
            match kind {
                ProbeKind::Invalidate => {
                    was_parked = true;
                    let e = self.victims.invalidate(la).unwrap();
                    if e.dirty {
                        dirty = Some(e.data);
                    }
                    // The probe hands the victim to the directory; the
                    // write-back no longer needs a retry.
                    self.retry.acked(la);
                }
                ProbeKind::Downgrade => {
                    if entry.dirty {
                        dirty = Some(entry.data);
                        self.victims.downgrade(la);
                    }
                }
            }
        } else if let Some(way) = self.l2.lookup(la) {
            let line = self.l2.meta_mut(way);
            had_copy = true;
            let from = st(line.state);
            // `mutation`: suppressing this forward is the seeded coherence
            // bug the model-checker tests must catch (lost update).
            if line.state.forwards_dirty() && !crate::mutation::drop_dirty_probe_data() {
                dirty = Some(line.data);
            }
            match kind {
                ProbeKind::Invalidate => {
                    self.l2.invalidate_way(way);
                    for l1 in &mut self.l1d {
                        l1.invalidate(la);
                    }
                    self.l1i.invalidate(la);
                    self.transitions.record(from, ST_I, CAUSE_PROBE_INV);
                }
                ProbeKind::Downgrade => {
                    line.state = line.state.after_downgrade();
                    let to = st(line.state);
                    self.transitions.record(from, to, CAUSE_PROBE_DOWN);
                }
            }
        }
        out.send(Message::new(
            self.agent,
            AgentId::Directory,
            la,
            MsgKind::ProbeAck { dirty, had_copy, was_parked },
        ));
    }
}

/// Makes `la` the most-recently-used tag of a tag-only L1, filling it on a
/// miss and silently dropping any displaced tag (the L2 holds the data, so
/// L1 evictions need no protocol action). Returns whether it was a hit.
fn fill_tag(l1: &mut CacheArray<()>, la: LineAddr) -> bool {
    if let Some(way) = l1.lookup(la) {
        l1.touch_way(way);
        true
    } else {
        let _ = l1.insert(la, ());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuScript;
    use hsc_mem::{AtomicKind, MainMemory};
    use hsc_noc::{Action, Grant};
    use hsc_sim::WheelQueue;

    /// Drives a single CorePair against a trivially coherent fake
    /// directory: every RdBlk→E, RdBlkS→S, RdBlkM→M, probes never sent.
    fn run_pair(mut pair: CorePair, limit: u64) -> (CorePair, MainMemory) {
        let mut mem = MainMemory::new();
        run_pair_with_mem(&mut pair, &mut mem, limit);
        (pair, mem)
    }

    fn run_pair_with_mem(pair: &mut CorePair, mem: &mut MainMemory, limit: u64) {
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
            assert!(steps < limit, "fake-directory run exceeded {limit} events");
            let mut out = Outbox::new(now);
            match ev {
                Ev::Wake => pair.on_wake(now, &mut out),
                Ev::Msg(m) if m.dst == pair.agent() => pair.on_message(now, &m, &mut out),
                Ev::Msg(m) => {
                    // Fake directory.
                    let resp = match m.kind {
                        MsgKind::RdBlk => Some(MsgKind::Resp {
                            data: mem.read_line(m.line),
                            grant: Grant::Exclusive,
                        }),
                        MsgKind::RdBlkS => Some(MsgKind::Resp {
                            data: mem.read_line(m.line),
                            grant: Grant::Shared,
                        }),
                        MsgKind::RdBlkM => Some(MsgKind::Resp {
                            data: mem.read_line(m.line),
                            grant: Grant::Modified,
                        }),
                        MsgKind::VicDirty { data } => {
                            mem.write_line(m.line, data);
                            Some(MsgKind::VicAck)
                        }
                        MsgKind::VicClean { .. } => Some(MsgKind::VicAck),
                        MsgKind::Unblock => None,
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

    fn pair_with(programs: Vec<Box<dyn CoreProgram>>) -> CorePair {
        // Tiny caches to exercise evictions in tests.
        let cfg = CpuConfig {
            l2_bytes: 8 * 1024,
            l1d_bytes: 1024,
            l1i_bytes: 1024,
            ifetch_interval: 1000, // mostly out of the way
            ..CpuConfig::default()
        };
        CorePair::new(0, programs, cfg)
    }

    #[test]
    fn store_then_load_round_trips_through_l2() {
        let a = Addr(0x1000);
        let prog = CpuScript::new(vec![CpuOp::Store(a, 42), CpuOp::Load(a), CpuOp::Done]);
        let (pair, _mem) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
        assert!(pair.is_done());
        assert_eq!(pair.stats().get("core.stores"), 1);
        assert_eq!(pair.stats().get("core.loads"), 1);
        // The load hit the line the store brought in as M.
        assert!(pair.stats().get("l2.hits") >= 1);
        let dirty = pair.dirty_lines();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].1.word_at(a), 42);
    }

    #[test]
    fn silent_e_to_m_upgrade_on_store_after_load() {
        let a = Addr(0x2000);
        let prog = CpuScript::new(vec![CpuOp::Load(a), CpuOp::Store(a, 7), CpuOp::Done]);
        let (pair, _mem) = run_pair(pair_with(vec![Box::new(prog)]), 10_000);
        assert!(pair.is_done());
        // RdBlk granted E; the store upgraded silently: no RdBlkM issued.
        assert_eq!(pair.stats().get("l2.req.RdBlk"), 1);
        assert_eq!(pair.stats().get("l2.req.RdBlkM"), 0);
        assert_eq!(pair.stats().get("l2.silent_e_to_m"), 1);
    }

    #[test]
    fn atomic_returns_old_value_to_the_program() {
        let a = Addr(0x3000);
        let prog = CpuScript::new(vec![
            CpuOp::Store(a, 10),
            CpuOp::Atomic(a, AtomicKind::FetchAdd(5)),
            CpuOp::Load(a),
            CpuOp::Done,
        ]);
        let mut pair = pair_with(vec![Box::new(prog)]);
        let mut mem = MainMemory::new();
        run_pair_with_mem(&mut pair, &mut mem, 10_000);
        assert!(pair.is_done());
        let d = pair.dirty_lines();
        assert_eq!(d[0].1.word_at(a), 15);
    }

    #[test]
    fn capacity_evictions_send_noisy_victims() {
        // 8 KB / 8-way L2 = 16 sets; write 3 * 128 lines so sets overflow.
        let mut ops = Vec::new();
        for i in 0..384u64 {
            ops.push(CpuOp::Store(Addr(0x10000 + i * 64), i));
        }
        ops.push(CpuOp::Done);
        let (pair, mem) = run_pair(pair_with(vec![Box::new(CpuScript::new(ops))]), 100_000);
        assert!(pair.is_done());
        assert!(pair.stats().get("l2.vic_dirty") > 0, "dirty victims must reach the directory");
        // Every victimized dirty line must have landed in (fake) memory.
        let survivors: std::collections::BTreeSet<u64> =
            pair.dirty_lines().iter().map(|(la, _)| la.0).collect();
        for i in 0..384u64 {
            let a = Addr(0x10000 + i * 64);
            if !survivors.contains(&a.line().0) {
                assert_eq!(mem.read_word(a), i, "victim write-back lost data at {a}");
            }
        }
    }

    #[test]
    fn loads_see_clean_victims_after_refetch() {
        // Store to set-colliding lines (clean loads), then re-load the first.
        let mut ops = Vec::new();
        for i in 0..256u64 {
            ops.push(CpuOp::Load(Addr(0x20000 + i * 64)));
        }
        ops.push(CpuOp::Load(Addr(0x20000)));
        ops.push(CpuOp::Done);
        let (pair, _) = run_pair(pair_with(vec![Box::new(CpuScript::new(ops))]), 100_000);
        assert!(pair.is_done());
        assert!(pair.stats().get("l2.vic_clean") > 0, "clean victims are noisy");
    }

    #[test]
    fn two_cores_share_the_l2() {
        let a = Addr(0x4000);
        let p0 = CpuScript::new(vec![CpuOp::Store(a, 9), CpuOp::Done]);
        // Core 1 spins until it observes core 0's store through the shared L2.
        #[derive(Debug, Clone)]
        struct Spin {
            a: Addr,
            tries: u32,
        }
        impl CoreProgram for Spin {
            fn next_op(&mut self, last: Option<u64>) -> CpuOp {
                if last == Some(9) {
                    return CpuOp::Done;
                }
                self.tries += 1;
                assert!(self.tries < 10_000, "spin never observed the store");
                CpuOp::Load(self.a)
            }
        }
        let (pair, _) =
            run_pair(pair_with(vec![Box::new(p0), Box::new(Spin { a, tries: 0 })]), 200_000);
        assert!(pair.is_done());
    }

    #[test]
    fn invalidating_probe_forwards_dirty_and_invalidates() {
        let a = Addr(0x5000);
        let prog = CpuScript::new(vec![CpuOp::Store(a, 3), CpuOp::Done]);
        let mut pair = pair_with(vec![Box::new(prog)]);
        let mut mem = MainMemory::new();
        run_pair_with_mem(&mut pair, &mut mem, 10_000);
        let mut out = Outbox::new(Tick(1_000_000));
        pair.on_message(
            Tick(1_000_000),
            &Message::new(
                AgentId::Directory,
                pair.agent(),
                a.line(),
                MsgKind::Probe { kind: ProbeKind::Invalidate },
            ),
            &mut out,
        );
        let acts = out.into_actions();
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send(m) => match m.kind {
                MsgKind::ProbeAck { dirty, had_copy, .. } => {
                    assert!(had_copy);
                    assert_eq!(dirty.unwrap().word_at(a), 3);
                }
                ref k => panic!("expected ProbeAck, got {}", k.class_name()),
            },
            other => panic!("expected send, got {other:?}"),
        }
        assert!(pair.dirty_lines().is_empty(), "line invalidated");
    }

    #[test]
    fn downgrade_probe_moves_m_to_o_and_keeps_data() {
        let a = Addr(0x6000);
        let prog = CpuScript::new(vec![CpuOp::Store(a, 5), CpuOp::Done]);
        let mut pair = pair_with(vec![Box::new(prog)]);
        let mut mem = MainMemory::new();
        run_pair_with_mem(&mut pair, &mut mem, 10_000);
        let mut out = Outbox::new(Tick(1_000_000));
        pair.on_message(
            Tick(1_000_000),
            &Message::new(
                AgentId::Directory,
                pair.agent(),
                a.line(),
                MsgKind::Probe { kind: ProbeKind::Downgrade },
            ),
            &mut out,
        );
        match out.actions()[0] {
            Action::Send(ref m) => match m.kind {
                MsgKind::ProbeAck { dirty, had_copy, .. } => {
                    assert!(had_copy);
                    assert!(dirty.is_some());
                }
                ref k => panic!("expected ProbeAck, got {}", k.class_name()),
            },
            ref other => panic!("expected send, got {other:?}"),
        }
        // Still the owner: dirty_lines reports it (O forwards dirty).
        assert_eq!(pair.dirty_lines().len(), 1);
        // A second downgrade probe re-forwards (owner keeps forwarding).
        let mut out2 = Outbox::new(Tick(1_000_001));
        pair.on_message(
            Tick(1_000_001),
            &Message::new(
                AgentId::Directory,
                pair.agent(),
                a.line(),
                MsgKind::Probe { kind: ProbeKind::Downgrade },
            ),
            &mut out2,
        );
        match out2.actions()[0] {
            Action::Send(ref m) => {
                assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: Some(_), .. }));
            }
            ref other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn probe_for_absent_line_acks_no_copy() {
        let mut pair = pair_with(vec![]);
        let mut out = Outbox::new(Tick(0));
        pair.on_message(
            Tick(0),
            &Message::new(
                AgentId::Directory,
                pair.agent(),
                LineAddr(77),
                MsgKind::Probe { kind: ProbeKind::Invalidate },
            ),
            &mut out,
        );
        match out.actions()[0] {
            Action::Send(ref m) => {
                assert!(matches!(m.kind, MsgKind::ProbeAck { dirty: None, had_copy: false, .. }));
            }
            ref other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn ifetch_issues_rdblks() {
        let cfg = CpuConfig {
            l2_bytes: 8 * 1024,
            l1d_bytes: 1024,
            l1i_bytes: 1024,
            ifetch_interval: 4,
            ..CpuConfig::default()
        };
        let ops: Vec<CpuOp> = (0..32).map(|_| CpuOp::Compute(1)).chain([CpuOp::Done]).collect();
        let pair = CorePair::new(0, vec![Box::new(CpuScript::new(ops))], cfg);
        let (pair, _) = run_pair(pair, 100_000);
        assert!(pair.is_done());
        assert!(pair.stats().get("l2.req.RdBlkS") > 0, "I-fetches must miss at least once");
    }

    #[test]
    fn transition_matrix_tracks_fills_upgrades_and_probes() {
        let a = Addr(0x7000);
        let prog = CpuScript::new(vec![CpuOp::Load(a), CpuOp::Store(a, 7), CpuOp::Done]);
        let mut pair = pair_with(vec![Box::new(prog)]);
        let mut mem = MainMemory::new();
        run_pair_with_mem(&mut pair, &mut mem, 10_000);
        assert!(pair.is_done());
        let t = pair.transitions();
        assert_eq!(t.get(ST_I, ST_E, CAUSE_FILL), 1, "RdBlk granted E fills I→E");
        assert_eq!(t.get(ST_E, ST_M, CAUSE_SILENT_EM), 1, "the store upgrades silently");
        // An invalidating probe then retires the Modified line.
        let mut out = Outbox::new(Tick(1_000_000));
        pair.on_message(
            Tick(1_000_000),
            &Message::new(
                AgentId::Directory,
                pair.agent(),
                a.line(),
                MsgKind::Probe { kind: ProbeKind::Invalidate },
            ),
            &mut out,
        );
        assert_eq!(pair.transitions().get(ST_M, ST_I, CAUSE_PROBE_INV), 1);
        assert_eq!(pair.transitions().total(), 3);
    }

    #[test]
    fn empty_corepair_is_done_immediately() {
        let pair = pair_with(vec![]);
        assert!(pair.is_done());
    }
}

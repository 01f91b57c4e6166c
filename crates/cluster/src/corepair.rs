use hsc_mem::{Addr, CacheArray, CacheGeometry, LineAddr, LineData, Mshr, VictimBuffer};
use hsc_noc::{
    AgentId, ClassCounts, Message, MsgKind, Outbox, ProbeKind, RetryPolicy, RetryTracker, WakeArm,
};
use hsc_sim::{StatSet, Tick, TransitionMatrix};

use crate::{cpu_cycles, CoreProgram, CpuOp, MoesiState, Mutant};

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

/// What a core waits for: one thing at a time, as a wavefront does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Wait {
    /// Runnable from `ready_at`.
    Ready,
    /// Blocked on the L2 miss in flight for this line.
    Miss(LineAddr),
    /// Retired (`CpuOp::Done`).
    Done,
}

#[derive(Debug, Clone)]
struct CoreCtx {
    program: Box<dyn CoreProgram>,
    ready_at: Tick,
    wait: Wait,
    last_value: Option<u64>,
    /// The data op to re-attempt once the missed line fills; `None` while
    /// blocked is an instruction fetch.
    pending: Option<CpuOp>,
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
    /// The seeded bug this pair carries; configuration, not state.
    mutant: Mutant,
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
                wait: Wait::Ready,
                last_value: None,
                pending: None,
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
            mutant: Mutant::None,
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

    /// Arms a seeded protocol bug ([`Mutant::None`], the default, is the
    /// correct protocol).
    #[must_use]
    pub fn with_mutant(mut self, mutant: Mutant) -> Self {
        self.mutant = mutant;
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
        self.cores.iter().all(|c| c.wait == Wait::Done)
            && self.mshr.is_empty()
            && self.victims.is_empty()
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
            c.wait.hash(h);
            c.last_value.hash(h);
            c.pending.hash(h);
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
            MsgKind::Resp { data, grant } => self.on_reply(now, msg.line, Some((data, grant)), out),
            MsgKind::UpgradeAck => self.on_reply(now, msg.line, None, out),
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

    /// Completes the miss the directory answered on `la`: `fill` is a
    /// data response, `None` a data-less upgrade ack.
    fn on_reply(
        &mut self,
        now: Tick,
        la: LineAddr,
        fill: Option<(LineData, hsc_noc::Grant)>,
        out: &mut Outbox,
    ) {
        self.retry.acked(la);
        let txn = self.mshr.remove(la);
        if txn.is_none() {
            // Stale or duplicate reply (a retried request that raced its
            // original, or a duplicated message under fault injection).
            // The local copy — if any — is at least as fresh as this
            // reply, so leave the cache untouched; but the directory opened
            // a transaction for the duplicate and waits on our Unblock.
            self.n.stale_resps += 1;
        } else if let Some((data, grant)) = fill {
            self.fill_line(la, MoesiState::from_grant(grant), data, out);
        } else if let Some(line) = self.l2.get_mut(la) {
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
        if let Some(txn) = txn {
            self.complete_waiters(now, la, txn.waiters.as_slice());
            self.step_cores(now, out);
        }
    }

    fn complete_waiters(&mut self, now: Tick, la: LineAddr, waiters: &[usize]) {
        let fill_lat = cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles);
        for &c in waiters {
            let core = &mut self.cores[c];
            debug_assert_eq!(core.wait, Wait::Miss(la));
            core.wait = Wait::Ready;
            if core.pending.is_none() {
                // Instruction fetch completes directly: fill the L1I tag.
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
            .filter(|c| c.wait == Wait::Ready)
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
            if c.wait != Wait::Ready || c.ready_at > now {
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
            // Only a zero-cycle compute op lets the core go on at once; a
            // memory access ends its step with a hit latency or a miss.
            match op {
                CpuOp::Compute(cy) => {
                    self.n.compute_ops += 1;
                    if cy == 0 {
                        continue;
                    }
                    c.ready_at = now + cpu_cycles(cy);
                }
                CpuOp::Done => {
                    c.wait = Wait::Done;
                    self.n.done += 1;
                }
                CpuOp::Load(a) => {
                    if first_attempt {
                        self.n.loads += 1;
                    }
                    self.access_load(i, a, now, out);
                }
                CpuOp::Store(..) => {
                    if first_attempt {
                        self.n.stores += 1;
                    }
                    self.access_store(i, op, now, out);
                }
                CpuOp::Atomic(..) => {
                    if first_attempt {
                        self.n.atomics += 1;
                    }
                    self.access_store(i, op, now, out);
                }
            }
            return;
        }
    }

    fn access_load(&mut self, i: usize, a: Addr, now: Tick, out: &mut Outbox) {
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
        } else {
            self.n.l2_misses += 1;
            self.miss(i, la, TxnKind::Read, Some(CpuOp::Load(a)), out);
        }
    }

    /// The store and atomic path.
    fn access_store(&mut self, i: usize, op: CpuOp, now: Tick, out: &mut Outbox) {
        let (CpuOp::Store(a, _) | CpuOp::Atomic(a, _)) = op else {
            unreachable!("access_store only handles stores/atomics")
        };
        let la = a.line();
        match self.l2.lookup(la).map(|w| (w, self.l2.meta(w).state.can_write())) {
            Some((way, true)) => {
                let line = self.l2.meta_mut(way);
                if line.state == MoesiState::Exclusive {
                    line.state = MoesiState::Modified; // silent E→M (§II-B)
                    self.transitions.record(ST_E, ST_M, CAUSE_SILENT_EM);
                }
                self.cores[i].last_value = match op {
                    CpuOp::Store(_, v) => {
                        line.data.set_word_at(a, v);
                        None
                    }
                    CpuOp::Atomic(_, k) => Some(line.data.apply_atomic(a, k)),
                    _ => unreachable!("matched above"),
                };
                self.n.l2_hits += 1;
                let lat = if fill_tag(&mut self.l1d[i], la) {
                    cpu_cycles(self.cfg.l1_cycles)
                } else {
                    cpu_cycles(self.cfg.l1_cycles + self.cfg.l2_cycles)
                };
                self.l2.touch_way(way);
                self.cores[i].ready_at = now + lat;
            }
            Some((_, false)) => {
                // Present but S/O: upgrade.
                self.n.upgrades += 1;
                self.miss(i, la, TxnKind::Write, Some(op), out);
            }
            None => {
                self.n.l2_misses += 1;
                self.miss(i, la, TxnKind::Write, Some(op), out);
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
        c.wait = Wait::Miss(la);
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
                    let e = self.victims.release(la).unwrap();
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
            if line.state.forwards_dirty() && self.mutant != Mutant::DropDirtyProbeData {
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

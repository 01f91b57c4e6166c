use std::collections::VecDeque;

use hsc_cluster::gpu_cycles;
use hsc_mem::{CacheArray, CacheGeometry, LineAddr, LineData, LineMap};
use hsc_noc::{
    AgentId, ClassCounts, Grant, Message, MsgKind, Outbox, ProbeKind, StuckLine, WordMask,
};
use hsc_obs::SharingTracker;
use hsc_sim::{StatSet, Tick, TransitionMatrix};

use crate::tracking::{
    plan, DataPlan, DirEntry, DirState, GrantPlan, NextState, PlanReq, ProbePlan, Requester,
    SharerSet, Transition, BACK_INVALIDATION, MAX_SHARERS_PER_KIND,
};
use crate::{
    CleanVictimPolicy, CoherenceConfig, DirReplacementPolicy, Llc, LlcWritePolicy, UncoreConfig,
};

/// Directory transition-matrix vocabulary: the §IV stable states plus
/// the transient backward-invalidation state **B**. Causes are the
/// request classes that drive transitions ([`PlanReq::index`] order),
/// plus the entry eviction itself. The matrix only fills in tracking
/// modes — stateless runs keep no entries, so there is nothing to
/// transition.
const DIR_STATES: &[&str] = &["I", "S", "O", "B"];
pub(crate) const DIR_CAUSES: &[&str] = &[
    "RdBlk",
    "RdBlkS",
    "RdBlkM",
    "VicDirty",
    "VicClean",
    "WriteThrough",
    "Atomic",
    "DmaRd",
    "DmaWr",
    "Flush",
    "BackInval",
];
const DT_I: usize = 0;
const DT_S: usize = 1;
const DT_O: usize = 2;
const DT_B: usize = 3;
const DC_BACK_INVAL: usize = 10;

/// Transition-matrix state index of a directory entry state.
fn dt(s: DirState) -> usize {
    match s {
        DirState::I => DT_I,
        DirState::S => DT_S,
        DirState::O => DT_O,
    }
}

/// Where a transaction's LLC/memory read stands: the data half of the
/// Fig. 2 `_PM`/`_P`/`_M` blocked states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fetch {
    /// A lazy `OwnerThenLlc` plan that has no slot yet.
    Deferred,
    /// The directory+LLC pipeline slot is in flight.
    Pipeline,
    /// The slot is done and the LLC unread: the read waits for the probe
    /// round. A back-invalidation, which reads nothing, starts here.
    Elapsed,
    /// `MemRd` is out.
    Memory,
    /// The LLC hit.
    Llc(LineData),
    /// Memory answered.
    Mem(LineData),
}

/// Where a transaction stands with its reply. A CPU read's reply asks
/// for the requester's `Unblock`; every other reply ends the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Reply {
    /// Nothing has gone out yet.
    Owed,
    /// §III-A: a TCC or DMA read was answered from a dirty probe ack. The
    /// transaction still completes its probe round and LLC/memory read,
    /// and sends nothing more.
    Early,
    /// A CPU read's response is out, its transition applied; the unblock
    /// is not in yet.
    Awaiting,
    /// The unblock is in.
    Unblocked,
}

#[derive(Debug, Clone)]
struct DirTxn {
    /// The request; a directory-entry eviction's stand-in is a `Flush`
    /// from [`AgentId::Directory`] itself: the backward invalidation of
    /// the victim line's tracked caches (the transient **B** state of
    /// §IV-A).
    origin: Message,
    /// Transition decided at start.
    planned: Transition,
    pending_acks: u32,
    dirty_data: Option<LineData>,
    copies_found: u32,
    fetch: Fetch,
    reply: Reply,
    /// When the transaction started: the origin of its latency and the
    /// age the watchdog and the deadlock dump report.
    arrived: Tick,
    /// Same-line requests that arrived while this transaction was active.
    queued: VecDeque<Message>,
    /// Requests for *other* lines waiting for this transaction to free a
    /// directory way.
    parked_allocs: Vec<Message>,
    /// Entry state captured at start (tracking mode).
    start_state: DirState,
}

impl DirTxn {
    fn new(
        origin: Message,
        planned: Transition,
        fetch: Fetch,
        start_state: DirState,
        arrived: Tick,
    ) -> Self {
        DirTxn {
            origin,
            planned,
            pending_acks: 0,
            dirty_data: None,
            copies_found: 0,
            fetch,
            reply: Reply::Owed,
            arrived,
            queued: VecDeque::new(),
            parked_allocs: Vec::new(),
            start_state,
        }
    }
}

/// The system-level directory co-located with the LLC (§II-D, Fig. 2),
/// including every §III optimization and the §IV precise state tracking.
///
/// Per-line behaviour mirrors the paper's blocked states: one transaction
/// at a time per line (the **U→B…→U** discipline of Fig. 2); later
/// requests queue. What a request does is decided in [`crate::tracking`]
/// and only executed here: [`PlanReq::of`] classifies it and the [`plan`]
/// table answers for every mode — with `DirectoryMode::Stateless` every
/// request broadcasts probes and reads the LLC/memory, exactly the
/// baseline gem5 model; with tracking the same table drives probe
/// elision, owner-only probes and invalidation multicast.
///
/// The victim-cache LLC is written on L2 write-backs only (never on the
/// refill path); the [`CoherenceConfig`] knobs select the §III-B/§III-C
/// policies and `useL3OnWT`.
#[derive(Debug, Clone)]
pub struct Directory {
    cfg: CoherenceConfig,
    uncore: UncoreConfig,
    n_l2: usize,
    n_tcc: usize,
    llc: Llc,
    entries: CacheArray<DirEntry>,
    /// In-flight transactions by line — the order `hash_state` and the
    /// deadlock dumps walk them in — as indexes into `txn_slab`. The
    /// 344-byte `DirTxn`s stay out of the table, so an insert or remove
    /// shifts 16-byte pairs, and a handler that has found its transaction
    /// once passes the index on instead of looking the line up again in
    /// each of `try_complete`, `apply_transition` and `finish_txn`
    /// (EXPERIMENTS.md "Cache array layout"). An index is good from
    /// `open_txn` until `finish_txn` and must not be used after it.
    txns: LineMap<usize>,
    /// Grows to the most transactions ever in flight at once; a finished
    /// slot keeps its last `DirTxn` (queues emptied) until it is reused.
    txn_slab: Vec<DirTxn>,
    /// `txn_slab` slots whose transaction has finished.
    free_txns: Vec<usize>,
    /// Victim write-backs a probe already consumed, sorted: as bounded as
    /// the victim buffers the entries point into.
    stale_vics: Vec<(LineAddr, AgentId)>,
    /// Pending LLC pipeline slots in `(tick, schedule order)`, the order
    /// `on_wake` fires them in. At most one or two per transaction.
    internal: VecDeque<(Tick, LineAddr)>,
    /// A transaction older than this many ticks is stuck.
    watchdog_limit: u64,
    /// `resolve_probe_targets`' output buffer, kept between requests.
    probe_targets: Vec<AgentId>,
    /// Every entry state transition, by cause; excluded from
    /// `hash_state`. `stats` sums its cells into `dir.entry_evictions`.
    transitions: TransitionMatrix,
    /// Sharing-pattern analytics; `None` costs one branch per hook.
    sharing: Option<SharingTracker>,
    n: DirCounts,
}

/// Every count the directory keeps; [`Directory::stats`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct DirCounts {
    probes_sent: u64,
    queued_requests: u64,
    backinval_probes: u64,
    early_responses: u64,
    atomics: u64,
    alloc_park_on_busy: u64,
    lazy_llc_reads: u64,
    clean_vics_dropped: u64,
    /// Requests that started a transaction.
    requests: ClassCounts,
    /// Messages of a class the directory never consumes, dropped.
    unexpected: ClassCounts,
    stale_vics_dropped: u64,
    stale_probe_acks: u64,
    stale_mem_resps: u64,
    stale_unblocks: u64,
    /// Completed request transactions, and their summed and largest
    /// latency in ticks.
    txn_latency_count: u64,
    txn_latency_total: u64,
    txn_latency_max: u64,
}

/// Default per-transaction age limit in ticks before the watchdog calls a
/// line stuck (~52k GPU cycles — far above any legitimate transaction,
/// including worst-case memory-channel queueing).
pub const DEFAULT_WATCHDOG_TICKS: u64 = 2_000_000;

impl Directory {
    /// Builds the directory for a system with `n_l2` CorePairs and
    /// `n_tcc` GPU clusters.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds [`MAX_SHARERS_PER_KIND`]: the sharer
    /// bitmaps could not tell such agents apart.
    #[must_use]
    pub fn new(cfg: CoherenceConfig, uncore: UncoreConfig, n_l2: usize, n_tcc: usize) -> Self {
        assert!(
            n_l2 <= MAX_SHARERS_PER_KIND && n_tcc <= MAX_SHARERS_PER_KIND,
            "the directory tracks at most {MAX_SHARERS_PER_KIND} CorePairs and \
             {MAX_SHARERS_PER_KIND} TCCs (asked for {n_l2} and {n_tcc})"
        );
        Directory {
            cfg,
            uncore,
            n_l2,
            n_tcc,
            llc: Llc::new(CacheGeometry::new(uncore.llc_bytes, uncore.llc_ways)),
            entries: CacheArray::new(CacheGeometry::from_lines(
                uncore.dir_entries,
                uncore.dir_ways,
            )),
            txns: LineMap::new(),
            txn_slab: Vec::new(),
            free_txns: Vec::new(),
            stale_vics: Vec::new(),
            internal: VecDeque::new(),
            watchdog_limit: DEFAULT_WATCHDOG_TICKS,
            probe_targets: Vec::new(),
            transitions: TransitionMatrix::new("directory", DIR_STATES, DIR_CAUSES),
            sharing: None,
            n: DirCounts::default(),
        }
    }

    /// Switches on the sharing-pattern tracker. It keeps a per-line map,
    /// so unlike the transition matrices it is opt-in.
    pub fn enable_analytics(&mut self) {
        self.sharing = Some(SharingTracker::new());
    }

    /// The directory's entry-state transition matrix (all zero outside
    /// the tracking modes).
    #[must_use]
    pub fn transitions(&self) -> &TransitionMatrix {
        &self.transitions
    }

    /// The co-located LLC's transition matrix.
    #[must_use]
    pub fn llc_transitions(&self) -> &TransitionMatrix {
        self.llc.transitions()
    }

    /// Sharing-pattern analytics, if enabled.
    #[must_use]
    pub fn sharing(&self) -> Option<&SharingTracker> {
        self.sharing.as_ref()
    }

    /// Directory transactions currently in flight (an occupancy gauge for
    /// the epoch sampler).
    #[must_use]
    pub fn inflight_txns(&self) -> u64 {
        self.txns.len() as u64
    }

    /// Total sharer registrations (sharer-vector bits plus owners) across
    /// present directory entries — the epoch sampler's "sharer count"
    /// gauge. O(entries), so call per epoch, never per event.
    #[must_use]
    pub fn tracked_sharers(&self) -> u64 {
        self.entries
            .iter()
            .filter(|(_, e)| !e.reserved)
            .map(|(_, e)| e.sharers.len() as u64 + u64::from(e.owner.is_some()))
            .sum()
    }

    /// Overrides the watchdog's per-transaction age limit (ticks).
    pub fn set_watchdog_limit(&mut self, ticks: u64) {
        self.watchdog_limit = ticks;
    }

    /// Whether some transaction has been in flight for more than the
    /// watchdog limit at `now`. Reads the transaction records and
    /// schedules nothing, so an untripped watchdog cannot move a metric.
    #[must_use]
    pub fn watchdog_expired(&self, now: Tick) -> bool {
        self.live_txns().any(|(_, t)| now.delta_since(t.arrived) > self.watchdog_limit)
    }

    /// Structured dump of in-flight transactions with their ages, oldest
    /// first — the payload of `SimError::Deadlock` snapshots.
    #[must_use]
    pub fn stuck_lines(&self, now: Tick) -> Vec<StuckLine> {
        let mut v: Vec<StuckLine> = self
            .live_txns()
            .map(|(la, t)| StuckLine {
                line: la,
                age: now.delta_since(t.arrived),
                detail: format!(
                    "{} {} acks={} unblock={} fetch={} responded={} queued={} state={:?}",
                    if t.origin.src == AgentId::Directory { "BackInval" } else { "Request" },
                    t.origin.kind.class_name(),
                    t.pending_acks,
                    matches!(t.reply, Reply::Awaiting | Reply::Unblocked),
                    match t.fetch {
                        Fetch::Deferred => "deferred",
                        Fetch::Pipeline => "pipeline",
                        Fetch::Elapsed => "elapsed",
                        Fetch::Memory => "memory",
                        Fetch::Llc(_) => "llc",
                        Fetch::Mem(_) => "mem",
                    },
                    t.reply == Reply::Early,
                    t.queued.len(),
                    t.start_state,
                ),
            })
            .collect();
        v.sort_by(|a, b| b.age.cmp(&a.age).then(a.line.cmp(&b.line)));
        v
    }

    /// The NoC endpoint.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        AgentId::Directory
    }

    /// Directory statistics (`dir.probes_sent`, `dir.requests.<Class>`,
    /// `dir.entry_evictions`, the wrapped `llc.*` counters, and the
    /// transaction-latency summary `dir.txn_latency_*`). The fixed keys
    /// and the request classes export even at 0, so reports and time
    /// series list quiet counters; the fault and race diagnostics only
    /// once they fire.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let n = &self.n;
        let mut s = StatSet::new();
        for (key, v) in [
            ("dir.probes_sent", n.probes_sent),
            ("dir.queued_requests", n.queued_requests),
            ("dir.entry_evictions", self.transitions.entering(DT_B, DC_BACK_INVAL)),
            ("dir.backinval_probes", n.backinval_probes),
            ("dir.early_responses", n.early_responses),
            ("dir.atomics", n.atomics),
            ("dir.alloc_park_on_busy", n.alloc_park_on_busy),
            ("dir.lazy_llc_reads", n.lazy_llc_reads),
            ("dir.clean_vics_dropped", n.clean_vics_dropped),
        ] {
            s.set(key, v);
        }
        let requests = [
            "RdBlk", "RdBlkS", "RdBlkM", "VicDirty", "VicClean", "WT", "Atomic", "Flush", "DmaRd",
            "DmaWr",
        ];
        n.requests.export("dir.requests", &requests, &mut s);
        s.set_nonzero("dir.unexpected_msgs", n.unexpected.total());
        n.unexpected.export("dir.unexpected", &[], &mut s);
        for (key, v) in [
            ("dir.stale_vics_dropped", n.stale_vics_dropped),
            ("dir.stale_probe_acks", n.stale_probe_acks),
            ("dir.stale_mem_resps", n.stale_mem_resps),
            ("dir.stale_unblocks", n.stale_unblocks),
        ] {
            s.set_nonzero(key, v);
        }
        s.merge(&self.llc.stats());
        s.set("dir.txn_latency_count", n.txn_latency_count);
        // 0 / 0 is NaN, which casts to 0: the mean of no transactions.
        let mean = n.txn_latency_total as f64 / n.txn_latency_count as f64;
        s.set("dir.txn_latency_mean_ticks", mean as u64);
        s.set("dir.txn_latency_max_ticks", n.txn_latency_max);
        s
    }

    /// Whether no transaction is in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.txns.is_empty() && self.internal.is_empty()
    }

    /// Whether a transaction is currently active on `la`. The model
    /// checker only asserts cache-copy invariants on *settled* lines —
    /// mid-transaction states legitimately hold transient combinations.
    #[must_use]
    pub fn has_active_txn(&self, la: LineAddr) -> bool {
        self.txns.contains_key(la)
    }

    /// Folds all protocol-relevant directory state into `h` for the system
    /// state fingerprint: LLC contents, directory entries, every in-flight
    /// transaction (minus its arrival time), stale-victim bookkeeping and
    /// the multiset of internally queued pipeline slots. Timing and
    /// statistics are excluded — same scoping rules as
    /// `CorePair::hash_state`.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.llc.hash_state(h);
        self.entries.hash_state(h);
        for (la, t) in self.live_txns() {
            la.hash(h);
            t.origin.hash(h);
            t.planned.hash(h);
            t.pending_acks.hash(h);
            t.dirty_data.hash(h);
            t.copies_found.hash(h);
            t.fetch.hash(h);
            t.reply.hash(h);
            t.queued.hash(h);
            t.parked_allocs.hash(h);
            t.start_state.hash(h);
        }
        self.stale_vics.hash(h);
        // Internal pipeline slots, as a multiset: their ticks are timing.
        let mut slots: Vec<LineAddr> = self.internal.iter().map(|&(_, la)| la).collect();
        slots.sort_unstable();
        slots.hash(h);
    }

    /// The LLC, for end-of-run memory reconstruction.
    #[must_use]
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// In-flight transactions in line order.
    fn live_txns(&self) -> impl Iterator<Item = (LineAddr, &DirTxn)> {
        self.txns.iter().map(|(la, &id)| (la, &self.txn_slab[id]))
    }

    /// Files `txn` as the transaction in flight on `line`.
    fn open_txn(&mut self, line: LineAddr, txn: DirTxn) -> usize {
        let id = if let Some(id) = self.free_txns.pop() {
            self.txn_slab[id] = txn;
            id
        } else {
            self.txn_slab.push(txn);
            self.txn_slab.len() - 1
        };
        self.txns.insert(line, id);
        id
    }

    /// Handles a message delivered to the directory: the one place a probe
    /// ack, memory reply or unblock meets the line's transaction. What that
    /// transaction takes drives it on in `try_complete`; anything else is
    /// counted and dropped.
    pub fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        if msg.kind.is_dir_request() {
            self.handle_request(now, *msg, out);
            return;
        }
        let txn = self.txns.get(msg.line).map(|&id| (id, &mut self.txn_slab[id]));
        let id = match (&msg.kind, txn) {
            (MsgKind::ProbeAck { dirty, had_copy, was_parked }, Some((id, txn)))
                if txn.pending_acks > 0 =>
            {
                txn.pending_acks -= 1;
                txn.copies_found += u32::from(*had_copy);
                if txn.dirty_data.is_none() {
                    txn.dirty_data = *dirty;
                }
                if *was_parked {
                    if let Err(i) = self.stale_vics.binary_search(&(msg.line, msg.src)) {
                        self.stale_vics.insert(i, (msg.line, msg.src));
                    }
                }
                id
            }
            (MsgKind::MemRdResp { data }, Some((id, txn))) if txn.fetch == Fetch::Memory => {
                txn.fetch = Fetch::Mem(*data);
                id
            }
            (MsgKind::Unblock, Some((id, txn))) if txn.reply == Reply::Awaiting => {
                txn.reply = Reply::Unblocked;
                id
            }
            // Nothing waits for it: a duplicate under fault injection (an
            // L2 answers even a duplicated response with an unblock), or a
            // message outliving its transaction.
            (MsgKind::ProbeAck { .. }, _) => {
                self.n.stale_probe_acks += 1;
                return;
            }
            (MsgKind::MemRdResp { .. }, _) => {
                self.n.stale_mem_resps += 1;
                return;
            }
            (MsgKind::Unblock, _) => {
                self.n.stale_unblocks += 1;
                return;
            }
            (other, _) => {
                // A class the directory never consumes (a mis-wired
                // controller or a duplication fault).
                self.n.unexpected.bump(other);
                return;
            }
        };
        self.try_complete(now, id, out);
    }

    /// Fires due internal events (LLC pipeline slots).
    pub fn on_wake(&mut self, now: Tick, out: &mut Outbox) {
        while self.internal.front().is_some_and(|&(t, _)| t <= now) {
            let (_, line) = self.internal.pop_front().expect("the front slot is due");
            if let Some(&id) = self.txns.get(line) {
                let txn = &mut self.txn_slab[id];
                if txn.fetch == Fetch::Pipeline {
                    txn.fetch = Fetch::Elapsed;
                    self.try_complete(now, id, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // request intake
    // ------------------------------------------------------------------

    fn handle_request(&mut self, now: Tick, msg: Message, out: &mut Outbox) {
        if let Some(&id) = self.txns.get(msg.line) {
            self.txn_slab[id].queued.push_back(msg);
            self.n.queued_requests += 1;
            return;
        }
        self.start_txn(now, msg, VecDeque::new(), out);
    }

    /// Starts a transaction; `carry` is the queue inherited from a
    /// predecessor on the same line.
    fn start_txn(&mut self, now: Tick, msg: Message, carry: VecDeque<Message>, out: &mut Outbox) {
        debug_assert!(!self.txns.contains_key(msg.line));
        self.n.requests.bump(&msg.kind);
        let req = PlanReq::of(&msg.kind).expect("on_message queues directory requests only");

        // The one scan of the entry set this request pays for; everything
        // below works from the copy. (Stateless runs keep no entries.)
        let tracks = self.cfg.directory.tracks();
        let entry =
            if tracks { self.entries.get(msg.line).filter(|e| !e.reserved).copied() } else { None };
        let is_owner = entry.is_some_and(|e| e.state == DirState::O && e.owner == Some(msg.src));

        // Stale-victim filter: a probe already consumed this write-back,
        // or (tracking) a VicDirty comes from a non-owner. Ack, no write.
        if (matches!(req, PlanReq::VicDirty | PlanReq::VicClean)
            && self.take_stale_vic(msg.line, msg.src))
            || (tracks && req == PlanReq::VicDirty && !is_owner)
        {
            self.n.stale_vics_dropped += 1;
            out.send_after(
                gpu_cycles(self.uncore.dir_cycles),
                Message::new(AgentId::Directory, msg.src, msg.line, MsgKind::VicAck),
            );
            self.resume_queue(now, msg.line, carry, out);
            return;
        }

        // Tracking mode: make room in the directory cache if this request
        // will allocate an entry.
        let allocates = tracks && req.allocates() && entry.is_none();
        if allocates && self.entries.set_is_full(msg.line) {
            self.begin_entry_eviction(now, msg, carry, out);
            return;
        }

        let role = Self::role_of(&msg, is_owner);
        let start_state = entry.map_or(DirState::I, |e| e.state);
        if let Some(sh) = &mut self.sharing {
            let sharers =
                entry.map_or(0, |e| e.sharers.len() as usize + usize::from(e.owner.is_some()));
            sh.on_lookup(sharers);
            if let Some(is_write) = req.writes() {
                sh.on_access(msg.line.0, msg.src, is_write);
            }
        }
        let tr = plan(self.cfg.directory, start_state, req, role);
        let lazy = tr.data == DataPlan::OwnerThenLlc;
        let fetch = if lazy { Fetch::Deferred } else { Fetch::Pipeline };
        let mut txn = DirTxn::new(msg, tr, fetch, start_state, now);
        txn.queued = carry;

        // Reserve the directory way so concurrent allocations in the same
        // set cannot oversubscribe it.
        if allocates {
            let outcome = self.entries.insert(msg.line, DirEntry::reserved());
            debug_assert!(
                matches!(outcome, hsc_mem::InsertOutcome::Inserted),
                "eviction handled above"
            );
        }

        txn.pending_acks = self.send_probes(msg.line, entry, msg.src, tr.probes, out);
        if let Some(sh) = self.sharing.as_mut() {
            sh.on_probes(txn.pending_acks as usize);
        }

        // Schedule the directory+LLC pipeline slot. Lazy data plans
        // (OwnerThenLlc) skip it until the owner turns out clean.
        if !lazy {
            let slot = now + gpu_cycles(self.uncore.dir_cycles + self.uncore.llc_cycles);
            self.schedule_llc_slot(slot, msg.line, out);
        }

        let id = self.open_txn(msg.line, txn);
        self.try_complete(now, id, out);
    }

    /// `is_owner`: the tracked entry names `msg.src` as the line's owner.
    fn role_of(msg: &Message, is_owner: bool) -> Requester {
        match msg.src {
            AgentId::CorePairL2(_) => {
                if is_owner {
                    Requester::CpuOwner
                } else {
                    Requester::Cpu
                }
            }
            AgentId::Tcc(_) => Requester::Tcc,
            AgentId::Dma => Requester::Dma,
            other => panic!("{other} cannot send directory requests"),
        }
    }

    fn all_caches(&self) -> impl Iterator<Item = AgentId> + '_ {
        (0..self.n_l2).map(AgentId::CorePairL2).chain((0..self.n_tcc).map(AgentId::Tcc))
    }

    /// Leaves in `targets` the caches a probe plan reaches, `requester`
    /// excepted. `entry`: the line's tracked entry as the transaction
    /// found it.
    fn resolve_probe_targets(
        &self,
        entry: Option<DirEntry>,
        requester: AgentId,
        probes: ProbePlan,
        targets: &mut Vec<AgentId>,
    ) {
        targets.clear();
        let others = self.all_caches().filter(|&a| a != requester);
        match probes {
            ProbePlan::None => {}
            ProbePlan::DowngradeOwner => {
                let owner = entry
                    .and_then(|e| e.owner)
                    .expect("DowngradeOwner plan requires a tracked owner");
                debug_assert_ne!(owner, requester);
                targets.push(owner);
            }
            ProbePlan::InvalidateTracked if self.cfg.directory.tracks_sharers() => {
                let entry = entry.expect("tracked plan requires an entry");
                targets.extend(entry.sharers.iter().filter(|&a| a != requester));
                if let Some(owner) = entry.owner {
                    if owner != requester && !targets.contains(&owner) {
                        targets.push(owner);
                    }
                }
            }
            // Owner-only tracking: identities unknown, broadcast.
            ProbePlan::InvalidateTracked
            | ProbePlan::BroadcastInvalidate
            | ProbePlan::BroadcastDowngrade => targets.extend(others),
        }
    }

    fn probe_kind(probes: ProbePlan) -> ProbeKind {
        match probes {
            ProbePlan::DowngradeOwner | ProbePlan::BroadcastDowngrade => ProbeKind::Downgrade,
            _ => ProbeKind::Invalidate,
        }
    }

    /// Probes for `line` every cache the plan reaches (see
    /// [`Self::resolve_probe_targets`]); returns how many acks to wait for.
    fn send_probes(
        &mut self,
        line: LineAddr,
        entry: Option<DirEntry>,
        requester: AgentId,
        probes: ProbePlan,
        out: &mut Outbox,
    ) -> u32 {
        let mut targets = std::mem::take(&mut self.probe_targets);
        self.resolve_probe_targets(entry, requester, probes, &mut targets);
        let kind = Self::probe_kind(probes);
        for &dst in &targets {
            self.n.probes_sent += 1;
            out.send_after(
                gpu_cycles(self.uncore.dir_cycles),
                Message::new(AgentId::Directory, dst, line, MsgKind::Probe { kind }),
            );
        }
        let sent = targets.len() as u32;
        self.probe_targets = targets;
        sent
    }

    /// Queues an LLC pipeline slot for `line` due at `at` behind every
    /// slot due no later, and arms the wake-up that fires it. Searching
    /// from the back: with two fixed delays a new slot is almost always
    /// the latest.
    fn schedule_llc_slot(&mut self, at: Tick, line: LineAddr, out: &mut Outbox) {
        let mut i = self.internal.len();
        while i > 0 && self.internal[i - 1].0 > at {
            i -= 1;
        }
        self.internal.insert(i, (at, line));
        out.wake_at(at);
    }

    /// Forgets that a probe consumed `src`'s victim write-back of `line`;
    /// whether it had.
    fn take_stale_vic(&mut self, line: LineAddr, src: AgentId) -> bool {
        self.stale_vics.binary_search(&(line, src)).map(|i| self.stale_vics.remove(i)).is_ok()
    }

    fn begin_entry_eviction(
        &mut self,
        now: Tick,
        parked: Message,
        carry: VecDeque<Message>,
        out: &mut Outbox,
    ) {
        // Victim among non-blocked, non-reserved entries of the set.
        let txns = &self.txns;
        let repl = self.cfg.dir_replacement;
        let pick = self.entries.victim_scored(parked.line, |tag, e| {
            if txns.contains_key(tag) || e.reserved {
                1_000_000
            } else {
                match repl {
                    DirReplacementPolicy::TreePlru => 0,
                    DirReplacementPolicy::StateAware => e.state_aware_score(),
                }
            }
        });
        let Some(way) = pick else {
            unreachable!("set_is_full was checked");
        };
        let victim = self.entries.tag(way);
        let ventry = *self.entries.meta(way);
        if self.txns.contains_key(victim) || ventry.reserved {
            // Every way is busy: park on the first active transaction in
            // way order.
            let busy = self
                .entries
                .iter_set(parked.line)
                .find_map(|(tag, _)| self.txns.get(tag))
                .expect("a full set with no evictable way has a busy transaction");
            self.n.alloc_park_on_busy += 1;
            let busy = &mut self.txn_slab[*busy];
            busy.parked_allocs.push(parked);
            busy.parked_allocs.extend(carry);
            return;
        }
        // Start the backward invalidation (transient B state).
        self.transitions.record(dt(ventry.state), DT_B, DC_BACK_INVAL);
        let origin = Message::new(AgentId::Directory, AgentId::Directory, victim, MsgKind::Flush);
        let tr = BACK_INVALIDATION;
        // Back-invals need no LLC slot of their own.
        let mut txn = DirTxn::new(origin, tr, Fetch::Elapsed, ventry.state, now);
        txn.parked_allocs.push(parked);
        txn.parked_allocs.extend(carry);
        // The directory is nobody's sharer: its own id excludes no cache.
        txn.pending_acks = self.send_probes(victim, Some(ventry), origin.src, tr.probes, out);
        self.n.backinval_probes += u64::from(txn.pending_acks);
        let id = self.open_txn(victim, txn);
        self.try_complete(now, id, out);
    }

    // ------------------------------------------------------------------
    // completion
    // ------------------------------------------------------------------

    /// Drives transaction `id` as far as its inputs allow: the one place a
    /// transaction is finished and every reply sent.
    fn try_complete(&mut self, now: Tick, id: usize, out: &mut Outbox) {
        let txn = &mut self.txn_slab[id];
        let line = txn.origin.line;
        // §III-A: a read is answered on its first dirty probe ack, before
        // the rest of the round is in. A CPU read then ends as every CPU
        // read does: its transition applied, its line awaiting the unblock.
        if self.cfg.early_dirty_response
            && txn.reply == Reply::Owed
            && PlanReq::of(&txn.origin.kind).and_then(PlanReq::writes) == Some(false)
        {
            if let Some(data) = txn.dirty_data {
                self.n.early_responses += 1;
                let kind = if txn.origin.kind == MsgKind::DmaRd {
                    MsgKind::DmaRdResp { data }
                } else {
                    MsgKind::Resp { data, grant: Grant::Shared }
                };
                out.send(Message::new(AgentId::Directory, txn.origin.src, line, kind));
                if txn.origin.src.is_cpu_cache() {
                    txn.reply = Reply::Awaiting;
                    self.apply_transition(id);
                } else {
                    txn.reply = Reply::Early;
                }
            }
        }
        let txn = &mut self.txn_slab[id];
        if txn.pending_acks > 0 || txn.reply == Reply::Awaiting {
            return;
        }
        if txn.reply == Reply::Unblocked {
            // Only now, with its probe round in: a late ack would count
            // towards the next transaction's round (§III-A early response).
            self.finish_txn(now, id, out);
            return;
        }
        if txn.origin.src == AgentId::Directory {
            // A back-invalidation's acks are in: reconcile dirty data and
            // free the entry.
            let dirty = txn.dirty_data.take();
            let state = txn.start_state;
            if let Some(data) = dirty {
                debug_assert_eq!(state, DirState::O);
                self.write_victim(line, data, true, out);
            }
            self.entries.invalidate(line);
            self.transitions.record(DT_B, DT_I, DC_BACK_INVAL);
            self.finish_txn(now, id, out);
            return;
        }

        let origin = txn.origin;

        // Resolve the data. The LLC is read, and on a miss `MemRd` sent,
        // only once the probe round is in (`Fetch::Elapsed` is that wait),
        // not in parallel with the probes as in gem5's Fig. 2 `_PM` states
        // (ROADMAP, "Fig. 2's overlapped LLC/memory read, under the
        // checker"). The read completes even when a probe ack
        // already forwarded dirty data — the dirty data only overrides the
        // *payload*. Only the tracked OwnerThenLlc plan elides the LLC read
        // outright (§IV-A); §III-A's early answer to a TCC or DMA read,
        // sent above, does not cut the wait short.
        let dirty_ack = txn.dirty_data;
        let data = match (txn.planned.data, txn.fetch) {
            // The slot (which data-less requests hold too) or memory.
            (_, Fetch::Pipeline | Fetch::Memory) => return,
            (DataPlan::None, _) => dirty_ack,
            // The owner forwarded dirty data: LLC read elided.
            (DataPlan::OwnerThenLlc, _) if dirty_ack.is_some() => dirty_ack,
            (_, Fetch::Deferred) => {
                // Lazy plan (OwnerThenLlc) whose owner turned out clean.
                txn.fetch = Fetch::Pipeline;
                self.n.lazy_llc_reads += 1;
                let slot = now + gpu_cycles(self.uncore.llc_cycles);
                self.schedule_llc_slot(slot, line, out);
                return;
            }
            (_, Fetch::Elapsed) => {
                let Some(d) = self.llc.read(line) else {
                    txn.fetch = Fetch::Memory;
                    out.send(Message::new(
                        AgentId::Directory,
                        AgentId::Memory,
                        line,
                        MsgKind::MemRd,
                    ));
                    return;
                };
                txn.fetch = Fetch::Llc(d);
                dirty_ack.or(Some(d))
            }
            (_, Fetch::Llc(d) | Fetch::Mem(d)) => dirty_ack.or(Some(d)),
        };

        // All inputs ready: perform the request's effect and name its reply.
        let reply = match origin.kind {
            MsgKind::RdBlk | MsgKind::RdBlkS | MsgKind::RdBlkM => {
                if txn.planned.grant == GrantPlan::Upgrade {
                    Some(MsgKind::UpgradeAck)
                } else if txn.reply == Reply::Early {
                    None // §III-A: the early response is already out
                } else {
                    let data = data.expect("read requests resolve data");
                    let others_hold = dirty_ack.is_some() || txn.copies_found > 0;
                    let grant = Self::response_grant(txn.planned.grant, others_hold)
                        .expect("read grants are S/E/M/upgrade");
                    Some(MsgKind::Resp { data, grant })
                }
            }
            MsgKind::VicDirty { data } => {
                self.write_victim(line, data, true, out);
                Some(MsgKind::VicAck)
            }
            MsgKind::VicClean { data } => {
                match self.cfg.clean_victims {
                    CleanVictimPolicy::Drop => {
                        self.n.clean_vics_dropped += 1;
                    }
                    CleanVictimPolicy::WriteLlcOnly => {
                        self.write_victim(line, data, false, out);
                    }
                    CleanVictimPolicy::WriteLlcAndMemory => {
                        self.write_victim(line, data, false, out);
                        self.mem_write(line, data, out);
                    }
                }
                Some(MsgKind::VicAck)
            }
            MsgKind::WriteThrough { data: wt_data, mask, .. } => {
                self.perform_system_write(line, &wt_data, mask, dirty_ack, out);
                Some(MsgKind::WtAck)
            }
            MsgKind::AtomicReq { word, op } => {
                let mut base = data.expect("atomics resolve data");
                let old = base.apply_atomic(line.word_addr(word as usize), op);
                self.perform_system_write(line, &base, WordMask::full(), None, out);
                self.n.atomics += 1;
                Some(MsgKind::AtomicResp { old })
            }
            MsgKind::Flush => Some(MsgKind::FlushAck),
            MsgKind::DmaRd => (txn.reply != Reply::Early)
                .then(|| MsgKind::DmaRdResp { data: data.expect("DMA reads resolve data") }),
            MsgKind::DmaWr { data: dma_data, mask } => {
                // "DMA accesses do not update the L3": merge over the
                // freshest base and write memory, dropping any LLC copy.
                let base = dirty_ack.or_else(|| self.llc.peek(line).map(|l| l.data));
                if let Some(mut full) = base {
                    mask.apply(&mut full, &dma_data);
                    self.mem_write(line, full, out);
                } else {
                    self.mem_write_masked(line, dma_data, mask, out);
                }
                self.llc.invalidate(line);
                Some(MsgKind::DmaWrAck)
            }
            ref other => panic!("{} is not a directory request", other.class_name()),
        };

        // The one reply tail; a CPU read's line waits for the unblock.
        self.apply_transition(id);
        if let Some(kind) = reply {
            out.send(Message::new(AgentId::Directory, origin.src, line, kind));
        }
        let reads = matches!(origin.kind, MsgKind::RdBlk | MsgKind::RdBlkS | MsgKind::RdBlkM);
        if reads && origin.src.is_cpu_cache() {
            self.txn_slab[id].reply = Reply::Awaiting;
        } else {
            self.finish_txn(now, id, out);
        }
    }

    /// The permission a planned grant puts on the data response, `None`
    /// for plans that send none; `others_hold` = a probe found a copy or
    /// brought back dirty data.
    fn response_grant(grant: GrantPlan, others_hold: bool) -> Option<Grant> {
        match grant {
            GrantPlan::None | GrantPlan::Upgrade => None,
            GrantPlan::Shared => Some(Grant::Shared),
            GrantPlan::Exclusive => Some(Grant::Exclusive),
            GrantPlan::ExclusiveUnlessShared if others_hold => Some(Grant::Shared),
            GrantPlan::ExclusiveUnlessShared => Some(Grant::Exclusive),
            GrantPlan::Modified => Some(Grant::Modified),
        }
    }

    /// Applies the §IV next-state transition once a transaction's effects
    /// are decided.
    fn apply_transition(&mut self, id: usize) {
        let txn = &self.txn_slab[id];
        let tr = txn.planned;
        if tr.next == NextState::Unchanged {
            // Every stateless row, and Flush / DMA reads under tracking:
            // no entry to look up.
            return;
        }
        let line = txn.origin.line;
        let requester = txn.origin.src;
        let way = self.entries.lookup(line);
        let current = way.map(|w| *self.entries.meta(w));
        let base = current.filter(|e| !e.reserved);
        let next: Option<DirEntry> = match tr.next {
            NextState::Unchanged => unreachable!("returned above"),
            NextState::I => None,
            NextState::SAddRequester => {
                let mut e = base.unwrap_or(DirEntry {
                    state: DirState::S,
                    owner: None,
                    sharers: SharerSet::new(),
                    reserved: false,
                });
                e.state = DirState::S;
                e.owner = None;
                e.sharers.add(requester);
                Some(e)
            }
            NextState::SOnlyRequester => {
                let mut sharers = SharerSet::new();
                sharers.add(requester);
                Some(DirEntry { state: DirState::S, owner: None, sharers, reserved: false })
            }
            NextState::SDropRequester => base.and_then(|mut e| {
                e.sharers.remove(requester);
                if e.sharers.is_empty() {
                    None
                } else {
                    Some(e)
                }
            }),
            NextState::ORequester => Some(DirEntry {
                state: DirState::O,
                owner: Some(requester),
                sharers: SharerSet::new(),
                reserved: false,
            }),
            NextState::OAddSharer => {
                let mut e = base.expect("OAddSharer requires an existing entry");
                if txn.dirty_data.is_some() {
                    // The owner forwarded dirty data (M→O): it keeps
                    // ownership and the requester joins as a sharer.
                    e.sharers.add(requester);
                } else {
                    // Clean ack: the owner's line was silently-E and the
                    // downgrade probe left it S. Nobody owns dirty data,
                    // so the entry relaxes to S over everyone — keeping O
                    // here is what loses track of sharers when the
                    // ex-owner later sends its VicClean.
                    if let Some(owner) = e.owner.take() {
                        e.sharers.add(owner);
                    }
                    e.sharers.add(requester);
                    e.state = DirState::S;
                }
                Some(e)
            }
            NextState::OOwnerUpgrade => {
                let mut e = base.expect("upgrade requires an existing entry");
                debug_assert_eq!(e.owner, Some(requester));
                e.sharers = SharerSet::new();
                Some(e)
            }
            NextState::ODropSharer => base.map(|mut e| {
                e.sharers.remove(requester);
                e
            }),
            NextState::SFromOwnerWriteback => base.and_then(|mut e| {
                debug_assert_eq!(e.owner, Some(requester));
                e.owner = None;
                if e.sharers.is_empty() {
                    None
                } else {
                    e.state = DirState::S;
                    Some(e)
                }
            }),
        };
        let from = base.map_or(DT_I, |e| dt(e.state));
        let to = next.as_ref().map_or(DT_I, |e| dt(e.state));
        let cause = PlanReq::of(&txn.origin.kind).expect("a request transaction");
        self.transitions.record(from, to, cause.index());
        match (way, next) {
            (Some(w), Some(e)) => {
                *self.entries.meta_mut(w) = e;
                self.entries.touch_way(w);
            }
            (Some(w), None) => {
                self.entries.invalidate_way(w);
            }
            (None, Some(e)) => {
                // Reserved at start for allocating requests; others (e.g.
                // a WT that retains) may allocate here. The way is free
                // because start_txn reserved it or the set has room
                // (eviction handled at start): an eviction here would drop
                // a tracked entry without its back-invalidation.
                let outcome = self.entries.insert(line, e);
                debug_assert!(
                    matches!(outcome, hsc_mem::InsertOutcome::Inserted),
                    "inserting {line}'s entry evicted another"
                );
            }
            (None, None) => {}
        }
    }

    // ------------------------------------------------------------------
    // write plumbing
    // ------------------------------------------------------------------

    /// Writes a victim line into the LLC under the configured policies.
    fn write_victim(&mut self, line: LineAddr, data: LineData, dirty: bool, out: &mut Outbox) {
        let llc_dirty = dirty && self.cfg.llc_policy == LlcWritePolicy::WriteBack;
        if dirty && self.cfg.llc_policy == LlcWritePolicy::WriteThrough {
            self.mem_write(line, data, out);
        }
        if let Some(ev) = self.llc.write(line, data, llc_dirty) {
            if ev.dirty {
                // §III-C: LLC evictions of dirty lines are the deferred
                // memory writes.
                self.mem_write(ev.tag, ev.data, out);
            }
        }
    }

    /// GPU write-through / atomic-result write: honours `useL3OnWT` and
    /// keeps the LLC coherent when bypassing it.
    fn perform_system_write(
        &mut self,
        line: LineAddr,
        data: &LineData,
        mask: WordMask,
        dirty_base: Option<LineData>,
        out: &mut Outbox,
    ) {
        let full = dirty_base
            .map(|mut base| {
                mask.apply(&mut base, data);
                base
            })
            .or_else(|| (mask == WordMask::full()).then_some(*data));
        if self.cfg.use_l3_on_wt {
            let as_dirty = self.cfg.llc_policy == LlcWritePolicy::WriteBack;
            let wrote_llc = if let Some(full) = full {
                if let Some(ev) = self.llc.write(line, full, as_dirty) {
                    if ev.dirty {
                        self.mem_write(ev.tag, ev.data, out);
                    }
                }
                true
            } else {
                self.llc.merge(line, data, mask, as_dirty)
            };
            match (wrote_llc, self.cfg.llc_policy) {
                (true, LlcWritePolicy::WriteBack) => {} // deferred
                (true, LlcWritePolicy::WriteThrough) | (false, _) => {
                    if let Some(full) = full {
                        self.mem_write(line, full, out);
                    } else {
                        self.mem_write_masked(line, *data, mask, out);
                    }
                }
            }
        } else {
            // Bypass the LLC but keep any cached copy coherent by merging
            // in place — the whole of `full` when there is one: a dirty
            // probe ack is newer than the LLC copy in words the mask does
            // not cover. Dirty LLC lines stay dirty (their unwritten words
            // are still newer than memory).
            if let Some(full) = full {
                self.llc.merge(line, &full, WordMask::full(), false);
                self.mem_write(line, full, out);
            } else {
                self.llc.merge(line, data, mask, false);
                self.mem_write_masked(line, *data, mask, out);
            }
        }
    }

    fn mem_write(&mut self, line: LineAddr, data: LineData, out: &mut Outbox) {
        self.mem_write_masked(line, data, WordMask::full(), out);
    }

    fn mem_write_masked(
        &mut self,
        line: LineAddr,
        data: LineData,
        mask: WordMask,
        out: &mut Outbox,
    ) {
        out.send(Message::new(
            AgentId::Directory,
            AgentId::Memory,
            line,
            MsgKind::MemWr { data, mask },
        ));
    }

    // ------------------------------------------------------------------
    // teardown / queue resumption
    // ------------------------------------------------------------------

    /// Retires transaction `id` and restarts what waited on it. `id` is
    /// dead once this returns: the slot is on the free list before the
    /// parked and queued requests are re-dispatched, and one of them may
    /// already have taken it.
    fn finish_txn(&mut self, now: Tick, id: usize, out: &mut Outbox) {
        let txn = &mut self.txn_slab[id];
        let line = txn.origin.line;
        let parked_allocs = std::mem::take(&mut txn.parked_allocs);
        let queued = std::mem::take(&mut txn.queued);
        if txn.origin.src != AgentId::Directory {
            let latency = now.delta_since(txn.arrived);
            self.n.txn_latency_count += 1;
            self.n.txn_latency_total += latency;
            self.n.txn_latency_max = self.n.txn_latency_max.max(latency);
        }
        self.txns.remove(line).expect("finishing a live transaction");
        self.free_txns.push(id);
        // Re-dispatch requests that were waiting for a directory way.
        for parked in parked_allocs {
            self.handle_request(now, parked, out);
        }
        self.resume_queue(now, line, queued, out);
    }

    fn resume_queue(
        &mut self,
        now: Tick,
        line: LineAddr,
        mut queue: VecDeque<Message>,
        out: &mut Outbox,
    ) {
        // Start the next queued request, if any. If it completes
        // synchronously (e.g. a filtered stale victim), start_txn resumes
        // the remaining queue itself; otherwise the new transaction
        // inherits it via `carry`.
        if let Some(next) = queue.pop_front() {
            debug_assert!(!self.txns.contains_key(line), "line still blocked");
            self.start_txn(now, next, std::mem::take(&mut queue), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stateless directory as it was written before its rows moved
    /// into [`plan`] (its probe-plan and read-grant functions), kept as the
    /// reference the table is compared against: resolved probe kind,
    /// targets, data plan and response grant.
    fn stateless_oracle(
        msg: &Message,
        others_hold: bool,
        n_l2: usize,
        n_tcc: usize,
    ) -> (Option<ProbeKind>, Vec<AgentId>, DataPlan, Option<Grant>) {
        let (kind, data) = match msg.kind {
            MsgKind::RdBlk | MsgKind::RdBlkS | MsgKind::DmaRd => {
                (Some(ProbeKind::Downgrade), DataPlan::LlcOrMemory)
            }
            MsgKind::RdBlkM | MsgKind::AtomicReq { .. } => {
                (Some(ProbeKind::Invalidate), DataPlan::LlcOrMemory)
            }
            MsgKind::WriteThrough { .. } | MsgKind::DmaWr { .. } => {
                (Some(ProbeKind::Invalidate), DataPlan::None)
            }
            MsgKind::VicDirty { .. } | MsgKind::VicClean { .. } | MsgKind::Flush => {
                (None, DataPlan::None)
            }
            ref other => panic!("{} is not a request", other.class_name()),
        };
        let targets = (0..n_l2)
            .map(AgentId::CorePairL2)
            .chain((0..n_tcc).map(AgentId::Tcc))
            .filter(|_| kind.is_some())
            .filter(|&a| a != msg.src)
            .collect();
        let grant = match msg.kind {
            MsgKind::RdBlkS => Some(Grant::Shared),
            MsgKind::RdBlkM => Some(Grant::Modified),
            MsgKind::RdBlk if msg.src.is_gpu_cache() || others_hold => Some(Grant::Shared),
            MsgKind::RdBlk => Some(Grant::Exclusive),
            _ => None,
        };
        (kind, targets, data, grant)
    }

    #[test]
    fn stateless_rows_match_the_forked_code_they_replaced() {
        use hsc_mem::AtomicKind;
        const N_L2: usize = 4;
        let data = LineData::zeroed();
        let mask = WordMask::full();
        let cpu = AgentId::CorePairL2(2);
        let tcc = AgentId::Tcc(0);
        let requests = [
            (cpu, MsgKind::RdBlk),
            (tcc, MsgKind::RdBlk),
            (cpu, MsgKind::RdBlkS),
            (tcc, MsgKind::RdBlkS),
            (cpu, MsgKind::RdBlkM),
            (tcc, MsgKind::RdBlkM),
            (cpu, MsgKind::VicDirty { data }),
            (cpu, MsgKind::VicClean { data }),
            (tcc, MsgKind::WriteThrough { data, mask, retains: true }),
            (tcc, MsgKind::WriteThrough { data, mask, retains: false }),
            (tcc, MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(1) }),
            (tcc, MsgKind::Flush),
            (AgentId::Dma, MsgKind::DmaRd),
            (AgentId::Dma, MsgKind::DmaWr { data, mask }),
        ];
        for n_tcc in [1, 2] {
            let cfg = CoherenceConfig::baseline();
            let dir = Directory::new(cfg, UncoreConfig::default(), N_L2, n_tcc);
            for (src, kind) in requests {
                let msg = Message::new(src, AgentId::Directory, LineAddr(7), kind);
                let req = PlanReq::of(&kind).expect("a request");
                let role = Directory::role_of(&msg, false);
                let tr = plan(cfg.directory, DirState::I, req, role);
                assert_eq!(tr.next, NextState::Unchanged);
                let mut targets = Vec::new();
                dir.resolve_probe_targets(None, src, tr.probes, &mut targets);
                let probe =
                    (tr.probes != ProbePlan::None).then(|| Directory::probe_kind(tr.probes));
                for others_hold in [false, true] {
                    let got = (
                        probe,
                        targets.clone(),
                        tr.data,
                        Directory::response_grant(tr.grant, others_hold),
                    );
                    let want = stateless_oracle(&msg, others_hold, N_L2, n_tcc);
                    assert_eq!(
                        got, want,
                        "{req:?} from {src}, others_hold={others_hold}, {n_tcc} TCC(s)"
                    );
                }
            }
        }
    }

    /// LLC pipeline slots fire by due tick, then in schedule order, and a
    /// slot acts on whatever transaction its line has when it fires:
    /// simulated timing depends on all three.
    #[test]
    fn llc_slots_fire_by_tick_then_schedule_order_and_act_on_the_current_txn() {
        use hsc_noc::Action;
        /// The lines `out` asks memory for, in order: a slot that makes a
        /// transaction LLC-ready misses the empty LLC and sends one `MemRd`.
        fn mem_reads(out: &Outbox) -> Vec<LineAddr> {
            out.actions()
                .iter()
                .filter_map(|a| match a {
                    Action::Send(m) if m.kind == MsgKind::MemRd => Some(m.line),
                    _ => None,
                })
                .collect()
        }
        let uncore = UncoreConfig::default();
        let full = gpu_cycles(uncore.dir_cycles + uncore.llc_cycles);
        let lazy = gpu_cycles(uncore.llc_cycles);
        assert!(lazy < full);
        // One CorePair, no TCC: a read has nobody to probe and waits for
        // its slot alone.
        let cpu = AgentId::CorePairL2(0);
        let mut dir = Directory::new(CoherenceConfig::baseline(), uncore, 1, 0);
        let (a, b, c) = (LineAddr(0x10), LineAddr(0x20), LineAddr(0x30));
        let mut out = Outbox::new(Tick(0));
        for line in [c, a, b] {
            dir.on_message(
                Tick(0),
                &Message::new(cpu, AgentId::Directory, line, MsgKind::RdBlk),
                &mut out,
            );
        }
        // Scheduled last, due first: a lazy `llc_cycles`-only slot.
        dir.schedule_llc_slot(Tick(0) + lazy, b, &mut out);
        assert!(mem_reads(&out).is_empty(), "every read waits for its slot");

        let mut out = Outbox::new(Tick(0) + full);
        dir.on_wake(Tick(0) + full, &mut out);
        // `b`'s lazy slot, then the three full slots in schedule order;
        // `b`'s own full slot finds it ready and does nothing.
        assert_eq!(mem_reads(&out), [b, c, a]);
        assert!(dir.internal.is_empty());

        // A slot that outlives its transaction: `a` finishes early, its
        // successor opens before a second slot on `a` fires.
        dir.schedule_llc_slot(Tick(0) + full + 5, a, &mut out);
        let id = *dir.txns.get(a).expect("a is in flight");
        dir.finish_txn(Tick(0) + full, id, &mut out);
        assert!(!dir.is_idle(), "the orphan slot is still pending");
        let reopened = Tick(0) + full + 1;
        let mut out = Outbox::new(reopened);
        dir.on_message(
            reopened,
            &Message::new(cpu, AgentId::Directory, a, MsgKind::RdBlk),
            &mut out,
        );
        let mut out = Outbox::new(Tick(0) + full + 5);
        dir.on_wake(Tick(0) + full + 5, &mut out);
        assert_eq!(mem_reads(&out), [a], "the orphan readies the not-yet-ready successor");
        let mut out = Outbox::new(reopened + full);
        dir.on_wake(reopened + full, &mut out);
        assert!(mem_reads(&out).is_empty(), "its own slot finds it ready");
        assert!(dir.internal.is_empty());
    }

    /// Holds in release builds too: a plain `assert!`, not the debug-only
    /// shift-overflow check the sharer bitmaps would otherwise hit.
    #[test]
    #[should_panic(expected = "at most 64 CorePairs")]
    fn more_agents_than_sharer_bits_are_refused() {
        let _ = Directory::new(
            CoherenceConfig::sharer_tracking(),
            UncoreConfig::default(),
            MAX_SHARERS_PER_KIND + 1,
            1,
        );
    }
}

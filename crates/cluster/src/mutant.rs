//! Seeded protocol bugs: a checker that has never caught a bug proves
//! nothing, so a system can be built with one
//! (`SystemBuilder::with_mutant`) to show that `hsc-check` catches it.

/// Which seeded bug — one suppressed step in an otherwise-correct
/// transition — a system's controllers carry. A plain value, so systems
/// with different mutants can run side by side in one process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mutant {
    /// The correct protocol (the default).
    #[default]
    None,
    /// An L2 answering a probe that hits a dirty (M/O) line *forgets to
    /// forward the dirty data*, so the directory hands out stale bytes —
    /// a classic lost-update coherence bug.
    DropDirtyProbeData,
}

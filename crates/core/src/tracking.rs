//! What the directory does with a request, in every [`DirectoryMode`],
//! encoded as one classification and one pure transition table.
//!
//! [`PlanReq::of`] sorts an incoming message into its request class;
//! [`plan`] maps `(mode, directory state, request class, requester role)`
//! to a [`Transition`]: which probes to send, where the data comes from,
//! what permission to grant and the next directory state. The stateless
//! broadcast baseline (Fig. 2/3) and the precise state-tracking directory
//! of §IV are rows of the same table. The directory controller only
//! executes these plans; `hsc table 1` pretty-prints the §IV rows,
//! regenerating the paper's Table I.

use std::fmt;

use hsc_noc::{AgentId, MsgKind};

use crate::DirectoryMode;

/// The three stable states of the tracked directory entry (§IV-A).
///
/// `I` is represented by entry absence in the directory cache; the
/// transient `B` (entry being evicted) is an active back-invalidation
/// transaction on the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirState {
    /// Not cached in any processor cache.
    I,
    /// Cached, clean with respect to the LLC; reads need no probes.
    S,
    /// Modified (with possible dirty sharers) or Exclusive somewhere; the
    /// owner must be probed for reads and everyone for writes.
    O,
}

impl fmt::Display for DirState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DirState::I => "I",
            DirState::S => "S",
            DirState::O => "O",
        };
        f.write_str(s)
    }
}

/// A full-map sharer bitmap over the probe-able agents (L2s then TCCs).
///
/// Owner-tracking mode maintains the same set but only ever *counts* it
/// (broadcast instead of multicast) — the paper's area argument is about
/// not storing identities; the simulator keeps them for bookkeeping and
/// simply refuses to multicast in that mode.
///
/// # Examples
///
/// ```
/// use hsc_core::SharerSet;
/// use hsc_noc::AgentId;
///
/// let mut s = SharerSet::new();
/// s.add(AgentId::CorePairL2(1));
/// s.add(AgentId::Tcc(0));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(AgentId::CorePairL2(1)));
/// s.remove(AgentId::CorePairL2(1));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet {
    l2s: u64,
    tccs: u64,
}

/// The most CorePair L2s, and the most TCCs, a [`SharerSet`] can tell
/// apart: one bit each in a `u64`. [`crate::Directory::new`] refuses a
/// larger system, so the shifts below never see an index past it.
pub const MAX_SHARERS_PER_KIND: usize = 64;

impl SharerSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// Adds an agent.
    ///
    /// # Panics
    ///
    /// Panics if the agent is not a probe-able cache.
    pub fn add(&mut self, a: AgentId) {
        match a {
            AgentId::CorePairL2(i) => self.l2s |= 1 << i,
            AgentId::Tcc(i) => self.tccs |= 1 << i,
            other => panic!("{other} cannot be a sharer"),
        }
    }

    /// Removes an agent (no-op if absent).
    pub fn remove(&mut self, a: AgentId) {
        match a {
            AgentId::CorePairL2(i) => self.l2s &= !(1 << i),
            AgentId::Tcc(i) => self.tccs &= !(1 << i),
            _ => {}
        }
    }

    /// Whether the agent is in the set.
    #[must_use]
    pub fn contains(self, a: AgentId) -> bool {
        match a {
            AgentId::CorePairL2(i) => self.l2s & (1 << i) != 0,
            AgentId::Tcc(i) => self.tccs & (1 << i) != 0,
            _ => false,
        }
    }

    /// Number of sharers.
    #[must_use]
    pub fn len(self) -> u32 {
        self.l2s.count_ones() + self.tccs.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.l2s == 0 && self.tccs == 0
    }

    /// Iterates the members in (L2s, TCCs) order, each kind by ascending
    /// index.
    pub fn iter(self) -> impl Iterator<Item = AgentId> {
        set_bits(self.l2s).map(AgentId::CorePairL2).chain(set_bits(self.tccs).map(AgentId::Tcc))
    }
}

/// The indices of `word`'s set bits, ascending, visiting only those bits.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// One tracked directory entry (state `S` or `O`; `I` is absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Stable state (never `I`: absent entries are `I`).
    pub state: DirState,
    /// The owner, when `state == O`.
    pub owner: Option<AgentId>,
    /// Tracked sharers (excluding the owner).
    pub sharers: SharerSet,
    /// Placeholder reserved by an in-flight transaction; treated as `I`
    /// by lookups and never probed, but occupies the way so concurrent
    /// allocations in the same set cannot oversubscribe it.
    pub reserved: bool,
}

impl DirEntry {
    /// A reservation placeholder.
    #[must_use]
    pub fn reserved() -> Self {
        DirEntry { state: DirState::I, owner: None, sharers: SharerSet::new(), reserved: true }
    }

    /// The victim-selection score of the future-work state-aware
    /// replacement policy: prefer unmodified entries with the fewest
    /// sharers (§VII).
    #[must_use]
    pub fn state_aware_score(&self) -> u32 {
        let state_weight = match self.state {
            DirState::I => 0,
            DirState::S => 1,
            DirState::O => 100,
        };
        state_weight + self.sharers.len()
    }
}

/// The request classes the transition table distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanReq {
    /// Read-permission request (may earn Exclusive).
    RdBlk,
    /// Shared-only read (I-cache miss).
    RdBlkS,
    /// Write-permission request.
    RdBlkM,
    /// Dirty victim write-back.
    VicDirty,
    /// Clean victim notification.
    VicClean,
    /// GPU write-through; `retains` = TCC keeps a valid copy.
    WriteThrough {
        /// Whether the TCC still holds the line afterwards.
        retains: bool,
    },
    /// System-scope atomic.
    Atomic,
    /// DMA line read.
    DmaRd,
    /// DMA line write.
    DmaWr,
    /// Store-release fence.
    Flush,
}

impl PlanReq {
    /// The one `MsgKind → request class` table: the class of a message
    /// the directory treats as a request, `None` for everything else
    /// (acks, responses, memory traffic).
    #[must_use]
    pub fn of(kind: &MsgKind) -> Option<PlanReq> {
        Some(match kind {
            MsgKind::RdBlk => PlanReq::RdBlk,
            MsgKind::RdBlkS => PlanReq::RdBlkS,
            MsgKind::RdBlkM => PlanReq::RdBlkM,
            MsgKind::VicDirty { .. } => PlanReq::VicDirty,
            MsgKind::VicClean { .. } => PlanReq::VicClean,
            MsgKind::WriteThrough { retains, .. } => PlanReq::WriteThrough { retains: *retains },
            MsgKind::AtomicReq { .. } => PlanReq::Atomic,
            MsgKind::DmaRd => PlanReq::DmaRd,
            MsgKind::DmaWr { .. } => PlanReq::DmaWr,
            MsgKind::Flush => PlanReq::Flush,
            _ => return None,
        })
    }

    /// Position in declaration order: the cause index of this class in
    /// the directory's transition matrix.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PlanReq::RdBlk => 0,
            PlanReq::RdBlkS => 1,
            PlanReq::RdBlkM => 2,
            PlanReq::VicDirty => 3,
            PlanReq::VicClean => 4,
            PlanReq::WriteThrough { .. } => 5,
            PlanReq::Atomic => 6,
            PlanReq::DmaRd => 7,
            PlanReq::DmaWr => 8,
            PlanReq::Flush => 9,
        }
    }

    /// Whether a tracking directory needs an entry for the line once this
    /// request completes (and so must find or free a way before it starts).
    #[must_use]
    pub fn allocates(self) -> bool {
        match self {
            PlanReq::RdBlk | PlanReq::RdBlkS | PlanReq::RdBlkM => true,
            PlanReq::WriteThrough { retains } => retains,
            _ => false,
        }
    }

    /// `Some(true)` if the request writes the line, `Some(false)` if it
    /// only reads it, `None` for victims and `Flush`, which access no data
    /// on a program's behalf.
    #[must_use]
    pub fn writes(self) -> Option<bool> {
        match self {
            PlanReq::RdBlk | PlanReq::RdBlkS | PlanReq::DmaRd => Some(false),
            PlanReq::RdBlkM | PlanReq::WriteThrough { .. } | PlanReq::Atomic | PlanReq::DmaWr => {
                Some(true)
            }
            PlanReq::VicDirty | PlanReq::VicClean | PlanReq::Flush => None,
        }
    }
}

/// Who is asking, as far as the transition table cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// A CorePair L2 that is not the tracked owner.
    Cpu,
    /// The tracked owner itself (Table I footnotes c/d/e).
    CpuOwner,
    /// A TCC.
    Tcc,
    /// The DMA engine.
    Dma,
}

/// Which caches to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbePlan {
    /// No probes (the §IV headline saving).
    None,
    /// Downgrade probe to the tracked owner only.
    DowngradeOwner,
    /// Invalidating probes to the tracked owner + sharers (multicast;
    /// falls back to broadcast under owner-only tracking).
    InvalidateTracked,
    /// Downgrade probes to every other cache, TCCs included (the
    /// stateless baseline's reads).
    BroadcastDowngrade,
    /// Invalidating probes to every other cache (the stateless baseline's
    /// writes).
    BroadcastInvalidate,
}

/// Where the response data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPlan {
    /// No data movement needed.
    None,
    /// Read the LLC (miss falls through to memory) — legal because the
    /// state guarantees no cache holds dirty data.
    LlcOrMemory,
    /// Prefer the owner's forwarded dirty data; only if the owner turns
    /// out clean (silent-E case) read the LLC/memory. This is the "LLC
    /// reads are elided" optimization of §IV-A.
    OwnerThenLlc,
}

/// What to send the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrantPlan {
    /// No response payload (victims get VicAck, etc.).
    None,
    /// Data with Shared permission.
    Shared,
    /// Data with Exclusive permission (I-state CPU RdBlk).
    Exclusive,
    /// Exclusive unless a probe found a copy or brought back dirty data,
    /// then Shared (the stateless baseline's CPU RdBlk, resolved from the
    /// acks).
    ExclusiveUnlessShared,
    /// Data with Modified permission.
    Modified,
    /// Permission-only upgrade (requester is the owner; no data).
    Upgrade,
}

/// The directory-entry state after the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextState {
    /// Entry removed (or never created).
    I,
    /// `S`, requester added to the sharer set.
    SAddRequester,
    /// `S` with the requester as the only sharer.
    SOnlyRequester,
    /// `S`, requester removed; `I` when the set empties.
    SDropRequester,
    /// `O`, owner = requester, sharers cleared.
    ORequester,
    /// `O`, owner unchanged, requester added as sharer.
    OAddSharer,
    /// `O`, owner unchanged, sharers cleared (upgrade).
    OOwnerUpgrade,
    /// `O`, requester removed from sharers (dirty sharer evicted).
    ODropSharer,
    /// Owner wrote back: `S` with the remaining sharers, `I` if none
    /// (Table I footnote h — dirty sharers are *not* invalidated, the
    /// §VII future-work behaviour).
    SFromOwnerWriteback,
    /// No change.
    Unchanged,
}

/// A full transition-table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Probes to send.
    pub probes: ProbePlan,
    /// Data source.
    pub data: DataPlan,
    /// Response permission.
    pub grant: GrantPlan,
    /// Directory-entry state after the transaction.
    pub next: NextState,
}

const fn t(probes: ProbePlan, data: DataPlan, grant: GrantPlan, next: NextState) -> Transition {
    Transition { probes, data, grant, next }
}

/// What a directory-entry eviction does to its victim line (the transient
/// **B** state of §IV-A): invalidate every tracked copy, then drop the
/// entry.
pub const BACK_INVALIDATION: Transition =
    t(ProbePlan::InvalidateTracked, DataPlan::None, GrantPlan::None, NextState::I);

/// The directory's transition table: the stateless broadcast baseline
/// (Fig. 2/3) and the §IV state machine (Table I of the paper).
///
/// Between the two tracking modes `mode` only matters for how
/// `InvalidateTracked` is realized (multicast vs broadcast) — the *states*
/// are identical for owner- and sharer-tracking, so the same rows serve
/// both. The stateless directory keeps no entries, so every line is in
/// `I` and stays there.
///
/// # Panics
///
/// Panics on illegal combinations the paper marks as such (e.g. `VicDirty`
/// while the directory is in `S`): the caller filters stale victims before
/// consulting the table. [`legal_rows`] lists what may be asked.
#[must_use]
pub fn plan(mode: DirectoryMode, state: DirState, req: PlanReq, from: Requester) -> Transition {
    use DataPlan as D;
    use GrantPlan as G;
    use NextState as N;
    use PlanReq as R;
    use ProbePlan as P;
    if !mode.tracks() {
        assert!(
            state == DirState::I,
            "illegal transition: the stateless directory keeps no entries, nothing is in {state}"
        );
        let (probes, data, grant) = match (req, from) {
            // TCCs ignore E grants.
            (R::RdBlk, Requester::Tcc) | (R::RdBlkS, _) => {
                (P::BroadcastDowngrade, D::LlcOrMemory, G::Shared)
            }
            (R::RdBlk, _) => (P::BroadcastDowngrade, D::LlcOrMemory, G::ExclusiveUnlessShared),
            (R::DmaRd, _) => (P::BroadcastDowngrade, D::LlcOrMemory, G::None),
            (R::RdBlkM, _) => (P::BroadcastInvalidate, D::LlcOrMemory, G::Modified),
            (R::Atomic, _) => (P::BroadcastInvalidate, D::LlcOrMemory, G::None),
            (R::WriteThrough { .. } | R::DmaWr, _) => (P::BroadcastInvalidate, D::None, G::None),
            (R::VicDirty | R::VicClean | R::Flush, _) => (P::None, D::None, G::None),
        };
        return t(probes, data, grant, N::Unchanged);
    }
    match (state, req, from) {
        // ---------------- state I ----------------
        (DirState::I, R::RdBlk, Requester::Cpu | Requester::CpuOwner) => {
            // No caches hold the line: grant Exclusive straight from the
            // LLC/memory, become (conservative) O.
            t(P::None, D::LlcOrMemory, G::Exclusive, N::ORequester)
        }
        (DirState::I, R::RdBlk, Requester::Tcc) => {
            // TCCs ignore E grants; track them as plain sharers.
            t(P::None, D::LlcOrMemory, G::Shared, N::SAddRequester)
        }
        (DirState::I, R::RdBlkS, _) => t(P::None, D::LlcOrMemory, G::Shared, N::SAddRequester),
        (DirState::I, R::RdBlkM, _) => t(P::None, D::LlcOrMemory, G::Modified, N::ORequester),
        // Stale victims that raced with an entry eviction: ack, no write.
        (DirState::I, R::VicDirty | R::VicClean, _) => t(P::None, D::None, G::None, N::I),
        (DirState::I, R::WriteThrough { retains }, _) => {
            let next = if retains { N::SOnlyRequester } else { N::I };
            t(P::None, D::None, G::None, next)
        }
        (DirState::I, R::Atomic, _) => t(P::None, D::LlcOrMemory, G::None, N::I),
        (DirState::I, R::DmaRd, _) => t(P::None, D::LlcOrMemory, G::None, N::I),
        (DirState::I, R::DmaWr, _) => t(P::None, D::None, G::None, N::I),

        // ---------------- state S ----------------
        (DirState::S, R::RdBlk | R::RdBlkS, _) => {
            // Guaranteed clean: serve from the LLC, probe nobody, and the
            // grant is forced to Shared (§IV-A: "if the incoming request
            // is a RdBlk to a line in S state, it should be assigned
            // directly a shared status").
            t(P::None, D::LlcOrMemory, G::Shared, N::SAddRequester)
        }
        (DirState::S, R::RdBlkM, _) => {
            t(P::InvalidateTracked, D::LlcOrMemory, G::Modified, N::ORequester)
        }
        (DirState::S, R::VicDirty, _) => {
            panic!("VicDirty in S is illegal (Table I): S lines are clean")
        }
        (DirState::S, R::VicClean, _) => t(P::None, D::None, G::None, N::SDropRequester),
        (DirState::S, R::WriteThrough { retains }, _) => {
            let next = if retains { N::SOnlyRequester } else { N::I };
            t(P::InvalidateTracked, D::None, G::None, next)
        }
        (DirState::S, R::Atomic, _) => t(P::InvalidateTracked, D::LlcOrMemory, G::None, N::I),
        (DirState::S, R::DmaRd, _) => t(P::None, D::LlcOrMemory, G::None, N::Unchanged),
        (DirState::S, R::DmaWr, _) => t(P::InvalidateTracked, D::None, G::None, N::I),

        // ---------------- state O ----------------
        (DirState::O, R::RdBlk | R::RdBlkS, Requester::CpuOwner) => {
            // Footnotes c/d/e: the owner itself re-requests (I$ miss on a
            // silently-E line). No probes; the line is actually clean.
            t(P::None, D::LlcOrMemory, G::Shared, N::SOnlyRequester)
        }
        (DirState::O, R::RdBlk | R::RdBlkS, _) => {
            // Probe only the owner; elide the LLC read unless the owner
            // turns out clean. The response coming from a cache denies
            // Exclusive. The next state is resolved from the probe ack:
            // a dirty owner keeps ownership (M→O), a clean owner was
            // silently-E and everyone ends up a plain sharer.
            t(P::DowngradeOwner, D::OwnerThenLlc, G::Shared, N::OAddSharer)
        }
        (DirState::O, R::RdBlkM, Requester::CpuOwner) => {
            // Upgrade: invalidate everyone else; the owner's copy is the
            // freshest, so no data is transferred.
            t(P::InvalidateTracked, D::None, G::Upgrade, N::OOwnerUpgrade)
        }
        (DirState::O, R::RdBlkM, _) => {
            t(P::InvalidateTracked, D::OwnerThenLlc, G::Modified, N::ORequester)
        }
        (DirState::O, R::VicDirty, Requester::CpuOwner) => {
            t(P::None, D::None, G::None, N::SFromOwnerWriteback)
        }
        (DirState::O, R::VicDirty, _) => {
            panic!("VicDirty from a non-owner in O is stale and must be filtered by the caller")
        }
        (DirState::O, R::VicClean, Requester::CpuOwner) => {
            // Footnote g: the owner's line was actually E (clean). Unlike
            // the footnote-e requester==owner case, downgraded-E sharers
            // *can* exist here (E → S via a read probe left ownership
            // conservatively in place), so the remaining sharers keep the
            // line in S; the entry only drops to I when none remain.
            t(P::None, D::None, G::None, N::SFromOwnerWriteback)
        }
        (DirState::O, R::VicClean, _) => {
            // A dirty sharer evicted; the owner still reconciles.
            t(P::None, D::None, G::None, N::ODropSharer)
        }
        (DirState::O, R::WriteThrough { retains }, _) => {
            let next = if retains { N::SOnlyRequester } else { N::I };
            t(P::InvalidateTracked, D::None, G::None, next)
        }
        (DirState::O, R::Atomic, _) => t(P::InvalidateTracked, D::OwnerThenLlc, G::None, N::I),
        (DirState::O, R::DmaRd, _) => t(P::DowngradeOwner, D::OwnerThenLlc, G::None, N::Unchanged),
        (DirState::O, R::DmaWr, _) => t(P::InvalidateTracked, D::None, G::None, N::I),

        // Flush never touches state.
        (_, R::Flush, _) => t(P::None, D::None, G::None, N::Unchanged),

        (s, r, f) => panic!("illegal transition: {r:?} from {f:?} in state {s}"),
    }
}

/// The `(request, requester)` rows [`plan`] answers for a line in `state`;
/// anything else is illegal and panics. One list for `hsc table 1` and for
/// the table's own tests. The stateless directory knows only `I`, and
/// there also takes its L2s' dirty write-backs (a tracking directory never
/// sees `VicDirty` for an untracked line: the caller filters it as stale).
#[must_use]
pub fn legal_rows(mode: DirectoryMode, state: DirState) -> Vec<(PlanReq, Requester)> {
    if !mode.tracks() && state != DirState::I {
        return Vec::new();
    }
    let mut rows = vec![
        (PlanReq::RdBlk, Requester::Cpu),
        (PlanReq::RdBlk, Requester::Tcc),
        (PlanReq::RdBlkS, Requester::Cpu),
        (PlanReq::RdBlkM, Requester::Cpu),
        (PlanReq::VicClean, Requester::Cpu),
        (PlanReq::WriteThrough { retains: true }, Requester::Tcc),
        (PlanReq::WriteThrough { retains: false }, Requester::Tcc),
        (PlanReq::Atomic, Requester::Tcc),
        (PlanReq::DmaRd, Requester::Dma),
        (PlanReq::DmaWr, Requester::Dma),
        (PlanReq::Flush, Requester::Tcc),
    ];
    if state == DirState::O {
        rows.insert(3, (PlanReq::RdBlkS, Requester::CpuOwner));
        rows.insert(5, (PlanReq::RdBlkM, Requester::CpuOwner));
        rows.push((PlanReq::VicDirty, Requester::CpuOwner));
        rows.push((PlanReq::VicClean, Requester::CpuOwner));
    }
    if !mode.tracks() {
        rows.push((PlanReq::VicDirty, Requester::Cpu));
    }
    rows
}

/// One pretty-printed row of the transition table (the Table I printer).
#[must_use]
pub fn describe(mode: DirectoryMode, state: DirState, req: PlanReq, from: Requester) -> String {
    let tr = plan(mode, state, req, from);
    let probes = match tr.probes {
        ProbePlan::None => "none",
        ProbePlan::DowngradeOwner => "downgrade→owner",
        ProbePlan::InvalidateTracked if mode.tracks_sharers() => "invalidate→sharers (multicast)",
        ProbePlan::InvalidateTracked | ProbePlan::BroadcastInvalidate => "invalidate→broadcast",
        ProbePlan::BroadcastDowngrade => "downgrade→broadcast",
    };
    let data = match tr.data {
        DataPlan::None => "-",
        DataPlan::LlcOrMemory => "LLC/mem",
        DataPlan::OwnerThenLlc => "owner (LLC/mem if clean)",
    };
    let grant = match tr.grant {
        GrantPlan::None => "-",
        GrantPlan::Shared => "S",
        GrantPlan::Exclusive => "E",
        GrantPlan::ExclusiveUnlessShared => "E (S if a probe found a copy)",
        GrantPlan::Modified => "M",
        GrantPlan::Upgrade => "upgrade",
    };
    format!("{state} | {req:?} from {from:?} | probes: {probes} | data: {data} | grant: {grant} | next: {:?}", tr.next)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [DirectoryMode; 2] = [DirectoryMode::OwnerTracking, DirectoryMode::SharerTracking];
    const ALL_MODES: [DirectoryMode; 3] =
        [DirectoryMode::Stateless, DirectoryMode::OwnerTracking, DirectoryMode::SharerTracking];
    const STATES: [DirState; 3] = [DirState::I, DirState::S, DirState::O];

    #[test]
    fn i_state_never_probes() {
        for mode in MODES {
            for req in [
                PlanReq::RdBlk,
                PlanReq::RdBlkS,
                PlanReq::RdBlkM,
                PlanReq::Atomic,
                PlanReq::DmaRd,
                PlanReq::DmaWr,
            ] {
                let tr = plan(mode, DirState::I, req, Requester::Cpu);
                assert_eq!(tr.probes, ProbePlan::None, "{req:?} must not probe in I");
            }
        }
    }

    #[test]
    fn i_state_rdblk_grants_exclusive_to_cpu_but_shared_to_tcc() {
        for mode in MODES {
            assert_eq!(
                plan(mode, DirState::I, PlanReq::RdBlk, Requester::Cpu).grant,
                GrantPlan::Exclusive
            );
            let tcc = plan(mode, DirState::I, PlanReq::RdBlk, Requester::Tcc);
            assert_eq!(tcc.grant, GrantPlan::Shared);
            assert_eq!(tcc.next, NextState::SAddRequester);
        }
    }

    #[test]
    fn s_state_reads_are_probe_free_and_forced_shared() {
        for mode in MODES {
            for req in [PlanReq::RdBlk, PlanReq::RdBlkS] {
                let tr = plan(mode, DirState::S, req, Requester::Cpu);
                assert_eq!(tr.probes, ProbePlan::None);
                assert_eq!(tr.data, DataPlan::LlcOrMemory);
                assert_eq!(tr.grant, GrantPlan::Shared, "RdBlk in S must not earn E");
            }
        }
    }

    #[test]
    fn o_state_reads_probe_owner_only_and_elide_llc() {
        for mode in MODES {
            let tr = plan(mode, DirState::O, PlanReq::RdBlk, Requester::Cpu);
            assert_eq!(tr.probes, ProbePlan::DowngradeOwner);
            assert_eq!(tr.data, DataPlan::OwnerThenLlc);
            assert_eq!(tr.next, NextState::OAddSharer, "owner keeps ownership");
        }
    }

    #[test]
    fn owner_upgrade_needs_no_data() {
        for mode in MODES {
            let tr = plan(mode, DirState::O, PlanReq::RdBlkM, Requester::CpuOwner);
            assert_eq!(tr.grant, GrantPlan::Upgrade);
            assert_eq!(tr.data, DataPlan::None);
            assert_eq!(tr.next, NextState::OOwnerUpgrade);
        }
    }

    #[test]
    fn owner_ifetch_relaxes_to_shared() {
        // Footnotes c/d/e of Table I.
        let tr =
            plan(DirectoryMode::SharerTracking, DirState::O, PlanReq::RdBlkS, Requester::CpuOwner);
        assert_eq!(tr.probes, ProbePlan::None);
        assert_eq!(tr.next, NextState::SOnlyRequester);
    }

    #[test]
    fn owner_writeback_keeps_dirty_sharers() {
        // Footnote h + §VII: dirty sharers survive the owner's writeback.
        let tr = plan(
            DirectoryMode::SharerTracking,
            DirState::O,
            PlanReq::VicDirty,
            Requester::CpuOwner,
        );
        assert_eq!(tr.next, NextState::SFromOwnerWriteback);
        assert_eq!(tr.probes, ProbePlan::None);
    }

    #[test]
    fn clean_victim_from_o_means_the_line_was_exclusive() {
        // Footnote g, with downgraded-E sharers preserved.
        let tr =
            plan(DirectoryMode::OwnerTracking, DirState::O, PlanReq::VicClean, Requester::CpuOwner);
        assert_eq!(tr.next, NextState::SFromOwnerWriteback);
        // A dirty sharer's clean evict just drops it from the set.
        let tr = plan(DirectoryMode::OwnerTracking, DirState::O, PlanReq::VicClean, Requester::Cpu);
        assert_eq!(tr.next, NextState::ODropSharer);
    }

    #[test]
    #[should_panic(expected = "illegal")]
    fn vicdirty_in_s_is_illegal() {
        let _ = plan(DirectoryMode::OwnerTracking, DirState::S, PlanReq::VicDirty, Requester::Cpu);
    }

    #[test]
    fn no_mode_accepts_vicdirty_in_s() {
        for mode in ALL_MODES {
            let refused = std::panic::catch_unwind(|| {
                plan(mode, DirState::S, PlanReq::VicDirty, Requester::Cpu)
            });
            assert!(refused.is_err(), "{mode:?} gave VicDirty in S a row");
        }
    }

    #[test]
    fn one_classifier_covers_exactly_the_directory_requests() {
        use hsc_mem::{AtomicKind, LineData};
        use hsc_noc::{Grant, ProbeKind, WordMask};
        let data = LineData::zeroed();
        let mask = WordMask::full();
        let one_of_each = [
            MsgKind::RdBlk,
            MsgKind::RdBlkS,
            MsgKind::RdBlkM,
            MsgKind::VicDirty { data },
            MsgKind::VicClean { data },
            MsgKind::WriteThrough { data, mask, retains: true },
            MsgKind::AtomicReq { word: 0, op: AtomicKind::FetchAdd(1) },
            MsgKind::Flush,
            MsgKind::DmaRd,
            MsgKind::DmaWr { data, mask },
            MsgKind::Probe { kind: ProbeKind::Invalidate },
            MsgKind::Probe { kind: ProbeKind::Downgrade },
            MsgKind::ProbeAck { dirty: None, had_copy: false, was_parked: false },
            MsgKind::Resp { data, grant: Grant::Shared },
            MsgKind::UpgradeAck,
            MsgKind::VicAck,
            MsgKind::WtAck,
            MsgKind::AtomicResp { old: 0 },
            MsgKind::FlushAck,
            MsgKind::DmaRdResp { data },
            MsgKind::DmaWrAck,
            MsgKind::Unblock,
            MsgKind::MemRd,
            MsgKind::MemWr { data, mask },
            MsgKind::MemRdResp { data },
        ];
        for (i, kind) in one_of_each.iter().enumerate() {
            assert_eq!(kind.class_index(), i, "one message of each class, in class order");
            let req = PlanReq::of(kind);
            assert_eq!(req.is_some(), kind.is_dir_request(), "{}", kind.class_name());
            if let Some(req) = req {
                let cause = crate::directory::DIR_CAUSES[req.index()];
                assert!(format!("{req:?}").starts_with(cause), "{req:?} is cause {cause}");
            }
        }
        assert_eq!(one_of_each.len(), MsgKind::NUM_CLASSES);
    }

    #[test]
    fn write_requests_invalidate_in_s_and_o() {
        for mode in MODES {
            for state in [DirState::S, DirState::O] {
                for req in [PlanReq::RdBlkM, PlanReq::Atomic, PlanReq::DmaWr] {
                    let tr = plan(mode, state, req, Requester::Cpu);
                    assert_eq!(
                        tr.probes,
                        ProbePlan::InvalidateTracked,
                        "{req:?} in {state} must invalidate"
                    );
                }
            }
        }
    }

    #[test]
    fn dma_requests_do_not_alter_tracked_ownership() {
        for mode in MODES {
            assert_eq!(
                plan(mode, DirState::S, PlanReq::DmaRd, Requester::Dma).next,
                NextState::Unchanged
            );
            assert_eq!(
                plan(mode, DirState::O, PlanReq::DmaRd, Requester::Dma).next,
                NextState::Unchanged
            );
        }
    }

    #[test]
    fn write_through_tracks_retention() {
        for state in [DirState::I, DirState::S, DirState::O] {
            let keep = plan(
                DirectoryMode::SharerTracking,
                state,
                PlanReq::WriteThrough { retains: true },
                Requester::Tcc,
            );
            assert_eq!(keep.next, NextState::SOnlyRequester);
            let drop = plan(
                DirectoryMode::SharerTracking,
                state,
                PlanReq::WriteThrough { retains: false },
                Requester::Tcc,
            );
            assert_eq!(drop.next, NextState::I);
        }
    }

    #[test]
    fn flush_is_stateless() {
        for state in [DirState::I, DirState::S, DirState::O] {
            let tr = plan(DirectoryMode::OwnerTracking, state, PlanReq::Flush, Requester::Tcc);
            assert_eq!(tr.next, NextState::Unchanged);
            assert_eq!(tr.probes, ProbePlan::None);
        }
    }

    #[test]
    fn sharer_set_add_remove_iterate() {
        let mut s = SharerSet::new();
        assert_eq!(s.iter().count(), 0);
        for a in [
            AgentId::Tcc(63),
            AgentId::CorePairL2(63),
            AgentId::Tcc(0),
            AgentId::CorePairL2(3),
            AgentId::CorePairL2(0),
        ] {
            s.add(a);
        }
        let members: Vec<AgentId> = s.iter().collect();
        assert_eq!(
            members,
            [
                AgentId::CorePairL2(0),
                AgentId::CorePairL2(3),
                AgentId::CorePairL2(63),
                AgentId::Tcc(0),
                AgentId::Tcc(63),
            ]
        );
        s.remove(AgentId::CorePairL2(3));
        assert!(!s.contains(AgentId::CorePairL2(3)));
        assert_eq!(s.len(), 4);
        s.remove(AgentId::Dma); // no-op
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot be a sharer")]
    fn dma_cannot_join_sharer_set() {
        SharerSet::new().add(AgentId::Dma);
    }

    #[test]
    fn state_aware_score_prefers_clean_few_sharer_victims() {
        let mut clean = DirEntry {
            state: DirState::S,
            owner: None,
            sharers: SharerSet::new(),
            reserved: false,
        };
        clean.sharers.add(AgentId::CorePairL2(0));
        let mut owned = clean;
        owned.state = DirState::O;
        owned.owner = Some(AgentId::CorePairL2(1));
        assert!(clean.state_aware_score() < owned.state_aware_score());
        let mut many = clean;
        many.sharers.add(AgentId::CorePairL2(1));
        many.sharers.add(AgentId::CorePairL2(2));
        assert!(clean.state_aware_score() < many.state_aware_score());
    }

    #[test]
    fn describe_renders_every_legal_row() {
        // Neither the table nor its printer panics on a row the list
        // yields, in any mode.
        for mode in ALL_MODES {
            for state in STATES {
                for (req, from) in legal_rows(mode, state) {
                    let row = describe(mode, state, req, from);
                    assert!(row.starts_with(&state.to_string()));
                }
            }
            assert!(!legal_rows(mode, DirState::I).is_empty());
        }
        assert!(legal_rows(DirectoryMode::Stateless, DirState::O).is_empty());
    }
}

use std::fmt;

use hsc_noc::Grant;

/// The five stable states of the CorePair L2's MOESI protocol (§II-B).
///
/// Invalid is represented by absence from the cache array, so this enum
/// only carries the four valid states plus the rules that matter to the
/// system-level directory:
///
/// * `Exclusive` may silently become `Modified` (no directory message),
/// * `Modified`/`Owned` forward dirty data on probes,
/// * `Shared` lines may hold dirty data (dirty sharing under an `Owned`
///   line elsewhere) but never forward it — the owner reconciles,
/// * evictions send `VicDirty` from M/O and `VicClean` from E/S.
///
/// # Examples
///
/// ```
/// use hsc_cluster::MoesiState;
///
/// assert!(MoesiState::Modified.forwards_dirty());
/// assert!(!MoesiState::Shared.forwards_dirty());
/// assert!(!MoesiState::Owned.can_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoesiState {
    /// Only copy, dirty.
    Modified,
    /// Dirty, possibly shared; responsible for write-back.
    Owned,
    /// Only copy, clean; may silently upgrade to Modified.
    Exclusive,
    /// Possibly one of many copies; never forwards data.
    Shared,
}

impl MoesiState {
    /// Whether a store hits without a directory upgrade. `Exclusive`
    /// counts: the E→M transition is silent.
    #[must_use]
    pub fn can_write(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// Whether this state forwards dirty data when probed.
    #[must_use]
    pub fn forwards_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// The state after a downgrading probe.
    #[must_use]
    pub fn after_downgrade(self) -> MoesiState {
        match self {
            MoesiState::Modified | MoesiState::Owned => MoesiState::Owned,
            MoesiState::Exclusive | MoesiState::Shared => MoesiState::Shared,
        }
    }

    /// The state granted by a directory response.
    #[must_use]
    pub fn from_grant(grant: Grant) -> MoesiState {
        match grant {
            Grant::Shared => MoesiState::Shared,
            Grant::Exclusive => MoesiState::Exclusive,
            Grant::Modified => MoesiState::Modified,
        }
    }
}

impl fmt::Display for MoesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MoesiState::Modified => "M",
            MoesiState::Owned => "O",
            MoesiState::Exclusive => "E",
            MoesiState::Shared => "S",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_permission_matches_moesi() {
        assert!(MoesiState::Modified.can_write());
        assert!(MoesiState::Exclusive.can_write(), "silent E→M");
        assert!(!MoesiState::Owned.can_write());
        assert!(!MoesiState::Shared.can_write());
    }

    #[test]
    fn dirty_forwarding_is_m_and_o_only() {
        assert!(MoesiState::Modified.forwards_dirty());
        assert!(MoesiState::Owned.forwards_dirty());
        assert!(!MoesiState::Exclusive.forwards_dirty());
        assert!(!MoesiState::Shared.forwards_dirty());
    }

    #[test]
    fn downgrade_keeps_ownership_with_the_dirty_cache() {
        assert_eq!(MoesiState::Modified.after_downgrade(), MoesiState::Owned);
        assert_eq!(MoesiState::Owned.after_downgrade(), MoesiState::Owned);
        assert_eq!(MoesiState::Exclusive.after_downgrade(), MoesiState::Shared);
        assert_eq!(MoesiState::Shared.after_downgrade(), MoesiState::Shared);
    }

    #[test]
    fn grants_map_onto_states() {
        assert_eq!(MoesiState::from_grant(Grant::Shared), MoesiState::Shared);
        assert_eq!(MoesiState::from_grant(Grant::Exclusive), MoesiState::Exclusive);
        assert_eq!(MoesiState::from_grant(Grant::Modified), MoesiState::Modified);
    }

    #[test]
    fn display_is_single_letter() {
        assert_eq!(MoesiState::Owned.to_string(), "O");
    }
}

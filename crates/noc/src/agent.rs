use std::fmt;

/// A network endpoint in the heterogeneous memory system.
///
/// Matches the block diagram of the paper's Fig. 1: the system-level
/// directory services the CorePair L2s, the GPU TCC(s) and the DMA engine,
/// and owns the only (ordered) port to main memory. CPU cores, L1s, TCPs
/// and compute units are *internal* to their cluster models and never
/// appear on the system NoC.
///
/// # Examples
///
/// ```
/// use hsc_noc::AgentId;
///
/// let l2 = AgentId::CorePairL2(2);
/// assert!(l2.is_cpu_cache());
/// assert!(AgentId::Tcc(0).is_gpu_cache());
/// assert!(AgentId::Tcc(0).is_probe_target());
/// assert!(!AgentId::Dma.is_probe_target());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AgentId {
    /// The shared, inclusive L2 of CorePair `n` (two CPU cores each).
    CorePairL2(usize),
    /// The GPU's Texture Cache per Channel (L2) number `n`.
    Tcc(usize),
    /// The DMA engine.
    Dma,
    /// The system-level directory (co-located with the LLC).
    Directory,
    /// The main-memory controller, reachable only from the directory.
    Memory,
}

impl AgentId {
    /// Whether this agent is a CorePair L2 (a MOESI cache).
    #[must_use]
    pub fn is_cpu_cache(self) -> bool {
        matches!(self, AgentId::CorePairL2(_))
    }

    /// Whether this agent is a TCC (a VIPER cache).
    #[must_use]
    pub fn is_gpu_cache(self) -> bool {
        matches!(self, AgentId::Tcc(_))
    }

    /// Whether the directory may send probes to this agent.
    #[must_use]
    pub fn is_probe_target(self) -> bool {
        self.is_cpu_cache() || self.is_gpu_cache()
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentId::CorePairL2(n) => write!(f, "L2[{n}]"),
            AgentId::Tcc(n) => write!(f, "TCC[{n}]"),
            AgentId::Dma => write!(f, "DMA"),
            AgentId::Directory => write!(f, "DIR"),
            AgentId::Memory => write!(f, "MEM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_disjoint() {
        let agents = [
            AgentId::CorePairL2(0),
            AgentId::Tcc(0),
            AgentId::Dma,
            AgentId::Directory,
            AgentId::Memory,
        ];
        for a in agents {
            assert!(!(a.is_cpu_cache() && a.is_gpu_cache()));
        }
        assert!(AgentId::CorePairL2(3).is_probe_target());
        assert!(AgentId::Tcc(1).is_probe_target());
        assert!(!AgentId::Directory.is_probe_target());
        assert!(!AgentId::Memory.is_probe_target());
        assert!(!AgentId::Dma.is_probe_target());
    }

    #[test]
    fn display_names_are_compact() {
        assert_eq!(AgentId::CorePairL2(1).to_string(), "L2[1]");
        assert_eq!(AgentId::Tcc(0).to_string(), "TCC[0]");
        assert_eq!(AgentId::Dma.to_string(), "DMA");
    }

    #[test]
    fn ordering_allows_btreemap_keys() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(AgentId::Directory);
        s.insert(AgentId::CorePairL2(0));
        s.insert(AgentId::CorePairL2(1));
        assert_eq!(s.len(), 3);
    }
}

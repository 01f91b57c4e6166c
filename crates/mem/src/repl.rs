use std::hash::Hasher;

/// Per-set Tree-PLRU replacement state, the default policy of every cache
/// in the paper's Table II.
///
/// Each set of `W` ways (W a power of two, at most 64) keeps `W-1`
/// direction bits in an implicit binary tree, packed into one `u64` per
/// set: bit `n` is heap node `n` (root 0, children `2n+1`/`2n+2`), `0` =
/// left, `1` = right. [`TreePlru::touch`] walks from the way's leaf to the
/// root pointing every bit on the path *away* from it; [`TreePlru::victim`]
/// follows the bits down to the pseudo-least-recently-used way.
///
/// [`TreePlru::victim_among`] restricts the walk to a candidate mask (bit
/// `w` = way `w`). It is the hook used by the future-work *state-aware*
/// directory replacement policy (§VII): the directory first filters
/// candidates by state score and lets Tree-PLRU break ties.
///
/// # Examples
///
/// ```
/// use hsc_mem::TreePlru;
///
/// let mut p = TreePlru::new(1, 4);
/// p.touch(0, 0);
/// p.touch(0, 1);
/// // ways 2/3 are now colder than 0/1
/// assert!(p.victim(0) >= 2);
/// assert_eq!(p.victim_among(0, 0b0011), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlru {
    ways: usize,
    /// One word of direction bits per set.
    bits: Vec<u64>,
}

impl TreePlru {
    /// Creates replacement state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, not a power of two or above 64, or `sets`
    /// is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "TreePlru needs at least one set");
        assert!(
            ways > 0 && ways.is_power_of_two(),
            "TreePlru ways must be a power of two (got {ways})"
        );
        assert!(ways <= 64, "TreePlru packs a set into one word: at most 64 ways (got {ways})");
        TreePlru { ways, bits: vec![0; sets] }
    }

    /// Marks `way` as most-recently used in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn touch(&mut self, set: usize, way: usize) {
        assert!(way < self.ways, "touch({set},{way}) out of range");
        let mut bits = self.bits[set];
        // The way's leaf sits at heap index `ways - 1 + way`. A right
        // child has an even index; point its parent at the *other* half.
        let mut node = self.ways - 1 + way;
        while node > 0 {
            let parent = (node - 1) / 2;
            let came_from_right = node & 1 == 0;
            bits = bits & !(1 << parent) | u64::from(!came_from_right) << parent;
            node = parent;
        }
        self.bits[set] = bits;
    }

    /// The way Tree-PLRU would evict from `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn victim(&self, set: usize) -> usize {
        self.victim_among(set, u64::MAX).expect("a full mask always holds a candidate")
    }

    /// The coldest way among those whose bit is set in `candidates` (bits
    /// at or above `ways` are ignored).
    ///
    /// Walks the tree preferring the PLRU direction whenever that subtree
    /// still contains a candidate. Returns `None` if no way is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn victim_among(&self, set: usize, candidates: u64) -> Option<usize> {
        let bits = self.bits[set];
        let candidates = candidates & (u64::MAX >> (64 - self.ways));
        if candidates == 0 {
            return None;
        }
        let mut node = 0;
        let mut lo = 0;
        let mut half = self.ways / 2;
        while half > 0 {
            let left = ((1u64 << half) - 1) << lo;
            let prefer_right = bits >> node & 1 != 0;
            let go_right = if prefer_right {
                candidates & (left << half) != 0
            } else {
                candidates & left == 0
            };
            node = 2 * node + 1 + usize::from(go_right);
            if go_right {
                lo += half;
            }
            half /= 2;
        }
        Some(lo)
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.bits.len()
    }

    /// Folds the direction bits into `h` (for state fingerprints: the
    /// replacement state decides future victims, so two cache states that
    /// differ only here can still diverge).
    ///
    /// Feeds exactly what hashing the set-major `[bool]` of direction bits
    /// would — a length prefix, then one byte per node — so fingerprints
    /// do not depend on the packing.
    pub fn hash_state<H: Hasher>(&self, h: &mut H) {
        let nodes = self.ways - 1;
        h.write_usize(self.bits.len() * nodes);
        for &bits in &self.bits {
            for node in 0..nodes {
                h.write_u8((bits >> node & 1) as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_set_evicts_way_zero() {
        let p = TreePlru::new(2, 8);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 0);
    }

    #[test]
    fn touching_everything_in_order_makes_first_touched_the_victim() {
        let mut p = TreePlru::new(1, 4);
        for w in 0..4 {
            p.touch(0, w);
        }
        // Classic tree-PLRU: after touching 0,1,2,3 in order the victim is 0.
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn victim_is_never_the_most_recent_touch() {
        let mut p = TreePlru::new(1, 8);
        for round in 0..50usize {
            let w = (round * 5 + 3) % 8;
            p.touch(0, w);
            assert_ne!(p.victim(0), w, "just-touched way must not be victim");
        }
    }

    #[test]
    fn sets_are_independent() {
        let mut p = TreePlru::new(2, 4);
        p.touch(0, 0);
        p.touch(0, 1);
        p.touch(0, 2);
        p.touch(0, 3);
        assert_eq!(p.victim(1), 0, "set 1 untouched");
    }

    #[test]
    fn victim_among_respects_mask() {
        let mut p = TreePlru::new(1, 4);
        p.touch(0, 2);
        p.touch(0, 3);
        // PLRU prefers ways 0/1; masked out, so it must pick among 2/3.
        let v = p.victim_among(0, 0b1100).unwrap();
        assert!(v == 2 || v == 3);
        // Only one candidate.
        assert_eq!(p.victim_among(0, 0b1000), Some(3));
    }

    #[test]
    fn victim_among_empty_mask_is_none() {
        let p = TreePlru::new(1, 4);
        assert_eq!(p.victim_among(0, 0), None);
        assert_eq!(p.victim_among(0, 0b1_0000), None, "bits above `ways` are not candidates");
    }

    #[test]
    fn single_way_cache_always_evicts_zero() {
        let mut p = TreePlru::new(3, 1);
        p.touch(2, 0);
        assert_eq!(p.victim(2), 0);
        assert_eq!(p.victim_among(2, 1), Some(0));
    }

    #[test]
    fn two_way_alternates() {
        let mut p = TreePlru::new(1, 2);
        p.touch(0, 0);
        assert_eq!(p.victim(0), 1);
        p.touch(0, 1);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_ways_rejected() {
        let _ = TreePlru::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_than_64_ways_rejected() {
        let _ = TreePlru::new(1, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_of_a_way_past_the_set_panics() {
        TreePlru::new(1, 4).touch(0, 4);
    }

    #[test]
    fn large_assoc_32_and_64_ways_work() {
        // The directory cache in Table II is 32-way; 64 fills the word.
        for ways in [32, 64] {
            let mut p = TreePlru::new(4, ways);
            for w in 0..ways {
                p.touch(1, w);
            }
            assert_eq!(p.victim(1), 0);
            p.touch(1, 0);
            assert_ne!(p.victim(1), 0);
            assert_eq!(p.victim_among(1, 1 << (ways - 1)), Some(ways - 1));
        }
    }
}

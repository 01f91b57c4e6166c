use crate::{LineAddr, LineData, LineMap};

/// One entry parked in a [`VictimBuffer`]: the evicted line's data and
/// whether it is dirty with respect to the LLC/memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VictimEntry {
    /// The line's contents at eviction time.
    pub data: LineData,
    /// Whether a write-back is owed (line was M or O).
    pub dirty: bool,
}

/// A small fully-associative buffer holding lines that have been evicted
/// from a cache but whose victim write-back (`VicDirty`/`VicClean`) has not
/// yet been acknowledged by the directory.
///
/// Incoming probes snoop this buffer: an invalidating or downgrading probe
/// that arrives between the eviction and the directory's processing of the
/// victim message still finds the data here. This closes the classic
/// writeback/probe race without NACK-and-retry machinery — exactly the
/// simplification the per-line-serializing directory of the paper affords
/// (see DESIGN.md, "Key design decisions").
///
/// # Examples
///
/// ```
/// use hsc_mem::{LineAddr, LineData, VictimBuffer};
///
/// let mut vb = VictimBuffer::new();
/// vb.park(LineAddr(4), LineData::zeroed(), true);
/// assert!(vb.get(LineAddr(4)).unwrap().dirty);
/// vb.downgrade(LineAddr(4)); // a downgrade probe forwarded the dirty data
/// assert!(!vb.get(LineAddr(4)).unwrap().dirty);
/// vb.release(LineAddr(4)); // directory acknowledged the write-back
/// assert!(vb.get(LineAddr(4)).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VictimBuffer {
    entries: LineMap<VictimEntry>,
}

impl VictimBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        VictimBuffer::default()
    }

    /// Parks an evicted line until the directory acknowledges its victim
    /// message.
    ///
    /// # Panics
    ///
    /// Panics if `la` is already parked: a line cannot be evicted twice
    /// without an intervening refill.
    pub fn park(&mut self, la: LineAddr, data: LineData, dirty: bool) {
        let prev = self.entries.insert(la, VictimEntry { data, dirty });
        assert!(prev.is_none(), "line {la} double-parked in victim buffer");
    }

    /// The parked entry for `la`, if any.
    #[must_use]
    pub fn get(&self, la: LineAddr) -> Option<&VictimEntry> {
        self.entries.get(la)
    }

    /// Marks a parked line clean (a downgrade probe has forwarded its dirty
    /// data to the directory, which now owns reconciliation).
    ///
    /// No-op if `la` is not parked.
    pub fn downgrade(&mut self, la: LineAddr) {
        if let Some(e) = self.entries.get_mut(la) {
            e.dirty = false;
        }
    }

    /// Removes a parked line and returns its entry, or `None` if it is not
    /// parked. Two events end a victim's stay: the directory's `VicAck` for
    /// its write-back, and an invalidating probe, whose response carries the
    /// entry's dirty data. Whichever comes second finds nothing.
    pub fn release(&mut self, la: LineAddr) -> Option<VictimEntry> {
        self.entries.remove(la)
    }

    /// The parked line addresses, in address order (for diagnostics).
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.keys()
    }

    /// All parked entries in address order (for state fingerprints and
    /// whole-buffer invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &VictimEntry)> + '_ {
        self.entries.iter()
    }

    /// Number of parked lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(v: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, v);
        d
    }

    #[test]
    fn park_and_release_round_trip() {
        let mut vb = VictimBuffer::new();
        vb.park(LineAddr(1), data(5), true);
        assert_eq!(vb.len(), 1);
        let e = vb.release(LineAddr(1)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.data.word(0), 5);
        assert!(vb.is_empty());
    }

    #[test]
    fn probe_invalidate_removes_entry() {
        let mut vb = VictimBuffer::new();
        vb.park(LineAddr(2), data(7), true);
        let e = vb.release(LineAddr(2)).unwrap();
        assert!(e.dirty);
        // The later VicDirty ack finds nothing — that is fine.
        assert_eq!(vb.release(LineAddr(2)), None);
    }

    #[test]
    fn downgrade_clears_dirty_only() {
        let mut vb = VictimBuffer::new();
        vb.park(LineAddr(3), data(9), true);
        vb.downgrade(LineAddr(3));
        let e = vb.get(LineAddr(3)).unwrap();
        assert!(!e.dirty);
        assert_eq!(e.data.word(0), 9);
        vb.downgrade(LineAddr(99)); // absent line: no-op
    }

    #[test]
    #[should_panic(expected = "double-parked")]
    fn double_park_panics() {
        let mut vb = VictimBuffer::new();
        vb.park(LineAddr(1), data(0), false);
        vb.park(LineAddr(1), data(0), true);
    }
}

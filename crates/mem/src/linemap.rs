use std::fmt;

use crate::LineAddr;

/// Up to this many entries a lookup scans front to back; above it, it
/// bisects. In-flight tables hold a handful of lines almost always, and a
/// scan of eight keys beats the bisection's unpredictable branches.
const SCAN_MAX: usize = 8;

/// A map from [`LineAddr`] to `T` for *bounded* per-line in-flight state:
/// one `Vec` kept sorted by line.
///
/// Every controller serialises coherence transactions per line, so each
/// keeps a small table of the lines it has something in flight on (MSHRs,
/// parked victims, waiters, retry deadlines, directory transactions). Such
/// a table leaves empty and drains again thousands of times per run; a
/// `BTreeMap` allocates a node on the first and frees it on the second,
/// a `Vec` keeps its buffer.
///
/// Iteration is in line order and [`Hash`] emits what
/// `BTreeMap<LineAddr, T>` emits (length, then each `(line, value)`), so a
/// state fingerprint does not change when a table moves onto this type;
/// `LineMap<()>` hashes like `BTreeSet<LineAddr>`.
///
/// Insert and remove shift the tail, which is what bounds the use: stores
/// that grow with the footprint (`DmaEngine::read_data`, `MainMemory`'s
/// pages) keep their `BTreeMap`s.
///
/// # Examples
///
/// ```
/// use hsc_mem::{LineAddr, LineMap};
///
/// let mut m: LineMap<&str> = LineMap::new();
/// m.insert(LineAddr(9), "late");
/// m.insert(LineAddr(2), "early");
/// assert_eq!(m.get(LineAddr(2)), Some(&"early"));
/// assert_eq!(m.keys().collect::<Vec<_>>(), [LineAddr(2), LineAddr(9)]);
/// assert_eq!(m.remove(LineAddr(2)), Some("early"));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LineMap<T> {
    entries: Vec<(LineAddr, T)>,
}

impl<T> Default for LineMap<T> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for LineMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> LineMap<T> {
    /// Creates an empty map (no allocation until the first insert).
    #[must_use]
    pub const fn new() -> Self {
        LineMap { entries: Vec::new() }
    }

    /// `Ok(index of la)` or `Err(index it would be inserted at)`.
    #[inline]
    fn position(&self, la: LineAddr) -> Result<usize, usize> {
        if self.entries.len() > SCAN_MAX {
            return self.entries.binary_search_by_key(&la, |&(k, _)| k);
        }
        for (i, &(k, _)) in self.entries.iter().enumerate() {
            if k >= la {
                return if k == la { Ok(i) } else { Err(i) };
            }
        }
        Err(self.entries.len())
    }

    /// The value for `la`, if any.
    #[must_use]
    #[inline]
    pub fn get(&self, la: LineAddr) -> Option<&T> {
        self.position(la).ok().map(|i| &self.entries[i].1)
    }

    /// Exclusive access to the value for `la`, if any.
    #[inline]
    pub fn get_mut(&mut self, la: LineAddr) -> Option<&mut T> {
        self.position(la).ok().map(|i| &mut self.entries[i].1)
    }

    /// Whether `la` has a value.
    #[must_use]
    #[inline]
    pub fn contains_key(&self, la: LineAddr) -> bool {
        self.position(la).is_ok()
    }

    /// Sets the value for `la`, returning the one it replaces.
    pub fn insert(&mut self, la: LineAddr, value: T) -> Option<T> {
        match self.position(la) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (la, value));
                None
            }
        }
    }

    /// The value for `la`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, la: LineAddr, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.position(la) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (la, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes and returns the value for `la`, if any.
    pub fn remove(&mut self, la: LineAddr) -> Option<T> {
        self.position(la).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps the entries `keep` answers `true` for, visiting them in line
    /// order; `keep` may edit the values it keeps.
    pub fn retain(&mut self, mut keep: impl FnMut(LineAddr, &mut T) -> bool) {
        self.entries.retain_mut(|(la, v)| keep(*la, v));
    }

    /// Entries in line order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> + '_ {
        self.entries.iter().map(|(la, v)| (*la, v))
    }

    /// Lines in order.
    pub fn keys(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.iter().map(|&(la, _)| la)
    }

    /// Number of entries.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds nothing.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

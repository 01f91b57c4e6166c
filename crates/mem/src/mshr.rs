use std::error::Error;
use std::fmt;

use crate::{LineAddr, LineMap};

/// Error returned when an MSHR allocation would exceed capacity.
///
/// Controllers react by stalling the requesting port until an entry frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFullError {
    capacity: usize,
}

impl MshrFullError {
    /// The capacity that was exhausted.
    #[must_use]
    pub fn capacity(self) -> usize {
        self.capacity
    }
}

impl fmt::Display for MshrFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} MSHR entries in use", self.capacity)
    }
}

impl Error for MshrFullError {}

/// A Miss Status Holding Register file: at most one in-flight transaction
/// per cache line, bounded by `capacity`.
///
/// `T` is the controller-defined transaction record (requester, request
/// type, pending ack count, buffered data, …). Keyed by [`LineAddr`]
/// because the directory and every cache controller serialize coherence
/// transactions per line.
///
/// # Examples
///
/// ```
/// use hsc_mem::{LineAddr, Mshr};
///
/// let mut m: Mshr<&str> = Mshr::new(2);
/// m.alloc(LineAddr(1), "read miss")?;
/// assert!(m.contains(LineAddr(1)));
/// assert_eq!(m.remove(LineAddr(1)), Some("read miss"));
/// # Ok::<(), hsc_mem::MshrFullError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mshr<T> {
    capacity: usize,
    entries: LineMap<T>,
}

impl<T> Mshr<T> {
    /// Creates an empty file with room for `capacity` transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr { capacity, entries: LineMap::new() }
    }

    /// Allocates an entry for `la`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFullError`] when the file is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `la` already has an entry — one transaction per line is a
    /// protocol invariant, so a duplicate allocation is a bug.
    pub fn alloc(&mut self, la: LineAddr, txn: T) -> Result<&mut T, MshrFullError> {
        assert!(
            !self.entries.contains_key(la),
            "duplicate MSHR allocation for {la} (protocol bug)"
        );
        if self.entries.len() >= self.capacity {
            return Err(MshrFullError { capacity: self.capacity });
        }
        Ok(self.entries.get_or_insert_with(la, || txn))
    }

    /// Whether `la` has an in-flight transaction.
    #[must_use]
    pub fn contains(&self, la: LineAddr) -> bool {
        self.entries.contains_key(la)
    }

    /// Shared access to the transaction for `la`.
    #[must_use]
    pub fn get(&self, la: LineAddr) -> Option<&T> {
        self.entries.get(la)
    }

    /// Exclusive access to the transaction for `la`.
    pub fn get_mut(&mut self, la: LineAddr) -> Option<&mut T> {
        self.entries.get_mut(la)
    }

    /// Completes the transaction for `la`, returning its record.
    pub fn remove(&mut self, la: LineAddr) -> Option<T> {
        self.entries.remove(la)
    }

    /// Number of in-flight transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no transaction is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new allocation would fail.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Iterates over in-flight transactions in line order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_remove_cycle() {
        let mut m: Mshr<u32> = Mshr::new(4);
        m.alloc(LineAddr(9), 1).unwrap();
        assert_eq!(m.get(LineAddr(9)), Some(&1));
        *m.get_mut(LineAddr(9)).unwrap() += 1;
        assert_eq!(m.remove(LineAddr(9)), Some(2));
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m: Mshr<()> = Mshr::new(2);
        m.alloc(LineAddr(0), ()).unwrap();
        m.alloc(LineAddr(1), ()).unwrap();
        assert!(m.is_full());
        let err = m.alloc(LineAddr(2), ()).unwrap_err();
        assert_eq!(err.capacity(), 2);
        assert!(err.to_string().contains("2 MSHR"));
        // Freeing one makes room again.
        m.remove(LineAddr(0));
        assert!(m.alloc(LineAddr(2), ()).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate MSHR")]
    fn duplicate_allocation_panics() {
        let mut m: Mshr<()> = Mshr::new(2);
        m.alloc(LineAddr(0), ()).unwrap();
        let _ = m.alloc(LineAddr(0), ());
    }

    #[test]
    fn iteration_is_line_ordered() {
        let mut m: Mshr<char> = Mshr::new(8);
        m.alloc(LineAddr(5), 'b').unwrap();
        m.alloc(LineAddr(1), 'a').unwrap();
        let order: Vec<LineAddr> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(order, [LineAddr(1), LineAddr(5)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: Mshr<()> = Mshr::new(0);
    }
}

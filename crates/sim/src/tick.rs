use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in abstract ticks.
///
/// The workspace fixes 1 tick = 1/38.5 GHz ≈ 26 ps — the least common
/// multiple of the paper's Table III clocks — so a 3.5 GHz CPU cycle is
/// exactly 11 ticks and a 1.1 GHz GPU cycle exactly 35 (see
/// `hsc_cluster::{TICKS_PER_CPU_CYCLE, TICKS_PER_GPU_CYCLE}`). `Tick` is a
/// newtype so tick counts cannot be silently mixed with other integers.
///
/// # Examples
///
/// ```
/// use hsc_sim::Tick;
///
/// let start = Tick(100);
/// let end = start + 20;
/// assert_eq!(end, Tick(120));
/// assert_eq!(end.delta_since(start), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// The zero point of simulated time.
    pub const ZERO: Tick = Tick(0);

    /// Returns the raw tick count.
    #[must_use]
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// Number of ticks elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; elapsed time is never
    /// negative in a monotonic simulation.
    #[must_use]
    pub fn delta_since(self, earlier: Tick) -> u64 {
        assert!(earlier.0 <= self.0, "delta_since called with a later tick ({earlier} > {self})");
        self.0 - earlier.0
    }

    /// Saturating addition of a tick count.
    #[must_use]
    pub fn saturating_add(self, cycles: u64) -> Tick {
        Tick(self.0.saturating_add(cycles))
    }

    /// The larger of two ticks. Useful when a resource becomes free at one
    /// time and a request arrives at another.
    #[must_use]
    pub fn max(self, other: Tick) -> Tick {
        Tick(self.0.max(other.0))
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for Tick {
    type Output = Tick;
    fn sub(self, rhs: u64) -> Tick {
        Tick(self.0 - rhs)
    }
}

impl SubAssign<u64> for Tick {
    fn sub_assign(&mut self, rhs: u64) {
        self.0 -= rhs;
    }
}

impl From<u64> for Tick {
    fn from(v: u64) -> Tick {
        Tick(v)
    }
}

impl From<Tick> for u64 {
    fn from(t: Tick) -> u64 {
        t.0
    }
}

impl Sum<u64> for Tick {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Tick {
        Tick(iter.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = Tick(10);
        assert_eq!(t + 5, Tick(15));
        assert_eq!((t + 5) - 5, t);
        let mut m = t;
        m += 7;
        assert_eq!(m, Tick(17));
        m -= 17;
        assert_eq!(m, Tick::ZERO);
    }

    #[test]
    fn delta_since_measures_elapsed_cycles() {
        assert_eq!(Tick(30).delta_since(Tick(12)), 18);
        assert_eq!(Tick(30).delta_since(Tick(30)), 0);
    }

    #[test]
    #[should_panic(expected = "delta_since")]
    fn delta_since_panics_on_time_reversal() {
        let _ = Tick(1).delta_since(Tick(2));
    }

    #[test]
    fn ordering_follows_cycle_count() {
        assert!(Tick(1) < Tick(2));
        assert_eq!(Tick(4).max(Tick(9)), Tick(9));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Tick(42).to_string(), "42t");
    }

    #[test]
    fn conversions() {
        assert_eq!(Tick::from(3u64), Tick(3));
        assert_eq!(u64::from(Tick(3)), 3);
        assert_eq!(Tick(u64::MAX).saturating_add(1), Tick(u64::MAX));
    }
}

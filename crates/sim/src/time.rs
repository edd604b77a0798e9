//! Virtual time: nanoseconds since simulation start, as a totally ordered
//! integer type. All performance in the simulation is expressed in virtual
//! time, never wall-clock time, so runs are deterministic and independent
//! of host load.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Simulation start.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// From nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        VirtualTime(ns)
    }

    /// From microseconds.
    pub const fn from_us(us: u64) -> Self {
        VirtualTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        VirtualTime(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        VirtualTime(s * 1_000_000_000)
    }

    /// From fractional seconds (rounded to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        VirtualTime((s * 1e9).round() as u64)
    }

    /// From fractional nanoseconds (rounded).
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns >= 0.0 && ns.is_finite(), "invalid time {ns}");
        VirtualTime(ns.round() as u64)
    }

    /// Nanoseconds.
    pub const fn ns(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(earlier.0))
    }

    /// Larger of two times.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.checked_sub(rhs.0).expect("negative virtual time"))
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(VirtualTime::from_secs(2).ns(), 2_000_000_000);
        assert_eq!(VirtualTime::from_ms(3).ns(), 3_000_000);
        assert_eq!(VirtualTime::from_us(5).ns(), 5_000);
        assert_eq!(VirtualTime::from_secs_f64(0.5).ns(), 500_000_000);
        assert!((VirtualTime::from_ns(1_500_000_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = VirtualTime::from_ns(100);
        let b = VirtualTime::from_ns(250);
        assert_eq!((a + b).ns(), 350);
        assert_eq!((b - a).ns(), 150);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c.ns(), 350);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = VirtualTime::from_ns(100);
        let b = VirtualTime::from_ns(250);
        assert_eq!(a.saturating_since(b), VirtualTime::ZERO);
        assert_eq!(b.saturating_since(a).ns(), 150);
    }

    #[test]
    #[should_panic(expected = "negative virtual time")]
    fn checked_subtraction_panics_on_underflow() {
        let _ = VirtualTime::from_ns(1) - VirtualTime::from_ns(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(VirtualTime::from_ns(12).to_string(), "12ns");
        assert_eq!(VirtualTime::from_us(12).to_string(), "12.000us");
        assert_eq!(VirtualTime::from_ms(12).to_string(), "12.000ms");
        assert_eq!(VirtualTime::from_secs(12).to_string(), "12.000s");
    }
}

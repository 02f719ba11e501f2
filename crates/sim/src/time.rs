//! Discrete simulation time.
//!
//! The event kernel counts **femtoseconds in a `u64`** — integral, exactly
//! ordered, and wide enough for ~5 hours of simulated time, which removes a
//! whole class of floating-point-comparison heisenbugs from event ordering.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use maddpipe_tech::units::Seconds;

/// An absolute simulation timestamp (femtoseconds since time zero).
///
/// ```
/// use maddpipe_sim::time::SimTime;
///
/// let t = SimTime::from_picos(2.5);
/// assert_eq!(t.as_femtos(), 2_500);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp from femtoseconds.
    #[inline]
    pub const fn from_femtos(fs: u64) -> SimTime {
        SimTime(fs)
    }

    /// Creates a timestamp from picoseconds (fractional values are rounded
    /// to the nearest femtosecond).
    #[inline]
    pub fn from_picos(ps: f64) -> SimTime {
        SimTime((ps * 1e3).round() as u64)
    }

    /// Creates a timestamp from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> SimTime {
        SimTime((ns * 1e6).round() as u64)
    }

    /// This timestamp in femtoseconds.
    #[inline]
    pub const fn as_femtos(self) -> u64 {
        self.0
    }

    /// This timestamp in picoseconds.
    #[inline]
    pub fn as_picos(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// This timestamp in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Converts to the analog-domain [`Seconds`] type.
    #[inline]
    pub fn to_seconds(self) -> Seconds {
        Seconds(self.0 as f64 * 1e-15)
    }

    /// Rounds a physical duration to simulator resolution, halves away
    /// from zero, as `(s * 1e15).round() as u64` does, but without a libm
    /// call: it truncates, then adds one when the remainder, which the
    /// subtraction computes exactly, is at least one half. Past `u64::MAX`
    /// femtoseconds it saturates.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or non-finite: the kernel has no notion of
    /// negative time.
    #[inline]
    pub fn from_seconds(s: Seconds) -> SimTime {
        assert!(
            s.value().is_finite() && s.value() >= 0.0,
            "cannot convert {s} to simulation time"
        );
        let fs = s.value() * 1e15;
        let whole = fs as u64;
        SimTime(whole.saturating_add(u64::from(fs - whole as f64 >= 0.5)))
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow — subtracting a later time from an earlier one is
    /// always a logic error in the kernel.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} ns", self.as_nanos())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ps", self.as_picos())
        } else {
            write!(f, "{} fs", self.0)
        }
    }
}

impl From<Seconds> for SimTime {
    fn from(s: Seconds) -> SimTime {
        SimTime::from_seconds(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_nanos(17.8);
        assert_eq!(t.as_femtos(), 17_800_000);
        assert!((t.as_nanos() - 17.8).abs() < 1e-12);
        assert!((t.as_picos() - 17_800.0).abs() < 1e-9);
    }

    #[test]
    fn seconds_round_trip() {
        let s = Seconds::from_picos(123.0);
        let t = SimTime::from_seconds(s);
        assert_eq!(t.as_femtos(), 123_000);
        assert!((t.to_seconds().as_picos() - 123.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_femtos(100);
        let b = SimTime::from_femtos(30);
        assert_eq!((a + b).as_femtos(), 130);
        assert_eq!((a - b).as_femtos(), 70);
        assert_eq!(b.since(a), SimTime::ZERO);
        assert_eq!(a.since(b).as_femtos(), 70);
        let mut c = a;
        c += b;
        assert_eq!(c.as_femtos(), 130);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_femtos(1) - SimTime::from_femtos(2);
    }

    /// `from_seconds` rounds as `(s * 1e15).round() as u64` does: at
    /// ties, which round away from zero, just below them, at zero, past
    /// 2^53 fs, where every float is whole, and past 2^64 fs, where both
    /// saturate.
    #[test]
    fn from_seconds_rounds_as_round_does() {
        let round = |s: f64| (s * 1e15).round() as u64;
        let mut cases = vec![0.0, f64::MIN_POSITIVE, 0.49e-15, 0.5e-15, 0.51e-15];
        // Seconds whose femtosecond product is exactly a tie, or exactly
        // the float just below one.
        let (mut ties, mut below) = (0, 0);
        for k in 0..4096u32 {
            let tie = f64::from(k) + 0.5;
            for (fs, hits) in [
                (tie, &mut ties),
                (f64::from_bits(tie.to_bits() - 1), &mut below),
            ] {
                let s = fs / 1e15;
                if s * 1e15 == fs {
                    *hits += 1;
                    cases.push(s);
                }
            }
        }
        assert!(ties > 1000 && below > 1000, "{ties} ties, {below} below");
        for fs in [
            2f64.powi(53) + 2.0,
            3.0 * 2f64.powi(60),
            2f64.powi(64),
            1e30,
        ] {
            cases.push(fs / 1e15);
        }
        for s in cases {
            assert_eq!(
                SimTime::from_seconds(Seconds(s)).as_femtos(),
                round(s),
                "{s:e} s"
            );
        }
        assert_eq!(SimTime::from_seconds(Seconds(2.5e-15)).as_femtos(), 3);
        assert_eq!(
            SimTime::from_seconds(Seconds(1.0)).as_femtos(),
            1_000_000_000_000_000
        );
    }

    #[test]
    #[should_panic(expected = "cannot convert")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_seconds(Seconds(-1.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_femtos(12).to_string(), "12 fs");
        assert_eq!(SimTime::from_picos(1.5).to_string(), "1.500 ps");
        assert_eq!(SimTime::from_nanos(2.0).to_string(), "2.000 ns");
    }

    #[test]
    fn saturating_add_at_horizon() {
        assert_eq!(SimTime::MAX + SimTime(1), SimTime::MAX);
    }
}

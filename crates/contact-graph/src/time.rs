//! Simulation time types.
//!
//! The paper expresses deadlines in minutes for random graphs and in seconds
//! for the Haggle traces; internally everything is a dimensionless `f64`
//! *time unit*. [`Time`] is an absolute instant, [`TimeDelta`] a span.
//! Contact rates ([`Rate`]) are events per time unit.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// An absolute simulation instant.
///
/// `Time` is totally ordered; constructing a NaN time panics, which keeps
/// event-queue ordering sound.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Time(f64);

/// A span between two [`Time`]s.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeDelta(f64);

/// A contact rate: expected contacts per time unit (the paper's `λ_{i,j}`).
///
/// The reciprocal of the mean inter-contact time.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate(f64);

impl Time {
    /// Time zero (simulation start).
    pub const ZERO: Time = Time(0.0);

    /// Creates a time from raw units.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    #[inline]
    pub fn new(t: f64) -> Time {
        assert!(!t.is_nan(), "Time must not be NaN");
        Time(t)
    }

    /// Raw value in time units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl TimeDelta {
    /// Zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0.0);

    /// Creates a span from raw units.
    ///
    /// # Panics
    ///
    /// Panics if `d` is NaN.
    #[inline]
    pub fn new(d: f64) -> TimeDelta {
        assert!(!d.is_nan(), "TimeDelta must not be NaN");
        TimeDelta(d)
    }

    /// Raw value in time units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Whether the span is non-negative.
    pub fn is_non_negative(self) -> bool {
        self.0 >= 0.0
    }
}

impl Rate {
    /// Creates a rate in events per time unit.
    ///
    /// # Panics
    ///
    /// Panics if `r` is NaN or negative.
    pub fn new(r: f64) -> Rate {
        assert!(
            r.is_finite() && r >= 0.0,
            "Rate must be finite and >= 0, got {r}"
        );
        Rate(r)
    }

    /// Zero rate: the pair never meets.
    pub const ZERO: Rate = Rate(0.0);

    /// Constructs the rate whose mean inter-contact time is `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn from_mean_intercontact(mean: TimeDelta) -> Rate {
        assert!(
            mean.as_f64() > 0.0,
            "mean inter-contact time must be positive"
        );
        Rate(1.0 / mean.as_f64())
    }

    /// Raw value (events per time unit).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Mean inter-contact time `1/λ`; `None` for a zero rate.
    #[cfg(test)]
    pub(crate) fn mean_intercontact(self) -> Option<TimeDelta> {
        if self.0 > 0.0 {
            Some(TimeDelta(1.0 / self.0))
        } else {
            None
        }
    }

    /// Whether the rate is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Probability that at least one contact occurs within `window`
    /// (Eq. 3 of the paper): `1 − e^{−λT}`.
    pub fn contact_probability_within(self, window: TimeDelta) -> f64 {
        if window.as_f64() <= 0.0 {
            return 0.0;
        }
        1.0 - (-self.0 * window.as_f64()).exp()
    }
}

macro_rules! impl_eq_ord {
    ($ty:ident) => {
        impl Eq for $ty {}
        impl Ord for $ty {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                // Constructors reject NaN, so partial_cmp cannot fail.
                self.0
                    .partial_cmp(&other.0)
                    .expect("no NaN by construction")
            }
        }
        impl PartialOrd for $ty {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
    };
}

impl_eq_ord!(Time);
impl_eq_ord!(TimeDelta);
impl_eq_ord!(Rate);

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time::new(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    fn sub(self, rhs: TimeDelta) -> Time {
        Time::new(self.0 - rhs.0)
    }
}

impl Sub for Time {
    type Output = TimeDelta;
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta::new(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: f64) -> TimeDelta {
        TimeDelta::new(self.0 * rhs)
    }
}

impl Div<f64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: f64) -> TimeDelta {
        TimeDelta::new(self.0 / rhs)
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate::new(self.0 + rhs.0)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: f64) -> Rate {
        Rate::new(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    fn div(self, rhs: f64) -> Rate {
        Rate::new(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({})", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeDelta({})", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rate({})", self.0)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/unit", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::new(10.0) + TimeDelta::new(5.0);
        assert_eq!(t, Time::new(15.0));
        assert_eq!(t - Time::new(3.0), TimeDelta::new(12.0));
        assert_eq!(t - TimeDelta::new(15.0), Time::ZERO);
        assert_eq!(TimeDelta::new(4.0) * 2.5, TimeDelta::new(10.0));
        assert_eq!(TimeDelta::new(10.0) / 4.0, TimeDelta::new(2.5));
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![Time::new(3.0), Time::new(1.0), Time::new(2.0)];
        times.sort();
        assert_eq!(times, vec![Time::new(1.0), Time::new(2.0), Time::new(3.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_rate_rejected() {
        let _ = Rate::new(-1.0);
    }

    #[test]
    fn rate_reciprocal() {
        let r = Rate::from_mean_intercontact(TimeDelta::new(20.0));
        assert!((r.as_f64() - 0.05).abs() < 1e-12);
        assert_eq!(r.mean_intercontact(), Some(TimeDelta::new(20.0)));
        assert_eq!(Rate::ZERO.mean_intercontact(), None);
    }

    #[test]
    fn contact_probability_matches_eq3() {
        let r = Rate::new(0.1);
        let p = r.contact_probability_within(TimeDelta::new(10.0));
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(r.contact_probability_within(TimeDelta::ZERO), 0.0);
        // Zero rate never meets.
        assert_eq!(
            Rate::ZERO.contact_probability_within(TimeDelta::new(100.0)),
            0.0
        );
    }

    #[test]
    fn rate_combination() {
        assert!(((Rate::new(0.1) + Rate::new(0.2)).as_f64() - 0.3).abs() < 1e-12);
        assert_eq!(Rate::new(0.5) * 2.0, Rate::new(1.0));
        assert_eq!(Rate::new(1.0) / 4.0, Rate::new(0.25));
    }
}

//! Simulation time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::Error;

/// A point in (or duration of) simulation time.
///
/// The unit of time throughout the workspace is one **bus transaction
/// time**, following the simulation assumptions in Section 4.1 of the paper
/// ("We let the bus transaction time define the unit of time in our
/// simulations").
///
/// `Time` wraps an `f64` that is guaranteed finite and non-NaN, which makes
/// it totally ordered ([`Ord`]) and therefore usable as a priority-queue
/// key. Negative values are permitted so that durations can be subtracted;
/// event timestamps in the simulator are always non-negative.
///
/// # Examples
///
/// ```
/// use busarb_types::Time;
///
/// let a = Time::from(0.5);
/// let b = Time::from(1.0);
/// assert!(a < b);
/// assert_eq!((a + b).as_f64(), 1.5);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(OrderedF64);

/// Private total-ordered f64. Invariant: never NaN.
#[derive(Clone, Copy, Default, PartialEq, PartialOrd)]
struct OrderedF64(f64);

// Safe because the contained value is never NaN.
impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Invariant: not NaN, so partial_cmp always succeeds.
        self.partial_cmp(other).expect("Time is never NaN")
    }
}

impl core::hash::Hash for OrderedF64 {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 to 0.0 so Hash agrees with Eq.
        let v = if self.0 == 0.0 { 0.0f64 } else { self.0 };
        v.to_bits().hash(state);
    }
}

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(OrderedF64(0.0));

    /// One bus transaction time.
    pub const TRANSACTION: Time = Time(OrderedF64(1.0));

    /// A practical "infinitely far in the future" sentinel.
    pub const MAX: Time = Time(OrderedF64(f64::MAX));

    /// Creates a `Time` from a raw `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFiniteTime`] if `value` is NaN or infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use busarb_types::Time;
    ///
    /// # fn main() -> Result<(), busarb_types::Error> {
    /// let t = Time::new(2.5)?;
    /// assert_eq!(t.as_f64(), 2.5);
    /// assert!(Time::new(f64::NAN).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(value: f64) -> Result<Self, Error> {
        if value.is_finite() {
            Ok(Time(OrderedF64(value)))
        } else {
            Err(Error::NonFiniteTime { value })
        }
    }

    /// `value` as a `Time`, clamping the non-finite inputs that
    /// [`Time::new`] rejects to [`Time::ZERO`].
    ///
    /// The draw-engine refill loop uses this instead of `From<f64>`:
    /// its inputs are finite by construction, and the `From` impl's
    /// panic branch would otherwise sit on every batched sample. Debug
    /// builds still assert finiteness.
    #[must_use]
    pub fn saturating(value: f64) -> Time {
        debug_assert!(
            value.is_finite(),
            "Time::saturating requires a finite value"
        );
        Time::new(value).unwrap_or(Time::ZERO)
    }

    /// Returns the wrapped `f64` value.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 .0
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns `true` if this time is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 .0 == 0.0
    }

    /// Returns the absolute difference between two times.
    #[must_use]
    pub fn abs_diff(self, other: Time) -> Time {
        Time(OrderedF64((self.as_f64() - other.as_f64()).abs()))
    }
}

impl From<f64> for Time {
    /// Converts a finite `f64` into a `Time`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite. Use [`Time::new`] for a
    /// fallible conversion.
    fn from(value: f64) -> Self {
        Time::new(value).expect("Time::from requires a finite value")
    }
}

impl From<Time> for f64 {
    fn from(value: Time) -> Self {
        value.as_f64()
    }
}

impl Add for Time {
    type Output = Time;

    fn add(self, rhs: Time) -> Time {
        Time(OrderedF64(self.as_f64() + rhs.as_f64()))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;

    fn sub(self, rhs: Time) -> Time {
        Time(OrderedF64(self.as_f64() - rhs.as_f64()))
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Time {
    type Output = Time;

    fn mul(self, rhs: f64) -> Time {
        Time::from(self.as_f64() * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;

    fn div(self, rhs: f64) -> Time {
        Time::from(self.as_f64() / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({})", self.as_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_f64(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn construction_rejects_non_finite() {
        assert!(Time::new(f64::NAN).is_err());
        assert!(Time::new(f64::INFINITY).is_err());
        assert!(Time::new(f64::NEG_INFINITY).is_err());
        assert!(Time::new(0.0).is_ok());
        assert!(Time::new(-3.5).is_ok());
    }

    #[test]
    fn ordering_is_total_and_numeric() {
        let times = [
            Time::from(-1.0),
            Time::ZERO,
            Time::from(0.5),
            Time::TRANSACTION,
            Time::from(100.0),
        ];
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(Time::from(2.0).max(Time::from(3.0)), Time::from(3.0));
        assert_eq!(Time::from(2.0).min(Time::from(3.0)), Time::from(2.0));
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Time::from(1.25);
        let b = Time::from(0.75);
        assert_eq!((a + b).as_f64(), 2.0);
        assert_eq!((a - b).as_f64(), 0.5);
        assert_eq!((a * 2.0).as_f64(), 2.5);
        assert_eq!((a / 2.0).as_f64(), 0.625);
        let mut c = a;
        c += b;
        assert_eq!(c.as_f64(), 2.0);
        c -= b;
        assert_eq!(c.as_f64(), 1.25);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1.0, 2.0, 3.5].into_iter().map(Time::from).sum();
        assert_eq!(total.as_f64(), 6.5);
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        let pos = Time::from(0.0);
        let neg = Time::from(-0.0);
        assert_eq!(pos, neg);
        assert_eq!(hash_of(&pos), hash_of(&neg));
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Time::from(3.0);
        let b = Time::from(5.5);
        assert_eq!(a.abs_diff(b), Time::from(2.5));
        assert_eq!(b.abs_diff(a), Time::from(2.5));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Time::from(1.5)), "1.5");
        assert_eq!(format!("{:?}", Time::from(1.5)), "Time(1.5)");
    }

    #[test]
    fn is_zero() {
        assert!(Time::ZERO.is_zero());
        assert!(!Time::TRANSACTION.is_zero());
    }
}

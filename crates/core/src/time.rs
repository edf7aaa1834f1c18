//! Simulation time primitives.
//!
//! All simulator and controller code uses a single monotonically increasing
//! clock expressed in integer nanoseconds. Integer time keeps event ordering
//! exact and simulations bit-reproducible across runs and platforms;
//! floating-point time would accumulate rounding and break the determinism
//! the test suite relies on.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future (clock skew never panics).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference `self - other` in nanoseconds. Used by the slack
    /// computation, where a negative result is meaningful.
    #[inline]
    pub(crate) fn signed_delta_ns(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting and rate math).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "durations cannot be negative");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

/// Offset of the `i`-th arrival of a deterministically paced `rate` req/s
/// stream: `round(i · 1e9 / rate)` nanoseconds after the stream start.
///
/// Schedule generators must derive every timestamp from its *index*
/// through this function rather than repeatedly adding a truncated
/// inter-arrival period — the accumulated truncation error of the latter
/// grows linearly with schedule length (rate 30000 truncates to a
/// 33333 ns period, a realized 30000.3 req/s), while the per-index form
/// keeps every timestamp within ±0.5 ns of exact.
///
/// The division runs in u128 integer arithmetic with the rate quantized
/// to micro-req/s, so the result is exact (round-half-up) for any index —
/// no float rounding creeps in at large `i`.
#[inline]
pub fn paced_offset(i: u64, rate: f64) -> SimDuration {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    // rate in micro-req/s; i · 1e9 ns / rate  ==  i · 1e15 / rate_micro.
    let rate_micro = ((rate * 1e6).round() as u128).max(1);
    let num = i as u128 * 1_000_000_000_000_000u128;
    SimDuration(((num + rate_micro / 2) / rate_micro) as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(*self >= rhs, "SimDuration subtraction went negative");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(t + d, SimTime::from_millis(15));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_millis(5));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn signed_delta_can_be_negative() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!(a.signed_delta_ns(b), -200);
        assert_eq!(b.signed_delta_ns(a), 200);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(250));
        assert_eq!(d * 3, SimDuration::from_micros(300));
        assert_eq!(d / 4, SimDuration::from_micros(25));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn paced_offset_is_exact_per_index() {
        // Rates that divide 1e9 evenly land on exact multiples.
        assert_eq!(paced_offset(0, 1000.0), SimDuration::ZERO);
        assert_eq!(paced_offset(5, 1000.0), SimDuration::from_millis(5));
        // rate 30000: the truncated period would be 33333 ns; the paced
        // form keeps index 3 at exactly 100 µs (3/30000 s).
        assert_eq!(paced_offset(3, 30000.0), SimDuration::from_micros(100));
        // Large index, awkward rate: compare against exact rational math.
        let i = 17_999_999u64;
        let got = paced_offset(i, 30000.0).as_nanos() as i128;
        let want = (i as i128 * 1_000_000_000 + 15_000) / 30_000;
        assert!((got - want).abs() <= 1, "got {got}, want {want}");
    }

    #[test]
    fn paced_offset_has_no_cumulative_drift() {
        // 10 simulated minutes at a rate that does not divide 1e9: the
        // number of offsets inside the window must match rate × duration
        // within one arrival. The drifting accumulate-a-period scheme is
        // off by >100 here.
        let rate = 3001.0;
        let end = SimDuration::from_secs(600).as_nanos();
        let mut count = 0u64;
        let mut i = 0u64;
        while paced_offset(i, rate).as_nanos() < end {
            count += 1;
            i += 1;
        }
        let expected = (rate * 600.0).round() as i64;
        assert!(
            (count as i64 - expected).abs() <= 1,
            "realized {count} arrivals, expected {expected}"
        );
    }
}

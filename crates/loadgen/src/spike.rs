//! Spiking open-loop load patterns — the `wrk2_spike` equivalent.
//!
//! The paper modifies wrk2 to inject request-rate spikes with three knobs:
//! `-rate` (steady state), `-spikerate` (rate during the spike) and
//! `-spikelen` (spike duration); spikes repeat periodically (§VI-B:
//! "injecting 2s long request rate surges every 10s"). Arrivals are
//! deterministically paced at the instantaneous rate, wrk2-style, so the
//! measured latencies are free of coordinated omission by construction.

use serde::{Deserialize, Serialize};
use sg_core::time::{SimDuration, SimTime};

/// A periodic request-rate spike pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikePattern {
    /// Steady-state request rate (req/s) — wrk2's `-rate`.
    pub base_rate: f64,
    /// Request rate during a spike — wrk2's `-spikerate`.
    pub spike_rate: f64,
    /// Spike duration — wrk2's `-spikelen`.
    pub spike_len: SimDuration,
    /// Spike period (start-to-start).
    pub period: SimDuration,
    /// Start of the first spike.
    pub first_spike: SimTime,
}

impl SpikePattern {
    /// A constant-rate pattern (no spikes).
    pub fn constant(rate: f64) -> Self {
        SpikePattern {
            base_rate: rate,
            spike_rate: rate,
            spike_len: SimDuration::ZERO,
            period: SimDuration::from_secs(10),
            first_spike: SimTime::ZERO,
        }
    }

    /// The paper's §VI-B protocol: spikes of `magnitude × base` lasting
    /// `spike_len`, every 10 s, first spike after one full period.
    pub fn periodic(base_rate: f64, magnitude: f64, spike_len: SimDuration) -> Self {
        SpikePattern {
            base_rate,
            spike_rate: base_rate * magnitude,
            spike_len,
            period: SimDuration::from_secs(10),
            first_spike: SimTime::from_secs(10),
        }
    }

    /// Deterministically paced arrival schedule over `[start, end)`.
    ///
    /// The window is decomposed into constant-rate segments (base/spike
    /// alternation) and each segment is paced from its own start by
    /// arrival *index* ([`sg_core::time::paced_offset`]), so the realized
    /// rate of every segment stays within ±0.5 ns of nominal regardless
    /// of schedule length — no cumulative period-truncation drift.
    pub fn arrivals(&self, start: SimTime, end: SimTime) -> Vec<SimTime> {
        crate::ArrivalProfile::Spike(*self).arrivals(start, end)
    }

    /// Decompose `[start, end)` into half-open constant-rate segments.
    /// Spike windows are half-open: at `into_period == spike_len` exactly
    /// the rate is already back to base.
    pub(crate) fn segments(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, SimTime, f64)> {
        let mut segs = Vec::new();
        let mut cursor = start;
        for (ws, we) in self.spike_windows(start, end) {
            if ws > cursor {
                segs.push((cursor, ws, self.base_rate));
            }
            segs.push((ws, we, self.spike_rate));
            cursor = we;
        }
        if cursor < end {
            segs.push((cursor, end, self.base_rate));
        }
        segs
    }

    /// Spike windows intersecting `[start, end)`, for plotting/analysis.
    /// A zero `period` cannot repeat, so such patterns have no windows.
    pub fn spike_windows(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut out = Vec::new();
        if self.spike_len.is_zero() || self.period.is_zero() {
            return out;
        }
        let mut s = self.first_spike;
        while s < end {
            let e = s + self.spike_len;
            if e > start {
                out.push((s.max(start), e.min(end)));
            }
            s += self.period;
        }
        out
    }
}

/// Pattern for the FirstResponder short-surge experiments (Fig. 10):
/// instantaneous rate 20× the base for sub-millisecond windows, repeated
/// every `period`.
pub fn short_surge(base_rate: f64, surge_len: SimDuration, period: SimDuration) -> SpikePattern {
    SpikePattern {
        base_rate,
        spike_rate: base_rate * 20.0,
        spike_len: surge_len,
        period,
        first_spike: SimTime::ZERO + period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rate the schedule runs at instant `t`: that of the one segment
    /// covering `[t, t + 1 ns)`.
    fn rate_at(p: &SpikePattern, t: SimTime) -> f64 {
        let segs = p.segments(t, t + SimDuration::from_nanos(1));
        assert_eq!(segs.len(), 1, "{segs:?}");
        segs[0].2
    }

    #[test]
    fn constant_pattern_is_flat() {
        let p = SpikePattern::constant(1000.0);
        assert_eq!(rate_at(&p, SimTime::ZERO), 1000.0);
        assert_eq!(rate_at(&p, SimTime::from_secs(100)), 1000.0);
        let a = p.arrivals(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn periodic_pattern_alternates() {
        let p = SpikePattern::periodic(1000.0, 1.75, SimDuration::from_secs(2));
        // Before the first spike.
        assert_eq!(rate_at(&p, SimTime::from_secs(5)), 1000.0);
        // Inside the first spike [10, 12).
        assert_eq!(rate_at(&p, SimTime::from_secs(10)), 1750.0);
        assert_eq!(rate_at(&p, SimTime::from_secs(11)), 1750.0);
        // After it.
        assert_eq!(rate_at(&p, SimTime::from_secs(13)), 1000.0);
        // Second spike [20, 22).
        assert_eq!(rate_at(&p, SimTime::from_secs(21)), 1750.0);
    }

    #[test]
    fn arrival_count_reflects_spikes() {
        let base = SpikePattern::constant(1000.0)
            .arrivals(SimTime::ZERO, SimTime::from_secs(30))
            .len();
        let spiky = SpikePattern::periodic(1000.0, 2.0, SimDuration::from_secs(2))
            .arrivals(SimTime::ZERO, SimTime::from_secs(30))
            .len();
        // Two spikes in [0,30): [10,12) and [20,22): each adds ~1000×2s.
        let extra = spiky as i64 - base as i64;
        assert!(
            (extra - 4000).abs() < 100,
            "expected ~4000 extra arrivals, got {extra}"
        );
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let p = SpikePattern::periodic(500.0, 1.5, SimDuration::from_millis(100));
        let a = p.arrivals(SimTime::from_secs(1), SimTime::from_secs(5));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.first().unwrap() >= &SimTime::from_secs(1));
        assert!(a.last().unwrap() < &SimTime::from_secs(5));
    }

    #[test]
    fn spike_windows_enumeration() {
        let p = SpikePattern::periodic(1000.0, 2.0, SimDuration::from_secs(2));
        let w = p.spike_windows(SimTime::ZERO, SimTime::from_secs(35));
        assert_eq!(
            w,
            vec![
                (SimTime::from_secs(10), SimTime::from_secs(12)),
                (SimTime::from_secs(20), SimTime::from_secs(22)),
                (SimTime::from_secs(30), SimTime::from_secs(32)),
            ]
        );
    }

    /// Pin the half-open spike window: at `into_period == spike_len`
    /// exactly, the rate is already back to base.
    #[test]
    fn spike_end_boundary_is_exclusive() {
        let p = SpikePattern::periodic(1000.0, 1.75, SimDuration::from_secs(2));
        // First spike covers [10, 12): 12.0 exactly is base again.
        assert_eq!(rate_at(&p, SimTime::from_secs(12)), 1000.0);
        assert_eq!(
            rate_at(&p, SimTime::from_secs(12) - SimDuration::from_nanos(1)),
            1750.0
        );
        // Same at every later period boundary.
        assert_eq!(rate_at(&p, SimTime::from_secs(22)), 1000.0);
    }

    /// A pattern whose first spike starts at time zero is already spiking
    /// at t = 0 and exits the window half-open like any other.
    #[test]
    fn first_spike_at_zero() {
        let p = SpikePattern {
            first_spike: SimTime::ZERO,
            ..SpikePattern::periodic(1000.0, 2.0, SimDuration::from_secs(2))
        };
        assert_eq!(rate_at(&p, SimTime::ZERO), 2000.0);
        assert_eq!(rate_at(&p, SimTime::from_secs(2)), 1000.0);
        let a = p.arrivals(SimTime::ZERO, SimTime::from_secs(10));
        // [0,2) spike at 2000 + [2,10) base at 1000.
        assert_eq!(a.len(), 4000 + 8000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// A zero period must never be divided by (or loop forever): the
    /// pattern degenerates to a flat base rate.
    #[test]
    fn zero_period_never_divides() {
        let p = SpikePattern {
            period: SimDuration::ZERO,
            ..SpikePattern::constant(500.0)
        };
        assert_eq!(rate_at(&p, SimTime::ZERO), 500.0);
        assert_eq!(rate_at(&p, SimTime::from_secs(100)), 500.0);
        assert!(p
            .spike_windows(SimTime::ZERO, SimTime::from_secs(100))
            .is_empty());
        assert_eq!(p.arrivals(SimTime::ZERO, SimTime::from_secs(2)).len(), 1000);
        // Even with a nominal spike length, a zero period cannot repeat.
        let p = SpikePattern {
            period: SimDuration::ZERO,
            spike_len: SimDuration::from_secs(1),
            ..SpikePattern::constant(500.0)
        };
        assert_eq!(rate_at(&p, SimTime::from_secs(50)), 500.0);
        assert!(p
            .spike_windows(SimTime::ZERO, SimTime::from_secs(100))
            .is_empty());
    }

    /// Regression for the pacing-drift bug: a 10-minute constant schedule
    /// at a rate that does not divide 1e9 must realize `rate × duration`
    /// arrivals within 1 (the accumulated-period scheme drifted by >100).
    #[test]
    fn ten_minute_schedule_does_not_drift() {
        let rate = 2997.0;
        let a = SpikePattern::constant(rate).arrivals(SimTime::ZERO, SimTime::from_secs(600));
        let expected = (rate * 600.0).round() as i64;
        assert!(
            (a.len() as i64 - expected).abs() <= 1,
            "realized {} arrivals, expected {expected}",
            a.len()
        );
    }

    /// Segment decomposition pins exact per-segment arrival counts: drift
    /// cannot hide inside spike boundaries.
    #[test]
    fn spiky_schedule_counts_are_exact_per_segment() {
        let p = SpikePattern::periodic(1000.0, 2.0, SimDuration::from_secs(2));
        let a = p.arrivals(SimTime::ZERO, SimTime::from_secs(30));
        // [0,10) + [12,20) + [22,30) at 1000/s, [10,12) + [20,22) at 2000/s.
        assert_eq!(a.len(), 26_000 + 8_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn short_surge_is_20x() {
        let p = short_surge(
            2000.0,
            SimDuration::from_micros(100),
            SimDuration::from_millis(50),
        );
        assert_eq!(p.spike_rate, 40_000.0);
        // Inside the first surge window at t = period.
        assert_eq!(rate_at(&p, SimTime::from_millis(50)), 40_000.0);
        assert_eq!(rate_at(&p, SimTime::from_millis(51)), 2000.0);
    }
}

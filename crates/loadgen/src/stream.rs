//! Streaming (batched) arrival generation.
//!
//! [`ArrivalProfile::stream`] is the one arrival generator: it turns any
//! profile into a pull-based [`ArrivalSource`] holding only cursor state —
//! the current segment and in-segment arrival index for the index-paced
//! profiles, or the generator's RNG and dwell state for MMPP. Every
//! `arrivals()` method collects this stream, so a materialized schedule
//! and a streamed one are the same timestamps by construction. A
//! cluster-scale run no longer pays O(total arrivals) memory for its
//! schedule — 10 million spike requests stream out of a few dozen
//! segment descriptors (SCALING.md §3).

use crate::profile::{ArrivalProfile, Mmpp};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sg_core::arrivals::ArrivalSource;
use sg_core::time::{paced_offset, SimDuration, SimTime};

/// Walks a finite list of half-open constant-rate segments, pacing each
/// from its own start by arrival index ([`paced_offset`]), so a segment's
/// realized rate is exact to ±0.5 ns per arrival and long schedules never
/// accumulate period-truncation drift.
#[derive(Debug)]
struct PacedSegments {
    /// `(start, end, rate)` segments, ascending and non-overlapping.
    segs: Vec<(SimTime, SimTime, f64)>,
    /// Current segment.
    seg: usize,
    /// Next arrival index within the current segment.
    i: u64,
}

impl PacedSegments {
    fn new(segs: Vec<(SimTime, SimTime, f64)>) -> Self {
        assert!(
            segs.iter().all(|&(_, _, rate)| rate > 0.0),
            "rate must be positive"
        );
        PacedSegments { segs, seg: 0, i: 0 }
    }

    fn next(&mut self) -> Option<SimTime> {
        while let Some(&(start, end, rate)) = self.segs.get(self.seg) {
            let t = start + paced_offset(self.i, rate);
            if t < end {
                self.i += 1;
                return Some(t);
            }
            self.seg += 1;
            self.i = 0;
        }
        None
    }
}

/// One exponential draw with the given mean, floored at 1 ns so schedules
/// always make progress.
fn exp_duration(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.random();
    mean.mul_f64(-(1.0 - u).ln())
        .max(SimDuration::from_nanos(1))
}

/// The MMPP generator loop with its state (clock, phase, dwell boundary,
/// RNG) persisted between pulls.
///
/// State switches are sampled first, arrivals within each dwell from the
/// same stream; crossing a state boundary discards the in-flight
/// exponential gap and redraws at the new rate, which is distributionally
/// exact for a Poisson process (memorylessness). The dwell walk starts at
/// the window start.
#[derive(Debug)]
struct MmppStream {
    low_rate: f64,
    high_rate: f64,
    mean_dwell_low: SimDuration,
    mean_dwell_high: SimDuration,
    rng: SmallRng,
    t: SimTime,
    end: SimTime,
    high: bool,
    state_end: SimTime,
}

impl MmppStream {
    fn new(m: &Mmpp, start: SimTime, end: SimTime) -> Self {
        assert!(
            m.low_rate > 0.0 && m.high_rate > 0.0,
            "rates must be positive"
        );
        assert!(
            !m.mean_dwell_low.is_zero() && !m.mean_dwell_high.is_zero(),
            "dwell times must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(m.seed);
        let state_end = start + exp_duration(&mut rng, m.mean_dwell_low);
        MmppStream {
            low_rate: m.low_rate,
            high_rate: m.high_rate,
            mean_dwell_low: m.mean_dwell_low,
            mean_dwell_high: m.mean_dwell_high,
            rng,
            t: start,
            end,
            high: false,
            state_end,
        }
    }

    fn next(&mut self) -> Option<SimTime> {
        while self.t < self.end {
            let rate = if self.high {
                self.high_rate
            } else {
                self.low_rate
            };
            let next = self.t + exp_duration(&mut self.rng, SimDuration::from_secs_f64(1.0 / rate));
            if next >= self.state_end {
                self.t = self.state_end;
                self.high = !self.high;
                let dwell = if self.high {
                    self.mean_dwell_high
                } else {
                    self.mean_dwell_low
                };
                self.state_end = self.t + exp_duration(&mut self.rng, dwell);
                continue;
            }
            self.t = next;
            if self.t >= self.end {
                return None;
            }
            return Some(self.t);
        }
        None
    }
}

#[derive(Debug)]
enum Inner {
    Paced(PacedSegments),
    Mmpp(MmppStream),
}

/// A profile's arrival schedule served as a pull-based stream.
///
/// Built by [`ArrivalProfile::stream`]; yields the schedule's timestamps
/// in ascending order.
#[derive(Debug)]
pub struct ProfileStream {
    inner: Inner,
}

impl ArrivalSource for ProfileStream {
    fn next_arrival(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Paced(p) => p.next(),
            Inner::Mmpp(m) => m.next(),
        }
    }
}

impl ArrivalProfile {
    /// Stream the deterministic arrival schedule over `[start, end)`
    /// without ever materializing it.
    pub fn stream(&self, start: SimTime, end: SimTime) -> ProfileStream {
        let inner = match self {
            ArrivalProfile::Spike(p) => {
                assert!(
                    p.base_rate > 0.0 && p.spike_rate > 0.0,
                    "rates must be positive"
                );
                Inner::Paced(PacedSegments::new(p.segments(start, end)))
            }
            ArrivalProfile::Diurnal(c) => Inner::Paced(PacedSegments::new(c.segments(start, end))),
            ArrivalProfile::Trace(t) => Inner::Paced(PacedSegments::new(t.segments(start, end))),
            ArrivalProfile::Mmpp(m) => Inner::Mmpp(MmppStream::new(m, start, end)),
        };
        ProfileStream { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DiurnalCurve, TraceProfile};
    use crate::spike::SpikePattern;

    /// FNV-1a over the schedule's little-endian nanosecond timestamps.
    fn fnv1a(ts: &[SimTime]) -> u64 {
        ts.iter()
            .flat_map(|t| t.as_nanos().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// Pin `(arrival count, FNV-1a)` of the schedule over each
    /// `(start_ms, end_ms)` window. The pins were captured from the
    /// per-family batch generators this stream replaced, so every
    /// family's schedule still matches them byte for byte.
    fn assert_pinned(profile: ArrivalProfile, pins: [(u64, u64, usize, u64); 2]) {
        for (start_ms, end_ms, len, digest) in pins {
            let (start, end) = (SimTime::from_millis(start_ms), SimTime::from_millis(end_ms));
            let schedule = profile.arrivals(start, end);
            assert_eq!(
                (schedule.len(), fnv1a(&schedule)),
                (len, digest),
                "{} schedule over [{start_ms}, {end_ms}) ms drifted",
                profile.label()
            );
        }
    }

    #[test]
    fn spike_stream_is_byte_identical() {
        let p = SpikePattern::periodic(1000.0, 2.0, SimDuration::from_secs(2));
        // The second window is not aligned to spike boundaries.
        assert_pinned(
            ArrivalProfile::Spike(p),
            [
                (0, 30_000, 34_000, 0x5f9f_6c40_bd61_ddfb),
                (10_500, 23_750, 16_750, 0x6268_d22e_2691_21f1),
            ],
        );
    }

    #[test]
    fn diurnal_stream_is_byte_identical() {
        let c = DiurnalCurve::day_night(600.0, 1600.0, SimDuration::from_secs(60));
        assert_pinned(
            ArrivalProfile::Diurnal(c),
            [
                (0, 120_000, 132_000, 0xb87c_b0cf_8327_50f0),
                (95_000, 130_000, 38_500, 0xd4be_4460_07ff_f65a),
            ],
        );
    }

    #[test]
    fn mmpp_stream_is_byte_identical() {
        // Same profile, different window: the dwell walk starts at the
        // window start.
        assert_pinned(
            ArrivalProfile::Mmpp(Mmpp::bursty(2000.0, 42)),
            [
                (0, 30_000, 64_164, 0x0a52_b6c0_4b6b_90bc),
                (3_000, 17_000, 28_936, 0x458e_009c_b4ba_a8f0),
            ],
        );
    }

    #[test]
    fn trace_stream_is_byte_identical() {
        let t = TraceProfile::from_csv_str("0,100\n10,300\n20,200\n").unwrap();
        assert_pinned(
            ArrivalProfile::Trace(t),
            [
                (0, 60_000, 12_000, 0x6391_00f7_4a4c_491e),
                (35_000, 55_000, 4_500, 0x905c_14a0_a973_cffa),
            ],
        );
    }

    #[test]
    fn chunked_pulls_match_one_at_a_time() {
        let p = ArrivalProfile::Spike(SpikePattern::constant(997.0));
        let full = p.arrivals(SimTime::ZERO, SimTime::from_secs(10));
        let mut src = p.stream(SimTime::ZERO, SimTime::from_secs(10));
        let mut chunked = Vec::new();
        // Odd chunk size so chunk boundaries never align with segments.
        while src.next_chunk(&mut chunked, 777) > 0 {}
        assert_eq!(full, chunked);
    }

    #[test]
    fn exhausted_stream_stays_exhausted() {
        let p = ArrivalProfile::Spike(SpikePattern::constant(10.0));
        let mut src = p.stream(SimTime::ZERO, SimTime::from_secs(1));
        while src.next_arrival().is_some() {}
        assert_eq!(src.next_arrival(), None);
    }
}

//! The violation-volume metric (paper §II-D, Fig. 3) and tail-latency
//! helpers.
//!
//! Violation volume is the *magnitude–duration product* of QoS violations:
//! the area of the output-latency-vs-time curve that lies above the QoS
//! target. It unifies the two quantities older metrics capture separately —
//! tail latency (magnitude, ignores duration) and violation frequency
//! (duration, ignores magnitude). A short, tall spike and a long, shallow
//! one can have equal volume (Fig. 3).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One completed request as seen by the load generator: when its response
/// arrived and how long it took end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Completion (response) time.
    pub completion: SimTime,
    /// End-to-end latency of the request.
    pub latency: SimDuration,
}

/// How far from the end [`insert_in_completion_order`] looks before it
/// falls back to a binary search.
const NEAR_TAIL: usize = 8;

/// Insert `p` into `points`, which is sorted by completion, at its place
/// in completion order: after every point that completes at or before
/// it, so ties keep insertion order. A log built this way equals a
/// stable `sort_by_key(|p| p.completion)` of the insertion order.
///
/// A recorder that stamps a point with a completion a little after the
/// moment it records it (a response is recorded when sent, stamped with
/// its delivery) puts each new point at most a few places from the end:
/// a backward scan of at most 8 points finds it, and the insert moves
/// only the points after it. A point further back (delays that fall
/// after a network surge) is placed by binary search, so the search
/// stays logarithmic however far it lands.
pub fn insert_in_completion_order(points: &mut Vec<LatencyPoint>, p: LatencyPoint) {
    let n = points.len();
    let tail = &points[n.saturating_sub(NEAR_TAIL)..];
    let later = tail
        .iter()
        .rev()
        .take_while(|q| q.completion > p.completion)
        .count();
    let at = if later < tail.len() {
        n - later
    } else {
        points[..n - later].partition_point(|q| q.completion <= p.completion)
    };
    points.insert(at, p);
}

/// Violation volume of a latency timeline against QoS target `qos`,
/// in **second²** (latency-seconds integrated over wall-clock seconds).
///
/// The latency curve is treated as a left-continuous step function: each
/// completed request defines the output latency level from the previous
/// completion up to its own. Points must be sorted by completion time
/// (the load generator produces them in completion order); out-of-order
/// input is debug-asserted and handled by clamping in release builds.
///
/// The integration window is `[window_start, window_end]`; points outside
/// it are ignored. The level before the first in-window completion is taken
/// as non-violating (zero contribution), which matches the paper's warmup
/// protocol (measurement starts from steady state).
pub fn violation_volume(
    points: &[LatencyPoint],
    qos: SimDuration,
    window_start: SimTime,
    window_end: SimTime,
) -> f64 {
    let mut volume = 0.0f64;
    let mut prev = window_start;
    for p in points {
        if p.completion < window_start {
            continue;
        }
        let t = p.completion.min(window_end);
        debug_assert!(t >= prev, "latency points must be sorted by completion");
        let dt = t.saturating_since(prev).as_secs_f64();
        if p.latency > qos {
            let excess = (p.latency - qos).as_secs_f64();
            volume += excess * dt;
        }
        prev = t;
        if p.completion >= window_end {
            break;
        }
    }
    volume
}

/// Request-weighted violation magnitude: `Σ max(0, latency − qos)` over all
/// in-window requests, in seconds. A secondary view of the same data that
/// weighs each *request* equally instead of each *second*; useful when
/// completion timestamps are unavailable.
pub fn total_violation_excess(
    points: &[LatencyPoint],
    qos: SimDuration,
    window_start: SimTime,
    window_end: SimTime,
) -> f64 {
    points
        .iter()
        .filter(|p| p.completion >= window_start && p.completion <= window_end)
        .map(|p| p.latency.saturating_sub(qos).as_secs_f64())
        .sum()
}

/// Fraction of in-window requests violating the QoS target.
pub fn violation_rate(
    points: &[LatencyPoint],
    qos: SimDuration,
    window_start: SimTime,
    window_end: SimTime,
) -> f64 {
    let mut total = 0u64;
    let mut violating = 0u64;
    for p in points {
        if p.completion < window_start || p.completion > window_end {
            continue;
        }
        total += 1;
        if p.latency > qos {
            violating += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        violating as f64 / total as f64
    }
}

/// Exact percentile of a latency sample by the nearest-rank method
/// (`q` in `[0,100]`). Returns `None` on an empty sample. Sorts a scratch
/// copy; intended for analysis, not hot paths (hot paths use the HDR
/// histogram in `sg-loadgen`).
pub fn percentile(latencies: &[SimDuration], q: f64) -> Option<SimDuration> {
    if latencies.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0,100]");
    let mut sorted: Vec<SimDuration> = latencies.to_vec();
    sorted.sort_unstable();
    if q == 0.0 {
        return Some(sorted[0]);
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pt(completion_ms: u64, latency_ms: u64) -> LatencyPoint {
        LatencyPoint {
            completion: SimTime::from_millis(completion_ms),
            latency: SimDuration::from_millis(latency_ms),
        }
    }

    #[test]
    fn no_violations_zero_volume() {
        let pts = vec![pt(10, 1), pt(20, 2), pt(30, 1)];
        let v = violation_volume(
            &pts,
            SimDuration::from_millis(5),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        assert_eq!(v, 0.0);
    }

    #[test]
    fn rectangle_area_matches_hand_computation() {
        // One request at t=20ms with latency 15ms vs qos 5ms: excess 10ms
        // held over the 10ms gap since the previous completion at t=10ms
        // → 0.010s × 0.010s = 1e-4 s².
        let pts = vec![pt(10, 1), pt(20, 15)];
        let v = violation_volume(
            &pts,
            SimDuration::from_millis(5),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        assert!((v - 1e-4).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn magnitude_duration_tradeoff_fig3() {
        // Fig. 3: a tall-narrow violation can have smaller volume than a
        // shallow-wide one. Red: 20ms excess for 10ms. Blue: 5ms excess for
        // 100ms. Blue's volume is larger though its peak is lower.
        let qos = SimDuration::from_millis(10);
        let red = vec![pt(10, 10), pt(20, 30), pt(30, 10)];
        let blue: Vec<_> = (1..=11).map(|i| pt(10 * i, 15)).collect();
        let w_end = SimTime::from_millis(200);
        let v_red = violation_volume(&red, qos, SimTime::ZERO, w_end);
        let v_blue = violation_volume(&blue, qos, SimTime::ZERO, w_end);
        assert!(v_red < v_blue, "red {v_red} should be < blue {v_blue}");
    }

    #[test]
    fn window_clips_contributions() {
        let pts = vec![pt(10, 20), pt(50, 20), pt(90, 20)];
        let qos = SimDuration::from_millis(10);
        let full = violation_volume(&pts, qos, SimTime::ZERO, SimTime::from_millis(100));
        let clipped = violation_volume(
            &pts,
            qos,
            SimTime::from_millis(40),
            SimTime::from_millis(60),
        );
        assert!(clipped < full);
        // In-window: the 50ms point covers [40,50]; the 90ms point defines
        // the level over (50,90], of which [50,60] is in-window.
        assert!((clipped - 2.0 * 0.010 * 0.010).abs() < 1e-12);
    }

    #[test]
    fn excess_and_rate() {
        let pts = vec![pt(10, 20), pt(20, 5), pt(30, 30)];
        let qos = SimDuration::from_millis(10);
        let w_end = SimTime::from_millis(100);
        let excess = total_violation_excess(&pts, qos, SimTime::ZERO, w_end);
        assert!((excess - (0.010 + 0.020)).abs() < 1e-12);
        let rate = violation_rate(&pts, qos, SimTime::ZERO, w_end);
        assert!((rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let qos = SimDuration::from_millis(10);
        assert_eq!(
            violation_volume(&[], qos, SimTime::ZERO, SimTime::from_secs(1)),
            0.0
        );
        assert_eq!(
            violation_rate(&[], qos, SimTime::ZERO, SimTime::from_secs(1)),
            0.0
        );
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let lats: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        assert_eq!(percentile(&lats, 50.0), Some(SimDuration::from_millis(50)));
        assert_eq!(percentile(&lats, 98.0), Some(SimDuration::from_millis(98)));
        assert_eq!(
            percentile(&lats, 100.0),
            Some(SimDuration::from_millis(100))
        );
        assert_eq!(percentile(&lats, 0.0), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn percentile_single_element() {
        let one = vec![SimDuration::from_micros(7)];
        assert_eq!(percentile(&one, 99.0), Some(SimDuration::from_micros(7)));
    }

    /// Each point's latency is its recording index, so equal
    /// completions show which order they kept.
    fn log_of(completions: &[u64]) -> (Vec<LatencyPoint>, Vec<LatencyPoint>) {
        let recorded: Vec<LatencyPoint> = completions
            .iter()
            .zip(0..)
            .map(|(&c, i)| LatencyPoint {
                completion: SimTime::from_nanos(c),
                latency: SimDuration::from_nanos(i),
            })
            .collect();
        let mut log = Vec::new();
        for &p in &recorded {
            insert_in_completion_order(&mut log, p);
        }
        (recorded, log)
    }

    fn stable_sorted(mut points: Vec<LatencyPoint>) -> Vec<LatencyPoint> {
        points.sort_by_key(|p| p.completion);
        points
    }

    #[test]
    fn ties_follow_their_equals_near_the_end_and_far_back() {
        // 0..20 in order, then a 3 that lands 16 places back (past the
        // backward scan) and an 18 that lands 1 place back (inside it).
        let mut completions: Vec<u64> = (0..20).collect();
        completions.extend([3, 18]);
        let (recorded, log) = log_of(&completions);
        assert_eq!(log[4], recorded[20], "the late 3 follows the first 3");
        assert_eq!(log[20], recorded[21], "the late 18 follows the first 18");
        assert_eq!(log, stable_sorted(recorded));
    }

    // A recorder's clock only moves forward (steps of 0 repeat an
    // instant); each point completes a delay after it is recorded.
    // Three delays in four are 0-3 ticks (ties, and landings a few
    // places back); one in four is 50-99 ticks, as in a network
    // surge, so the points recorded after it land past the backward
    // scan.
    proptest! {
        #[test]
        fn the_in_order_log_is_a_stable_sort_of_the_recording_order(
            words in prop::collection::vec(any::<u64>(), 0..400),
        ) {
            let mut clock = 0;
            let completions: Vec<u64> = words
                .iter()
                .map(|w| {
                    clock += w % 3;
                    let delay = if w >> 2 & 3 == 0 { 50 + (w >> 8) % 50 } else { (w >> 8) % 4 };
                    clock + delay
                })
                .collect();
            let (recorded, log) = log_of(&completions);
            prop_assert_eq!(log, stable_sorted(recorded));
        }
    }
}

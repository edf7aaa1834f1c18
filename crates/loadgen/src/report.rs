//! Per-run QoS reports and the paper's multi-trial aggregation protocol.
//!
//! The modified wrk2 outputs a latency histogram plus the violation
//! volume; the artifact's analysis step then, per configuration, "collects
//! 17 data-points for each controller, excludes the best and worst
//! data-points to remove extreme outliers, and averages the remaining 15".
//! Both steps are implemented here.

use crate::histogram::LatencyHistogram;
use serde::{Deserialize, Serialize};
use sg_core::time::{SimDuration, SimTime};
use sg_core::violation::{violation_rate, violation_volume, LatencyPoint};

/// QoS summary of one run over a measurement window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Requests completed inside the window.
    pub requests: u64,
    /// Violation volume (s²) against the QoS limit (§II-D).
    pub violation_volume: f64,
    /// Fraction of requests violating the QoS limit.
    pub violation_rate: f64,
    /// Mean latency.
    pub mean: SimDuration,
    /// P50 latency.
    pub p50: SimDuration,
    /// P98 latency (the paper's tail statistic).
    pub p98: SimDuration,
    /// P99.9 latency.
    pub p999: SimDuration,
    /// Maximum latency.
    pub max: SimDuration,
    /// Time-averaged allocated cores (from the simulator's meter).
    pub avg_cores: f64,
    /// Energy in joules (idle-subtracted).
    pub energy_j: f64,
}

impl RunReport {
    /// Build a report from completed-request points.
    ///
    /// `points` must be sorted by completion time (the simulator emits
    /// them that way). Only completions within `[window_start,
    /// window_end]` count.
    pub fn from_points(
        points: &[LatencyPoint],
        qos: SimDuration,
        window_start: SimTime,
        window_end: SimTime,
        avg_cores: f64,
        energy_j: f64,
    ) -> Self {
        let mut hist = LatencyHistogram::with_default_resolution();
        let mut n = 0u64;
        for p in points {
            if p.completion >= window_start && p.completion <= window_end {
                hist.record(p.latency);
                n += 1;
            }
        }
        let zero = SimDuration::ZERO;
        RunReport {
            requests: n,
            violation_volume: violation_volume(points, qos, window_start, window_end),
            violation_rate: violation_rate(points, qos, window_start, window_end),
            mean: hist.mean().unwrap_or(zero),
            p50: hist.percentile(50.0).unwrap_or(zero),
            p98: hist.percentile(98.0).unwrap_or(zero),
            p999: hist.percentile(99.9).unwrap_or(zero),
            max: hist.max().unwrap_or(zero),
            avg_cores,
            energy_j,
        }
    }
}

/// Trimmed mean over repeated trials: drop the single best and worst by
/// `key`, average the rest (the paper's 17→15 protocol). With fewer than
/// three samples, a plain mean of `key` is returned.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    if samples.len() < 3 {
        return samples.iter().sum::<f64>() / samples.len() as f64;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let inner = &sorted[1..sorted.len() - 1];
    inner.iter().sum::<f64>() / inner.len() as f64
}

/// Aggregate a set of per-trial reports with the paper's protocol: each
/// scalar metric is trimmed-averaged independently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateReport {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Trimmed-mean violation volume (s²).
    pub violation_volume: f64,
    /// Trimmed-mean violation rate.
    pub violation_rate: f64,
    /// Trimmed-mean P98 latency (seconds).
    pub p98_s: f64,
    /// Trimmed-mean average cores.
    pub avg_cores: f64,
    /// Trimmed-mean energy (J).
    pub energy_j: f64,
}

impl AggregateReport {
    /// Aggregate trial reports.
    pub fn from_reports(reports: &[RunReport]) -> Self {
        let get =
            |f: fn(&RunReport) -> f64| trimmed_mean(&reports.iter().map(f).collect::<Vec<_>>());
        AggregateReport {
            trials: reports.len(),
            violation_volume: get(|r| r.violation_volume),
            violation_rate: get(|r| r.violation_rate),
            p98_s: get(|r| r.p98.as_secs_f64()),
            avg_cores: get(|r| r.avg_cores),
            energy_j: get(|r| r.energy_j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(ms: u64, lat_ms: u64) -> LatencyPoint {
        LatencyPoint {
            completion: SimTime::from_millis(ms),
            latency: SimDuration::from_millis(lat_ms),
        }
    }

    #[test]
    fn report_counts_window_only() {
        let pts = vec![pt(5, 1), pt(15, 1), pt(25, 1), pt(35, 1)];
        let r = RunReport::from_points(
            &pts,
            SimDuration::from_millis(10),
            SimTime::from_millis(10),
            SimTime::from_millis(30),
            4.0,
            100.0,
        );
        assert_eq!(r.requests, 2);
        assert_eq!(r.violation_volume, 0.0);
        assert_eq!(r.avg_cores, 4.0);
    }

    #[test]
    fn report_captures_violations() {
        let pts = vec![pt(10, 5), pt(20, 50), pt(30, 5)];
        let r = RunReport::from_points(
            &pts,
            SimDuration::from_millis(10),
            SimTime::ZERO,
            SimTime::from_millis(100),
            0.0,
            0.0,
        );
        assert!(r.violation_volume > 0.0);
        assert!((r.violation_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(r.max >= SimDuration::from_millis(49));
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // 17 samples: outliers 0 and 1000 dropped.
        let mut samples = vec![10.0; 15];
        samples.push(0.0);
        samples.push(1000.0);
        assert!((trimmed_mean(&samples) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_small_samples() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert!((trimmed_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((trimmed_mean(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
        // Exactly 3: drops both extremes, keeps the median.
        assert!((trimmed_mean(&[1.0, 5.0, 100.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_over_trials() {
        let mk = |vv: f64| RunReport {
            requests: 100,
            violation_volume: vv,
            violation_rate: 0.1,
            mean: SimDuration::from_millis(5),
            p50: SimDuration::from_millis(5),
            p98: SimDuration::from_millis(9),
            p999: SimDuration::from_millis(12),
            max: SimDuration::from_millis(20),
            avg_cores: 34.0,
            energy_j: 50.0,
        };
        let reports: Vec<RunReport> = [1.0, 2.0, 3.0, 4.0, 100.0].iter().map(|&v| mk(v)).collect();
        let agg = AggregateReport::from_reports(&reports);
        assert_eq!(agg.trials, 5);
        // Trim drops 1.0 and 100.0 → mean of (2,3,4) = 3.
        assert!((agg.violation_volume - 3.0).abs() < 1e-12);
        assert!((agg.avg_cores - 34.0).abs() < 1e-12);
    }
}

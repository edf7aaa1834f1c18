//! Threading-model-aware per-container metrics (paper §III-B, Eqs. 2–3).
//!
//! The key problem these metrics solve: with a *fixed-size threadpool*
//! connection model, a surge queues requests inside the upstream container
//! while they wait for a free downstream connection. The upstream
//! container's raw execution time inflates even though it is not the
//! bottleneck, and the downstream container — the actual root cause — shows
//! no violation at all. Controllers that look at raw per-container latency
//! therefore upscale the wrong container (Fig. 5b).
//!
//! SurgeGuard splits the observed time:
//!
//! * `execMetric = execTime − timeWaitingForFreeConn` (Eq. 2) — a *true*
//!   local slowdown signal.
//! * `queueBuildup = execTime / execMetric` (Eq. 3) — how much of the
//!   observed time was lost to the hidden threadpool queue; a rising value
//!   means *downstream* needs more resources.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Timing sample for a single request observed at one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSample {
    /// Total time from request arrival at the container to response sent
    /// (includes downstream RPC time and any wait for a free connection).
    pub exec_time: SimDuration,
    /// Portion of `exec_time` spent waiting for a free connection/thread
    /// in a fixed-size threadpool. Zero under connection-per-request.
    pub conn_wait: SimDuration,
}

impl RequestSample {
    /// `execMetric` for this request (Eq. 2). Saturates at zero if the
    /// recorded wait somehow exceeds the total (defensive; cannot happen
    /// with a correct recorder).
    #[inline]
    pub fn exec_metric(self) -> SimDuration {
        self.exec_time.saturating_sub(self.conn_wait)
    }
}

/// Aggregated metrics for one container over one observation window.
///
/// The container runtimes compute these and periodically share them with
/// Escalator (the paper uses shared files/pipes; the simulator delivers
/// snapshots on the same cadence).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct WindowMetrics {
    /// Number of requests completed in the window.
    pub requests: u64,
    /// Mean `execTime` over the window.
    pub mean_exec_time: SimDuration,
    /// Mean `execMetric` over the window.
    pub mean_exec_metric: SimDuration,
    /// Window-level `queueBuildup`: total execTime / total execMetric.
    /// 1.0 when no time is lost to connection waits.
    pub queue_buildup: f64,
    /// Number of requests in the window that arrived carrying an active
    /// `pkt.upscale` hint.
    pub upscale_hints: u64,
}

/// Accumulates [`RequestSample`]s for one container and produces
/// [`WindowMetrics`] when the window is flushed.
#[derive(Debug, Clone, Default)]
pub struct MetricsWindow {
    requests: u64,
    total_exec_time: SimDuration,
    total_exec_metric: SimDuration,
    upscale_hints: u64,
}

impl MetricsWindow {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request. `hinted` is true when the request
    /// arrived with `pkt.upscale > 0`.
    #[inline]
    pub fn record(&mut self, sample: RequestSample, hinted: bool) {
        self.requests += 1;
        self.total_exec_time += sample.exec_time;
        self.total_exec_metric += sample.exec_metric();
        if hinted {
            self.upscale_hints += 1;
        }
    }

    /// Number of samples recorded so far in this window.
    #[inline]
    pub fn len(&self) -> u64 {
        self.requests
    }

    /// True when no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    /// Produce the window aggregate and reset the accumulator.
    ///
    /// An empty window yields zeroed metrics with `queue_buildup = 1.0`
    /// (no evidence of queueing).
    pub fn flush(&mut self) -> WindowMetrics {
        let out = self.peek();
        *self = Self::default();
        out
    }

    /// Compute the aggregate without resetting.
    pub fn peek(&self) -> WindowMetrics {
        if self.requests == 0 {
            return WindowMetrics {
                queue_buildup: 1.0,
                ..WindowMetrics::default()
            };
        }
        let n = self.requests;
        // queueBuildup aggregated over the window as a ratio of totals; this
        // weighs each request by its duration, matching the paper's use of
        // the metric as "how much observed time was queueing".
        let qb = if self.total_exec_metric.is_zero() {
            // All time was spent waiting for connections: maximal buildup.
            f64::INFINITY
        } else {
            self.total_exec_time.as_nanos() as f64 / self.total_exec_metric.as_nanos() as f64
        };
        WindowMetrics {
            requests: n,
            mean_exec_time: self.total_exec_time / n,
            mean_exec_metric: self.total_exec_metric / n,
            queue_buildup: qb,
            upscale_hints: self.upscale_hints,
        }
    }
}

/// Exponentially weighted moving average over scalar observations.
///
/// Used for smoothing the metrics Parties-style controllers consume and for
/// the sensitivity matrix (`execAvg`). With `alpha` close to 1 the average
/// tracks new observations aggressively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// New EWMA; `alpha` is the weight of the *new* observation, in `[0,1]`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Ewma { alpha, value: None }
    }

    /// Update with a new observation and return the new average. The first
    /// observation initializes the average directly.
    #[inline]
    pub fn update(&mut self, obs: f64) -> f64 {
        let v = match self.value {
            None => obs,
            Some(prev) => self.alpha * obs + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been recorded.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn exec_metric_subtracts_conn_wait() {
        let s = RequestSample {
            exec_time: us(100),
            conn_wait: us(30),
        };
        assert_eq!(s.exec_metric(), us(70));
    }

    #[test]
    fn exec_metric_saturates() {
        let s = RequestSample {
            exec_time: us(10),
            conn_wait: us(30),
        };
        assert_eq!(s.exec_metric(), SimDuration::ZERO);
    }

    #[test]
    fn unlimited_threadpool_has_unit_queue_buildup() {
        // Under connection-per-request, conn_wait is always zero, so
        // execMetric == execTime and queueBuildup == 1 (paper §VI-C:
        // "execMetric=execTime for unlimited threadpools").
        let mut w = MetricsWindow::new();
        for i in 1..=10 {
            w.record(
                RequestSample {
                    exec_time: us(i * 10),
                    conn_wait: SimDuration::ZERO,
                },
                false,
            );
        }
        let m = w.flush();
        assert_eq!(m.requests, 10);
        assert!((m.queue_buildup - 1.0).abs() < 1e-12);
        assert_eq!(m.mean_exec_time, m.mean_exec_metric);
    }

    #[test]
    fn queue_buildup_reflects_conn_wait_share() {
        let mut w = MetricsWindow::new();
        // 75% of total time is connection wait → buildup = 4.0.
        w.record(
            RequestSample {
                exec_time: us(400),
                conn_wait: us(300),
            },
            false,
        );
        let m = w.flush();
        assert!((m.queue_buildup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn all_wait_window_reports_infinite_buildup() {
        let mut w = MetricsWindow::new();
        w.record(
            RequestSample {
                exec_time: us(100),
                conn_wait: us(100),
            },
            false,
        );
        assert!(w.peek().queue_buildup.is_infinite());
    }

    #[test]
    fn empty_window_is_neutral() {
        let mut w = MetricsWindow::new();
        let m = w.flush();
        assert_eq!(m.requests, 0);
        assert!((m.queue_buildup - 1.0).abs() < 1e-12);
        assert_eq!(m.mean_exec_time, SimDuration::ZERO);
    }

    #[test]
    fn flush_resets_state() {
        let mut w = MetricsWindow::new();
        w.record(
            RequestSample {
                exec_time: us(10),
                conn_wait: SimDuration::ZERO,
            },
            true,
        );
        let m1 = w.flush();
        assert_eq!(m1.requests, 1);
        assert_eq!(m1.upscale_hints, 1);
        assert!(w.is_empty());
        let m2 = w.flush();
        assert_eq!(m2.requests, 0);
    }

    #[test]
    fn hint_counting() {
        let mut w = MetricsWindow::new();
        let s = RequestSample {
            exec_time: us(10),
            conn_wait: SimDuration::ZERO,
        };
        w.record(s, true);
        w.record(s, false);
        w.record(s, true);
        assert_eq!(w.peek().upscale_hints, 2);
    }

    #[test]
    fn ewma_initializes_then_blends() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(100.0), 100.0);
        assert_eq!(e.update(200.0), 150.0);
        assert_eq!(e.update(200.0), 175.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(1.5);
    }
}

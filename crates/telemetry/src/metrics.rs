//! Metrics registry and time-series samples — the third telemetry pillar.
//!
//! The decision trace (PR 2) records *events* and the span stream (PR 3)
//! records *requests*; this module records *state*: typed gauge/counter
//! series keyed by `(node, container, metric)`, sampled on a fixed
//! cadence. The simulator samples synchronously at every decision cycle
//! (`Simulation::with_metrics`), so a metrics file is byte-identical
//! across reruns of the same seed; the live backend samples from a
//! dedicated low-priority thread through the bounded relay ring
//! (drop-not-block, drops testified in-stream per family).
//!
//! Each sample is one [`crate::TelemetryEvent::Metric`] line in the
//! shared JSONL wire format, preceded by a
//! [`crate::TelemetryEvent::MetricsMeta`] header carrying
//! [`METRICS_SCHEMA_VERSION`]. The [`MetricsRegistry`] is a
//! current-value view over the same samples — the live backend keeps one
//! behind the relay and serves it as Prometheus text exposition
//! (`sg-loadtest --metrics-listen`).

use crate::event::TelemetryEvent;
use crate::sink::TelemetrySink;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Version stamped into the `metrics_meta` header line. Bump when the
/// set of metric names or their meanings changes incompatibly.
/// Version 2 adds the `replicas` gauge (horizontal scaling).
/// Version 3 adds the cumulative aggregation snapshots riding the same
/// stream: `digest`, `slo`, and `topk` lines (see [`crate::agg`]).
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// How a series behaves over time (drives the Prometheus `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Instantaneous value; may move in any direction.
    Gauge,
    /// Monotonically non-decreasing total.
    Counter,
}

impl MetricKind {
    /// Prometheus type name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetricKind::Gauge => "gauge",
            MetricKind::Counter => "counter",
        }
    }
}

/// Identity of one internal-state series for a container.
///
/// These are exactly the quantities the paper plots over time (Fig. 7/8)
/// or feeds into the Escalator's Table II scoring: the allocation state,
/// the Eq. 2/3 window metrics, the learned sensitivity arms, the hidden
/// connection-pool state, and the per-window slack distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricId {
    /// Cores currently allocated (gauge).
    Cores,
    /// Current DVFS level (gauge; 0 = base frequency).
    FreqLevel,
    /// FirstResponder packet-hook boosts accepted for this container
    /// since the run started (counter) — boosts stay visible here even
    /// after the level retires between two samples.
    FrBoosts,
    /// Mean `execMetric` (Eq. 2) of the last completed window, ns (gauge).
    ExecMetric,
    /// `queueBuildup` (Eq. 3) of the last completed window (gauge).
    QueueBuildup,
    /// Requests completed in the last window (gauge).
    WindowRequests,
    /// Requests that arrived carrying an `upscale` hint, cumulative
    /// (counter).
    UpscaleHints,
    /// Learned upscale sensitivity at this core-count arm (gauge; only
    /// emitted for arms the sensitivity matrix has observed).
    Sensitivity(u8),
    /// Connections in use, summed over the container's egress pools
    /// (gauge).
    PoolInUse,
    /// Callers queued waiting for a free connection, summed over the
    /// container's egress pools (gauge).
    PoolWaiters,
    /// Acquires that had to queue, cumulative over the container's egress
    /// pools (counter).
    PoolQueuedTotal,
    /// p50 of per-packet slack observed since the previous sample, ns
    /// (gauge; negative = behind expected progress).
    SlackP50,
    /// p99 (worst-biased) of per-packet slack observed since the previous
    /// sample, ns (gauge).
    SlackP99,
    /// Active replicas of the service group (gauge; emitted on the
    /// group's primary container only).
    Replicas,
}

impl MetricId {
    /// Stable wire name of the metric.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::Cores => "cores",
            MetricId::FreqLevel => "freq_level",
            MetricId::FrBoosts => "fr_boosts",
            MetricId::ExecMetric => "exec_metric_ns",
            MetricId::QueueBuildup => "queue_buildup",
            MetricId::WindowRequests => "window_requests",
            MetricId::UpscaleHints => "upscale_hints",
            MetricId::Sensitivity(_) => "sensitivity",
            MetricId::PoolInUse => "pool_in_use",
            MetricId::PoolWaiters => "pool_waiters",
            MetricId::PoolQueuedTotal => "pool_queued_total",
            MetricId::SlackP50 => "slack_p50_ns",
            MetricId::SlackP99 => "slack_p99_ns",
            MetricId::Replicas => "replicas",
        }
    }

    /// The core-count arm, for the per-arm sensitivity series.
    pub fn arm(self) -> Option<u8> {
        match self {
            MetricId::Sensitivity(arm) => Some(arm),
            _ => None,
        }
    }

    /// Gauge or counter.
    pub(crate) fn kind(self) -> MetricKind {
        match self {
            MetricId::FrBoosts | MetricId::UpscaleHints | MetricId::PoolQueuedTotal => {
                MetricKind::Counter
            }
            _ => MetricKind::Gauge,
        }
    }

    /// Decode from the wire name (+ optional `arm` field).
    pub(crate) fn from_wire(name: &str, arm: Option<u8>) -> Option<MetricId> {
        Some(match (name, arm) {
            ("cores", None) => MetricId::Cores,
            ("freq_level", None) => MetricId::FreqLevel,
            ("fr_boosts", None) => MetricId::FrBoosts,
            ("exec_metric_ns", None) => MetricId::ExecMetric,
            ("queue_buildup", None) => MetricId::QueueBuildup,
            ("window_requests", None) => MetricId::WindowRequests,
            ("upscale_hints", None) => MetricId::UpscaleHints,
            ("sensitivity", Some(arm)) => MetricId::Sensitivity(arm),
            ("pool_in_use", None) => MetricId::PoolInUse,
            ("pool_waiters", None) => MetricId::PoolWaiters,
            ("pool_queued_total", None) => MetricId::PoolQueuedTotal,
            ("slack_p50_ns", None) => MetricId::SlackP50,
            ("slack_p99_ns", None) => MetricId::SlackP99,
            ("replicas", None) => MetricId::Replicas,
            _ => return None,
        })
    }
}

/// One sampled point of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// Sample time (sweep start on the live sampler).
    pub at: SimTime,
    /// Node hosting the container.
    pub node: NodeId,
    /// The container the series describes.
    pub container: ContainerId,
    /// Which series.
    pub metric: MetricId,
    /// The sampled value. Counters are carried as their running total.
    pub value: f64,
}

impl MetricSample {
    /// Clamp non-finite values (e.g. `queueBuildup = ∞` when a window
    /// was pure connection wait) to something JSON can carry.
    pub fn sanitized(mut self) -> Self {
        if self.value.is_nan() {
            self.value = 0.0;
        } else if self.value.is_infinite() {
            self.value = if self.value > 0.0 { 1e12 } else { -1e12 };
        }
        self
    }
}

/// Current-value store over every series seen, keyed by
/// `(node, container, metric)`.
///
/// Implements [`TelemetrySink`], ignoring every non-`Metric` event, so it
/// can sit directly behind a relay/demux: the live driver tees the
/// metrics stream into both the JSONL file and a registry, and the
/// scrape listener renders the registry on demand.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    current: Mutex<BTreeMap<(u32, u32, MetricId), f64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (last write wins per series).
    pub fn record(&self, sample: &MetricSample) {
        let sample = sample.sanitized();
        self.current
            .lock()
            .expect("MetricsRegistry poisoned")
            .insert(
                (sample.node.0, sample.container.0, sample.metric),
                sample.value,
            );
    }

    /// Latest value of one series, if it has been sampled.
    pub fn get(&self, node: NodeId, container: ContainerId, metric: MetricId) -> Option<f64> {
        self.current
            .lock()
            .expect("MetricsRegistry poisoned")
            .get(&(node.0, container.0, metric))
            .copied()
    }

    /// Render the whole registry as Prometheus text exposition
    /// (version 0.0.4): `# TYPE` per metric family, one labelled sample
    /// per series, metric names prefixed `sg_`.
    pub fn render_prometheus(&self) -> String {
        let current = self.current.lock().expect("MetricsRegistry poisoned");
        // Group series under their metric family so the TYPE comment is
        // emitted once per family.
        let mut families: BTreeMap<&'static str, (MetricKind, Vec<String>)> = BTreeMap::new();
        for (&(node, container, metric), &value) in current.iter() {
            let entry = families
                .entry(metric.name())
                .or_insert_with(|| (metric.kind(), Vec::new()));
            let labels = match metric.arm() {
                Some(arm) => {
                    format!("node=\"{node}\",container=\"{container}\",arm=\"{arm}\"")
                }
                None => format!("node=\"{node}\",container=\"{container}\""),
            };
            entry
                .1
                .push(format!("sg_{}{{{labels}}} {value}", metric.name()));
        }
        let mut out = String::new();
        for (name, (kind, lines)) in families {
            out.push_str(&format!("# TYPE sg_{name} {}\n", kind.name()));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

impl TelemetrySink for MetricsRegistry {
    fn emit(&self, event: TelemetryEvent) {
        if let TelemetryEvent::Metric(sample) = event {
            self.record(&sample);
        }
    }
}

/// Nearest-rank p50/p99 of a slack population (ns). Sorts in place;
/// `None` on an empty slice. The p99 is taken from the *negative* end —
/// the paper cares about how far behind the worst packets are, so the
/// "p99" series is the 1st percentile of the sorted values (most
/// negative slack), mirroring the worst-case bias of the FirstResponder
/// trigger.
pub fn slack_p50_p99(samples: &mut [i64]) -> Option<(i64, i64)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = |q: f64| -> i64 {
        let r = ((q * n as f64).ceil() as usize).clamp(1, n);
        samples[r - 1]
    };
    // Sorted ascending: worst (most negative) slack sits at the low end.
    Some((rank(0.50), rank(0.01)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, container: u32, metric: MetricId, value: f64) -> MetricSample {
        MetricSample {
            at: SimTime::from_millis(100),
            node: NodeId(node),
            container: ContainerId(container),
            metric,
            value,
        }
    }

    #[test]
    fn registry_keeps_latest_value_per_series() {
        let reg = MetricsRegistry::new();
        reg.record(&sample(0, 1, MetricId::Cores, 2.0));
        reg.record(&sample(0, 1, MetricId::Cores, 5.0));
        reg.record(&sample(0, 2, MetricId::Cores, 3.0));
        assert_eq!(
            reg.get(NodeId(0), ContainerId(1), MetricId::Cores),
            Some(5.0)
        );
        assert_eq!(
            reg.get(NodeId(0), ContainerId(2), MetricId::Cores),
            Some(3.0)
        );
        assert_eq!(reg.get(NodeId(0), ContainerId(3), MetricId::Cores), None);
    }

    #[test]
    fn registry_ignores_non_metric_events() {
        let reg = MetricsRegistry::new();
        reg.emit(TelemetryEvent::Dropped {
            count: 3,
            family: None,
        });
        assert_eq!(
            reg.render_prometheus(),
            MetricsRegistry::new().render_prometheus()
        );
    }

    #[test]
    fn prometheus_rendering_has_types_and_labels() {
        let reg = MetricsRegistry::new();
        reg.record(&sample(0, 1, MetricId::Cores, 4.0));
        reg.record(&sample(0, 1, MetricId::FrBoosts, 17.0));
        reg.record(&sample(1, 2, MetricId::Sensitivity(3), 0.25));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sg_cores gauge"), "{text}");
        assert!(text.contains("# TYPE sg_fr_boosts counter"), "{text}");
        assert!(
            text.contains("sg_cores{node=\"0\",container=\"1\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("sg_sensitivity{node=\"1\",container=\"2\",arm=\"3\"} 0.25"),
            "{text}"
        );
    }

    #[test]
    fn non_finite_values_are_sanitized() {
        let reg = MetricsRegistry::new();
        reg.record(&sample(0, 0, MetricId::QueueBuildup, f64::INFINITY));
        let v = reg
            .get(NodeId(0), ContainerId(0), MetricId::QueueBuildup)
            .unwrap();
        assert!(v.is_finite() && v > 1e9);
        reg.record(&sample(0, 0, MetricId::QueueBuildup, f64::NAN));
        assert_eq!(
            reg.get(NodeId(0), ContainerId(0), MetricId::QueueBuildup),
            Some(0.0)
        );
    }

    #[test]
    fn metric_ids_round_trip_their_wire_names() {
        let ids = [
            MetricId::Cores,
            MetricId::FreqLevel,
            MetricId::FrBoosts,
            MetricId::ExecMetric,
            MetricId::QueueBuildup,
            MetricId::WindowRequests,
            MetricId::UpscaleHints,
            MetricId::Sensitivity(5),
            MetricId::PoolInUse,
            MetricId::PoolWaiters,
            MetricId::PoolQueuedTotal,
            MetricId::SlackP50,
            MetricId::SlackP99,
            MetricId::Replicas,
        ];
        for id in ids {
            assert_eq!(MetricId::from_wire(id.name(), id.arm()), Some(id));
        }
        assert_eq!(MetricId::from_wire("sensitivity", None), None);
        assert_eq!(MetricId::from_wire("cores", Some(2)), None);
        assert_eq!(MetricId::from_wire("nope", None), None);
    }

    #[test]
    fn slack_quantiles_are_worst_biased() {
        let mut v: Vec<i64> = (0..100).map(|i| i - 50).collect();
        let (p50, p99) = slack_p50_p99(&mut v).unwrap();
        assert_eq!(p50, -1); // nearest-rank median of -50..49
        assert_eq!(p99, -50); // most negative end
        assert_eq!(slack_p50_p99(&mut []), None);
        let (a, b) = slack_p50_p99(&mut [7]).unwrap();
        assert_eq!((a, b), (7, 7));
    }
}

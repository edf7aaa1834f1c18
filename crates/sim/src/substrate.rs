//! The substrate contract: the observations the simulator and the live
//! backend must make the same way, said once. Each substrate calls these
//! from its own mechanism — the simulator on its event loop, the live
//! backend from its rx-hook, tick and sampler threads — and keeps only
//! what differs: when a sweep runs, how counters are stored, locking.
//!
//! * [`packet_boost`]: what a packet hook's actions amount to (the
//!   FirstResponder site, paper Fig. 9);
//! * [`NodeSnapshot::active`] and [`NodeSnapshot::emit_windows`]: the
//!   decision-cycle view the Escalator's `execMetric` and `queueBuildup`
//!   come from;
//! * [`GaugeRow`] and [`emit_sweep`]: one sweep of the metrics stream.
//!
//! The rest of the contract sits beside the types it concerns: span
//! stamps in [`sg_telemetry::HopSpan`] and [`sg_telemetry::SpanRecord`],
//! fault edges in [`crate::ledger::AllocLedger::fault_edge`] and
//! [`crate::app::TaskGraph::edges_toward`], jitter windows in
//! [`crate::network::Network::for_config`].

use crate::cluster::SimConfig;
use crate::controller::{ContainerSnapshot, ControlAction, NodeSnapshot};
use sg_core::allocator::ContainerAlloc;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metrics::WindowMetrics;
use sg_core::replica::ReplicaLayout;
use sg_core::time::SimTime;
use sg_telemetry::{MetricId, MetricSample, TelemetryEvent, TelemetrySink};

/// The FirstResponder boost a packet hook's `actions` amount to, as its
/// `FrBoost` event ([`TelemetryEvent::fr_boost`] over their `SetFreq`
/// levels): one episode per packet whose hook boosted. A substrate
/// counts each `Some` toward `dest`'s `fr_boosts` gauge, and emits the
/// event when tracing.
pub fn packet_boost(
    actions: &[ControlAction],
    at: SimTime,
    node: NodeId,
    dest: ContainerId,
    slack_ns: i64,
) -> Option<TelemetryEvent> {
    let levels = actions.iter().filter_map(|a| match *a {
        ControlAction::SetFreq { level, .. } => Some(level),
        _ => None,
    });
    TelemetryEvent::fr_boost(at, node, dest, slack_ns, levels)
}

impl NodeSnapshot {
    /// `node`'s view at a decision cycle: one entry per active replica
    /// slot of the services it hosts, primary-first per service group
    /// (the pre-replica order at `max_replicas = 1`). Draining replicas
    /// stop appearing: no new decisions target them. `is_active(slot)`
    /// reads a slot's lifecycle state; `read(slot)` flushes its window
    /// and reads its allocation.
    pub fn active(
        cfg: &SimConfig,
        node: NodeId,
        is_active: impl Fn(usize) -> bool,
        mut read: impl FnMut(usize) -> (WindowMetrics, ContainerAlloc),
    ) -> Self {
        let layout = ReplicaLayout::new(cfg.graph.len(), cfg.max_replicas);
        let containers = cfg
            .placement
            .services_on(node)
            .into_iter()
            .flat_map(|s| layout.slots_of(s))
            .filter(|&slot| is_active(slot))
            .map(|slot| {
                let (metrics, alloc) = read(slot);
                ContainerSnapshot {
                    id: ContainerId(slot as u32),
                    metrics,
                    alloc,
                }
            })
            .collect();
        NodeSnapshot { node, containers }
    }

    /// One `Window` event per entry at `at`: the windows this cycle's
    /// controller is about to consume.
    pub fn emit_windows(&self, at: SimTime, sink: &dyn TelemetrySink) {
        for cs in &self.containers {
            sink.emit(TelemetryEvent::window(at, self.node, cs.id, &cs.metrics));
        }
    }
}

/// One container's row of a gauge sweep. A substrate fills it from its
/// own counters; [`emit_sweep`] writes its series in wire order.
#[derive(Debug, Clone, Copy)]
pub struct GaugeRow {
    /// Node hosting the container.
    pub node: NodeId,
    /// The container and its allocation after this cycle's actions.
    pub alloc: ContainerAlloc,
    /// The last window the container's controller consumed.
    pub window: WindowMetrics,
    /// FirstResponder boost episodes destined here so far.
    pub fr_boosts: u64,
    /// Upscale hints seen in consumed windows so far.
    pub upscale_hints: u64,
    /// Connections in use, callers waiting, and acquires that had to
    /// queue, summed over the container's egress pools.
    pub pools: [u64; 3],
    /// p50/p99 of per-packet slack since the previous sweep; `None`,
    /// which writes neither series, when no packet arrived.
    pub slack: Option<(i64, i64)>,
}

fn gauge(
    at: SimTime,
    node: NodeId,
    container: ContainerId,
    metric: MetricId,
    value: f64,
) -> TelemetryEvent {
    TelemetryEvent::Metric(
        MetricSample {
            at,
            node,
            container,
            metric,
            value,
        }
        .sanitized(),
    )
}

/// Write one gauge sweep at `at`, in the order every metrics stream
/// keeps: each row's series; then, when horizontal scaling is on, each
/// `(service, active replicas)` of `replicas` on the group's primary
/// (single-replica streams keep their schema-v1 shape); then the
/// controllers' own samples; then the cumulative aggregation snapshots,
/// when the run aggregates.
pub fn emit_sweep(
    sink: &dyn TelemetrySink,
    at: SimTime,
    cfg: &SimConfig,
    rows: &[GaugeRow],
    replicas: impl IntoIterator<Item = (ServiceId, u32)>,
    controllers: Vec<MetricSample>,
    agg: Option<Vec<TelemetryEvent>>,
) {
    for row in rows {
        let slack = row.slack.map(|(p50, p99)| {
            [
                (MetricId::SlackP50, p50 as f64),
                (MetricId::SlackP99, p99 as f64),
            ]
        });
        let series = [
            (MetricId::Cores, row.alloc.cores as f64),
            (MetricId::FreqLevel, row.alloc.freq_level as f64),
            (MetricId::FrBoosts, row.fr_boosts as f64),
            (
                MetricId::ExecMetric,
                row.window.mean_exec_metric.as_nanos() as f64,
            ),
            (MetricId::QueueBuildup, row.window.queue_buildup),
            (MetricId::WindowRequests, row.window.requests as f64),
            (MetricId::UpscaleHints, row.upscale_hints as f64),
            (MetricId::PoolInUse, row.pools[0] as f64),
            (MetricId::PoolWaiters, row.pools[1] as f64),
            (MetricId::PoolQueuedTotal, row.pools[2] as f64),
        ];
        for (metric, value) in series.into_iter().chain(slack.into_iter().flatten()) {
            sink.emit(gauge(at, row.node, row.alloc.id, metric, value));
        }
    }
    if cfg.max_replicas > 1 {
        for (s, active) in replicas {
            let primary = ContainerId(s.0);
            let node = cfg.placement.node(s);
            sink.emit(gauge(at, node, primary, MetricId::Replicas, active as f64));
        }
    }
    for sample in controllers {
        sink.emit(TelemetryEvent::Metric(sample.sanitized()));
    }
    for event in agg.into_iter().flatten() {
        sink.emit(event);
    }
}

//! Observation hooks: the opt-in telemetry / span / metrics / profile
//! streams, and the per-cycle gauge sweep.

use super::*;

impl Simulation {
    /// Enable decision-trace telemetry: the harness emits action, alloc,
    /// FirstResponder-boost and window events into `sink`, and every
    /// controller is offered the sink for its own events (scoreboards).
    /// The simulator is single-threaded, so events are recorded directly —
    /// no relay ring is needed on this substrate.
    pub fn with_telemetry(mut self, sink: SharedSink) -> Self {
        for controller in &mut self.controllers {
            controller.attach_telemetry(Arc::clone(&sink));
        }
        self.sink = Some(sink);
        self
    }

    /// Enable per-request span tracing: every request the deterministic
    /// `sampler` selects emits one hop span per RPC in its call graph
    /// plus a synthetic root "request" span, all into `sink`. The
    /// simulator emits synchronously — spans are exact, not clocked.
    pub fn with_spans(mut self, sink: SharedSink, sampler: SpanSampler) -> Self {
        self.span_sink = Some(sink);
        self.sampler = sampler;
        self
    }

    /// Enable continuous internal-state metrics: at the end of every
    /// decision cycle the harness records one gauge sample per
    /// `(container, metric)` — cores, DVFS level, cumulative
    /// FirstResponder boosts, `exec_metric`, `queue_buildup`, window
    /// request count, cumulative upscale hints, connection-pool
    /// occupancy/waiters, per-window slack p50/p99 — plus whatever the
    /// controller exposes via [`Controller::metric_samples`]. The
    /// simulator emits synchronously at each cycle (the stream header's
    /// `interval_ns` is 0), so same-seed reruns produce byte-identical
    /// timelines.
    pub fn with_metrics(mut self, sink: SharedSink) -> Self {
        self.metrics_sink = Some(sink);
        self
    }

    /// Enable the mergeable aggregation layer ([`sg_telemetry::agg`]):
    /// every measured root completion is folded into the owning node's
    /// latency digest, SLO window, and heavy-hitter sketch, and each
    /// decision cycle emits the node's cumulative digest/slo/topk
    /// snapshots into the metrics stream (when one is attached via
    /// [`Simulation::with_metrics`]). The handle stays shared so callers
    /// can merge the per-node shards into one cluster view at teardown.
    pub fn with_agg(mut self, agg: Arc<AggRuntime>) -> Self {
        self.agg = Some(agg);
        self
    }

    /// Enable the self-profiler: event dispatch is counted per event
    /// class (with 1-in-2^k sampled timing on the per-packet classes —
    /// see [`sg_telemetry::profile::SIM_SAMPLE_SHIFT`]), heap-depth /
    /// invocation-table high-water marks are tracked, and the finished
    /// [`sg_telemetry::ProfileReport`] is emitted into `sink` at the end
    /// of the run. Profiling reads the
    /// wall clock but never simulation state, so enabling it cannot
    /// perturb the deterministic outputs.
    pub fn with_profile(mut self, sink: SharedSink) -> Self {
        self.profiler = Some(Box::new(SimProfiler::new()));
        self.profile_sink = Some(sink);
        self
    }

    /// Self-profile phase of one dispatched event.
    pub(super) fn classify(event: &Event) -> ProfilePhase {
        match event {
            Event::ClientArrival { .. } => ProfilePhase::SimArrival,
            Event::Deliver { packet } => match packet.kind {
                PacketKind::Request => ProfilePhase::SimDeliverRequest,
                PacketKind::Response => ProfilePhase::SimDeliverResponse,
            },
            Event::PhaseComplete { .. } => ProfilePhase::SimPhaseComplete,
            Event::ControllerTick { .. } => ProfilePhase::SimControllerTick,
            Event::FreqApply { .. } => ProfilePhase::SimFreqApply,
            Event::FaultStart { .. } | Event::FaultEnd { .. } => ProfilePhase::SimFault,
        }
    }

    /// One metrics sweep over `node`'s containers at the end of a
    /// decision cycle. Iterates the node's containers in dense-id order
    /// (deterministic), so same-seed reruns emit byte-identical streams.
    pub(super) fn sample_metrics(&mut self, now: SimTime, node: NodeId, snapshot: &NodeSnapshot) {
        let sink = match &self.metrics_sink {
            Some(s) => Arc::clone(s),
            None => return,
        };
        let emit = |container: ContainerId, metric: MetricId, value: f64| {
            sink.emit(TelemetryEvent::Metric(
                MetricSample {
                    at: now,
                    node,
                    container,
                    metric,
                    value,
                }
                .sanitized(),
            ));
        };
        for cs in &snapshot.containers {
            let i = cs.id.index();
            // Allocation state post-apply (the snapshot's copy is the
            // pre-tick view the controller saw).
            let alloc = self.ledger.alloc(i);
            emit(cs.id, MetricId::Cores, alloc.cores as f64);
            emit(cs.id, MetricId::FreqLevel, alloc.freq_level as f64);
            emit(cs.id, MetricId::FrBoosts, self.fr_boost_counts[i] as f64);
            // The window the controller just consumed.
            emit(
                cs.id,
                MetricId::ExecMetric,
                cs.metrics.mean_exec_metric.as_nanos() as f64,
            );
            emit(cs.id, MetricId::QueueBuildup, cs.metrics.queue_buildup);
            emit(cs.id, MetricId::WindowRequests, cs.metrics.requests as f64);
            self.upscale_hint_counts[i] += cs.metrics.upscale_hints;
            emit(
                cs.id,
                MetricId::UpscaleHints,
                self.upscale_hint_counts[i] as f64,
            );
            // Connection pools toward all downstream edges, aggregated
            // over every callee replica.
            let (mut in_use, mut waiters, mut queued_total) = (0u64, 0u64, 0u64);
            for pool in self.pools[i].iter().flatten() {
                in_use += pool.in_use() as u64;
                waiters += pool.queue_len() as u64;
                queued_total += pool.queued_total();
            }
            emit(cs.id, MetricId::PoolInUse, in_use as f64);
            emit(cs.id, MetricId::PoolWaiters, waiters as f64);
            emit(cs.id, MetricId::PoolQueuedTotal, queued_total as f64);
            // Per-window slack quantiles over every packet delivered to
            // this container since the previous cycle.
            let mut slack = std::mem::take(&mut self.slack_acc[i]);
            if let Some((p50, p99)) = slack_p50_p99(&mut slack) {
                emit(cs.id, MetricId::SlackP50, p50 as f64);
                emit(cs.id, MetricId::SlackP99, p99 as f64);
            }
            slack.clear();
            self.slack_acc[i] = slack;
        }
        // Replica count per service group, emitted on the primary. Gated
        // on horizontal scaling being enabled so single-replica runs keep
        // the schema-v1 metric stream byte-for-byte.
        if self.ledger.layout().max_replicas > 1 {
            for s in self.cfg.placement.services_on(node) {
                emit(
                    ContainerId(s.0),
                    MetricId::Replicas,
                    self.ledger.active_replicas(s) as f64,
                );
            }
        }
        // Controller-internal gauges (e.g. sensitivity arms).
        let mut extra = Vec::new();
        self.controllers[node.index()].metric_samples(now, &mut extra);
        for sample in extra {
            sink.emit(TelemetryEvent::Metric(sample.sanitized()));
        }
        // Cumulative aggregation snapshots for this node (digest / slo /
        // topk) trail the gauge sweep, so `sg-trace watch` sees state at
        // least as fresh as the gauges beside it.
        if let Some(agg) = &self.agg {
            for event in agg.node_events(node, now) {
                sink.emit(event);
            }
        }
    }
}

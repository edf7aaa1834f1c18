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
    /// see `sg_telemetry::profile::SIM_SAMPLE_SHIFT`), heap-depth /
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
        let Some(sink) = self.metrics_sink.clone() else {
            return;
        };
        let mut rows = Vec::with_capacity(snapshot.containers.len());
        for cs in &snapshot.containers {
            let i = cs.id.index();
            self.upscale_hint_counts[i] += cs.metrics.upscale_hints;
            let mut pools = [0; 3];
            for p in self.pools[i].iter().flatten() {
                pools[0] += p.in_use() as u64;
                pools[1] += p.queue_len() as u64;
                pools[2] += p.queued_total();
            }
            // Slack quantiles over every packet delivered to this
            // container since the previous cycle.
            let slack = slack_p50_p99(&mut self.slack_acc[i]);
            self.slack_acc[i].clear();
            rows.push(GaugeRow {
                node,
                // Post-apply; the snapshot's copy is the pre-tick view.
                alloc: self.ledger.alloc(i),
                window: cs.metrics,
                fr_boosts: self.fr_boost_counts[i],
                upscale_hints: self.upscale_hint_counts[i],
                pools,
                slack,
            });
        }
        let mut controllers = Vec::new();
        self.controllers[node.index()].metric_samples(now, &mut controllers);
        let agg = self.agg.as_ref().map(|a| a.node_events(node, now));
        let services = self.cfg.placement.services_on(node);
        let replicas = services
            .iter()
            .map(|&s| (s, self.ledger.active_replicas(s)));
        emit_sweep(&*sink, now, &self.cfg, &rows, replicas, controllers, agg);
    }
}

//! Backend-conformance harness.
//!
//! Both substrates — the discrete-event simulator and the wall-clock live
//! backend — must agree on SurgeGuard's *directional* behaviours, even
//! though absolute numbers differ (the live backend pays real scheduler
//! jitter). This module holds the shared scenario builders and assertion
//! helpers; `tests/conformance.rs` runs every assertion against both
//! backends.

use crate::driver::{run_live_with_stats, LiveOpts, LiveStats};
use sg_core::config::ContainerParams;
use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::app::{linear_chain, ConnModel, TaskGraph};
use sg_sim::cluster::{Placement, SimConfig};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use sg_sim::runner::{RunResult, Simulation};
use sg_telemetry::{
    AggConfig, AggRuntime, ClusterAgg, SharedSink, SpanRecord, SpanSampler, TelemetryEvent, VecSink,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which substrate to run a scenario on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Discrete-event simulator (`sg_sim::runner::Simulation`).
    Sim,
    /// Wall-clock live backend (`sg_live::run_live`).
    Live,
}

impl Backend {
    /// Both substrates, for "run everything twice" loops.
    pub fn both() -> [Backend; 2] {
        [Backend::Sim, Backend::Live]
    }

    /// Short name for assertion messages.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Live => "live",
        }
    }
}

/// Run `cfg` under `factory` on the chosen substrate. Live runs also
/// return the substrate diagnostics (`None` for sim).
pub fn run_backend(
    backend: Backend,
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
) -> (RunResult, Option<LiveStats>) {
    run_backend_with_opts(backend, cfg, factory, arrivals, LiveOpts::default())
}

/// [`run_backend`] with live substrate options (the simulator ignores
/// them): scenarios that block worker threads — e.g. parents holding a
/// thread through a connection-pool wait — size the pool explicitly.
pub fn run_backend_with_opts(
    backend: Backend,
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
    opts: LiveOpts,
) -> (RunResult, Option<LiveStats>) {
    match backend {
        Backend::Sim => (Simulation::new(cfg, factory, arrivals).run(), None),
        Backend::Live => {
            let (result, stats) = run_live_with_stats(cfg, factory, arrivals, opts);
            (result, Some(stats))
        }
    }
}

/// Run `cfg` on the chosen substrate with span tracing into an in-memory
/// sink; returns the result plus every span record emitted. The `opts`
/// span fields are overwritten with the harness sink and `sampler`; the
/// rest (worker threads, ring capacity) pass through to a live run.
pub fn run_backend_with_spans(
    backend: Backend,
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
    sampler: SpanSampler,
    opts: LiveOpts,
) -> (RunResult, Vec<SpanRecord>) {
    let sink = VecSink::shared();
    let result = match backend {
        Backend::Sim => Simulation::new(cfg, factory, arrivals)
            .with_spans(Arc::clone(&sink) as SharedSink, sampler)
            .run(),
        Backend::Live => {
            let opts = LiveOpts {
                spans: Some(Arc::clone(&sink) as SharedSink),
                span_sampler: sampler,
                ..opts
            };
            run_live_with_stats(cfg, factory, arrivals, opts).0
        }
    };
    let records = sink
        .take()
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    (result, records)
}

/// Run `cfg` on the chosen substrate with a decision trace *and* a
/// metrics timeline into in-memory sinks; returns `(result, trace
/// events, metrics events)`. The live run samples every 20 ms so even a
/// sub-second horizon yields a dense timeline.
pub fn run_backend_with_metrics(
    backend: Backend,
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
) -> (RunResult, Vec<TelemetryEvent>, Vec<TelemetryEvent>) {
    let trace = VecSink::shared();
    let metrics = VecSink::shared();
    let result = match backend {
        Backend::Sim => Simulation::new(cfg, factory, arrivals)
            .with_telemetry(Arc::clone(&trace) as SharedSink)
            .with_metrics(Arc::clone(&metrics) as SharedSink)
            .run(),
        Backend::Live => {
            let opts = LiveOpts {
                telemetry: Some(Arc::clone(&trace) as SharedSink),
                metrics: Some(Arc::clone(&metrics) as SharedSink),
                metrics_interval: SimDuration::from_millis(20),
                ..LiveOpts::default()
            };
            run_live_with_stats(cfg, factory, arrivals, opts).0
        }
    };
    (result, trace.take(), metrics.take())
}

/// Run `cfg` on the chosen substrate with the mergeable aggregation
/// layer on (`sg_telemetry::agg`): one shard per node, merged into a
/// single cluster view after the run. The digest/SLO/top-k population is
/// exactly the warmup-trimmed completion set on both substrates.
pub fn run_backend_with_agg(
    backend: Backend,
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
    qos: SimDuration,
) -> (RunResult, ClusterAgg) {
    let agg = Arc::new(AggRuntime::new(
        AggConfig::new(qos),
        cfg.placement.nodes as usize,
    ));
    let result = match backend {
        Backend::Sim => Simulation::new(cfg, factory, arrivals)
            .with_agg(Arc::clone(&agg))
            .run(),
        Backend::Live => {
            let opts = LiveOpts {
                agg: Some(Arc::clone(&agg)),
                ..LiveOpts::default()
            };
            run_live_with_stats(cfg, factory, arrivals, opts).0
        }
    };
    let merged = agg.merged();
    (result, merged)
}

/// Span-tree conformance: every synthetic root span must carry exactly
/// the `(completion, latency)` pair of one [`sg_core::violation::LatencyPoint`]
/// — *exactly*, on both substrates, because the live backend stamps the
/// root span from the same precomputed values it pushes into the point
/// list — every trace must have exactly one root, and every child span
/// whose parent was recorded must nest inside the parent's interval.
pub fn assert_span_tree_conformance(backend: Backend, result: &RunResult, records: &[SpanRecord]) {
    let label = backend.label();
    let roots: Vec<&SpanRecord> = records.iter().filter(|r| r.is_root()).collect();
    assert!(!roots.is_empty(), "[{label}] no root spans recorded");

    let mut points: HashMap<(u64, u64), u64> = HashMap::new();
    for p in &result.points {
        *points
            .entry((p.completion.as_nanos(), p.latency.as_nanos()))
            .or_insert(0) += 1;
    }
    for root in &roots {
        let key = (root.end.as_nanos(), root.duration().as_nanos());
        let matched = match points.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        };
        assert!(
            matched,
            "[{label}] root span of trace {} has no LatencyPoint with completion {} and \
             latency {}",
            root.trace,
            root.end,
            root.duration()
        );
    }

    let mut roots_per_trace: HashMap<u64, u64> = HashMap::new();
    for r in &roots {
        *roots_per_trace.entry(r.trace).or_insert(0) += 1;
    }
    for (trace, n) in roots_per_trace {
        assert_eq!(n, 1, "[{label}] trace {trace} has {n} root spans");
    }

    let by_id: HashMap<(u64, u64), &SpanRecord> =
        records.iter().map(|r| ((r.trace, r.span), r)).collect();
    let mut nested = 0u64;
    for r in records {
        let Some(parent) = r.parent else { continue };
        // A parent lost to relay backpressure is reported elsewhere
        // (incomplete traces); nesting is only checkable when both ends
        // of the edge survived.
        if let Some(p) = by_id.get(&(r.trace, parent)) {
            assert!(
                r.start >= p.start && r.end <= p.end,
                "[{label}] span {} of trace {} escapes its parent: [{}, {}] outside [{}, {}]",
                r.span,
                r.trace,
                r.start,
                r.end,
                p.start,
                p.end
            );
            nested += 1;
        }
    }
    assert!(
        nested > 0,
        "[{label}] no child span had its parent recorded"
    );
}

/// A two-service chain small enough that a live run finishes in well under
/// a second: a few hundred µs of work per request, single node.
///
/// QoS parameters are sized so both substrates agree at the margins: loose
/// enough that low-load traffic stays healthy despite the live backend's
/// real scheduler jitter (tens of µs per sleep), tight enough that a
/// saturating surge violates them by a wide margin on either substrate.
pub fn two_stage_cfg(conn: ConnModel, end: SimTime) -> SimConfig {
    let graph: TaskGraph = linear_chain(
        "conform",
        &[SimDuration::from_micros(300), SimDuration::from_micros(150)],
        conn,
        0.3,
    );
    let placement = Placement::single_node(graph.len());
    let mut cfg = SimConfig::new(graph, placement);
    cfg.initial_cores = vec![2, 2];
    cfg.end = end;
    cfg.measure_start = SimTime::ZERO;
    cfg.seed = 7;
    cfg.params = vec![
        ContainerParams {
            expected_exec_metric: SimDuration::from_micros(1500),
            expected_time_from_start: SimDuration::from_micros(500),
        },
        ContainerParams {
            expected_exec_metric: SimDuration::from_micros(600),
            expected_time_from_start: SimDuration::from_micros(600),
        },
    ];
    cfg.e2e_low_load = SimDuration::from_micros(800);
    cfg
}

/// Arrival schedule with one 20× surge: `base` req/s, spiking to
/// `20 × base` over `[100 ms, 200 ms)` — enough to saturate the
/// two-stage chain's initial allocation on either substrate.
pub fn surge_arrivals(base: f64, end: SimTime) -> Vec<SimTime> {
    use sg_loadgen::SpikePattern;
    SpikePattern {
        base_rate: base,
        spike_rate: base * 20.0,
        spike_len: SimDuration::from_millis(100),
        period: SimDuration::from_secs(10),
        first_spike: SimTime::from_millis(100),
    }
    .arrivals(SimTime::ZERO, end)
}

/// A four-service chain spread round-robin over two nodes: containers
/// 0 and 2 land on node 0, containers 1 and 3 on node 1. Short enough
/// for a live run, long enough for several decision cycles.
pub fn two_node_cfg(end: SimTime) -> SimConfig {
    let graph: TaskGraph = linear_chain(
        "xnode",
        &[SimDuration::from_micros(200); 4],
        ConnModel::PerRequest,
        0.0,
    );
    let mut cfg = SimConfig::new(graph, Placement::round_robin(4, 2));
    cfg.end = end;
    cfg.measure_start = SimTime::ZERO;
    cfg.seed = 11;
    cfg
}

/// A controller that keeps trying to manage a container on the *other*
/// node, through every actuator with a cross-node failure mode: `SetFreq`
/// (the FirstResponder apply path), `SetEgressHint` (the runtime
/// stamping path) and `SetReplicas` (the replica-group lifecycle path),
/// plus a `SetCores` on a container id that does not exist. Every
/// emission is counted so the harness-side rejection count can be
/// compared exactly.
struct CrossNodeMeddler {
    victim: ContainerId,
    is_owner: bool,
    emitted: Arc<AtomicU64>,
}

impl Controller for CrossNodeMeddler {
    fn name(&self) -> &'static str {
        "cross-node-meddler"
    }
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
    fn on_tick(&mut self, _now: SimTime, _s: &NodeSnapshot) -> Vec<ControlAction> {
        if self.is_owner {
            return Vec::new();
        }
        // Not my container — or, for the last one, nobody's: an id past
        // every slot. Both substrates must refuse all four actions.
        self.emitted.fetch_add(4, Ordering::Relaxed);
        vec![
            ControlAction::SetFreq {
                id: self.victim,
                level: 2,
            },
            ControlAction::SetEgressHint {
                id: self.victim,
                hops: 3,
            },
            ControlAction::SetReplicas {
                id: self.victim,
                replicas: 2,
            },
            ControlAction::SetCores {
                id: ContainerId(u32::MAX),
                cores: 4,
            },
        ]
    }
}

/// Factory for the cross-node meddler: the node that owns container 0
/// stays quiet; every other node attacks it each tick.
pub struct CrossNodeMeddlerFactory {
    /// Total cross-node actions emitted across all controllers.
    pub emitted: Arc<AtomicU64>,
}

impl CrossNodeMeddlerFactory {
    /// Factory with a fresh emission counter.
    pub fn new() -> Self {
        CrossNodeMeddlerFactory {
            emitted: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Default for CrossNodeMeddlerFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl ControllerFactory for CrossNodeMeddlerFactory {
    fn name(&self) -> &'static str {
        "cross-node-meddler"
    }
    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        let victim = ContainerId(0); // lives on node 0
        Box::new(CrossNodeMeddler {
            victim,
            is_owner: init.containers.iter().any(|c| c.id == victim),
            emitted: Arc::clone(&self.emitted),
        })
    }
}

/// Decentralization check (the ownership bugfix this PR enforces): every
/// cross-node `SetFreq`/`SetEgressHint`/`SetReplicas` (and the `SetCores`
/// on a nonexistent id) the meddler emitted must be rejected and counted — no more, no fewer — and none may reach
/// the FirstResponder boost counter or the victim's allocation.
pub fn assert_cross_node_control_rejected(backend: Backend, result: &RunResult, emitted: u64) {
    let label = backend.label();
    assert!(
        emitted > 0,
        "[{label}] scenario never emitted a cross-node action"
    );
    assert_eq!(
        result.clamped_actions, emitted,
        "[{label}] every cross-node SetFreq/SetEgressHint/SetReplicas must be rejected and \
         counted exactly (emitted {emitted}, clamped {})",
        result.clamped_actions
    );
    assert_eq!(
        result.packet_freq_boosts, 0,
        "[{label}] a rejected cross-node SetFreq was attributed as a boost"
    );
    if let Some(trace) = &result.alloc_trace {
        assert!(
            trace.events.is_empty(),
            "[{label}] allocations changed under a controller that only emitted rejected \
             actions: {} events",
            trace.events.len()
        );
    }
}

/// A controller that emits a single `SetReplicas` on its first tick and
/// stays quiet afterwards — the minimal horizontal actuator exercise.
struct ScaleOutOnce {
    target: ContainerId,
    replicas: u32,
    fired: bool,
}

impl Controller for ScaleOutOnce {
    fn name(&self) -> &'static str {
        "scale-out-once"
    }
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_millis(20)
    }
    fn on_tick(&mut self, _now: SimTime, _s: &NodeSnapshot) -> Vec<ControlAction> {
        if self.fired {
            return Vec::new();
        }
        self.fired = true;
        vec![ControlAction::SetReplicas {
            id: self.target,
            replicas: self.replicas,
        }]
    }
}

/// Factory for `ScaleOutOnce`: scale `target`'s service group to
/// `replicas` on the owning node's first decision tick.
pub struct ScaleOutOnceFactory {
    /// Any container of the group to scale (canonically the primary).
    pub target: ContainerId,
    /// Replica count to request.
    pub replicas: u32,
}

impl ControllerFactory for ScaleOutOnceFactory {
    fn name(&self) -> &'static str {
        "scale-out-once"
    }
    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        let owns = init.containers.iter().any(|c| c.id == self.target);
        Box::new(ScaleOutOnce {
            target: self.target,
            replicas: self.replicas,
            // Non-owners stay quiet (pretend they already fired) so the
            // scenario emits exactly one action cluster-wide.
            fired: !owns,
        })
    }
}

/// Directional check (SetReplicas conformance): scaling the *downstream*
/// group out must drain the upstream connection-pool queue. With a
/// `FixedPool(1)` edge at high occupancy, the single-replica run
/// accumulates parent-side connection wait (`execTime > execMetric`);
/// the identical run with a second downstream replica — one more pool,
/// load-balanced per edge — must show strictly less of it.
pub fn assert_scale_out_drains_upstream_pool(
    backend: Backend,
    single: &RunResult,
    scaled: &RunResult,
) {
    let label = backend.label();
    let parent_single = &single.profile[0];
    let parent_scaled = &scaled.profile[0];
    assert!(
        parent_single.requests > 0 && parent_scaled.requests > 0,
        "[{label}] scenario produced no completed parent requests"
    );
    let wait_single = parent_single
        .mean_exec_time
        .saturating_sub(parent_single.mean_exec_metric);
    let wait_scaled = parent_scaled
        .mean_exec_time
        .saturating_sub(parent_scaled.mean_exec_metric);
    assert!(
        wait_single > SimDuration::ZERO,
        "[{label}] single-replica run showed no upstream connection wait"
    );
    assert!(
        wait_scaled < wait_single,
        "[{label}] scale-out did not drain the upstream pool queue: \
         single {wait_single} vs scaled {wait_scaled}"
    );
}

/// Directional check: with a `FixedPool(1)` edge under load, the *parent*
/// accumulates connection wait (`execTime > execMetric`), and strictly
/// more of it than the identical run with connection-per-request edges.
pub fn assert_pool_exhaustion_queues_upstream(
    backend: Backend,
    fixed: &RunResult,
    per_request: &RunResult,
) {
    let label = backend.label();
    let parent_fixed = &fixed.profile[0];
    let parent_pr = &per_request.profile[0];
    assert!(
        parent_fixed.requests > 0 && parent_pr.requests > 0,
        "[{label}] scenario produced no completed parent requests"
    );
    let wait_fixed = parent_fixed
        .mean_exec_time
        .saturating_sub(parent_fixed.mean_exec_metric);
    let wait_pr = parent_pr
        .mean_exec_time
        .saturating_sub(parent_pr.mean_exec_metric);
    assert!(
        wait_fixed > SimDuration::ZERO,
        "[{label}] fixed pool showed no upstream connection wait"
    );
    assert!(
        wait_pr.is_zero(),
        "[{label}] connection-per-request run recorded connection wait: {wait_pr}"
    );
    assert!(
        wait_fixed > wait_pr,
        "[{label}] pool exhaustion did not queue upstream: fixed {wait_fixed} vs per-request {wait_pr}"
    );
}

/// Mean client latency over every recorded completion.
pub fn mean_latency(result: &RunResult) -> SimDuration {
    assert!(!result.points.is_empty(), "run recorded no completions");
    let sum: u128 = result
        .points
        .iter()
        .map(|p| p.latency.as_nanos() as u128)
        .sum();
    SimDuration::from_nanos((sum / result.points.len() as u128) as u64)
}

/// Mean upstream connection wait of the root service (`execTime` minus
/// `execMetric` — the §III-B hidden-queue signal).
pub fn upstream_conn_wait(result: &RunResult) -> SimDuration {
    let parent = &result.profile[0];
    assert!(parent.requests > 0, "run completed no parent requests");
    parent
        .mean_exec_time
        .saturating_sub(parent.mean_exec_metric)
}

/// Directional check shared by every fault class: the faulted run must
/// still complete requests, and its mean client latency must be strictly
/// worse than the identical clean run on the same substrate. Absolute
/// magnitudes differ between substrates (the live backend pays real
/// scheduler jitter); the *direction* may not.
pub fn assert_fault_degrades(
    backend: Backend,
    clean: &RunResult,
    faulted: &RunResult,
    fault: &str,
) {
    let label = backend.label();
    assert!(
        clean.completed > 0,
        "[{label}] clean {fault} scenario completed no requests"
    );
    assert!(
        faulted.completed > 0,
        "[{label}] faulted {fault} scenario completed no requests"
    );
    let clean_mean = mean_latency(clean);
    let faulted_mean = mean_latency(faulted);
    assert!(
        faulted_mean > clean_mean,
        "[{label}] {fault} fault did not degrade latency: clean {clean_mean} vs faulted \
         {faulted_mean}"
    );
}

/// Directional check: the per-packet fast path reacted — at least one
/// `SetFreq` originated from a packet hook, not a tick. (The boost counter
/// is only ever incremented on the rx-hook path, on both substrates, so a
/// nonzero value proves a within-one-packet reaction.)
pub fn assert_first_responder_reacted(backend: Backend, result: &RunResult) {
    assert!(
        result.packet_freq_boosts > 0,
        "[{}] FirstResponder never boosted from the packet hook (completed={}, injected={})",
        backend.label(),
        result.completed,
        result.injected
    );
}

/// Directional check: boosts retire once the surge passes. With a spike
/// early in the run and a long quiet tail, every container that was ever
/// boosted above base frequency must end the run back at the base level
/// (the Escalator substitutes cores for the boost and drops the level).
pub fn assert_boost_retires(backend: Backend, result: &RunResult, base_ghz: f64) {
    let label = backend.label();
    let trace = result
        .alloc_trace
        .as_ref()
        .expect("run must set trace_allocations");
    let n = 1 + trace
        .events
        .iter()
        .map(|e| e.container.index())
        .max()
        .unwrap_or(0);
    let mut boosted = vec![false; n];
    let mut final_ghz = vec![base_ghz; n];
    for e in &trace.events {
        if e.freq_ghz > base_ghz + 1e-9 {
            boosted[e.container.index()] = true;
        }
        final_ghz[e.container.index()] = e.freq_ghz;
    }
    assert!(
        boosted.iter().any(|&b| b),
        "[{label}] no container was ever boosted above {base_ghz} GHz"
    );
    for c in 0..n {
        if boosted[c] {
            assert!(
                (final_ghz[c] - base_ghz).abs() < 1e-9,
                "[{label}] boost did not retire: container {c} ended at {} GHz (base {base_ghz})",
                final_ghz[c]
            );
        }
    }
}

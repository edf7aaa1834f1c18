//! Machine-readable perf baselines: the pinned scenario set behind
//! `BENCH_*.json` and the `sg-bench --compare` regression gate.
//!
//! See BENCH.md for the methodology. In short: each pinned scenario is
//! timed over a fixed number of iterations after warmup, summarized as
//! median + IQR (p25/p75), and written as a schema-versioned JSON
//! document. `compare` replays the gate: a scenario regresses only when
//! its fresh median exceeds the baseline median by more than the
//! threshold AND the fresh p25 clears the baseline p75 (the IQR noise
//! guard, so ordinary run-to-run jitter cannot fail a build).

use crate::BenchScenario;
use serde_json::Value;
use sg_controllers::SurgeGuardFactory;
use sg_core::firstresponder::{FirstResponder, FirstResponderConfig};
use sg_core::ids::{ContainerId, NodeId};
use sg_core::metadata::RpcMetadata;
use sg_core::replica::p2c_winner;
use sg_core::time::{SimDuration, SimTime};
use sg_live::{run_live_with_stats, LiveOpts};
use sg_sim::app::ConnModel;
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use sg_sim::runner::Simulation;
use sg_telemetry::profile::{LiveProfiler, ProfilePhase};
use sg_telemetry::{
    ActionKind, ActionOrigin, ActionOutcome, AggConfig, AggRuntime, LatencyDigest, MetricId,
    MetricSample, MetricsRegistry, RingSink, SpanRecord, TelemetryEvent, TelemetrySink, TopK,
    TraceStream,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier embedded in every baseline document.
pub const SCHEMA: &str = "sg-bench/v1";

/// Default regression threshold (percent over the baseline median).
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Summary statistics for one timed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Pinned scenario name (stable across baselines).
    pub name: &'static str,
    /// Unit of every statistic below (`"ms"` or `"ns"`), per operation.
    pub unit: &'static str,
    /// Measured iterations (after warmup).
    pub iters: usize,
    /// Median per-operation cost.
    pub median: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Fastest iteration.
    pub min: f64,
    /// Slowest iteration.
    pub max: f64,
}

fn summarize(name: &'static str, unit: &'static str, mut samples: Vec<f64>) -> ScenarioStats {
    assert!(!samples.is_empty(), "scenario produced no samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| {
        // Nearest-rank on the sorted samples.
        let idx = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
        samples[idx]
    };
    ScenarioStats {
        name,
        unit,
        iters: samples.len(),
        median: q(0.50),
        p25: q(0.25),
        p75: q(0.75),
        min: samples[0],
        max: samples[samples.len() - 1],
    }
}

/// How heavily to sample each scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// CI-sized: a handful of iterations per scenario.
    Quick,
    /// More iterations for tighter quartiles.
    Full,
}

impl BenchMode {
    fn label(self) -> &'static str {
        match self {
            BenchMode::Quick => "quick",
            BenchMode::Full => "full",
        }
    }

    /// (warmup, measured) iterations for the heavyweight scenarios.
    fn heavy_iters(self) -> (usize, usize) {
        match self {
            BenchMode::Quick => (1, 5),
            BenchMode::Full => (2, 15),
        }
    }

    /// Measured iterations for the cheap inner-loop scenarios.
    fn light_iters(self) -> usize {
        match self {
            BenchMode::Quick => 5,
            BenchMode::Full => 15,
        }
    }
}

/// Discards events; isolates relay cost from downstream I/O.
struct NullSink;
impl TelemetrySink for NullSink {
    fn emit(&self, _event: TelemetryEvent) {}
}

/// One simulated CHAIN surge trial per iteration — the figure
/// harness's unit of work.
fn bench_sim_trial(mode: BenchMode) -> ScenarioStats {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    let (warmup, iters) = mode.heavy_iters();
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let t0 = Instant::now();
        let r = scenario.run(&factory, 1);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        if i >= warmup {
            samples.push(dt);
        }
    }
    summarize("sim_trial", "ms", samples)
}

/// One 400 ms-horizon live (wall-clock) run per iteration: real worker
/// threads, pools, and the FirstResponder SPSC runtime.
fn bench_live_smoke(mode: BenchMode) -> ScenarioStats {
    let iters = match mode {
        BenchMode::Quick => 3,
        BenchMode::Full => 7,
    };
    let horizon = SimTime::from_millis(400);
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters + 1 {
        let cfg = sg_live::conformance::two_stage_cfg(ConnModel::PerRequest, horizon);
        let arrivals = sg_live::conformance::surge_arrivals(400.0, horizon);
        let factory = SurgeGuardFactory::full();
        let t0 = Instant::now();
        let (r, _stats) = run_live_with_stats(cfg, &factory, arrivals, LiveOpts::default());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        if i >= 1 {
            samples.push(dt);
        }
    }
    summarize("live_smoke", "ms", samples)
}

/// Per-packet FirstResponder decision (the §VI-D 0.26 µs hot path),
/// averaged over a large inner loop.
fn bench_fr_hook(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 200_000;
    let mut fr = FirstResponder::new(FirstResponderConfig {
        expected_time_from_start: vec![Some(SimDuration::from_micros(500)); 16],
        local_downstream: vec![vec![]; 16],
        cooldown: SimDuration::ZERO,
        max_freq_level: 8,
    });
    let meta = RpcMetadata::new_job(SimTime::ZERO);
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for k in 0..INNER {
            black_box(fr.on_packet(
                ContainerId(3),
                black_box(meta),
                SimTime::from_nanos(900_000 + k),
            ));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("fr_hook", "ns", samples)
}

/// The same per-packet FirstResponder decision wrapped exactly as the
/// live worker wraps it when `--profile-out` is on: one `Instant::now`
/// pair plus a relaxed-atomic histogram record per packet. The delta
/// against `fr_hook` is the profiler's per-packet cost; `fr_hook`
/// itself (profiler off) is the disabled-guard baseline the BENCH_8
/// gate holds at the ~1.9 ns seed.
fn bench_fr_hook_profiled(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 200_000;
    let profiler = LiveProfiler::new();
    let mut fr = FirstResponder::new(FirstResponderConfig {
        expected_time_from_start: vec![Some(SimDuration::from_micros(500)); 16],
        local_downstream: vec![vec![]; 16],
        cooldown: SimDuration::ZERO,
        max_freq_level: 8,
    });
    let meta = RpcMetadata::new_job(SimTime::ZERO);
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for k in 0..INNER {
            let p0 = Instant::now();
            black_box(fr.on_packet(
                ContainerId(3),
                black_box(meta),
                SimTime::from_nanos(900_000 + k),
            ));
            profiler.record(ProfilePhase::FrHook, p0.elapsed().as_nanos() as u64);
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    black_box(profiler.snapshot(1));
    summarize("fr_hook_profiled", "ns", samples)
}

/// One lock-free telemetry ring push (the live hot path's emission cost).
fn bench_telemetry_ring(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 50_000;
    let event = || TelemetryEvent::FrBoost {
        at: SimTime::from_micros(900),
        node: NodeId(0),
        dest: ContainerId(3),
        slack_ns: -123_456,
        level: 8,
        targets: 1,
    };
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let (ring, drainer) = RingSink::spawn(Arc::new(NullSink), 1 << 16);
        let t0 = Instant::now();
        for _ in 0..INNER {
            ring.emit(black_box(event()));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        drop(ring);
        drainer.shutdown();
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("telemetry_ring", "ns", samples)
}

/// The span record the codec scenarios encode and decode.
fn span_event() -> TelemetryEvent {
    TelemetryEvent::Span(SpanRecord {
        trace: 12_345,
        span: 7,
        parent: Some(6),
        container: Some(ContainerId(3)),
        node: Some(NodeId(0)),
        start: SimTime::from_micros(900),
        end: SimTime::from_micros(1700),
        net_in: SimDuration::from_micros(12),
        conn_wait: SimDuration::from_micros(340),
        service: SimDuration::from_micros(300),
        downstream: SimDuration::from_micros(148),
        freq_level: 2,
        slack_ns: -123_456,
    })
}

/// JSONL-encode one span record (sim emission / live drainer cost).
fn bench_span_encode(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 20_000;
    let event = span_event();
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for _ in 0..INNER {
            black_box(black_box(&event).to_json_line());
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("span_encode", "ns", samples)
}

/// Decode one span line (the read side's cost per record).
fn bench_span_decode(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 20_000;
    let line = span_event().to_json_line();
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for _ in 0..INNER {
            black_box(TelemetryEvent::from_json_line(black_box(&line)).expect("span line"));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("span_decode", "ns", samples)
}

/// `TraceStream` over an in-memory 20 000-line trace in the mix an
/// observed trial writes (16 spans to 2 metric samples, an action and
/// its allocation), ns per line: line splitting, blank/bad-line policy
/// and decode together, as `sg-trace` pays them.
fn bench_trace_read(mode: BenchMode) -> ScenarioStats {
    const LINES: u64 = 20_000;
    let mut trace = String::new();
    for k in 0..LINES {
        let at = SimTime::from_micros(900 + k);
        let event = match k % 20 {
            16 | 17 => TelemetryEvent::Metric(MetricSample {
                at,
                node: NodeId(0),
                container: ContainerId((k % 8) as u32),
                metric: MetricId::QueueBuildup,
                value: k as f64 / 7.0,
            }),
            18 => TelemetryEvent::Action {
                at,
                node: NodeId(0),
                container: ContainerId(3),
                origin: ActionOrigin::Tick,
                kind: ActionKind::SetCores { cores: 6 },
                outcome: ActionOutcome::Applied,
            },
            19 => TelemetryEvent::Alloc {
                at,
                container: ContainerId(3),
                cores: 6,
                freq_level: 2,
                freq_ghz: 2.2,
            },
            _ => span_event(),
        };
        trace.push_str(&event.to_json_line());
        trace.push('\n');
    }
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        let mut events = 0u64;
        let bad = TraceStream::new(black_box(trace.as_bytes()))
            .for_each(|event| {
                black_box(&event);
                events += 1;
            })
            .expect("in-memory read");
        let per_line_ns = t0.elapsed().as_secs_f64() * 1e9 / LINES as f64;
        assert_eq!((events, bad), (LINES, 0));
        if i >= 1 {
            samples.push(per_line_ns);
        }
    }
    summarize("trace_read", "ns", samples)
}

/// One `MetricsRegistry::record` (the live drainer's tee cost per
/// sample, and what every scrape serves from).
fn bench_metrics_sample(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 100_000;
    let registry = MetricsRegistry::new();
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for k in 0..INNER {
            // Cycle a realistic key population (8 containers × 4 metrics)
            // so the map stays warm but small, like a real run.
            let sample = MetricSample {
                at: SimTime::from_nanos(k),
                node: NodeId(0),
                container: ContainerId((k % 8) as u32),
                metric: match k % 4 {
                    0 => MetricId::Cores,
                    1 => MetricId::FreqLevel,
                    2 => MetricId::QueueBuildup,
                    _ => MetricId::PoolInUse,
                },
                value: k as f64,
            };
            registry.record(black_box(&sample));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("metrics_sample", "ns", samples)
}

/// JSONL-encode one metric sample (sim emission / live drainer cost for
/// the metrics stream).
fn bench_metrics_encode(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 20_000;
    let event = TelemetryEvent::Metric(MetricSample {
        at: SimTime::from_micros(900),
        node: NodeId(0),
        container: ContainerId(3),
        metric: MetricId::SlackP99,
        value: -123_456.0,
    });
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for _ in 0..INNER {
            black_box(black_box(&event).to_json_line());
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("metrics_encode", "ns", samples)
}

/// The same CHAIN surge trial as `sim_trial` but with the metrics
/// timeline enabled into a discarding sink: the delta against
/// `sim_trial` is the all-in cost of per-cycle recording, and `sim_trial`
/// itself (metrics disabled) is the guard proving the feature costs
/// nothing when off.
fn bench_sim_trial_metrics(mode: BenchMode) -> ScenarioStats {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    let (warmup, iters) = mode.heavy_iters();
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let mut cfg = scenario.pw.cfg.clone();
        cfg.end = scenario.horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::from_secs(1);
        cfg.seed = 1;
        let arrivals = scenario.pattern.arrivals(SimTime::ZERO, scenario.horizon);
        let t0 = Instant::now();
        let r = Simulation::new(cfg, &factory, arrivals)
            .with_metrics(Arc::new(NullSink))
            .run();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        if i >= warmup {
            samples.push(dt);
        }
    }
    summarize("sim_trial_metrics", "ms", samples)
}

/// One `LatencyDigest::record` on the mergeable log-bucket digest (the
/// per-completion cost of the aggregation layer's hottest call). Values
/// cycle a realistic latency spread so bucket residency stays warm but
/// the sparse map keeps a run-like footprint.
fn bench_digest_insert(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 200_000;
    let mut digest = LatencyDigest::with_default_resolution();
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for k in 0..INNER {
            // 100 µs .. ~13 ms, deterministic spread across octaves.
            let ns = 100_000 + (k.wrapping_mul(0x9E37_79B9)) % 13_000_000;
            digest.record(SimDuration::from_nanos(black_box(ns)));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("digest_insert", "ns", samples)
}

/// One pairwise `LatencyDigest::merge` of two populated node shards
/// (the teardown/cluster-view cost, paid once per node per merge pass).
fn bench_digest_merge(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 2_000;
    let mut a = LatencyDigest::with_default_resolution();
    let mut b = LatencyDigest::with_default_resolution();
    for k in 0u64..10_000 {
        a.record(SimDuration::from_nanos(50_000 + k * 997));
        b.record(SimDuration::from_nanos(80_000 + k * 1_543));
    }
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for _ in 0..INNER {
            let mut m = black_box(&a).clone();
            m.merge(black_box(&b));
            black_box(&m);
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("digest_merge", "ns", samples)
}

/// One `TopK::observe` on the SpaceSaving heavy-hitter sketch at
/// capacity (every update pays the eviction scan — the worst case).
fn bench_topk_update(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 200_000;
    let mut topk = TopK::new(8);
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for k in 0..INNER {
            // 64 distinct keys over capacity 8: constant eviction churn.
            topk.observe(black_box(k % 64), black_box(1 + k % 1_000));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("topk_update", "ns", samples)
}

/// The same CHAIN surge trial as `sim_trial` but with the mergeable
/// aggregation layer on (digest + SLO window + heavy-hitter shard per
/// node, snapshots into a discarding sink): the delta against
/// `sim_trial` is the all-in per-run cost of always-on aggregation,
/// held to the same ≤ 2% envelope as the other observability layers.
fn bench_sim_trial_agg(mode: BenchMode) -> ScenarioStats {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    let (warmup, iters) = mode.heavy_iters();
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let mut cfg = scenario.pw.cfg.clone();
        cfg.end = scenario.horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::from_secs(1);
        cfg.seed = 1;
        let nodes = cfg.placement.nodes as usize;
        let agg = Arc::new(AggRuntime::new(
            AggConfig::new(SimDuration::from_millis(10)),
            nodes,
        ));
        let arrivals = scenario.pattern.arrivals(SimTime::ZERO, scenario.horizon);
        let t0 = Instant::now();
        let r = Simulation::new(cfg, &factory, arrivals)
            .with_metrics(Arc::new(NullSink))
            .with_agg(Arc::clone(&agg))
            .run();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        assert!(
            !agg.merged().digest.is_empty(),
            "agg layer saw no completions"
        );
        if i >= warmup {
            samples.push(dt);
        }
    }
    summarize("sim_trial_agg", "ms", samples)
}

/// The same CHAIN surge trial with the self-profiler enabled into a
/// discarding sink. The delta against `sim_trial` is the profiler's
/// all-in cost (sampled dispatch timing + watermark upkeep), gated at
/// ≤ 2% of median by `results/BENCH_8.json`; `sim_trial` itself
/// (profiler off) guards the one-branch disabled path.
fn bench_sim_trial_profiled(mode: BenchMode) -> ScenarioStats {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    let (warmup, iters) = mode.heavy_iters();
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let mut cfg = scenario.pw.cfg.clone();
        cfg.end = scenario.horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::from_secs(1);
        cfg.seed = 1;
        let arrivals = scenario.pattern.arrivals(SimTime::ZERO, scenario.horizon);
        let t0 = Instant::now();
        let r = Simulation::new(cfg, &factory, arrivals)
            .with_profile(Arc::new(NullSink))
            .run();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        if i >= warmup {
            samples.push(dt);
        }
    }
    summarize("sim_trial_profiled", "ms", samples)
}

/// Flips the downstream service group between 1 and 2 replicas on every
/// tick — the worst-case replica-lifecycle churn for the scale-out bench.
struct ReplicaToggler {
    owns: bool,
    up: bool,
}

impl Controller for ReplicaToggler {
    fn name(&self) -> &'static str {
        "replica-toggler"
    }
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_millis(20)
    }
    fn on_tick(&mut self, _now: SimTime, _s: &NodeSnapshot) -> Vec<ControlAction> {
        if !self.owns {
            return Vec::new();
        }
        self.up = !self.up;
        vec![ControlAction::SetReplicas {
            id: ContainerId(1),
            replicas: if self.up { 2 } else { 1 },
        }]
    }
}

struct ReplicaTogglerFactory;

impl ControllerFactory for ReplicaTogglerFactory {
    fn name(&self) -> &'static str {
        "replica-toggler"
    }
    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(ReplicaToggler {
            owns: init.containers.iter().any(|c| c.id == ContainerId(1)),
            up: false,
        })
    }
}

/// One 400 ms sim run of the conformance two-stage chain with the
/// downstream group toggled 1 ↔ 2 replicas every 20 ms tick under
/// steady load: spawn, pool creation, per-edge re-balancing, drain and
/// retire, end to end. The delta against a steady single-replica run of
/// the same chain is the all-in lifecycle cost.
fn bench_replica_scale_out(mode: BenchMode) -> ScenarioStats {
    let horizon = SimTime::from_millis(400);
    let (warmup, iters) = mode.heavy_iters();
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let mut cfg = sg_live::conformance::two_stage_cfg(ConnModel::FixedPool(4), horizon);
        cfg.max_replicas = 2;
        let arrivals = sg_live::conformance::constant_arrivals(2000.0, horizon);
        let t0 = Instant::now();
        let r = Simulation::new(cfg, &ReplicaTogglerFactory, arrivals).run();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.completed > 0);
        if i >= warmup {
            samples.push(dt);
        }
    }
    summarize("replica_scale_out", "ms", samples)
}

/// Render a 60 s MMPP arrival schedule — the `--profile mmpp` unit of
/// work added with the scenario layer: 2-state Markov modulation plus a
/// per-arrival exponential draw, ~180k arrivals at the CHAIN base rate.
fn bench_mmpp_schedule(mode: BenchMode) -> ScenarioStats {
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    let mut samples = Vec::new();
    for i in 0..mode.light_iters() + 1 {
        let profile = sg_loadgen::Mmpp::bursty(3000.0, 42 + i as u64);
        let t0 = Instant::now();
        let arrivals = black_box(profile.arrivals(SimTime::ZERO, horizon));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(arrivals.len() > 100_000, "schedule suspiciously short");
        if i >= 1 {
            samples.push(dt);
        }
    }
    summarize("mmpp_schedule", "ms", samples)
}

/// The per-dispatch load-balancer decision (`p2c_winner`, the rule both
/// substrates run on every replicated RPC edge), fed by a cheap inline
/// xorshift standing in for the dispatch RNG draws.
fn bench_lb_pick(mode: BenchMode) -> ScenarioStats {
    const INNER: u64 = 200_000;
    let mut samples = Vec::new();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut xorshift = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..mode.light_iters() + 1 {
        let t0 = Instant::now();
        for _ in 0..INNER {
            // Two candidate slots out of a 3-replica group with synthetic
            // queue depths — the shape of a zoo-run dispatch.
            let draw = xorshift();
            let a = (draw % 3) as usize;
            let b = ((draw >> 8) % 3) as usize;
            let depth_a = (draw >> 16) % 32;
            let depth_b = (draw >> 24) % 32;
            black_box(p2c_winner(
                black_box(a),
                black_box(depth_a),
                black_box(b),
                black_box(depth_b),
            ));
        }
        let per_op_ns = t0.elapsed().as_secs_f64() * 1e9 / INNER as f64;
        if i >= 1 {
            samples.push(per_op_ns);
        }
    }
    summarize("lb_pick", "ns", samples)
}

/// One cluster-scale throughput measurement: the gateway-fanout
/// workload of [`crate::ClusterScenario`] under streamed spike
/// arrivals, timed end to end and normalized to nanoseconds per engine
/// event. Per-request event count is constant across cluster sizes, so
/// the three sizes expose how per-event cost scales with container
/// count (heap: log n pending; wheel: O(1) — SCALING.md §4).
fn bench_cluster_scale(nodes: u32, name: &'static str, mode: BenchMode) -> ScenarioStats {
    let scenario = crate::ClusterScenario::new(nodes, 400.0, SimTime::ZERO + bench_horizon(mode));
    let factory = sg_sim::controller::NoopFactory;
    let (warmup, iters) = match mode {
        BenchMode::Quick => (1, 3),
        BenchMode::Full => (1, 7),
    };
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let t0 = Instant::now();
        let r = scenario.run(&factory);
        let dt_ns = t0.elapsed().as_secs_f64() * 1e9;
        assert!(r.completed > 0, "cluster run produced no completions");
        assert_eq!(r.dropped, 0, "cluster run saturated the safety valve");
        if i >= warmup {
            samples.push(dt_ns / r.events as f64);
        }
    }
    summarize(name, "ns", samples)
}

/// Simulated horizon for the cluster scenarios per mode.
fn bench_horizon(mode: BenchMode) -> SimDuration {
    match mode {
        BenchMode::Quick => SimDuration::from_secs(2),
        BenchMode::Full => SimDuration::from_secs(4),
    }
}

fn bench_cluster_scale_4(mode: BenchMode) -> ScenarioStats {
    bench_cluster_scale(4, "cluster_scale_4", mode)
}

fn bench_cluster_scale_50(mode: BenchMode) -> ScenarioStats {
    bench_cluster_scale(50, "cluster_scale_50", mode)
}

fn bench_cluster_scale_200(mode: BenchMode) -> ScenarioStats {
    bench_cluster_scale(200, "cluster_scale_200", mode)
}

/// One pinned scenario: measures and summarizes at the given mode.
pub type ScenarioFn = fn(BenchMode) -> ScenarioStats;

/// The pinned scenario set: stable names, fixed order. The names are the
/// `--only` selectors and the keys of every `BENCH_*.json`.
pub const SCENARIOS: [(&str, ScenarioFn); 22] = [
    ("sim_trial", bench_sim_trial),
    ("live_smoke", bench_live_smoke),
    ("fr_hook", bench_fr_hook),
    ("fr_hook_profiled", bench_fr_hook_profiled),
    ("telemetry_ring", bench_telemetry_ring),
    ("span_encode", bench_span_encode),
    ("span_decode", bench_span_decode),
    ("trace_read", bench_trace_read),
    ("metrics_sample", bench_metrics_sample),
    ("metrics_encode", bench_metrics_encode),
    ("digest_insert", bench_digest_insert),
    ("digest_merge", bench_digest_merge),
    ("topk_update", bench_topk_update),
    ("sim_trial_metrics", bench_sim_trial_metrics),
    ("sim_trial_agg", bench_sim_trial_agg),
    ("sim_trial_profiled", bench_sim_trial_profiled),
    ("replica_scale_out", bench_replica_scale_out),
    ("lb_pick", bench_lb_pick),
    ("mmpp_schedule", bench_mmpp_schedule),
    ("cluster_scale_4", bench_cluster_scale_4),
    ("cluster_scale_50", bench_cluster_scale_50),
    ("cluster_scale_200", bench_cluster_scale_200),
];

/// Run the pinned scenario set, in a fixed order.
pub fn run_all(mode: BenchMode, progress: impl Fn(&ScenarioStats)) -> Vec<ScenarioStats> {
    run_selected(mode, None, progress)
}

/// Run a subset of the pinned scenario set: `only` is a comma-separated
/// list of scenario-name substrings (`None` = everything). Order stays
/// the pinned order regardless of the selector order.
pub fn run_selected(
    mode: BenchMode,
    only: Option<&str>,
    progress: impl Fn(&ScenarioStats),
) -> Vec<ScenarioStats> {
    let selected: Vec<&str> = only
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let mut out = Vec::new();
    for (name, run) in SCENARIOS {
        if !selected.is_empty() && !selected.iter().any(|pat| name.contains(pat)) {
            continue;
        }
        let stats = run(mode);
        debug_assert_eq!(stats.name, name, "scenario table out of sync");
        progress(&stats);
        out.push(stats);
    }
    out
}

/// Encode a scenario set as a schema-versioned baseline document.
pub fn to_json(mode: BenchMode, scenarios: &[ScenarioStats]) -> Value {
    let entries: Vec<(String, Value)> = scenarios
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(s.unit.into())),
                    ("iters".into(), Value::UInt(s.iters as u64)),
                    ("median".into(), Value::Float(s.median)),
                    ("p25".into(), Value::Float(s.p25)),
                    ("p75".into(), Value::Float(s.p75)),
                    ("min".into(), Value::Float(s.min)),
                    ("max".into(), Value::Float(s.max)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("mode".into(), Value::Str(mode.label().into())),
        ("scenarios".into(), Value::Object(entries)),
    ])
}

/// Verdict for one scenario in a [`compare`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within threshold (or faster).
    Ok {
        /// Percent change of the median vs baseline (negative = faster).
        delta_pct: f64,
    },
    /// Median exceeded threshold and cleared the IQR noise guard.
    Regression {
        /// Percent change of the median vs baseline.
        delta_pct: f64,
    },
    /// Median exceeded threshold but IQRs overlap — reported, not fatal.
    Noisy {
        /// Percent change of the median vs baseline.
        delta_pct: f64,
    },
    /// Scenario present in the baseline but absent from the fresh run.
    Missing,
}

/// Result of comparing a fresh run against a stored baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// `(scenario, verdict)` for every scenario in the baseline.
    pub verdicts: Vec<(String, Verdict)>,
}

impl CompareReport {
    /// True when any scenario regressed or went missing — the nonzero-exit
    /// condition for `sg-bench --compare`.
    pub fn failed(&self) -> bool {
        self.verdicts
            .iter()
            .any(|(_, v)| matches!(v, Verdict::Regression { .. } | Verdict::Missing))
    }
}

fn scenario_field(doc: &Value, scenario: &str, field: &str) -> Option<f64> {
    doc.get("scenarios")?.get(scenario)?.get(field)?.as_f64()
}

fn scenario_names(doc: &Value) -> Vec<String> {
    match doc.get("scenarios") {
        Some(Value::Object(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Compare a fresh baseline document against a stored one.
///
/// A scenario regresses when `new.median > old.median × (1 + pct/100)`
/// AND `new.p25 > old.p75` (the fresh run's fast quartile is slower than
/// the baseline's slow quartile — i.e. the distributions actually
/// separated, not just the medians). Scenarios in the stored baseline but
/// absent from the fresh run are failures; extra fresh scenarios are
/// ignored (forward-compatible).
pub fn compare(old: &Value, new: &Value, threshold_pct: f64) -> CompareReport {
    let mut verdicts = Vec::new();
    for name in scenario_names(old) {
        let (Some(old_median), Some(old_p75)) = (
            scenario_field(old, &name, "median"),
            scenario_field(old, &name, "p75"),
        ) else {
            verdicts.push((name, Verdict::Missing));
            continue;
        };
        let (Some(new_median), Some(new_p25)) = (
            scenario_field(new, &name, "median"),
            scenario_field(new, &name, "p25"),
        ) else {
            verdicts.push((name, Verdict::Missing));
            continue;
        };
        let delta_pct = (new_median / old_median - 1.0) * 100.0;
        let over_threshold = new_median > old_median * (1.0 + threshold_pct / 100.0);
        let verdict = if !over_threshold {
            Verdict::Ok { delta_pct }
        } else if new_p25 > old_p75 {
            Verdict::Regression { delta_pct }
        } else {
            Verdict::Noisy { delta_pct }
        };
        verdicts.push((name, verdict));
    }
    CompareReport { verdicts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, f64, f64, f64)]) -> Value {
        // (name, median, p25, p75)
        let scenarios: Vec<(String, Value)> = entries
            .iter()
            .map(|&(name, median, p25, p75)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("unit".into(), Value::Str("ms".into())),
                        ("iters".into(), Value::UInt(5)),
                        ("median".into(), Value::Float(median)),
                        ("p25".into(), Value::Float(p25)),
                        ("p75".into(), Value::Float(p75)),
                        ("min".into(), Value::Float(p25)),
                        ("max".into(), Value::Float(p75)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("mode".into(), Value::Str("quick".into())),
            ("scenarios".into(), Value::Object(scenarios)),
        ])
    }

    #[test]
    fn clean_run_passes() {
        let old = doc(&[("a", 10.0, 9.0, 11.0), ("b", 100.0, 95.0, 105.0)]);
        let new = doc(&[("a", 10.5, 9.5, 11.5), ("b", 90.0, 85.0, 95.0)]);
        let rep = compare(&old, &new, 25.0);
        assert!(!rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Ok { .. }));
        assert!(matches!(rep.verdicts[1].1, Verdict::Ok { delta_pct } if delta_pct < 0.0));
    }

    #[test]
    fn separated_distributions_regress() {
        // +50% median and new p25 (14.0) clears old p75 (11.0).
        let old = doc(&[("a", 10.0, 9.0, 11.0)]);
        let new = doc(&[("a", 15.0, 14.0, 16.0)]);
        let rep = compare(&old, &new, 25.0);
        assert!(rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Regression { .. }));
    }

    #[test]
    fn overlapping_iqrs_are_noisy_not_fatal() {
        // Median jumped 50% but the quartiles still overlap the baseline.
        let old = doc(&[("a", 10.0, 8.0, 20.0)]);
        let new = doc(&[("a", 15.0, 9.0, 22.0)]);
        let rep = compare(&old, &new, 25.0);
        assert!(!rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Noisy { .. }));
    }

    #[test]
    fn missing_scenario_fails() {
        let old = doc(&[("a", 10.0, 9.0, 11.0), ("gone", 5.0, 4.0, 6.0)]);
        let new = doc(&[("a", 10.0, 9.0, 11.0)]);
        let rep = compare(&old, &new, 25.0);
        assert!(rep.failed());
        assert!(rep
            .verdicts
            .iter()
            .any(|(n, v)| n == "gone" && matches!(v, Verdict::Missing)));
    }

    #[test]
    fn extra_fresh_scenarios_are_ignored() {
        let old = doc(&[("a", 10.0, 9.0, 11.0)]);
        let new = doc(&[("a", 10.0, 9.0, 11.0), ("new_one", 1.0, 0.9, 1.1)]);
        assert!(!compare(&old, &new, 25.0).failed());
    }

    #[test]
    fn threshold_is_respected() {
        // +30% with separated IQRs: regression at 25%, pass at 50%.
        let old = doc(&[("a", 10.0, 9.0, 10.5)]);
        let new = doc(&[("a", 13.0, 12.5, 13.5)]);
        assert!(compare(&old, &new, 25.0).failed());
        assert!(!compare(&old, &new, 50.0).failed());
    }

    #[test]
    fn summarize_orders_quartiles() {
        let s = summarize("x", "ms", vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!(s.p25 <= s.median && s.median <= s.p75);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn json_roundtrip_preserves_gate_fields() {
        let stats = vec![summarize("x", "ns", vec![2.0, 1.0, 3.0])];
        let doc = to_json(BenchMode::Quick, &stats);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(scenario_field(&back, "x", "median"), Some(2.0));
        assert_eq!(scenario_field(&back, "x", "p25"), Some(1.0));
        assert_eq!(scenario_field(&back, "x", "p75"), Some(3.0));
    }
}

//! Machine-readable perf baselines: the pinned scenario set behind
//! `BENCH_*.json`, the harness that times it, and the document it writes.
//!
//! See BENCH.md for the methodology. In short: each pinned scenario is
//! timed over a fixed number of iterations after warmup, summarized as
//! median + IQR (p25/p75), and written as a schema-versioned JSON
//! document that also says where it was measured. [`crate::compare`]
//! replays the gate on two such documents.
//!
//! The harness is said once: `SCENARIOS` carries each scenario's name,
//! unit and iteration class, `Bench::per_run` is the only timing loop,
//! and a scenario body only sets up its subject and says what one
//! iteration is.

use crate::BenchScenario;
use serde_json::{json, Value};
use sg_controllers::SurgeGuardFactory;
use sg_core::firstresponder::{FirstResponder, FirstResponderConfig};
use sg_core::ids::{ContainerId, NodeId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::{MetricsWindow, RequestSample};
use sg_core::replica::p2c_winner;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::app::ConnModel;
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use sg_sim::engine::Engine;
use sg_sim::event::Event;
use sg_sim::runner::{RunResult, Simulation};
use sg_telemetry::profile::{LiveProfiler, ProfilePhase};
use sg_telemetry::{
    ActionKind, ActionOrigin, ActionOutcome, AggConfig, AggRuntime, LatencyDigest, MetricId,
    MetricSample, MetricsRegistry, RingSink, SpanRecord, TelemetryEvent, TelemetrySink, TopK,
    TraceStream,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier embedded in every baseline document.
pub const SCHEMA: &str = "sg-bench/v1";

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
    /// The `mode` string a baseline document records.
    pub fn label(self) -> &'static str {
        match self {
            BenchMode::Quick => "quick",
            BenchMode::Full => "full",
        }
    }
}

/// A scenario's unit: the `unit` label a baseline records, and how
/// many of it make a second.
type Unit = (&'static str, f64);
const MS: Unit = ("ms", 1e3);
const NS: Unit = ("ns", 1e9);

/// A scenario's iteration class: `(warmup, measured)` iterations in
/// `[quick, full]` mode.
type Reps = [(usize, usize); 2];
/// Cheap scenarios amortized over an inner loop.
const LIGHT: Reps = [(1, 5), (1, 15)];
/// One whole simulated trial per iteration.
const HEAVY: Reps = [(1, 5), (2, 15)];
/// One cluster-scale run (seconds of wall-clock) per iteration.
const CLUSTER: Reps = [(1, 3), (1, 7)];

/// What a scenario body is handed: the unit and iteration counts from
/// its `SCENARIOS` row, and the samples collected so far.
struct Bench {
    mode: BenchMode,
    per_sec: f64,
    warmup: usize,
    iters: usize,
    samples: Vec<f64>,
}

impl Bench {
    /// The one timing loop. `body(i)` runs iteration `i` and returns the
    /// wall-clock it timed plus how many operations that covered (1 for
    /// a whole run, the engine's event count for ns/event); the first
    /// `warmup` iterations are discarded, the next `iters` are kept as
    /// per-operation samples in the scenario's unit.
    fn per_run(&mut self, mut body: impl FnMut(usize) -> (Duration, u64)) {
        for i in 0..self.warmup + self.iters {
            let (elapsed, ops) = body(i);
            if i >= self.warmup {
                let per_op = elapsed.as_secs_f64() * self.per_sec / ops as f64;
                self.samples.push(per_op);
            }
        }
    }

    /// [`Bench::per_run`] for a hot path too cheap to time alone: each
    /// iteration times `inner` back-to-back calls of `op`.
    fn per_op(&mut self, inner: u64, mut op: impl FnMut(u64)) {
        self.per_run(|_| (time_ops(inner, &mut op), inner));
    }
}

/// Wall-clock of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Wall-clock of `op(0..inner)`.
fn time_ops(inner: u64, mut op: impl FnMut(u64)) -> Duration {
    timed(|| {
        for k in 0..inner {
            op(k);
        }
    })
    .1
}

/// Discards events; isolates relay cost from downstream I/O.
struct NullSink;
impl TelemetrySink for NullSink {
    fn emit(&self, _event: TelemetryEvent) {}
}

/// One simulated CHAIN surge trial per iteration — the figure harness's
/// unit of work — with config assembly and arrival rendering inside the
/// timed region. `trial` runs the configured simulation, so an observed
/// variant is `sim_trial` plus its `.with_*` call and nothing else.
fn chain_trial(b: &mut Bench, trial: impl Fn(Simulation) -> RunResult) {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    b.per_run(|_| {
        let (r, dt) = timed(|| trial(scenario.simulation(&factory, 1)));
        assert!(r.completed > 0);
        (dt, 1)
    });
}

/// `sim_trial` with the mergeable aggregation layer on (digest + SLO
/// window + heavy-hitter shard per node, snapshots into a discarding
/// sink) and per-cycle metrics recording: the delta against
/// `sim_trial_metrics` is the all-in per-run cost of always-on
/// aggregation, held to the same ≤ 2% envelope as the other
/// observability layers. Written out rather than through `chain_trial`
/// so building the shards and reading them back stay untimed.
fn sim_trial_agg(b: &mut Bench) {
    let scenario = BenchScenario::chain_surge();
    let factory = SurgeGuardFactory::full();
    let nodes = scenario.pw.cfg.placement.nodes as usize;
    b.per_run(|_| {
        let agg = Arc::new(AggRuntime::new(
            AggConfig::new(SimDuration::from_millis(10)),
            nodes,
        ));
        let (r, dt) = timed(|| {
            scenario
                .simulation(&factory, 1)
                .with_metrics(Arc::new(NullSink))
                .with_agg(Arc::clone(&agg))
                .run()
        });
        assert!(r.completed > 0);
        assert!(
            !agg.merged().digest.is_empty(),
            "agg layer saw no completions"
        );
        (dt, 1)
    });
}

/// The per-packet FirstResponder decision (the §VI-D 0.26 µs hot path)
/// both `fr_hook*` scenarios time. Zero cooldown, every expectation
/// already missed: each packet takes the full decide-and-boost path,
/// not the cooldown-suppressed exit.
fn on_packet() -> impl FnMut(u64) {
    let mut fr = FirstResponder::new(FirstResponderConfig {
        expected_time_from_start: vec![Some(SimDuration::from_micros(500)); 16],
        local_downstream: vec![vec![]; 16],
        cooldown: SimDuration::ZERO,
        max_freq_level: 8,
    });
    let meta = RpcMetadata::new_job(SimTime::ZERO);
    move |k| {
        let at = SimTime::from_nanos(900_000 + k);
        black_box(fr.on_packet(ContainerId(3), black_box(meta), at));
    }
}

/// The same decision wrapped exactly as the live worker wraps it when
/// `--profile-out` is on: one `Instant::now` pair plus a relaxed-atomic
/// histogram record per packet. The delta against `fr_hook` is the
/// profiler's per-packet cost; `fr_hook` itself (profiler off) is the
/// disabled-guard baseline.
fn fr_hook_profiled(b: &mut Bench) {
    let profiler = LiveProfiler::new();
    let mut on_packet = on_packet();
    b.per_op(200_000, |k| {
        let p0 = Instant::now();
        on_packet(k);
        profiler.record(ProfilePhase::FrHook, p0.elapsed().as_nanos() as u64);
    });
    black_box(profiler.snapshot(1));
}

/// One lock-free telemetry ring push (the live hot path's emission
/// cost). A fresh ring per iteration; spawning it and joining its
/// drainer stay outside the timed region.
fn telemetry_ring(b: &mut Bench) {
    const INNER: u64 = 50_000;
    let event = || TelemetryEvent::FrBoost {
        at: SimTime::from_micros(900),
        node: NodeId(0),
        dest: ContainerId(3),
        slack_ns: -123_456,
        level: 8,
        targets: 1,
    };
    b.per_run(|_| {
        let (ring, drainer) = RingSink::spawn(Arc::new(NullSink), 1 << 16);
        let dt = time_ops(INNER, |_| ring.emit(black_box(event())));
        drop(ring);
        drainer.shutdown();
        (dt, INNER)
    });
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

/// JSONL-encode one event (sim emission / live drainer cost).
fn encode(b: &mut Bench, event: TelemetryEvent) {
    b.per_op(20_000, |_| {
        black_box(black_box(&event).to_json_line());
    });
}

/// Decode one span line (the read side's cost per record).
fn span_decode(b: &mut Bench) {
    let line = span_event().to_json_line();
    b.per_op(20_000, |_| {
        black_box(TelemetryEvent::from_json_line(black_box(&line)).expect("span line"));
    });
}

/// `TraceStream` over an in-memory 20 000-line trace in the mix an
/// observed trial writes (16 spans to 2 metric samples, an action and
/// its allocation), ns per line: line splitting, blank/bad-line policy
/// and decode together, as `sg-trace` pays them.
fn trace_read(b: &mut Bench) {
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
    b.per_run(|_| {
        let mut events = 0u64;
        let (bad, dt) = timed(|| {
            TraceStream::new(black_box(trace.as_bytes()))
                .for_each(|event| {
                    black_box(&event);
                    events += 1;
                })
                .expect("in-memory read")
        });
        assert_eq!((events, bad), (LINES, 0));
        (dt, LINES)
    });
}

/// One `MetricsRegistry::record` (the live drainer's tee cost per
/// sample, and what every scrape serves from).
fn metrics_sample(b: &mut Bench) {
    let registry = MetricsRegistry::new();
    b.per_op(100_000, |k| {
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
    });
}

/// The metric sample `metrics_encode` encodes.
fn metric_event() -> TelemetryEvent {
    TelemetryEvent::Metric(MetricSample {
        at: SimTime::from_micros(900),
        node: NodeId(0),
        container: ContainerId(3),
        metric: MetricId::SlackP99,
        value: -123_456.0,
    })
}

/// One `LatencyDigest::record` on the mergeable log-bucket digest (the
/// per-completion cost of the aggregation layer's hottest call). Values
/// cycle a realistic latency spread so bucket residency stays warm but
/// the sparse map keeps a run-like footprint.
fn digest_insert(b: &mut Bench) {
    let mut digest = LatencyDigest::with_default_resolution();
    b.per_op(200_000, |k| {
        // 100 µs .. ~13 ms, deterministic spread across octaves.
        let ns = 100_000 + (k.wrapping_mul(0x9E37_79B9)) % 13_000_000;
        digest.record(SimDuration::from_nanos(black_box(ns)));
    });
}

/// One pairwise `LatencyDigest::merge` of two populated node shards
/// (the teardown/cluster-view cost, paid once per node per merge pass).
fn digest_merge(b: &mut Bench) {
    let mut x = LatencyDigest::with_default_resolution();
    let mut y = LatencyDigest::with_default_resolution();
    for k in 0u64..10_000 {
        x.record(SimDuration::from_nanos(50_000 + k * 997));
        y.record(SimDuration::from_nanos(80_000 + k * 1_543));
    }
    b.per_op(2_000, |_| {
        let mut m = black_box(&x).clone();
        m.merge(black_box(&y));
        black_box(&m);
    });
}

/// One `TopK::observe` on the SpaceSaving heavy-hitter sketch at
/// capacity (every update pays the eviction scan — the worst case).
fn topk_update(b: &mut Bench) {
    let mut topk = TopK::new(8);
    b.per_op(200_000, |k| {
        // 64 distinct keys over capacity 8: constant eviction churn.
        topk.observe(black_box(k % 64), black_box(1 + k % 1_000));
    });
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
fn replica_scale_out(b: &mut Bench) {
    let horizon = SimTime::from_millis(400);
    b.per_run(|_| {
        let mut cfg = sg_live::conformance::two_stage_cfg(ConnModel::FixedPool(4), horizon);
        cfg.max_replicas = 2;
        let arrivals = sg_live::conformance::constant_arrivals(2000.0, horizon);
        let (r, dt) = timed(|| Simulation::new(cfg, &ReplicaTogglerFactory, arrivals).run());
        assert!(r.completed > 0);
        (dt, 1)
    });
}

/// The per-dispatch load-balancer decision (`p2c_winner`, the rule both
/// substrates run on every replicated RPC edge), fed by a cheap inline
/// xorshift standing in for the dispatch RNG draws.
fn lb_pick(b: &mut Bench) {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    b.per_op(200_000, |_| {
        state = xorshift(state);
        // Two candidate slots out of a 3-replica group with synthetic
        // queue depths — the shape of a zoo-run dispatch.
        let slot_a = (state % 3) as usize;
        let slot_b = ((state >> 8) % 3) as usize;
        let depth_a = (state >> 16) % 32;
        let depth_b = (state >> 24) % 32;
        black_box(p2c_winner(
            black_box(slot_a),
            black_box(depth_a),
            black_box(slot_b),
            black_box(depth_b),
        ));
    });
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One `MetricsWindow::record` — what every completed request pays on
/// its container's Escalator window, on both substrates.
fn window_record(b: &mut Bench) {
    let mut window = MetricsWindow::new();
    let sample = RequestSample {
        exec_time: SimDuration::from_micros(800),
        conn_wait: SimDuration::from_micros(100),
    };
    b.per_op(200_000, |_| window.record(black_box(sample), false));
    black_box(window.len());
}

/// Render a 60 s MMPP arrival schedule — the `--profile mmpp` unit of
/// work added with the scenario layer: 2-state Markov modulation plus a
/// per-arrival exponential draw, ~180k arrivals at the CHAIN base rate.
fn mmpp_schedule(b: &mut Bench) {
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    b.per_run(|i| {
        let profile = sg_loadgen::Mmpp::bursty(3000.0, 42 + i as u64);
        let (arrivals, dt) = timed(|| black_box(profile.arrivals(SimTime::ZERO, horizon)));
        assert!(arrivals.len() > 100_000, "schedule suspiciously short");
        (dt, 1)
    });
}

/// One cluster-scale throughput measurement: the gateway-fanout
/// workload of [`crate::ClusterScenario`] under streamed spike
/// arrivals, timed end to end and normalized to nanoseconds per engine
/// event. Per-request event count is constant across cluster sizes, so
/// the three sizes expose how per-event cost scales with container
/// count (heap: log n pending; wheel: O(1) — SCALING.md §4).
fn cluster_scale(b: &mut Bench, nodes: u32) {
    let horizon = match b.mode {
        BenchMode::Quick => SimDuration::from_secs(2),
        BenchMode::Full => SimDuration::from_secs(4),
    };
    let scenario = crate::ClusterScenario::new(nodes, 400.0, SimTime::ZERO + horizon);
    let factory = sg_sim::controller::NoopFactory;
    b.per_run(|_| {
        let (r, dt) = timed(|| scenario.run(&factory));
        assert!(r.completed > 0, "cluster run produced no completions");
        assert_eq!(r.dropped, 0, "cluster run saturated the safety valve");
        (dt, r.events)
    });
}

/// The completion-timer table under the simulator's two shapes: 64
/// slots armed (a `sim_trials` chain) and 5 001 (the 200-node cluster),
/// half of every iteration on each. One operation is what a container
/// mutation plus the completion it leads to cost the engine: re-arm a
/// random armed slot in place, then pop the earliest timer and arm that
/// slot again.
fn timer_rearm(b: &mut Bench) {
    const INNER: u64 = 100_000;
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut later = move |now: SimTime| {
        state = xorshift(state);
        now + SimDuration::from_nanos(1 + state % 1_000_000)
    };
    let mut engines = [64u32, 5_001].map(|slots| {
        let mut engine = Engine::new();
        for slot in 0..slots {
            engine.arm(ContainerId(slot), later(SimTime::ZERO), 0);
        }
        (engine, slots)
    });
    b.per_run(|_| {
        let dt = time_ops(INNER, |k| {
            let (engine, slots) = &mut engines[(k % 2) as usize];
            let at = later(engine.now());
            engine.arm(ContainerId((k / 2) as u32 % *slots), at, k);
            let Some((now, Event::PhaseComplete { container, .. })) = engine.pop() else {
                unreachable!("every slot stays armed");
            };
            engine.arm(container, later(now), k);
        });
        (dt, INNER)
    });
}

/// One pinned scenario: the name and unit every baseline records it
/// under, its iteration class, and the body that feeds a `Bench`.
type Scenario = (&'static str, Unit, Reps, fn(&mut Bench));

/// The pinned scenario set: stable names (the `--only` selectors and
/// the keys of every `BENCH_*.json`), fixed order.
const SCENARIOS: [Scenario; 23] = [
    ("sim_trial", MS, HEAVY, |b| chain_trial(b, Simulation::run)),
    ("fr_hook", NS, LIGHT, |b| b.per_op(200_000, on_packet())),
    ("fr_hook_profiled", NS, LIGHT, fr_hook_profiled),
    ("telemetry_ring", NS, LIGHT, telemetry_ring),
    ("span_encode", NS, LIGHT, |b| encode(b, span_event())),
    ("span_decode", NS, LIGHT, span_decode),
    ("trace_read", NS, LIGHT, trace_read),
    ("metrics_sample", NS, LIGHT, metrics_sample),
    ("metrics_encode", NS, LIGHT, |b| encode(b, metric_event())),
    ("digest_insert", NS, LIGHT, digest_insert),
    ("digest_merge", NS, LIGHT, digest_merge),
    ("topk_update", NS, LIGHT, topk_update),
    // The observed variants: the delta against `sim_trial` is the layer's
    // all-in enabled cost, and `sim_trial` itself guards the disabled path.
    ("sim_trial_metrics", MS, HEAVY, |b| {
        chain_trial(b, |sim| sim.with_metrics(Arc::new(NullSink)).run())
    }),
    ("sim_trial_agg", MS, HEAVY, sim_trial_agg),
    ("sim_trial_profiled", MS, HEAVY, |b| {
        chain_trial(b, |sim| sim.with_profile(Arc::new(NullSink)).run())
    }),
    ("replica_scale_out", MS, HEAVY, replica_scale_out),
    ("lb_pick", NS, LIGHT, lb_pick),
    ("window_record", NS, LIGHT, window_record),
    ("mmpp_schedule", MS, LIGHT, mmpp_schedule),
    ("timer_rearm", NS, LIGHT, timer_rearm),
    ("cluster_scale_4", NS, CLUSTER, |b| cluster_scale(b, 4)),
    ("cluster_scale_50", NS, CLUSTER, |b| cluster_scale(b, 50)),
    ("cluster_scale_200", NS, CLUSTER, |b| cluster_scale(b, 200)),
];

/// Whether `name` is selected by `only`, a comma-separated list of
/// scenario-name substrings (`None` or all-blank = everything).
pub(crate) fn selects(only: Option<&str>, name: &str) -> bool {
    let mut patterns = only
        .into_iter()
        .flat_map(|s| s.split(','))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .peekable();
    patterns.peek().is_none() || patterns.any(|p| name.contains(p))
}

/// Wall-clock, in ns, of a fixed-work integer spin that touches no
/// memory (2²² dependent steps, ≈ 8 ms). Timed before the first and
/// after the last scenario, it is the part of a baseline that says
/// whether the host itself slowed down under the run (busy sibling
/// vCPU, frequency drop).
pub fn calibrate() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let dt = time_ops(1 << 22, |_| x = xorshift(black_box(x)));
    black_box(x);
    dt.as_secs_f64() * 1e9
}

/// One pass over the (selected) scenario set.
#[derive(Debug, Clone)]
pub struct Run {
    /// One entry per scenario run, in the pinned order.
    pub scenarios: Vec<ScenarioStats>,
    /// [`calibrate`] before the first and after the last scenario.
    pub calib_ns: [f64; 2],
}

/// Run the scenarios `only` selects (`None` = everything), in the
/// pinned order regardless of the selector order.
pub fn run_selected(mode: BenchMode, only: Option<&str>, progress: impl Fn(&ScenarioStats)) -> Run {
    let before = calibrate();
    let mut scenarios = Vec::new();
    for (name, (unit, per_sec), [quick, full], body) in SCENARIOS {
        if !selects(only, name) {
            continue;
        }
        let (warmup, iters) = match mode {
            BenchMode::Quick => quick,
            BenchMode::Full => full,
        };
        let mut bench = Bench {
            mode,
            per_sec,
            warmup,
            iters,
            samples: Vec::with_capacity(iters),
        };
        body(&mut bench);
        let stats = summarize(name, unit, bench.samples);
        progress(&stats);
        scenarios.push(stats);
    }
    Run {
        scenarios,
        calib_ns: [before, calibrate()],
    }
}

/// Where a baseline was measured. Absolute numbers from two hosts are
/// not comparable, so `--compare` refuses to try.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` (0 if unknown).
    pub cpus: u64,
    /// The `model name` line of `/proc/cpuinfo`, or `"unknown"`.
    pub cpu: String,
}

impl Host {
    /// This machine.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            cpu,
        }
    }

    /// The host a baseline document records; `None` for BENCH_4–15,
    /// which predate the field.
    pub fn recorded(doc: &Value) -> Option<Host> {
        let host = doc.get("host")?;
        Some(Host {
            cpus: host.get("cpus")?.as_u64()?,
            cpu: host.get("cpu")?.as_str()?.to_string(),
        })
    }

    /// `Err` when `doc` records a host other than this one; a document
    /// with no `host` passes (the caller prints that caveat).
    pub fn check(&self, doc: &Value) -> Result<(), String> {
        match Host::recorded(doc) {
            Some(other) if other != *self => Err(format!(
                "recorded on a different host; regenerate the baseline here \
                 (recorded: {} x {}; here: {} x {})",
                other.cpus, other.cpu, self.cpus, self.cpu
            )),
            _ => Ok(()),
        }
    }
}

/// The `calib_ns` pair a baseline document records, if any.
pub fn recorded_calib(doc: &Value) -> Option<[f64; 2]> {
    match doc.get("calib_ns")?.as_array()?.as_slice() {
        [before, after] => Some([before.as_f64()?, after.as_f64()?]),
        _ => None,
    }
}

/// Encode a run as a schema-versioned baseline document.
pub fn to_json(mode: BenchMode, host: &Host, run: &Run) -> Value {
    let scenarios = run.scenarios.iter().map(|s| {
        let stats = json!({
            "unit": s.unit, "iters": s.iters, "median": s.median,
            "p25": s.p25, "p75": s.p75, "min": s.min, "max": s.max,
        });
        (s.name.to_string(), stats)
    });
    json!({
        "schema": SCHEMA,
        "mode": mode.label(),
        "host": { "cpus": host.cpus, "cpu": host.cpu.clone() },
        "calib_ns": Value::Array(run.calib_ns.map(Value::Float).to_vec()),
        "scenarios": Value::Object(scenarios.collect()),
    })
}

pub(crate) fn scenario_field(doc: &Value, scenario: &str, field: &str) -> Option<f64> {
    doc.get("scenarios")?.get(scenario)?.get(field)?.as_f64()
}

pub(crate) fn scenario_names(doc: &Value) -> Vec<String> {
    match doc.get("scenarios") {
        Some(Value::Object(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn the_loop_discards_warmup_and_keeps_iters() {
        let mut bench = Bench {
            mode: BenchMode::Quick,
            per_sec: MS.1,
            warmup: 2,
            iters: 5,
            samples: Vec::new(),
        };
        let mut calls = 0;
        bench.per_run(|i| {
            assert_eq!(i, calls, "iterations are numbered from the first warmup");
            calls += 1;
            (Duration::from_millis(10 * i as u64), 10)
        });
        assert_eq!(calls, 7);
        // Iterations 0 and 1 are gone; each sample is elapsed / ops in ms.
        assert_eq!(bench.samples, [2.0, 3.0, 4.0, 5.0, 6.0]);

        bench.samples.clear();
        let mut ops = 0;
        bench.per_op(100, |_| ops += 1);
        assert_eq!((ops, bench.samples.len()), (700, 5));
    }

    #[test]
    fn json_roundtrip_preserves_gate_fields() {
        let run = Run {
            scenarios: vec![summarize("x", "ns", vec![2.0, 1.0, 3.0])],
            calib_ns: [10.0, 11.5],
        };
        let host = Host {
            cpus: 2,
            cpu: "this box".into(),
        };
        let doc = to_json(BenchMode::Quick, &host, &run);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(scenario_field(&back, "x", "median"), Some(2.0));
        assert_eq!(scenario_field(&back, "x", "p25"), Some(1.0));
        assert_eq!(scenario_field(&back, "x", "p75"), Some(3.0));
        assert_eq!(Host::recorded(&back), Some(host));
        assert_eq!(recorded_calib(&back), Some([10.0, 11.5]));
    }

    /// The committed baseline and the table agree on names, order and
    /// units, so dropping or renaming a scenario fails `cargo test`
    /// rather than only a manual `--compare`.
    #[test]
    fn scenario_table_matches_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_19.json");
        let committed = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let table: Vec<&str> = SCENARIOS.iter().map(|sc| sc.0).collect();
        assert_eq!(scenario_names(&committed), table);
        for (i, (name, (unit, _), ..)) in SCENARIOS.into_iter().enumerate() {
            assert!(!table[..i].contains(&name), "{name} listed twice");
            let recorded = committed
                .get("scenarios")
                .and_then(|s| s.get(name)?.get("unit"));
            assert_eq!(recorded.and_then(Value::as_str), Some(unit));
        }
    }
}

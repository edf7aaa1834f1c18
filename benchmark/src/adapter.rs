//! The one file that names a product crate.
//!
//! Everything the harness asks of `sg-core`, `sg-sim`, `sg-controllers`,
//! `sg-loadgen`, `sg-workloads`, `sg-telemetry` and `sg-live` goes
//! through a function here, and nothing here returns a product type, so
//! a change to a product API breaks exactly this file (README.md lists
//! the linked symbols). Every call is made from outside, through public
//! items only; the wrappers (`TimedFactory`, `TimedSink`) implement the
//! product's public traits to time each call into the object they wrap.

use crate::stats;
use crate::trace::{NsHist, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sg_controllers::{CaladanFactory, PartiesFactory, SurgeGuardFactory};
use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
use sg_core::arrivals::ArrivalSource;
use sg_core::config::{ContainerParams, EscalatorConfig};
use sg_core::escalator::{Escalator, EscalatorObservation};
use sg_core::fault::FaultNotice;
use sg_core::firstresponder::{FirstResponder, FirstResponderConfig, FrRuntime, FreqUpdate};
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::WindowMetrics;
use sg_core::score::ContainerObservation;
use sg_core::time::{SimDuration, SimTime};
use sg_core::violation::LatencyPoint;
use sg_live::net::DelayLine;
use sg_live::pool::LiveConnPool;
use sg_live::throttle::CoreGate;
use sg_live::{run_live_with_stats, LiveOpts};
use sg_loadgen::{ArrivalProfile, LatencyHistogram, RunReport, SpikePattern};
use sg_sim::app::{linear_chain, CallMode, ConnModel, EdgeSpec, ServiceSpec, TaskGraph};
use sg_sim::cluster::{Placement, SimConfig};
use sg_sim::connpool::ConnPool;
use sg_sim::container::Containers;
use sg_sim::controller::{
    ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot, NoopFactory,
};
use sg_sim::engine::Engine;
use sg_sim::event::Event;
use sg_sim::network::{Network, NetworkConfig};
use sg_sim::power::{EnergyMeter, PowerModel};
use sg_sim::runner::{RunResult, Simulation};
use sg_telemetry::profile::{ProfileMark, ProfilePhase, ProfileReport};
use sg_telemetry::{
    timeline, AggConfig, AggRuntime, JsonlSink, LatencyDigest, MetricSample, RingSink, SharedSink,
    SpanRecord, SpanReport, SpanSampler, SummaryBuilder, TelemetryEvent, TelemetrySink,
    TimelineSet, TraceStream, VecSink, WatchConfig, Watcher, PROFILE_SCHEMA, SPANS_SCHEMA,
    TRACE_SCHEMA,
};
use sg_workloads::{CalibrationOptions, PreparedWorkload, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Controllers, and the wrapper that times every call into one
// ---------------------------------------------------------------------

/// The four arms of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctl {
    SurgeGuard,
    Parties,
    Caladan,
    Static,
}

impl Ctl {
    pub const ALL: [Ctl; 4] = [Ctl::SurgeGuard, Ctl::Parties, Ctl::Caladan, Ctl::Static];
}

/// Time spent inside one controller arm's `on_tick` / `on_packet`, as
/// seen from outside the trait object.
#[derive(Default)]
pub struct CtlTimes {
    pub tick: NsHist,
    pub packet: NsHist,
    pub actions: AtomicU64,
}

struct TimedFactory<'a> {
    inner: &'a dyn ControllerFactory,
    times: Arc<CtlTimes>,
}

struct TimedController {
    inner: Box<dyn Controller>,
    times: Arc<CtlTimes>,
}

impl ControllerFactory for TimedFactory<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(TimedController {
            inner: self.inner.make(init),
            times: Arc::clone(&self.times),
        })
    }
}

impl Controller for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_interval(&self) -> SimDuration {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_tick(now, snapshot);
        self.times.tick.record(t0.elapsed().as_nanos() as u64);
        self.times
            .actions
            .fetch_add(actions.len() as u64, Ordering::Relaxed);
        actions
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_packet(now, dest, meta);
        self.times.packet.record(t0.elapsed().as_nanos() as u64);
        self.times
            .actions
            .fetch_add(actions.len() as u64, Ordering::Relaxed);
        actions
    }

    fn on_fault(&mut self, now: SimTime, notice: FaultNotice) {
        self.inner.on_fault(now, notice);
    }

    fn attach_telemetry(&mut self, sink: SharedSink) {
        self.inner.attach_telemetry(sink);
    }

    fn metric_samples(&mut self, now: SimTime, out: &mut Vec<MetricSample>) {
        self.inner.metric_samples(now, out);
    }
}

/// Hand `f` the factory for `ctl`, wrapped in the timing layer when
/// `times` is given.
fn with_factory<R>(
    ctl: Ctl,
    times: Option<&Arc<CtlTimes>>,
    f: impl FnOnce(&dyn ControllerFactory) -> R,
) -> R {
    let sg = SurgeGuardFactory::full();
    let parties = PartiesFactory::default();
    let caladan = CaladanFactory::default();
    let inner: &dyn ControllerFactory = match ctl {
        Ctl::SurgeGuard => &sg,
        Ctl::Parties => &parties,
        Ctl::Caladan => &caladan,
        Ctl::Static => &NoopFactory,
    };
    match times {
        Some(times) => f(&TimedFactory {
            inner,
            times: Arc::clone(times),
        }),
        None => f(inner),
    }
}

// ---------------------------------------------------------------------
// Simulator runs
// ---------------------------------------------------------------------

/// The calibrated applications the sim workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Chain,
    Compose,
    Read,
}

impl App {
    pub const ALL: [App; 3] = [App::Chain, App::Compose, App::Read];
}

/// A calibrated application (`sg_workloads::prepare`'s result).
pub struct Prepared {
    pw: PreparedWorkload,
}

/// Calibrate `app` on one node; `seed` is the dataset and calibration
/// seed.
pub fn prepare(app: App, seed: u64) -> Prepared {
    let workload = match app {
        App::Chain => Workload::Chain,
        App::Compose => Workload::ComposePost,
        App::Read => Workload::ReadUserTimeline,
    };
    let opts = CalibrationOptions {
        dataset_seed: seed,
        ..CalibrationOptions::default()
    };
    Prepared {
        pw: sg_workloads::prepare(workload, 1, opts),
    }
}

/// Shares of the sim self-profiler's report the per-layer table uses.
#[derive(Debug, Clone, Default)]
pub struct SimProfile {
    /// `(phase wire name, total ns)` for every phase that ran.
    pub phase_ns: Vec<(&'static str, u64)>,
    pub pending_high_water: u64,
    pub invocation_high_water: u64,
}

/// What one simulator run produced, reduced to plain numbers.
#[derive(Debug, Clone, Default)]
pub struct SimOut {
    pub injected: u64,
    pub completed: u64,
    pub dropped: u64,
    pub events: u64,
    pub boosts: u64,
    /// Hash of the points, event count and energy bits: two runs of the
    /// same inputs must agree on it, with any observer on or off.
    pub digest: u64,
    /// Exact percentiles of the modelled client latency over the
    /// measured window, nanoseconds of simulated time.
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    /// Requests of the measured window that met the QoS limit, and the
    /// window's length in simulated nanoseconds.
    pub within_qos: u64,
    pub window_ns: u64,
    pub arrivals_ns: u64,
    pub new_ns: u64,
    pub run_ns: u64,
    pub report_ns: u64,
    pub profile: Option<SimProfile>,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn result_digest(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for p in &r.points {
        fnv(&mut h, p.completion.as_nanos());
        fnv(&mut h, p.latency.as_nanos());
    }
    for v in [r.injected, r.completed, r.dropped, r.events] {
        fnv(&mut h, v);
    }
    fnv(&mut h, r.energy_j.to_bits());
    fnv(&mut h, r.avg_cores.to_bits());
    h
}

/// What the simulator predicted for the clients, over the measured
/// window: exact p50 and p99 of the latency, and how many requests met
/// the QoS limit. Consumes the points (no copy: a cluster run has a
/// million, and the harness must not add to the peak it reports).
struct Modelled {
    p50_ns: u64,
    p99_ns: u64,
    within_qos: u64,
}

fn modelled(mut points: Vec<LatencyPoint>, from: SimTime, qos: SimDuration) -> Modelled {
    points.retain(|p| p.completion >= from);
    let n = points.len();
    let within_qos = points.iter().filter(|p| p.latency <= qos).count() as u64;
    if n == 0 {
        return Modelled {
            p50_ns: 0,
            p99_ns: 0,
            within_qos,
        };
    }
    // Nearest rank, by selection.
    let rank = |q: f64| ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (i50, i99) = (rank(50.0), rank(99.0));
    let p99_ns = points
        .select_nth_unstable_by_key(i99, |p| p.latency)
        .1
        .latency
        .as_nanos();
    let p50_ns = points[..=i99]
        .select_nth_unstable_by_key(i50, |p| p.latency)
        .1
        .latency
        .as_nanos();
    Modelled {
        p50_ns,
        p99_ns,
        within_qos,
    }
}

fn sim_profile(report: &ProfileReport) -> SimProfile {
    SimProfile {
        phase_ns: report
            .phases
            .iter()
            .map(|p| (p.phase.name(), p.total_ns))
            .collect(),
        pending_high_water: report.mark(ProfileMark::HeapDepthHighWater).unwrap_or(0),
        invocation_high_water: report.mark(ProfileMark::InvocationHighWater).unwrap_or(0),
    }
}

/// The report a run with `with_profile(sink)` left in `sink`.
fn taken_profile(sink: Option<&VecSink>) -> Option<SimProfile> {
    ProfileReport::from_events(&sink?.take())
        .as_ref()
        .map(sim_profile)
}

/// Paper protocol of one trial, as `sg_experiments::run_one` sizes it in
/// its `quick` profile.
const TRIAL_WARMUP: SimDuration = SimDuration::from_secs(5);
const TRIAL_MEASURE: SimDuration = SimDuration::from_secs(30);
const TRIAL_DRAIN: SimDuration = SimDuration::from_millis(200);

/// Observers a trial can run under. `Default` is none: the plain trial.
#[derive(Default)]
pub struct Observe<'a> {
    /// Time every controller call through the wrapper.
    pub ctl_times: Option<&'a Arc<CtlTimes>>,
    /// Turn the sim self-profiler on (into memory).
    pub profile: bool,
    /// Write all five telemetry streams to these files.
    pub streams: Option<&'a StreamFiles>,
}

/// One serial paper-protocol trial: 5 s warmup + 30 s measure, 1.75×
/// spikes of 2 s every 10 s, arrivals built, simulation constructed,
/// run and reported — the steps `experiments::run_one` takes.
pub fn run_trial(pw: &Prepared, ctl: Ctl, seed: u64, obs: &Observe, tr: &mut Tracer) -> SimOut {
    let pw = &pw.pw;
    let pattern = SpikePattern::periodic(pw.base_rate, 1.75, SimDuration::from_secs(2));
    let w_start = SimTime::ZERO + TRIAL_WARMUP;
    let w_end = w_start + TRIAL_MEASURE;
    let mut cfg = pw.cfg.clone();
    cfg.end = w_end + TRIAL_DRAIN;
    cfg.measure_start = w_start;
    cfg.seed = seed;
    cfg.trace_allocations = false;
    let nodes = cfg.placement.nodes as usize;

    let (arrivals, arrivals_ns) = tr.span("loadgen:arrivals", |_| {
        pattern.arrivals(SimTime::ZERO, w_end)
    });
    let profile_sink = obs.profile.then(VecSink::shared);
    let (sim, new_ns) = tr.span("sim:new", |_| {
        with_factory(ctl, obs.ctl_times, |factory| {
            let mut sim = Simulation::new(cfg, factory, arrivals);
            if let Some(files) = obs.streams {
                let agg = Arc::new(AggRuntime::new(AggConfig::new(pw.qos), nodes));
                sim = sim
                    .with_telemetry(files.sink(Family::Decision))
                    .with_spans(files.sink(Family::Span), SpanSampler::all())
                    .with_metrics(files.sink(Family::Metric))
                    .with_agg(agg)
                    .with_profile(files.sink(Family::Profile));
            } else if let Some(sink) = &profile_sink {
                sim = sim.with_profile(Arc::clone(sink) as SharedSink);
            }
            sim
        })
    });
    let (result, run_ns) = tr.span("sim:run", |_| sim.run());
    let (report, report_ns) = tr.span("loadgen:report", |_| {
        RunReport::from_points(
            &result.points,
            pw.qos,
            w_start,
            w_end,
            result.avg_cores,
            result.energy_j,
        )
    });
    black_box(&report);
    let digest = result_digest(&result);
    let clients = modelled(result.points, w_start, pw.qos);
    SimOut {
        injected: result.injected,
        completed: result.completed,
        dropped: result.dropped,
        events: result.events,
        boosts: result.packet_freq_boosts,
        digest,
        lat_p50_ns: clients.p50_ns,
        lat_p99_ns: clients.p99_ns,
        within_qos: clients.within_qos,
        window_ns: TRIAL_MEASURE.as_nanos(),
        arrivals_ns,
        new_ns,
        run_ns,
        report_ns,
        profile: taken_profile(profile_sink.as_deref()),
    }
}

/// Backend service groups per node: 25 + the gateway put 26 × 2 = 52
/// initial cores on node 0, the default per-node budget.
const BACKENDS_PER_NODE: u32 = 25;

/// QoS limit of the cluster shape, as `sg-bench` sets it: gateway + one
/// 200 µs backend plus queueing, so 2 ms marks genuine tail trouble.
const CLUSTER_QOS: SimDuration = SimDuration::from_millis(2);

/// The `--demo-cluster` shape: one gateway fanning out (`OneOf`) over
/// `25 × nodes` backends striped across the nodes, streamed arrivals.
pub struct ClusterJob {
    cfg: SimConfig,
    pattern: SpikePattern,
    horizon: SimTime,
}

pub fn cluster_build(nodes: u32, per_node_rate: f64, horizon_s: f64) -> ClusterJob {
    let backends = BACKENDS_PER_NODE * nodes;
    let mut services = Vec::with_capacity(backends as usize + 1);
    services.push(ServiceSpec {
        name: "gateway".into(),
        work_mean: SimDuration::from_micros(5),
        work_cv: 0.0,
        pre_fraction: 0.5,
        children: (1..=backends)
            .map(|i| EdgeSpec {
                child: ServiceId(i),
                conn: ConnModel::PerRequest,
            })
            .collect(),
        call_mode: CallMode::OneOf,
    });
    for b in 0..backends {
        services.push(ServiceSpec {
            name: format!("backend-{b}"),
            work_mean: SimDuration::from_micros(200),
            work_cv: 0.0,
            pre_fraction: 1.0,
            children: Vec::new(),
            call_mode: CallMode::Sequential,
        });
    }
    let graph = TaskGraph {
        name: format!("cluster-{nodes}n"),
        services,
    };
    let mut node_of = vec![NodeId(0)];
    node_of.extend((0..backends).map(|b| NodeId(b % nodes)));
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(horizon_s);
    let mut cfg = SimConfig::new(graph, Placement { node_of, nodes });
    cfg.end = horizon + SimDuration::from_millis(100);
    cfg.measure_start = SimTime::ZERO;
    let base = per_node_rate * f64::from(nodes);
    ClusterJob {
        cfg,
        pattern: SpikePattern {
            base_rate: base,
            spike_rate: base * 2.0,
            spike_len: SimDuration::from_secs(1),
            period: SimDuration::from_secs(10),
            first_spike: SimTime::from_secs(1),
        },
        horizon,
    }
}

impl ClusterJob {
    pub fn containers(&self) -> usize {
        self.cfg.graph.len()
    }
}

/// One cluster run under `NoopFactory` with the schedule streamed.
pub fn run_cluster(job: &ClusterJob, seed: u64, profile: bool, tr: &mut Tracer) -> SimOut {
    let profile_sink = profile.then(VecSink::shared);
    let (sim, new_ns) = tr.span("sim:new", |_| {
        let stream = ArrivalProfile::Spike(job.pattern).stream(SimTime::ZERO, job.horizon);
        let mut cfg = job.cfg.clone();
        cfg.seed = seed;
        let sim = Simulation::new_streaming(cfg, &NoopFactory, Box::new(stream));
        match &profile_sink {
            Some(sink) => sim.with_profile(Arc::clone(sink) as SharedSink),
            None => sim,
        }
    });
    let (result, run_ns) = tr.span("sim:run", |_| sim.run());
    let digest = result_digest(&result);
    let clients = modelled(result.points, job.cfg.measure_start, CLUSTER_QOS);
    SimOut {
        injected: result.injected,
        completed: result.completed,
        dropped: result.dropped,
        events: result.events,
        boosts: result.packet_freq_boosts,
        digest,
        lat_p50_ns: clients.p50_ns,
        lat_p99_ns: clients.p99_ns,
        within_qos: clients.within_qos,
        window_ns: job.horizon.as_nanos(),
        arrivals_ns: 0,
        new_ns,
        run_ns,
        report_ns: 0,
        profile: taken_profile(profile_sink.as_deref()),
    }
}

// ---------------------------------------------------------------------
// Telemetry: the five streams written to files, then read back
// ---------------------------------------------------------------------

/// A `JsonlSink` whose every `emit` is timed from outside.
struct TimedSink {
    inner: JsonlSink,
    times: Arc<NsHist>,
}

impl TelemetrySink for TimedSink {
    fn emit(&self, event: TelemetryEvent) {
        let t0 = Instant::now();
        self.inner.emit(event);
        self.times.record(t0.elapsed().as_nanos() as u64);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// The four JSONL files one observed trial writes (the aggregation
/// layer's snapshots ride the metrics file, as in `sg-loadtest`).
pub struct StreamFiles {
    paths: [PathBuf; 4],
    sinks: [SharedSink; 4],
    /// Per-family `emit` times; filled only when created `timed`.
    pub emit: [Arc<NsHist>; 4],
}

impl StreamFiles {
    /// Create `<stem>_{trace,spans,metrics,profile}.jsonl` under `dir`,
    /// each starting with the schema line `sg-loadtest` writes.
    pub fn create(dir: &Path, stem: &str, timed: bool) -> std::io::Result<StreamFiles> {
        let names = ["trace", "spans", "metrics", "profile"];
        let schemas = [
            Some(TRACE_SCHEMA),
            Some(SPANS_SCHEMA),
            None,
            Some(PROFILE_SCHEMA),
        ];
        let emit: [Arc<NsHist>; 4] = std::array::from_fn(|_| Arc::new(NsHist::default()));
        let paths: [PathBuf; 4] =
            std::array::from_fn(|i| dir.join(format!("{stem}_{}.jsonl", names[i])));
        let mut sinks: Vec<SharedSink> = Vec::with_capacity(4);
        for i in 0..4 {
            let inner = JsonlSink::create(&paths[i])?;
            let sink: SharedSink = if timed {
                Arc::new(TimedSink {
                    inner,
                    times: Arc::clone(&emit[i]),
                })
            } else {
                Arc::new(inner)
            };
            if let Some(schema) = schemas[i] {
                sink.emit(TelemetryEvent::Schema {
                    schema: schema.into(),
                });
            }
            sinks.push(sink);
        }
        let sinks: [SharedSink; 4] = sinks.try_into().ok().expect("four sinks");
        Ok(StreamFiles { paths, sinks, emit })
    }

    fn sink(&self, family: Family) -> SharedSink {
        Arc::clone(&self.sinks[family as usize])
    }

    /// `(count, total ns)` of timed emits into one family's file.
    pub fn emit_times(&self, family: Family) -> (u64, u64) {
        let h = &self.emit[family as usize];
        (h.count(), h.sum_ns())
    }
}

/// The stream families, in the order of the `StreamFiles` arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Decision = 0,
    Span = 1,
    Metric = 2,
    Profile = 3,
}

impl Family {
    pub const ALL: [Family; 4] = [
        Family::Decision,
        Family::Span,
        Family::Metric,
        Family::Profile,
    ];
}

/// What reading the four files back found.
#[derive(Debug, Clone, Default)]
pub struct ReadBack {
    /// Lines parsed per family, in `Family` order.
    pub lines: [u64; 4],
    pub bad_lines: u64,
    pub span_bytes: u64,
    pub span_traces: u64,
    pub incomplete_traces: u64,
    pub samples: u64,
    /// What the self-profile stream recorded about the run.
    pub profile: Option<SimProfile>,
    /// Every finding of every audit; empty on a healthy trial.
    pub findings: Vec<String>,
    /// Time inside the parser (stream time minus analysis time).
    pub parse_ns: u64,
    pub summary_ns: u64,
    pub critical_ns: u64,
    pub timeline_ns: u64,
    pub watch_ns: u64,
}

/// Accumulates the time spent in an analysis callback, when asked to.
struct Stopwatch {
    on: bool,
    ns: u64,
}

impl Stopwatch {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// Flush and close the files, then do what `sg-trace`, `sg-trace watch`,
/// `sg-trace --profile` and `sg-timeline --reconcile` do with them:
/// `TraceStream` → `SummaryBuilder`, `SpanReport`, `TimelineSet` +
/// `reconcile`, `Watcher`, profile audit. The files are removed after.
/// With `split` on, the analysis callbacks are timed per event so the
/// parser's share can be told from each analysis's share.
pub fn read_back(
    files: StreamFiles,
    pw: &Prepared,
    split: bool,
    tr: &mut Tracer,
) -> std::io::Result<ReadBack> {
    let StreamFiles { paths, sinks, .. } = files;
    drop(sinks);
    let qos = pw.pw.qos;
    let mut out = ReadBack {
        span_bytes: std::fs::metadata(&paths[Family::Span as usize])?.len(),
        ..ReadBack::default()
    };
    let sw = |on| Stopwatch { on, ns: 0 };

    // Decision trace → summary (kept whole: reconcile needs it too).
    let mut decision = Vec::new();
    let mut summary_sw = sw(split);
    let (res, stream_ns) = tr.span("telemetry:read:trace", |_| {
        let mut builder = SummaryBuilder::new();
        let bad = TraceStream::open(&paths[Family::Decision as usize])?.for_each(|event| {
            decision.push(event.clone());
            summary_sw.time(|| builder.push(event));
        })?;
        let summary = summary_sw.time(|| builder.finish());
        Ok::<_, std::io::Error>((bad, summary.audit()))
    });
    let (bad, findings) = res?;
    out.bad_lines += bad;
    out.lines[Family::Decision as usize] = decision.len() as u64;
    out.findings.extend(findings);
    out.summary_ns = summary_sw.ns;
    out.parse_ns += stream_ns - summary_sw.ns;

    // Spans → critical-path report.
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut span_lines = 0u64;
    let (res, stream_ns) = tr.span("telemetry:read:spans", |_| {
        TraceStream::open(&paths[Family::Span as usize])?.for_each(|event| {
            span_lines += 1;
            if let TelemetryEvent::Span(record) = event {
                spans.push(record);
            }
        })
    });
    out.bad_lines += res?;
    out.lines[Family::Span as usize] = span_lines;
    out.parse_ns += stream_ns;
    let (report, critical_ns) = tr.span("telemetry:critical", |_| {
        SpanReport::from_records(&spans, Some(qos))
    });
    out.critical_ns = critical_ns;
    out.span_traces = report.traces;
    out.incomplete_traces = report.incomplete_traces;
    out.findings.extend(report.audit());
    drop(spans);

    // Metrics → timeline (+ reconcile against the trace) and watcher.
    let mut set = TimelineSet::default();
    let mut watcher = Watcher::new(WatchConfig {
        qos: Some(qos),
        ..WatchConfig::default()
    });
    let mut metric_lines = 0u64;
    let (mut timeline_sw, mut watch_sw) = (sw(split), sw(split));
    let (res, stream_ns) = tr.span("telemetry:read:metrics", |_| {
        TraceStream::open(&paths[Family::Metric as usize])?.for_each(|event| {
            metric_lines += 1;
            timeline_sw.time(|| set.push(&event));
            watch_sw.time(|| watcher.push(event));
        })
    });
    out.bad_lines += res?;
    out.lines[Family::Metric as usize] = metric_lines;
    out.parse_ns += stream_ns - timeline_sw.ns - watch_sw.ns;
    let (reconciled, seal_ns) = tr.span("telemetry:reconcile", |_| {
        set.seal();
        let grace = set
            .median_interval()
            .unwrap_or(SimDuration::from_millis(1))
            .max(SimDuration::from_millis(1));
        timeline::reconcile(&set, &decision, grace)
    });
    out.samples = set.samples;
    out.timeline_ns = timeline_sw.ns + seal_ns;
    out.watch_ns = watch_sw.ns;
    if !reconciled.passed() {
        out.findings.push(format!(
            "reconcile: {} mismatch(es), {} metrics dropped, {} trace dropped",
            reconciled.mismatches.len(),
            reconciled.metrics_dropped,
            reconciled.trace_dropped
        ));
    }
    out.findings.extend(watcher.audit());

    // Profile → audit.
    let mut profile = Vec::new();
    let (res, stream_ns) = tr.span("telemetry:read:profile", |_| {
        TraceStream::open(&paths[Family::Profile as usize])?.for_each(|e| profile.push(e))
    });
    out.bad_lines += res?;
    out.lines[Family::Profile as usize] = profile.len() as u64;
    out.parse_ns += stream_ns;
    match ProfileReport::from_events(&profile) {
        Some(report) => {
            out.findings
                .extend(report.audit().err().unwrap_or_default());
            out.profile = Some(sim_profile(&report));
        }
        None => out.findings.push("profile: no report in the file".into()),
    }

    for path in &paths {
        std::fs::remove_file(path)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Live substrate
// ---------------------------------------------------------------------

/// A live run ready to start: graph, schedule and the simulator's view
/// of the same run.
pub struct LiveJob {
    cfg: SimConfig,
    arrivals: Vec<SimTime>,
    pub horizon_ns: u64,
    pub measure_start_ns: u64,
    /// End of the send schedule (before the horizon when draining).
    pub last_due_ns: u64,
    pub offered_rps: f64,
    pub ref_p50_ns: u64,
    pub ref_p99_ns: u64,
}

/// Warm-up excluded from live latency (threads spawned, pools primed).
const LIVE_WARMUP: SimDuration = SimDuration::from_secs(1);
/// `live_steady` stops sending this long before the horizon so every
/// request can complete inside it.
const LIVE_DRAIN: SimDuration = SimDuration::from_millis(200);

/// Two-stage chain (300 µs → 150 µs, 16 cores each, one node) under an
/// open-loop schedule. `saturated`: a 4-connection pool on the edge and
/// 18 000 req/s constant; otherwise connection-per-request and
/// 5 000 req/s with 1.5× spikes of 1 s every 5 s. Also runs the same
/// config and schedule through the simulator for the reference latency.
pub fn live_build(saturated: bool, seconds: f64, seed: u64, tr: &mut Tracer) -> LiveJob {
    let conn = if saturated {
        ConnModel::FixedPool(4)
    } else {
        ConnModel::PerRequest
    };
    let graph = linear_chain(
        "bench",
        &[SimDuration::from_micros(300), SimDuration::from_micros(150)],
        conn,
        0.3,
    );
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(seconds);
    let mut cfg = SimConfig::new(graph, Placement::single_node(2));
    cfg.initial_cores = vec![16, 16];
    cfg.end = horizon;
    cfg.measure_start = SimTime::ZERO + LIVE_WARMUP;
    cfg.seed = seed;
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
    let (pattern, last_send) = if saturated {
        (SpikePattern::constant(18_000.0), horizon)
    } else {
        let p = SpikePattern {
            base_rate: 5_000.0,
            spike_rate: 7_500.0,
            spike_len: SimDuration::from_secs(1),
            period: SimDuration::from_secs(5),
            first_spike: SimTime::from_secs(2),
        };
        (
            p,
            SimTime::from_nanos(horizon.as_nanos() - LIVE_DRAIN.as_nanos()),
        )
    };
    let (arrivals, _) = tr.span("loadgen:arrivals", |_| {
        pattern.arrivals(SimTime::ZERO, last_send)
    });
    let offered_rps = arrivals.len() as f64 / seconds;
    let (reference, _) = tr.span("sim:reference", |_| {
        let sim = Simulation::new(cfg.clone(), &SurgeGuardFactory::full(), arrivals.clone());
        sim.run()
    });
    let mut lat: Vec<u64> = reference
        .points
        .iter()
        .filter(|p| p.completion >= cfg.measure_start)
        .map(|p| p.latency.as_nanos())
        .collect();
    lat.sort_unstable();
    LiveJob {
        horizon_ns: horizon.as_nanos(),
        measure_start_ns: cfg.measure_start.as_nanos(),
        last_due_ns: last_send.as_nanos(),
        offered_rps,
        ref_p50_ns: stats::percentile(&lat, 50.0).unwrap_or(0),
        ref_p99_ns: stats::percentile(&lat, 99.0).unwrap_or(0),
        cfg,
        arrivals,
    }
}

impl LiveJob {
    /// Due times of the schedule, nanoseconds from the run's start.
    pub fn due_ns(&self) -> Vec<u64> {
        self.arrivals.iter().map(|t| t.as_nanos()).collect()
    }
}

/// Percentiles of one phase of the live self-profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// What `LiveOpts::profile` reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveProfile {
    pub fr_hook: PhaseTimes,
    pub pool_wait: PhaseTimes,
    pub timer_slop: PhaseTimes,
    pub worker_service: PhaseTimes,
    pub worker_idle: PhaseTimes,
    pub tick: PhaseTimes,
    pub audit: usize,
}

/// What one live run produced.
#[derive(Debug, Clone, Default)]
pub struct LiveOut {
    pub injected: u64,
    pub completed: u64,
    pub dropped: u64,
    pub deliveries: u64,
    pub fr_applied: u64,
    pub fr_dropped: u64,
    pub boosts: u64,
    /// `(start, completion)` of every completed request, nanoseconds on
    /// the run's clock, ascending by start.
    pub served: Vec<(u64, u64)>,
    /// Wall time of the whole call, teardown included.
    pub wall_ns: u64,
    pub profile: Option<LiveProfile>,
}

/// `run_live_with_stats` with default `LiveOpts` under SurgeGuard; the
/// calling thread is the open-loop load generator.
pub fn run_live(
    job: &LiveJob,
    ctl_times: Option<&Arc<CtlTimes>>,
    profile: bool,
    tr: &mut Tracer,
) -> LiveOut {
    let profile_sink = profile.then(VecSink::shared);
    let opts = LiveOpts {
        profile: profile_sink.clone().map(|s| s as SharedSink),
        ..LiveOpts::default()
    };
    let ((result, live_stats), wall_ns) = tr.span("live:run", |_| {
        with_factory(Ctl::SurgeGuard, ctl_times, |factory| {
            run_live_with_stats(job.cfg.clone(), factory, job.arrivals.clone(), opts)
        })
    });
    let mut served: Vec<(u64, u64)> = result
        .points
        .iter()
        .map(|p| {
            let done = p.completion.as_nanos();
            (done - p.latency.as_nanos(), done)
        })
        .collect();
    served.sort_unstable();
    let profile = profile_sink.and_then(|sink| {
        let report = ProfileReport::from_events(&sink.take())?;
        let phase = |which: ProfilePhase| {
            report
                .phases
                .iter()
                .find(|p| p.phase == which)
                .map_or(PhaseTimes::default(), |p| PhaseTimes {
                    total_ns: p.total_ns,
                    p50_ns: p.p50_ns,
                    p99_ns: p.p99_ns,
                })
        };
        Some(LiveProfile {
            fr_hook: phase(ProfilePhase::FrHook),
            pool_wait: phase(ProfilePhase::PoolWait),
            timer_slop: phase(ProfilePhase::TimerSlop),
            worker_service: phase(ProfilePhase::WorkerService),
            worker_idle: phase(ProfilePhase::WorkerIdle),
            tick: phase(ProfilePhase::LiveTick),
            audit: report.audit().err().map_or(0, |e| e.len()),
        })
    });
    LiveOut {
        injected: result.injected,
        completed: result.completed,
        dropped: result.dropped,
        deliveries: live_stats.deliveries,
        fr_applied: live_stats.fr_applied,
        fr_dropped: live_stats.fr_dropped,
        boosts: result.packet_freq_boosts,
        served,
        wall_ns,
        profile,
    }
}

// ---------------------------------------------------------------------
// Drills: one public function of one layer, called in isolation
// ---------------------------------------------------------------------

/// One drill: each `batch` call runs the function many times and
/// returns `(metric name, value)` pairs; the harness takes the median
/// over batches. Drills are handed out as constructors and built one at
/// a time, so one drill's state (the `FrRuntime` worker polls a CPU)
/// never runs beside another drill.
pub struct Drill {
    pub span: &'static str,
    pub batch: Box<dyn FnMut() -> Vec<(&'static str, f64)>>,
}

pub type DrillCtor = fn() -> Drill;

/// Nanoseconds per call of `body(calls)`.
fn ns_per_call(calls: u64, body: impl FnOnce(u64)) -> f64 {
    let t0 = Instant::now();
    body(calls);
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// A drill whose one metric is the time per call of `body`, times
/// `scale` (1e-3 turns nanoseconds into microseconds).
fn rate_drill(
    span: &'static str,
    name: &'static str,
    calls: u64,
    scale: f64,
    mut body: impl FnMut(u64) + 'static,
) -> Drill {
    Drill {
        span,
        batch: Box::new(move || vec![(name, ns_per_call(calls, &mut body) * scale)]),
    }
}

/// Cheap deterministic sequence for drill inputs.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

const CALLS: u64 = 100_000;
/// Container slots of the 200-node cluster shape.
const SLOTS: usize = 5_001;

/// `Engine::pop` + `Engine::schedule` at a constant queue depth.
fn engine_drill(name: &'static str, depth: usize) -> Drill {
    let mut engine = Engine::new();
    let mut seed = depth as u64;
    let event = |k: u64| Event::PhaseComplete {
        container: ContainerId((k % SLOTS as u64) as u32),
        epoch: k,
    };
    for k in 0..depth as u64 {
        let at = SimTime::from_nanos(lcg(&mut seed) % 1_000_000);
        engine.schedule(at, event(k));
    }
    rate_drill("drill:sim.engine", name, CALLS, 1.0, move |calls| {
        for k in 0..calls {
            let (now, ev) = engine.pop().expect("depth stays constant");
            black_box(ev);
            let at = SimTime::from_nanos(now.as_nanos() + 1 + lcg(&mut seed) % 1_000_000);
            engine.schedule(at, event(k));
        }
    })
}

fn engine_shallow_drill() -> Drill {
    engine_drill("sim.engine.sched_pop_ns_shallow", 64)
}

fn engine_deep_drill() -> Drill {
    engine_drill("sim.engine.sched_pop_ns_deep", 16 * 1024)
}

/// One processor-sharing cycle on one of 5 001 slots: `add_phase`,
/// `next_completion`, `pop_completed_into`.
fn container_drill() -> Drill {
    let mut containers = Containers::with_capacity(SLOTS);
    for slot in 0..SLOTS {
        containers.push(NodeId((slot % 200) as u32), ServiceId(slot as u32), 2);
    }
    let mut done = Vec::new();
    let mut now_ns = 0u64;
    rate_drill(
        "drill:sim.container",
        "sim.container.ps_cycle_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let slot = (k as usize * 7) % SLOTS;
                let now = SimTime::from_nanos(now_ns);
                containers.add_phase(slot, now, k as u32, SimDuration::from_micros(200));
                let at = containers
                    .next_completion(slot, now)
                    .expect("a phase is running");
                containers.pop_completed_into(slot, at, &mut done);
                black_box(done.len());
                done.clear();
                now_ns = at.as_nanos().max(now_ns) + 1;
            }
        },
    )
}

fn connpool_drill() -> Drill {
    let mut pool = ConnPool::new(Some(64));
    rate_drill(
        "drill:sim.connpool",
        "sim.connpool.acq_rel_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                black_box(pool.acquire(SimTime::from_nanos(k), k as u32));
                black_box(pool.release());
            }
        },
    )
}

fn network_drill() -> Drill {
    let network = Network::new(NetworkConfig::default());
    let mut rng = SmallRng::seed_from_u64(7);
    rate_drill(
        "drill:sim.network",
        "sim.network.latency_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let (src, dst) = (NodeId((k % 200) as u32), NodeId(((k + 1) % 200) as u32));
                black_box(network.latency(SimTime::from_nanos(k), src, dst, &mut rng));
            }
        },
    )
}

/// `EnergyMeter::set_state` on one of 5 001 slots.
fn power_drill() -> Drill {
    let mut meter = EnergyMeter::new(PowerModel::default(), SLOTS);
    let ghz = FreqTable::cascade_lake().ghz(0);
    let mut now_ns = 0u64;
    rate_drill(
        "drill:sim.power",
        "sim.power.set_state_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let slot = (k as usize * 7) % SLOTS;
                now_ns += 1_000;
                meter.set_state(
                    SimTime::from_nanos(now_ns),
                    slot,
                    2 + (k % 2) as u32 * 2,
                    ghz,
                );
            }
        },
    )
}

fn stream_drill() -> Drill {
    let pattern = SpikePattern::periodic(100_000.0, 2.0, SimDuration::from_secs(1));
    rate_drill(
        "drill:loadgen",
        "loadgen.stream_next_ns",
        CALLS,
        1.0,
        move |calls| {
            let mut stream =
                ArrivalProfile::Spike(pattern).stream(SimTime::ZERO, SimTime::from_secs(30));
            for _ in 0..calls {
                black_box(stream.next_arrival().expect("30 s at 100k req/s"));
            }
        },
    )
}

fn hist_drill() -> Drill {
    let mut hist = LatencyHistogram::with_default_resolution();
    rate_drill(
        "drill:loadgen",
        "loadgen.hist_record_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let ns = 100_000 + k.wrapping_mul(0x9E37_79B9) % 13_000_000;
                hist.record(SimDuration::from_nanos(black_box(ns)));
            }
        },
    )
}

/// `FirstResponder::on_packet`, every other packet violating.
fn fr_packet_drill() -> Drill {
    let mut fr = FirstResponder::new(FirstResponderConfig {
        expected_time_from_start: vec![Some(SimDuration::from_micros(500)); 16],
        local_downstream: vec![vec![]; 16],
        cooldown: SimDuration::ZERO,
        max_freq_level: 8,
    });
    let meta = RpcMetadata::new_job(SimTime::ZERO);
    rate_drill(
        "drill:core.fr",
        "core.fr.on_packet_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let now = SimTime::from_nanos(400_000 + (k % 2) * 500_000 + k);
                black_box(fr.on_packet(ContainerId(3), black_box(meta), now));
            }
        },
    )
}

/// `FrRuntime::submit` on this thread → `apply` on its worker thread.
fn fr_handoff_drill() -> Drill {
    let applied = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&applied);
    let mut runtime = FrRuntime::spawn(16, 0, 1024, move |_| {
        seen.fetch_add(1, Ordering::Release);
    });
    rate_drill(
        "drill:core.fr",
        "core.fr.handoff_us",
        20_000,
        1e-3,
        move |calls| {
            for k in 0..calls {
                let before = applied.load(Ordering::Acquire);
                let sent = runtime.submit(FreqUpdate {
                    from: NodeId(0),
                    container: ContainerId((k % 16) as u32),
                    level: (k % 8) as u8,
                });
                assert!(sent, "queue never fills: one update in flight");
                while applied.load(Ordering::Acquire) == before {
                    std::hint::spin_loop();
                }
            }
        },
    )
}

/// `Escalator::decide` over eight containers, one of them violating in
/// every third window.
fn escalator_drill() -> Drill {
    let constraints = AllocConstraints {
        total_cores: 52,
        min_cores: 2,
        max_cores: 52,
        core_step: 2,
    };
    let mut escalator = Escalator::new(
        EscalatorConfig::default(),
        constraints,
        FreqTable::cascade_lake(),
        7,
    );
    let params = ContainerParams {
        expected_exec_metric: SimDuration::from_millis(1),
        expected_time_from_start: SimDuration::from_millis(10),
    };
    let inputs = move |k: u64| -> Vec<EscalatorObservation> {
        (0..8u32)
            .map(|c| {
                let id = ContainerId(c);
                let over = c == 2 && k.is_multiple_of(3);
                let (exec_time, exec_metric) = if over { (1_600, 1_500) } else { (700, 600) };
                EscalatorObservation {
                    obs: ContainerObservation {
                        id,
                        metrics: WindowMetrics {
                            requests: 200,
                            mean_exec_time: SimDuration::from_micros(exec_time),
                            mean_exec_metric: SimDuration::from_micros(exec_metric),
                            queue_buildup: if over { 1.6 } else { 1.0 },
                            upscale_hints: 0,
                        },
                        params,
                        local_downstream: if c < 7 {
                            vec![ContainerId(c + 1)]
                        } else {
                            Vec::new()
                        },
                    },
                    alloc: ContainerAlloc {
                        id,
                        cores: 4,
                        freq_level: 0,
                    },
                }
            })
            .collect()
    };
    rate_drill(
        "drill:core.escalator",
        "core.escalator.decide_us",
        10_000,
        1e-3,
        move |calls| {
            for k in 0..calls {
                let obs = inputs(k);
                black_box(escalator.decide(&obs, SimDuration::from_millis(100)));
            }
        },
    )
}

/// `sg-core`'s two decision paths and the hand-off between them; both
/// substrates run these.
const CORE_DRILLS: [DrillCtor; 3] = [fr_packet_drill, fr_handoff_drill, escalator_drill];

/// Drills of the simulator's layers, of what feeds it and of `sg-core`.
pub fn sim_drills() -> Vec<DrillCtor> {
    let mut drills: Vec<DrillCtor> = vec![
        engine_shallow_drill,
        engine_deep_drill,
        container_drill,
        connpool_drill,
        network_drill,
        power_drill,
        stream_drill,
        hist_drill,
    ];
    drills.extend(CORE_DRILLS);
    drills
}

struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&self, _event: TelemetryEvent) {}
}

fn ring_drill() -> Drill {
    Drill {
        span: "drill:telemetry",
        batch: Box::new(|| {
            // 50k pushes into a 64k ring: nothing is dropped even if the
            // drainer never runs, so every push takes the same path.
            let (ring, drainer) = RingSink::spawn(Arc::new(NullSink), 1 << 16);
            let ns = ns_per_call(50_000, |calls| {
                for _ in 0..calls {
                    ring.emit(black_box(TelemetryEvent::FrBoost {
                        at: SimTime::from_micros(900),
                        node: NodeId(0),
                        dest: ContainerId(3),
                        slack_ns: -123_456,
                        level: 8,
                        targets: 1,
                    }));
                }
            });
            drop(ring);
            drainer.shutdown();
            vec![("telemetry.ring_push_ns", ns)]
        }),
    }
}

fn digest_record_drill() -> Drill {
    let mut digest = LatencyDigest::with_default_resolution();
    rate_drill(
        "drill:telemetry",
        "telemetry.digest_record_ns",
        CALLS,
        1.0,
        move |calls| {
            for k in 0..calls {
                let ns = 100_000 + k.wrapping_mul(0x9E37_79B9) % 13_000_000;
                digest.record(SimDuration::from_nanos(black_box(ns)));
            }
        },
    )
}

fn digest_merge_drill() -> Drill {
    let mut a = LatencyDigest::with_default_resolution();
    let mut b = LatencyDigest::with_default_resolution();
    for k in 0u64..10_000 {
        a.record(SimDuration::from_nanos(50_000 + k * 997));
        b.record(SimDuration::from_nanos(80_000 + k * 1_543));
    }
    rate_drill(
        "drill:telemetry",
        "telemetry.digest_merge_us",
        2_000,
        1e-3,
        move |calls| {
            for _ in 0..calls {
                let mut merged = black_box(&a).clone();
                merged.merge(black_box(&b));
                black_box(&merged);
            }
        },
    )
}

/// Drills of `sg-telemetry`'s hot structures.
pub fn telemetry_drills() -> Vec<DrillCtor> {
    vec![ring_drill, digest_record_drill, digest_merge_drill]
}

fn percentile_us(values: &mut [u64], q: f64) -> f64 {
    values.sort_unstable();
    stats::percentile(values, q).unwrap_or(0) as f64 / 1e3
}

fn pool_drill() -> Drill {
    let pool = LiveConnPool::new(Some(64));
    rate_drill(
        "drill:live.pool",
        "live.pool.acq_rel_ns",
        CALLS,
        1.0,
        move |calls| {
            for _ in 0..calls {
                black_box(pool.acquire());
                pool.release();
            }
        },
    )
}

/// A thread blocked in `acquire` on a full pool, woken by `release` on
/// this thread: the paper's hidden-dependency hand-off. The two threads
/// take strict turns, so every `acquire` of the waiter really blocks.
fn pool_handoff_drill() -> Drill {
    Drill {
        span: "drill:live.pool",
        batch: Box::new(|| {
            const HANDOFFS: u64 = 2_000;
            let pool = LiveConnPool::new(Some(1));
            let released_at = Mutex::new(Instant::now());
            // Rounds the waiter has finished / this thread has re-armed.
            let (woken, rearmed) = (AtomicU64::new(0), AtomicU64::new(0));
            pool.acquire().expect("open pool");
            let mut waits = std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let mut waits = Vec::with_capacity(HANDOFFS as usize);
                    for round in 1..=HANDOFFS {
                        pool.acquire().expect("open pool");
                        let released = *released_at.lock().expect("stamp lock");
                        waits.push(released.elapsed().as_nanos() as u64);
                        pool.release();
                        woken.store(round, Ordering::Release);
                        while rearmed.load(Ordering::Acquire) < round {
                            std::hint::spin_loop();
                        }
                    }
                    waits
                });
                for round in 1..=HANDOFFS {
                    while pool.stats().waiters == 0 {
                        std::hint::spin_loop();
                    }
                    *released_at.lock().expect("stamp lock") = Instant::now();
                    pool.release();
                    while woken.load(Ordering::Acquire) < round {
                        std::hint::spin_loop();
                    }
                    pool.acquire().expect("open pool");
                    rearmed.store(round, Ordering::Release);
                }
                waiter.join().expect("waiter thread")
            });
            vec![("live.pool.handoff_us", percentile_us(&mut waits, 50.0))]
        }),
    }
}

fn delay_submit_drill() -> Drill {
    rate_drill(
        "drill:live.delay",
        "live.delay.submit_ns",
        20_000,
        1.0,
        |calls| {
            // Deadlines an hour out: nothing fires, shutdown drops them.
            let line = DelayLine::spawn();
            let at = Instant::now() + Duration::from_secs(3_600);
            for _ in 0..calls {
                line.submit(at, Box::new(|| {}));
            }
            line.shutdown();
        },
    )
}

/// How late the delay line fires 2 000 timers spaced 200 µs apart.
fn delay_slop_drill() -> Drill {
    Drill {
        span: "drill:live.delay",
        batch: Box::new(|| {
            const TIMERS: u32 = 2_000;
            let line = DelayLine::spawn();
            let slop = Arc::new(Mutex::new(Vec::with_capacity(TIMERS as usize)));
            let start = Instant::now() + Duration::from_millis(5);
            for i in 0..TIMERS {
                let at = start + Duration::from_micros(200) * i;
                let slop = Arc::clone(&slop);
                line.submit(
                    at,
                    Box::new(move || {
                        let late = Instant::now().saturating_duration_since(at);
                        slop.lock().expect("slop lock").push(late.as_nanos() as u64);
                    }),
                );
            }
            while line.delivered() < u64::from(TIMERS) {
                std::thread::sleep(Duration::from_millis(1));
            }
            line.shutdown();
            let mut slop = std::mem::take(&mut *slop.lock().expect("slop lock"));
            vec![
                ("live.delay.slop_p50_us", percentile_us(&mut slop, 50.0)),
                ("live.delay.slop_p99_us", percentile_us(&mut slop, 99.0)),
            ]
        }),
    }
}

/// How much longer than 100 µs `CoreGate::run(100 µs)` takes on an idle
/// 16-core gate.
fn gate_drill() -> Drill {
    let gate = CoreGate::new(16, 1.0, None);
    let shutdown = AtomicBool::new(false);
    Drill {
        span: "drill:live.gate",
        batch: Box::new(move || {
            let work = SimDuration::from_micros(100);
            let mut over: Vec<u64> = (0..2_000)
                .map(|_| {
                    let t0 = Instant::now();
                    assert!(gate.run(work, &shutdown), "gate stays open");
                    (t0.elapsed().as_nanos() as u64).saturating_sub(work.as_nanos())
                })
                .collect();
            vec![("live.gate.overshoot_p50_us", percentile_us(&mut over, 50.0))]
        }),
    }
}

/// Drills of the live substrate's three per-hop mechanisms and of
/// `sg-core`.
pub fn live_drills() -> Vec<DrillCtor> {
    let mut drills: Vec<DrillCtor> = vec![
        pool_drill,
        pool_handoff_drill,
        delay_submit_drill,
        delay_slop_drill,
        gate_drill,
    ];
    drills.extend(CORE_DRILLS);
    drills
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_repeats_for_a_seed_and_ignores_observers() {
        let job = cluster_build(2, 200.0, 0.5);
        let mut off = Tracer::new(false);
        let a = run_cluster(&job, 7, false, &mut off);
        let b = run_cluster(&job, 7, false, &mut off);
        let profiled = run_cluster(&job, 7, true, &mut off);
        let other = run_cluster(&job, 8, false, &mut off);
        assert!(a.completed > 0 && a.completed == a.injected);
        assert_eq!(a.digest, b.digest, "same inputs, same digest");
        assert_eq!(
            a.digest, profiled.digest,
            "the profiler must not change the result"
        );
        assert!(profiled.profile.is_some() && a.profile.is_none());
        assert_ne!(a.digest, other.digest, "another seed is another result");
        assert_eq!((a.lat_p50_ns, a.lat_p99_ns), (b.lat_p50_ns, b.lat_p99_ns));
        assert!(a.lat_p50_ns > 0 && a.lat_p50_ns <= a.lat_p99_ns);
        assert!(a.within_qos <= a.completed);
    }

    #[test]
    fn digest_covers_points_counters_and_energy() {
        let point = |done, lat| LatencyPoint {
            completion: SimTime::from_nanos(done),
            latency: SimDuration::from_nanos(lat),
        };
        let base = RunResult {
            points: vec![point(10, 5), point(20, 6)],
            injected: 2,
            completed: 2,
            dropped: 0,
            avg_cores: 4.0,
            energy_j: 1.5,
            events: 40,
            profile: Vec::new(),
            alloc_trace: None,
            peak_in_flight: 1,
            clamped_actions: 0,
            packet_freq_boosts: 0,
        };
        let d = result_digest(&base);
        assert_eq!(d, result_digest(&base.clone()));
        let mut moved = base.clone();
        moved.points[1] = point(20, 7);
        assert_ne!(d, result_digest(&moved));
        let mut swapped = base.clone();
        swapped.points.swap(0, 1);
        assert_ne!(d, result_digest(&swapped), "order matters");
        let mut events = base.clone();
        events.events += 1;
        assert_ne!(d, result_digest(&events));
        let mut energy = base.clone();
        energy.energy_j = f64::from_bits(energy.energy_j.to_bits() + 1);
        assert_ne!(d, result_digest(&energy), "one bit of energy shows");
    }

    #[test]
    fn modelled_percentiles_are_exact_over_the_window() {
        let points: Vec<LatencyPoint> = (1..=200u64)
            .map(|i| LatencyPoint {
                completion: SimTime::from_nanos(i),
                // Latencies 200, 199, ..., 1: selection must not rely on order.
                latency: SimDuration::from_nanos(201 - i),
            })
            .collect();
        // Window from completion 101: latencies 1..=100.
        let m = modelled(
            points,
            SimTime::from_nanos(101),
            SimDuration::from_nanos(90),
        );
        assert_eq!((m.p50_ns, m.p99_ns, m.within_qos), (50, 99, 90));
        let none = modelled(Vec::new(), SimTime::ZERO, SimDuration::from_nanos(1));
        assert_eq!((none.p50_ns, none.p99_ns, none.within_qos), (0, 0, 0));
    }
}

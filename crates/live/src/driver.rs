//! Run orchestration: build the live cluster from a `SimConfig`, drive the
//! open-loop client in real time, and tear everything down into the same
//! [`RunResult`] the discrete-event backend produces.

use crate::clock::LiveClock;
use crate::cluster::ClusterState;
use crate::net::DelayLine;
use crate::pool::LiveConnPool;
use crate::sync::{Dispatch, JobQueue, JobSpan, ReplyTo};
use crate::worker::{LiveCluster, ProfileAcc};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sg_core::firstresponder::FrRuntime;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::{MetricsWindow, WindowMetrics};
use sg_core::time::{SimDuration, SimTime};
use sg_sim::app::TaskGraph;
use sg_sim::cluster::SimConfig;
use sg_sim::controller::ControllerFactory;
use sg_sim::ledger::ReplicaState;
use sg_sim::network::Network;
use sg_sim::runner::{ProfileStats, RunResult};
use sg_telemetry::profile::{LiveProfiler, ProfileMark};
use sg_telemetry::{
    AggRuntime, DemuxSink, FanoutSink, MetricsRegistry, RingSink, SharedSink, SpanSampler,
    TelemetryEvent, METRICS_SCHEMA_VERSION,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Capacity of the FirstResponder coordinator→worker SPSC queue.
const FR_QUEUE_CAPACITY: usize = 1024;

/// Capacity of the telemetry relay ring every open stream shares.
const TELEMETRY_RING_CAPACITY: usize = 64 * 1024;

/// Knobs specific to the live substrate (the shared `SimConfig` covers
/// everything semantic).
#[derive(Clone)]
pub struct LiveOpts {
    /// Worker threads per container. Sized generously so the capacity
    /// gate — not the thread count — is the binding resource, matching
    /// the simulator's processor-sharing container.
    pub workers_per_container: usize,
    /// Decision-trace destination. The driver wraps it in a bounded
    /// lock-free ring ([`sg_telemetry::RingSink`]) so hot-path emissions
    /// never block; drops are counted in [`LiveStats::telemetry_dropped`]
    /// and testified to inside the trace itself.
    pub telemetry: Option<SharedSink>,
    /// Span-trace destination. Shares the single relay ring with
    /// `telemetry` (one lock-free push on the hot path regardless of how
    /// many streams are open); a [`DemuxSink`] behind the ring routes
    /// span records here and decision events to `telemetry`.
    pub spans: Option<SharedSink>,
    /// Which requests get span trees (deterministic, seeded N-out-of-M).
    pub span_sampler: SpanSampler,
    /// Metrics-timeline destination (gauge/counter samples from the
    /// dedicated sampler thread). Shares the single relay ring with the
    /// other two streams; the schema header is written directly, before
    /// the ring, so it is always the stream's first line.
    pub metrics: Option<SharedSink>,
    /// Sampler cadence for the metrics thread.
    pub metrics_interval: SimDuration,
    /// Serve the live registry as Prometheus text exposition on this
    /// address (e.g. `127.0.0.1:9184`) for the duration of the run.
    pub metrics_listen: Option<String>,
    /// Mergeable aggregation layer ([`sg_telemetry::agg`]): when set,
    /// every measured completion is folded into per-node latency
    /// digests, SLO windows, and heavy-hitter sketches (on the
    /// delay-line thread, off the worker fast path); the sampler thread
    /// emits cumulative digest/slo/topk snapshots into the metrics
    /// stream, the scrape endpoint serves the `sg_slo_*` series, and a
    /// final snapshot set is pushed through the ring at teardown. The
    /// caller keeps the handle to merge the shards into one cluster
    /// view after the run.
    pub agg: Option<Arc<AggRuntime>>,
    /// Self-profile destination. Turns on the always-on runtime profiler
    /// ([`LiveProfiler`]): FR-hook latency, pool lock-wait, delay-line
    /// timer slop, worker service/idle split, tick cost, plus ring
    /// occupancy/drop watermarks. The report is emitted through the
    /// shared relay ring at teardown; `None` costs one branch per
    /// instrumented site.
    pub profile: Option<SharedSink>,
}

impl Default for LiveOpts {
    fn default() -> Self {
        LiveOpts {
            workers_per_container: 8,
            telemetry: None,
            spans: None,
            span_sampler: SpanSampler::all(),
            metrics: None,
            metrics_interval: SimDuration::from_millis(100),
            metrics_listen: None,
            agg: None,
            profile: None,
        }
    }
}

/// Live-substrate diagnostics that have no `RunResult` slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveStats {
    /// Frequency updates applied by the FirstResponder worker thread.
    pub fr_applied: u64,
    /// Updates dropped because the SPSC queue was full (should be zero).
    pub fr_dropped: u64,
    /// Messages delivered by the delay line.
    pub deliveries: u64,
    /// Telemetry events forwarded to the user's sink.
    pub telemetry_forwarded: u64,
    /// Telemetry events lost to a full relay ring (should be zero).
    pub telemetry_dropped: u64,
    /// Per-family breakdown of `telemetry_dropped`.
    pub telemetry_dropped_decision: u64,
    /// Per-family breakdown of `telemetry_dropped`.
    pub telemetry_dropped_span: u64,
    /// Per-family breakdown of `telemetry_dropped`.
    pub telemetry_dropped_metrics: u64,
    /// Per-family breakdown of `telemetry_dropped`.
    pub telemetry_dropped_profile: u64,
    /// Address the scrape endpoint actually bound (useful with port 0).
    pub metrics_addr: Option<std::net::SocketAddr>,
}

/// Run the workload in real time. Blocks the calling thread for
/// `cfg.end` of wall-clock time.
pub fn run_live(
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
) -> RunResult {
    run_live_with_stats(cfg, factory, arrivals, LiveOpts::default()).0
}

/// [`run_live`] plus live-substrate diagnostics.
pub fn run_live_with_stats(
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Vec<SimTime>,
    opts: LiveOpts,
) -> (RunResult, LiveStats) {
    cfg.validate().expect("invalid SimConfig");
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let n = cfg.graph.len();
    let clock = LiveClock::start();
    let wall_start = std::time::Instant::now();

    // Always-on self-profiler: one shared set of lock-free counters,
    // `None` when `--profile-out` is absent so every instrumented site
    // pays a single branch.
    let profiler = opts.profile.as_ref().map(|_| Arc::new(LiveProfiler::new()));
    let fault_events = Arc::new(AtomicU64::new(0));

    // Scraping keeps a registry of the latest sample per (node,
    // container, metric); the ring drainer tees metric samples into it.
    let registry = opts
        .metrics_listen
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let metrics_dest: Option<SharedSink> = match (opts.metrics.clone(), registry.clone()) {
        (None, None) => None,
        (Some(user), None) => Some(user),
        (None, Some(reg)) => Some(reg as SharedSink),
        (Some(user), Some(reg)) => {
            Some(Arc::new(FanoutSink::new(vec![user, reg as SharedSink])) as SharedSink)
        }
    };
    // The schema header goes straight to the user's file sink — never
    // through the ring — so it is always line 1 and can never be dropped.
    if let Some(user) = &opts.metrics {
        user.emit(TelemetryEvent::MetricsMeta {
            version: METRICS_SCHEMA_VERSION,
            interval_ns: opts.metrics_interval.as_nanos(),
        });
    }

    // Telemetry: every hot-path emitter gets the ring front-end; the
    // drainer thread forwards off-path through a demux that routes
    // decision events, span records, and metric samples to their own
    // destinations (and family-tagged `Dropped` markers to their own
    // stream, so each file testifies to its losses).
    let (sink, span_sink, metrics_sink, profile_sink, ring_handle, telemetry_drainer) = match (
        opts.telemetry.clone(),
        opts.spans.clone(),
        metrics_dest,
        opts.profile.clone(),
    ) {
        (None, None, None, None) => (None, None, None, None, None, None),
        (decision, spans, metrics, profile) => {
            let has_decision = decision.is_some();
            let has_spans = spans.is_some();
            let has_metrics = metrics.is_some();
            let has_profile = profile.is_some();
            let demux = Arc::new(DemuxSink::new(decision, spans, metrics, profile)) as SharedSink;
            // Occupancy tracking adds a `fetch_max` per push; only pay for
            // it when the profiler is on to report the high-water mark.
            let (ring, drainer) = if has_profile {
                RingSink::spawn_tracking(demux, TELEMETRY_RING_CAPACITY)
            } else {
                RingSink::spawn(demux, TELEMETRY_RING_CAPACITY)
            };
            let ring_handle = Arc::clone(&ring);
            let ring = ring as SharedSink;
            (
                has_decision.then(|| Arc::clone(&ring)),
                has_spans.then(|| Arc::clone(&ring)),
                has_metrics.then(|| Arc::clone(&ring)),
                has_profile.then(|| Arc::clone(&ring)),
                Some(ring_handle),
                Some(drainer),
            )
        }
    };

    let mut state = ClusterState::new(&cfg, clock.clone());
    if let Some(s) = &sink {
        state = state.with_telemetry(Arc::clone(s));
    }
    let state = Arc::new(state);
    let layout = state.layout;
    let n_slots = layout.n_slots();

    // Controllers: wired through the same `NodeInit::for_node` as
    // `Simulation::new`, so the factory cannot tell which substrate it
    // is on.
    let mut controllers = Vec::with_capacity(cfg.placement.nodes as usize);
    for node in 0..cfg.placement.nodes {
        let mut controller = factory.make(state.node_init(&cfg, NodeId(node)));
        if let Some(s) = &sink {
            controller.attach_telemetry(Arc::clone(s));
        }
        controllers.push(Mutex::new(controller));
    }

    // The real Fig. 9 fast path: the rx hook enqueues, this worker thread
    // applies after the emulated MSR-write delay.
    let apply_state = Arc::clone(&state);
    let apply_delay = cfg.freq_apply_delay;
    let fr = FrRuntime::spawn(n_slots, 0, FR_QUEUE_CAPACITY, move |update| {
        if !apply_delay.is_zero() {
            std::thread::sleep(std::time::Duration::from_nanos(apply_delay.as_nanos()));
        }
        apply_state.land_freq(update.container, update.level);
    });

    let mut network = Network::new(cfg.network);
    if let Some(surge) = cfg.latency_surge {
        network.add_surge(surge);
    }
    // Network-jitter faults become static surge windows, installed here
    // exactly as the sim installs them at `Simulation::new`.
    for f in &cfg.faults.faults {
        if let sg_core::fault::FaultKind::NetworkJitter { extra } = f.kind {
            network.add_surge(sg_sim::network::LatencySurge {
                start: f.at,
                end: f.end(),
                extra,
            });
        }
    }

    let cluster = Arc::new(LiveCluster {
        clock: clock.clone(),
        network,
        state: Arc::clone(&state),
        queues: (0..n_slots).map(|_| JobQueue::new()).collect(),
        windows: (0..n_slots)
            .map(|_| Mutex::new(MetricsWindow::new()))
            .collect(),
        pools: (0..n_slots)
            .map(|slot| {
                let s = layout.service_of(slot).index();
                cfg.graph.services[s]
                    .children
                    .iter()
                    .map(|e| {
                        (0..cfg.max_replicas)
                            .map(|_| Arc::new(LiveConnPool::new(e.conn.capacity())))
                            .collect()
                    })
                    .collect()
            })
            .collect(),
        inflight: (0..n_slots).map(|_| AtomicU64::new(0)).collect(),
        workers_spawned: (0..n_slots).map(|_| AtomicBool::new(false)).collect(),
        worker_handles: Mutex::new(Vec::new()),
        workers_per_container: opts.workers_per_container,
        controllers,
        delay: DelayLine::spawn_profiled(profiler.clone()),
        fr: Mutex::new(Some(fr)),
        shutdown: AtomicBool::new(false),
        points: Mutex::new(Vec::new()),
        profile: (0..n).map(|_| ProfileAcc::default()).collect(),
        completed: AtomicU64::new(0),
        in_flight: AtomicUsize::new(0),
        peak_in_flight: AtomicUsize::new(0),
        packet_freq_boosts: AtomicU64::new(0),
        sink,
        span_sink,
        metrics_sink,
        fr_boost_counts: (0..n_slots).map(|_| AtomicU64::new(0)).collect(),
        upscale_hint_counts: (0..n_slots).map(|_| AtomicU64::new(0)).collect(),
        slack_acc: (0..n_slots).map(|_| Mutex::new(Vec::new())).collect(),
        last_window: (0..n_slots)
            .map(|_| Mutex::new(WindowMetrics::default()))
            .collect(),
        span_ids: AtomicU64::new(0),
        agg: opts.agg.clone(),
        profiler: profiler.clone(),
        fault_events: Arc::clone(&fault_events),
        cfg,
    });
    let cfg = &cluster.cfg;

    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    // Workers for the initially active slots; later activations spawn
    // theirs on demand (LiveCluster::ensure_workers).
    for slot in 0..n_slots {
        if cluster.state.replica_is(slot, ReplicaState::Active) {
            cluster.ensure_workers(slot);
        }
    }
    for node in 0..cfg.placement.nodes as usize {
        let cl = Arc::clone(&cluster);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sg-live-tick{node}"))
                .spawn(move || cl.tick_loop(node))
                .expect("spawn tick thread"),
        );
    }
    if cluster.metrics_sink.is_some() {
        // Dedicated low-priority sampler: sweeps the cluster's gauges on
        // its own cadence and pushes through the same ring as everything
        // else — one lock-free push per sample, drop-not-block.
        let cl = Arc::clone(&cluster);
        let interval = opts.metrics_interval;
        threads.push(
            std::thread::Builder::new()
                .name("sg-live-metrics".into())
                .spawn(move || cl.sampler_loop(interval))
                .expect("spawn metrics sampler"),
        );
    }
    let scrape = match (&opts.metrics_listen, &registry) {
        (Some(addr), Some(reg)) => {
            let health = crate::scrape::ScrapeHealth {
                started: wall_start,
                ring: ring_handle.clone(),
                fault_events: Arc::clone(&fault_events),
                profiler: profiler.clone(),
                agg: opts.agg.clone(),
            };
            Some(
                crate::scrape::MetricsServer::bind(addr, Arc::clone(reg), health)
                    .unwrap_or_else(|e| panic!("cannot bind --metrics-listen {addr}: {e}")),
            )
        }
        _ => None,
    };
    if cfg.measure_start <= cfg.end {
        let cl = Arc::clone(&cluster);
        let at = cfg.measure_start;
        threads.push(std::thread::spawn(move || {
            if cl.clock.sleep_until_or_stop(at, &cl.shutdown) {
                cl.state.reset_meter_window(at);
            }
        }));
    }
    if !cfg.faults.is_empty() {
        let cl = Arc::clone(&cluster);
        threads.push(
            std::thread::Builder::new()
                .name("sg-live-fault".into())
                .spawn(move || cl.fault_loop())
                .expect("spawn fault injector"),
        );
    }

    // Open-loop client on this thread: pace the schedule in real time,
    // behind the same in-flight safety valve as the sim.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut injected = 0u64;
    let mut dropped = 0u64;
    let client_node = cfg.placement.client_node();
    for &t in &arrivals {
        if t > cfg.end {
            break;
        }
        clock.sleep_until(t);
        injected += 1;
        if cluster.in_flight.load(Ordering::Relaxed) >= cfg.max_in_flight {
            dropped += 1;
            continue;
        }
        let cur = cluster.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        cluster.peak_in_flight.fetch_max(cur, Ordering::Relaxed);
        let now = clock.now();
        let meta = RpcMetadata::new_job(now);
        // Trace ids are injection indices — same convention as the sim,
        // stable against safety-valve drops (a dropped arrival consumes
        // an id, no span).
        let trace = injected - 1;
        let (span, root_span) = if cluster.span_sink.is_some() && opts.span_sampler.sampled(trace) {
            let root_id = cluster.span_ids.fetch_add(1, Ordering::Relaxed);
            (
                Some(JobSpan {
                    trace,
                    parent: root_id,
                    sent_at: SimTime::ZERO,
                    issue_wait: SimDuration::ZERO,
                    freq_level: 0,
                    slack_ns: 0,
                }),
                Some((trace, root_id)),
            )
        } else {
            (None, None)
        };
        let root = ContainerId(cluster.pick_replica(TaskGraph::ROOT, &mut rng) as u32);
        cluster.send_request(
            client_node,
            root,
            Dispatch {
                req_start: now,
                meta,
                span,
                reply: ReplyTo::Client { root_span },
            },
            &mut rng,
        );
    }
    clock.sleep_until(cfg.end);

    // Orderly teardown: raise the flag, unblock every wait, join.
    cluster.shutdown.store(true, Ordering::Relaxed);
    state.close_gates();
    for q in &cluster.queues {
        q.close();
    }
    for pools in &cluster.pools {
        for p in pools.iter().flatten() {
            p.close();
        }
    }
    for h in threads {
        let _ = h.join();
    }
    let workers = std::mem::take(&mut *cluster.worker_handles.lock().unwrap());
    for h in workers {
        let _ = h.join();
    }
    cluster.delay.shutdown();
    let (fr_applied, fr_dropped) = {
        let fr = cluster.fr.lock().unwrap().take().expect("fr runtime");
        let dropped = fr.dropped();
        (fr.shutdown(), dropped)
    };
    // All worker/tick/fault threads are joined: the profiler's counters
    // are final. Fold in the ring watermarks and push the report through
    // the ring front-end before the drainer shuts down, so profile
    // records ride the same pipeline as everything else.
    if let (Some(p), Some(psink)) = (&profiler, &profile_sink) {
        if let Some(ring) = &ring_handle {
            p.mark_max(
                ProfileMark::RingOccupancyHighWater,
                ring.occupancy_high_water(),
            );
            p.mark_add(ProfileMark::RingDropped, ring.dropped());
        }
        let report = p.snapshot(wall_start.elapsed().as_nanos() as u64);
        for event in report.events() {
            psink.emit(event);
        }
    }
    // Delay line and workers are joined: the aggregation shards are
    // final. Push one last cumulative snapshot set through the ring
    // front-end before the drainer shuts down (the profiler-snapshot
    // pattern), so the metrics file always ends with the complete view.
    if let (Some(agg), Some(msink)) = (&opts.agg, &cluster.metrics_sink) {
        for event in agg.all_node_events(cfg.end) {
            msink.emit(event);
        }
    }
    // All emitting threads are joined; draining now loses nothing.
    let ring_stats = telemetry_drainer.map(|drainer| drainer.shutdown());
    // Keep serving the final registry state until the drainer has teed
    // the last samples in, then stop the scrape listener.
    let metrics_addr = scrape.as_ref().map(|s| s.local_addr());
    if let Some(server) = scrape {
        server.shutdown();
    }

    let mut points = std::mem::take(&mut *cluster.points.lock().unwrap());
    points.sort_by_key(|p| p.completion);
    let completed = points.len() as u64;
    let (avg_cores, energy_j, alloc_trace) = state.finish(cfg.end, cfg.measure_start);
    let profile = cluster
        .profile
        .iter()
        .map(|acc| {
            let requests = acc.requests.load(Ordering::Relaxed);
            if requests == 0 {
                ProfileStats::default()
            } else {
                ProfileStats {
                    requests,
                    mean_exec_metric: SimDuration::from_nanos(
                        acc.sum_exec_metric.load(Ordering::Relaxed) / requests,
                    ),
                    mean_exec_time: SimDuration::from_nanos(
                        acc.sum_exec_time.load(Ordering::Relaxed) / requests,
                    ),
                    mean_time_from_start: SimDuration::from_nanos(
                        acc.sum_tfs.load(Ordering::Relaxed) / requests,
                    ),
                }
            }
        })
        .collect();

    let result = RunResult {
        points,
        injected,
        completed,
        dropped,
        avg_cores,
        energy_j,
        events: cluster.delay.delivered(),
        profile,
        alloc_trace,
        peak_in_flight: cluster.peak_in_flight.load(Ordering::Relaxed),
        clamped_actions: state.clamped(),
        packet_freq_boosts: cluster.packet_freq_boosts.load(Ordering::Relaxed),
    };
    let ring_stats = ring_stats.unwrap_or_default();
    let stats = LiveStats {
        fr_applied,
        fr_dropped,
        deliveries: result.events,
        telemetry_forwarded: ring_stats.forwarded,
        telemetry_dropped: ring_stats.dropped,
        telemetry_dropped_decision: ring_stats.dropped_decision,
        telemetry_dropped_span: ring_stats.dropped_span,
        telemetry_dropped_metrics: ring_stats.dropped_metrics,
        telemetry_dropped_profile: ring_stats.dropped_profile,
        metrics_addr,
    };
    (result, stats)
}

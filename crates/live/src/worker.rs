//! The live request path: real worker threads executing task-graph
//! invocations against token-bucket cores, blocking connection pools, and
//! the delay-line network.
//!
//! Control flow per request mirrors `sg_sim::runner` exactly:
//!
//! 1. The delay line delivers the request; the destination node's
//!    per-packet rx hook runs first (FirstResponder site), then the job is
//!    enqueued on the container's worker queue.
//! 2. A worker thread samples the request's work, runs the pre-call slice
//!    through the container's [`CoreGate`], issues child RPCs
//!    (sequentially or in parallel per the graph's call mode) through
//!    *blocking* connection pools, runs the post-call slice, and records
//!    the `execTime`/`connWait` sample.
//! 3. The response travels back through the delay line; delivering it
//!    releases the parent's connection and wakes the parent thread.
//!
//! [`CoreGate`]: crate::throttle::CoreGate

use crate::clock::LiveClock;
use crate::cluster::ClusterState;
use crate::net::DelayLine;
use crate::pool::LiveConnPool;
use crate::sync::{Dispatch, Job, JobQueue, JobSpan, ReplySlot, ReplyTo};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sg_core::firstresponder::{FrRuntime, FreqUpdate};
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::{MetricsWindow, RequestSample};
use sg_core::replica::p2c_winner;
use sg_core::slack::{annotate_entry, per_packet_slack};
use sg_core::time::{SimDuration, SimTime};
use sg_core::violation::LatencyPoint;
use sg_sim::app::CallMode;
use sg_sim::cluster::SimConfig;
use sg_sim::container::sample_work;
use sg_sim::controller::{ControlAction, Controller};
use sg_sim::ledger::{action_event, Effect, ReplicaState};
use sg_sim::network::Network;
use sg_telemetry::metrics::slack_p50_p99;
use sg_telemetry::profile::{LiveProfiler, ProfilePhase};
use sg_telemetry::{
    ActionOrigin, AggRuntime, MetricId, MetricSample, ReplicaPhase, SharedSink, SpanRecord,
    TelemetryEvent,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-container profile accumulators (atomics; workers update them
/// concurrently).
#[derive(Default)]
pub struct ProfileAcc {
    pub requests: AtomicU64,
    pub sum_exec_metric: AtomicU64,
    pub sum_exec_time: AtomicU64,
    pub sum_tfs: AtomicU64,
}

/// Everything the live run shares between its threads.
pub struct LiveCluster {
    pub cfg: SimConfig,
    pub clock: LiveClock,
    pub network: Network,
    pub state: Arc<ClusterState>,
    /// Per-container job queues (one per replica slot).
    pub queues: Vec<JobQueue>,
    /// Per-container metric windows (flushed by the tick threads).
    pub windows: Vec<Mutex<MetricsWindow>>,
    /// `pools[caller_slot][edge][callee_replica]`, shared so response
    /// delivery can release. Each replica of a downstream group has its
    /// own pool (its own connection capacity), fronted by the
    /// power-of-two-choices pick in [`LiveCluster::pick_replica`].
    pub pools: Vec<Vec<Vec<Arc<LiveConnPool>>>>,
    /// Requests currently dispatched to each replica slot (the load
    /// balancer's queue-depth signal, and the drain-retire trigger).
    pub inflight: Vec<AtomicU64>,
    /// Whether a slot's worker threads have been spawned (slots active at
    /// start-up spawn in the driver; later activations spawn on demand).
    pub workers_spawned: Vec<AtomicBool>,
    /// Handles of dynamically spawned worker threads, joined at teardown.
    pub worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Worker threads per container (from `LiveOpts`).
    pub workers_per_container: usize,
    /// One controller per node, unmodified, behind a lock so the rx hook
    /// (delay thread) and the tick thread share it.
    pub controllers: Vec<Mutex<Box<dyn Controller>>>,
    pub delay: DelayLine,
    /// The real SPSC coordinator/worker fast path (Fig. 9); `SetFreq`
    /// actions are applied off the critical path by its worker thread.
    pub fr: Mutex<Option<FrRuntime>>,
    /// Run-wide shutdown flag polled by every blocking wait.
    pub shutdown: AtomicBool,
    pub points: Mutex<Vec<LatencyPoint>>,
    pub profile: Vec<ProfileAcc>,
    pub completed: AtomicU64,
    pub in_flight: AtomicUsize,
    pub peak_in_flight: AtomicUsize,
    /// `SetFreq` actions originating from packet hooks.
    pub packet_freq_boosts: AtomicU64,
    /// Decision-trace sink (the ring front-end when telemetry is on, so
    /// emitting from the rx hook or a tick thread never blocks on I/O).
    pub sink: Option<SharedSink>,
    /// Span sink (also the ring front-end): worker threads stamp
    /// wall-clock spans and relay them drop-not-block.
    pub span_sink: Option<SharedSink>,
    /// Process-wide span id allocator for this run.
    pub span_ids: AtomicU64,
    /// Metrics sink (the ring front-end again): the sampler thread sweeps
    /// gauges through it on its own cadence, drop-not-block.
    pub metrics_sink: Option<SharedSink>,
    /// Cumulative FirstResponder boost episodes per dest container.
    pub fr_boost_counts: Vec<AtomicU64>,
    /// Cumulative upscale hints per container across flushed windows.
    pub upscale_hint_counts: Vec<AtomicU64>,
    /// Per-packet slack observations since the last sampler sweep.
    pub slack_acc: Vec<Mutex<Vec<i64>>>,
    /// Last *completed* window per container (what the previous decision
    /// cycle saw — same semantics as the sim's per-tick sample).
    pub last_window: Vec<Mutex<sg_core::metrics::WindowMetrics>>,
    /// Mergeable aggregation layer (per-node latency digest, SLO window,
    /// heavy-hitter sketch — [`sg_telemetry::agg`]); recorded on the
    /// delay-line thread at client delivery, off the worker fast path.
    pub agg: Option<Arc<AggRuntime>>,
    /// Self-profiler shared by every thread; `None` costs one branch per
    /// hot-path site (the span-layer disabled-guard discipline).
    pub profiler: Option<Arc<LiveProfiler>>,
    /// Fault boundaries applied so far (starts + ends), for the scrape
    /// endpoint's `sg_fault_events_total`.
    pub fault_events: Arc<AtomicU64>,
}

impl LiveCluster {
    /// Run controller actions through the shared ledger, counting
    /// packet-hook `SetFreq` as FirstResponder boosts — same attribution
    /// as the sim. [`ClusterState::decide`] applies the allocation-state
    /// effects; what is left here is the request path's share.
    pub fn apply_actions(
        self: &Arc<Self>,
        node: NodeId,
        actions: Vec<ControlAction>,
        origin: ActionOrigin,
    ) {
        let mut fx = Vec::new();
        for action in actions {
            let outcome = self.state.decide(node, action, &self.inflight, &mut fx);
            for effect in fx.drain(..) {
                match effect {
                    Effect::DeferFreq { id, level } => {
                        if origin == ActionOrigin::PacketHook {
                            self.packet_freq_boosts.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(fr) = self.fr.lock().unwrap().as_mut() {
                            fr.submit(FreqUpdate {
                                from: node,
                                container: id,
                                level,
                            });
                        }
                    }
                    Effect::Replica {
                        slot,
                        phase: ReplicaPhase::Spawned,
                        ..
                    } => self.ensure_workers(slot),
                    _ => {}
                }
            }
            if let Some(sink) = &self.sink {
                let at = self.clock.now();
                sink.emit(action_event(at, node, origin, action, outcome));
            }
        }
    }

    /// Spawn worker threads for an activated replica slot, once.
    /// Threads outlive retirement (the queue stays open; a retired slot
    /// simply receives no new jobs) and are joined at run teardown, so a
    /// later re-activation reuses them.
    pub fn ensure_workers(self: &Arc<Self>, slot: usize) {
        if self.workers_spawned[slot].swap(true, Ordering::AcqRel) {
            return;
        }
        let mut handles = self.worker_handles.lock().unwrap();
        for w in 0..self.workers_per_container.max(1) {
            let cl = Arc::clone(self);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sg-live-c{slot}w{w}"))
                    .spawn(move || cl.worker_loop(slot, w))
                    .expect("spawn worker"),
            );
        }
    }

    /// Power-of-two-choices load balancer over the active replicas of
    /// `svc`: compare the in-flight depth of two uniformly drawn
    /// candidates, ties to the lower slot. Increments the winner's
    /// in-flight count (the caller's dispatch is now committed), with a
    /// recheck loop so a retire racing the pick never receives the job.
    /// A single active replica is picked without consuming randomness.
    pub fn pick_replica(&self, svc: ServiceId, rng: &mut SmallRng) -> usize {
        loop {
            let active: Vec<usize> = self
                .state
                .layout
                .slots_of(svc)
                .filter(|&slot| self.state.replica_is(slot, ReplicaState::Active))
                .collect();
            let slot = match active.len() {
                0 => self.state.layout.slot_of(svc, 0),
                1 => active[0],
                n => {
                    let i = active[rng.random::<u32>() as usize % n];
                    let j = active[rng.random::<u32>() as usize % n];
                    p2c_winner(
                        i,
                        self.inflight[i].load(Ordering::Acquire),
                        j,
                        self.inflight[j].load(Ordering::Acquire),
                    )
                }
            };
            // Commit the dispatch before re-reading the state: a concurrent
            // retire either sees our increment (and stays draining) or has
            // already published that the slot stopped taking new work — in
            // which case we undo and re-pick. The primary is never drained,
            // so the forced pick above always passes.
            self.inflight[slot].fetch_add(1, Ordering::SeqCst);
            if self.state.replica_is(slot, ReplicaState::Active) {
                return slot;
            }
            self.inflight[slot].fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Deliver one request packet to container `dest`: run the node's rx
    /// hook, then hand the job to the container's worker pool. Runs on the
    /// delay-line thread — the live analogue of the kernel receive path.
    pub fn deliver_request(self: &Arc<Self>, dest: ContainerId, dispatch: Dispatch) {
        if self.profiler.is_some() {
            let t0 = Instant::now();
            self.deliver_request_inner(dest, dispatch);
            if let Some(p) = &self.profiler {
                p.record(ProfilePhase::FrHook, t0.elapsed().as_nanos() as u64);
            }
        } else {
            self.deliver_request_inner(dest, dispatch);
        }
    }

    fn deliver_request_inner(self: &Arc<Self>, dest: ContainerId, dispatch: Dispatch) {
        let Dispatch {
            req_start,
            meta,
            mut span,
            reply,
        } = dispatch;
        let now = self.clock.now();
        let node = self.state.node_of(dest);
        let svc_of_dest = self.state.layout.service_of(dest.index());
        if self.metrics_sink.is_some() {
            // Feed the slack p50/p99 gauges from every delivered packet.
            let expected = self.cfg.params[svc_of_dest.index()].expected_time_from_start;
            self.slack_acc[dest.index()]
                .lock()
                .unwrap()
                .push(per_packet_slack(expected, now, meta.start_time));
        }
        let actions = self.controllers[node.index()]
            .lock()
            .unwrap()
            .on_packet(now, dest, meta);
        if !actions.is_empty() {
            let targets = actions
                .iter()
                .filter(|a| matches!(a, ControlAction::SetFreq { .. }))
                .count() as u32;
            if targets > 0 {
                // One boost episode destined here: the cumulative
                // fr_boosts gauge steps even if the level retires before
                // the sampler's next sweep.
                self.fr_boost_counts[dest.index()].fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = &self.sink {
                    let expected = self.cfg.params[svc_of_dest.index()].expected_time_from_start;
                    let level = actions
                        .iter()
                        .filter_map(|a| match a {
                            ControlAction::SetFreq { level, .. } => Some(*level),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(0);
                    sink.emit(TelemetryEvent::FrBoost {
                        at: now,
                        node,
                        dest,
                        slack_ns: per_packet_slack(expected, now, meta.start_time),
                        level,
                        targets,
                    });
                }
            }
            self.apply_actions(node, actions, ActionOrigin::PacketHook);
        }
        if let Some(s) = &mut span {
            // Stamp what the rx hook saw; any boost this packet triggers
            // is still in the FirstResponder queue, so this is the
            // pre-boost frequency state — same convention as the sim.
            let expected = self.cfg.params[svc_of_dest.index()].expected_time_from_start;
            let ann = annotate_entry(
                expected,
                now,
                meta.start_time,
                self.state.alloc_of(dest).freq_level,
            );
            s.freq_level = ann.freq_level;
            s.slack_ns = ann.slack_ns;
        }
        self.queues[dest.index()].push(Job {
            req_start,
            meta_in: meta,
            arrival: now,
            span,
            reply,
        });
    }

    /// Schedule a request packet: sample the network latency and submit
    /// the delivery.
    pub fn send_request(
        self: &Arc<Self>,
        src: NodeId,
        dest: ContainerId,
        mut dispatch: Dispatch,
        rng: &mut SmallRng,
    ) {
        let now = self.clock.now();
        if let Some(s) = &mut dispatch.span {
            s.sent_at = now;
        }
        let delay = self
            .network
            .latency(now, src, self.state.node_of(dest), rng);
        let cluster = Arc::clone(self);
        self.delay.submit(
            self.clock.instant_at(now + delay),
            Box::new(move || cluster.deliver_request(dest, dispatch)),
        );
    }

    /// Outgoing metadata for a child RPC of container `c` (propagated hop
    /// count plus any egress hint the controller configured).
    fn child_meta(&self, c: usize, meta_in: RpcMetadata) -> RpcMetadata {
        let hint = self.state.hints[c].load(Ordering::Relaxed);
        let meta = meta_in.propagate();
        if hint > 0 {
            meta.with_hint(hint)
        } else {
            meta
        }
    }

    /// Issue child RPC `edge` of caller slot `c`: pick the callee
    /// replica, block for a connection on that replica's pool, then send.
    /// Returns the reply slot and the connection wait, or `None` when
    /// shut down mid-call.
    fn call_child(
        self: &Arc<Self>,
        c: usize,
        edge: usize,
        meta_in: RpcMetadata,
        req_start: SimTime,
        span_ctx: Option<(u64, u64)>,
        rng: &mut SmallRng,
    ) -> Option<(Arc<ReplySlot>, SimDuration)> {
        let svc = self.state.layout.service_of(c);
        let child = self.cfg.graph.services[svc.index()].children[edge].child;
        let child_slot = self.pick_replica(child, rng);
        let rep = self.state.layout.replica_of(child_slot) as usize;
        let pool = Arc::clone(&self.pools[c][edge][rep]);
        let waited = match pool.acquire() {
            Some(w) => w,
            None => {
                self.inflight[child_slot].fetch_sub(1, Ordering::AcqRel);
                return None;
            }
        };
        let waited = SimDuration::from_nanos(waited.as_nanos() as u64);
        if let Some(p) = &self.profiler {
            p.record(ProfilePhase::PoolWait, waited.as_nanos());
        }
        let slot = Arc::new(ReplySlot::new());
        let reply = ReplyTo::Parent {
            node: self.state.node_of(ContainerId(c as u32)),
            slot: Arc::clone(&slot),
            pool,
        };
        // The pool wait happened here, but it delayed the *callee* —
        // charge it to the child hop (same convention as the sim).
        let span = span_ctx.map(|(trace, parent)| JobSpan {
            trace,
            parent,
            sent_at: SimTime::ZERO,
            issue_wait: waited,
            freq_level: 0,
            slack_ns: 0,
        });
        let meta_out = self.child_meta(c, meta_in);
        self.send_request(
            self.state.node_of(ContainerId(c as u32)),
            ContainerId(child_slot as u32),
            Dispatch {
                req_start,
                meta: meta_out,
                span,
                reply,
            },
            rng,
        );
        Some((slot, waited))
    }

    /// Execute one job end to end on the calling worker thread.
    fn handle_job(self: &Arc<Self>, c: usize, job: Job, rng: &mut SmallRng) {
        let svc = self.state.layout.service_of(c);
        let spec = &self.cfg.graph.services[svc.index()];
        let u: f64 = rng.random();
        let work = sample_work(spec.work_mean, spec.work_cv, u);
        let pre = work.mul_f64(spec.pre_fraction);
        let post = work.saturating_sub(pre);

        // Allocate this hop's span id up front so child RPCs can parent
        // under it. Clock reads for the phase boundaries happen only when
        // the request is traced — the untraced path stays bare.
        let self_span = job
            .span
            .map(|s| (s, self.span_ids.fetch_add(1, Ordering::Relaxed)));
        let span_ctx = self_span.map(|(s, id)| (s.trace, id));

        let gate = &self.state.gates[c];
        if !gate.run(pre, &self.shutdown) {
            return;
        }
        let pre_done = if self_span.is_some() {
            self.clock.now()
        } else {
            SimTime::ZERO
        };

        let mut conn_wait = SimDuration::ZERO;
        if !spec.children.is_empty() {
            match spec.call_mode {
                CallMode::Sequential => {
                    for edge in 0..spec.children.len() {
                        let Some((slot, waited)) =
                            self.call_child(c, edge, job.meta_in, job.req_start, span_ctx, rng)
                        else {
                            return;
                        };
                        conn_wait += waited;
                        if !slot.wait(&self.shutdown) {
                            return;
                        }
                    }
                }
                CallMode::Parallel => {
                    let mut slots = Vec::with_capacity(spec.children.len());
                    for edge in 0..spec.children.len() {
                        let Some((slot, waited)) =
                            self.call_child(c, edge, job.meta_in, job.req_start, span_ctx, rng)
                        else {
                            return;
                        };
                        conn_wait += waited;
                        slots.push(slot);
                    }
                    for slot in slots {
                        if !slot.wait(&self.shutdown) {
                            return;
                        }
                    }
                }
                CallMode::OneOf => {
                    // One uniformly drawn child edge per request — the
                    // load-balanced dispatch tier, from the worker's own
                    // RNG like every other live-side draw.
                    let edge = (rng.random::<u32>() % spec.children.len() as u32) as usize;
                    let Some((slot, waited)) =
                        self.call_child(c, edge, job.meta_in, job.req_start, span_ctx, rng)
                    else {
                        return;
                    };
                    conn_wait += waited;
                    if !slot.wait(&self.shutdown) {
                        return;
                    }
                }
            }
        }

        let post_start = if self_span.is_some() {
            self.clock.now()
        } else {
            SimTime::ZERO
        };
        if !gate.run(post, &self.shutdown) {
            return;
        }

        let now = self.clock.now();
        if let Some((s, id)) = self_span {
            if let Some(sink) = &self.span_sink {
                sink.emit(TelemetryEvent::Span(SpanRecord {
                    trace: s.trace,
                    span: id,
                    parent: Some(s.parent),
                    container: Some(ContainerId(c as u32)),
                    node: Some(self.state.node_of(ContainerId(c as u32))),
                    start: job.arrival,
                    end: now,
                    net_in: job.arrival.saturating_since(s.sent_at),
                    conn_wait: s.issue_wait,
                    service: pre_done.saturating_since(job.arrival)
                        + now.saturating_since(post_start),
                    downstream: post_start.saturating_since(pre_done),
                    freq_level: s.freq_level,
                    slack_ns: s.slack_ns,
                }));
            }
        }
        let exec_time = now.saturating_since(job.arrival);
        let sample = RequestSample {
            exec_time,
            conn_wait,
        };
        self.windows[c]
            .lock()
            .unwrap()
            .record(sample, job.meta_in.has_hint());
        // Profiling stats stay per-SERVICE: replicas of a group pool into
        // one row, so `RunResult::profile` keeps its pre-replica shape.
        let acc = &self.profile[svc.index()];
        acc.requests.fetch_add(1, Ordering::Relaxed);
        acc.sum_exec_metric
            .fetch_add(sample.exec_metric().as_nanos(), Ordering::Relaxed);
        acc.sum_exec_time
            .fetch_add(exec_time.as_nanos(), Ordering::Relaxed);
        acc.sum_tfs.fetch_add(
            job.arrival.saturating_since(job.req_start).as_nanos(),
            Ordering::Relaxed,
        );

        // Route the response back through the delay line.
        let src = self.state.node_of(ContainerId(c as u32));
        match job.reply {
            ReplyTo::Parent { node, slot, pool } => {
                let delay = self.network.latency(now, src, node, rng);
                self.delay.submit(
                    self.clock.instant_at(now + delay),
                    Box::new(move || {
                        // Response delivery frees the parent's connection
                        // first (a queued waiter proceeds), then wakes the
                        // parent — the sim's `on_response_delivered` order.
                        pool.release();
                        slot.complete();
                    }),
                );
            }
            ReplyTo::Client { root_span } => {
                let delay = self
                    .network
                    .latency(now, src, self.cfg.placement.client_node(), rng);
                let completion = now + delay;
                let latency = completion.saturating_since(job.req_start);
                let req_start = job.req_start;
                let cluster = Arc::clone(self);
                self.delay.submit(
                    self.clock.instant_at(completion),
                    Box::new(move || {
                        if let Some((trace, root_id)) = root_span {
                            // Synthetic root "request" span, stamped with
                            // the *same* precomputed (completion, latency)
                            // pair as the LatencyPoint below — so the
                            // span-tree conformance invariant (root
                            // duration == point latency) is exact on this
                            // substrate too, not clock-tolerant.
                            if let Some(sink) = &cluster.span_sink {
                                sink.emit(TelemetryEvent::Span(SpanRecord {
                                    trace,
                                    span: root_id,
                                    parent: None,
                                    container: None,
                                    node: None,
                                    start: req_start,
                                    end: completion,
                                    net_in: SimDuration::ZERO,
                                    conn_wait: SimDuration::ZERO,
                                    service: SimDuration::ZERO,
                                    downstream: latency,
                                    freq_level: 0,
                                    slack_ns: 0,
                                }));
                            }
                        }
                        cluster.points.lock().unwrap().push(LatencyPoint {
                            completion,
                            latency,
                        });
                        // Aggregation shard update happens here on the
                        // delay-line thread — same trim as the sim: only
                        // measured completions reach the digest.
                        if let Some(agg) = &cluster.agg {
                            if completion >= cluster.cfg.measure_start {
                                agg.record(src, ContainerId(c as u32), completion, latency);
                            }
                        }
                        cluster.completed.fetch_add(1, Ordering::Relaxed);
                        cluster.in_flight.fetch_sub(1, Ordering::Relaxed);
                    }),
                );
            }
        }
        // This replica finished serving the request; a draining replica
        // whose last request this was can now retire.
        self.inflight[c].fetch_sub(1, Ordering::AcqRel);
        self.state.try_retire(c, &self.inflight[c]);
    }

    /// Worker thread body: pull jobs until the queue closes.
    pub fn worker_loop(self: Arc<Self>, c: usize, worker_idx: usize) {
        // Distinct deterministic stream per worker thread.
        let mut rng = SmallRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((c as u64) << 16)
                .wrapping_add(worker_idx as u64),
        );
        if let Some(p) = self.profiler.clone() {
            loop {
                let idle0 = Instant::now();
                let Some(job) = self.queues[c].pop() else {
                    break;
                };
                p.record(ProfilePhase::WorkerIdle, idle0.elapsed().as_nanos() as u64);
                let busy0 = Instant::now();
                self.handle_job(c, job, &mut rng);
                p.record(
                    ProfilePhase::WorkerService,
                    busy0.elapsed().as_nanos() as u64,
                );
            }
        } else {
            while let Some(job) = self.queues[c].pop() {
                self.handle_job(c, job, &mut rng);
            }
        }
    }

    /// Tick thread body for one node: flush windows into a snapshot, run
    /// the controller, apply its actions — on the controller's own cadence.
    pub fn tick_loop(self: Arc<Self>, node: usize) {
        let interval = self.controllers[node].lock().unwrap().tick_interval();
        let mut next = SimTime::ZERO + interval;
        loop {
            if !self.clock.sleep_until_or_stop(next, &self.shutdown) {
                return;
            }
            let tick0 = self.profiler.as_ref().map(|_| Instant::now());
            let now = self.clock.now();
            // One snapshot entry per ACTIVE replica slot, primary-first
            // per service group — identical to the sim's snapshot order
            // (and to the pre-replica order at max_replicas = 1).
            let services: Vec<ServiceId> = self.cfg.placement.services_on(NodeId(node as u32));
            let snapshot = sg_sim::controller::NodeSnapshot {
                node: NodeId(node as u32),
                containers: services
                    .into_iter()
                    .flat_map(|s| {
                        self.state
                            .layout
                            .slots_of(s)
                            .filter(|&slot| self.state.replica_is(slot, ReplicaState::Active))
                            .collect::<Vec<_>>()
                    })
                    .map(|slot| sg_sim::controller::ContainerSnapshot {
                        id: ContainerId(slot as u32),
                        metrics: self.windows[slot].lock().unwrap().flush(),
                        alloc: self.state.alloc_of(ContainerId(slot as u32)),
                    })
                    .collect(),
            };
            if let Some(sink) = &self.sink {
                for cs in &snapshot.containers {
                    sink.emit(TelemetryEvent::Window {
                        at: now,
                        node: NodeId(node as u32),
                        container: cs.id,
                        requests: cs.metrics.requests,
                        mean_exec_time_ns: cs.metrics.mean_exec_time.as_nanos(),
                        mean_exec_metric_ns: cs.metrics.mean_exec_metric.as_nanos(),
                        queue_buildup: cs.metrics.queue_buildup,
                        upscale_hints: cs.metrics.upscale_hints,
                    });
                }
            }
            if self.metrics_sink.is_some() {
                // Publish the just-completed windows for the metrics
                // sampler: its gauges must show what the decision cycle
                // actually consumed, not a half-filled window.
                for cs in &snapshot.containers {
                    let i = cs.id.index();
                    self.upscale_hint_counts[i]
                        .fetch_add(cs.metrics.upscale_hints, Ordering::Relaxed);
                    *self.last_window[i].lock().unwrap() = cs.metrics;
                }
            }
            let actions = self.controllers[node]
                .lock()
                .unwrap()
                .on_tick(now, &snapshot);
            self.apply_actions(NodeId(node as u32), actions, ActionOrigin::Tick);
            if let (Some(p), Some(t0)) = (&self.profiler, tick0) {
                p.record(ProfilePhase::LiveTick, t0.elapsed().as_nanos() as u64);
            }
            next += interval;
            // If a tick overran its slot, skip ahead instead of spiralling.
            let now = self.clock.now();
            while next < now {
                next += interval;
            }
        }
    }

    /// Metrics sampler thread body: sweep every container's gauges on a
    /// fixed cadence, independent of (and lower priority than) the
    /// decision cycle. Samples go through the ring front-end, so a slow
    /// disk drops samples (testified in-stream) rather than perturbing
    /// the run.
    pub fn sampler_loop(self: Arc<Self>, interval: SimDuration) {
        let Some(sink) = self.metrics_sink.clone() else {
            return;
        };
        let mut next = SimTime::ZERO + interval;
        loop {
            if !self.clock.sleep_until_or_stop(next, &self.shutdown) {
                return;
            }
            // One timestamp per sweep, taken at sweep start, so every
            // series shares sample times and reconstruction can join on
            // them.
            let now = self.clock.now();
            self.sample_metrics(now, &sink);
            next += interval;
            let now = self.clock.now();
            while next < now {
                next += interval;
            }
        }
    }

    /// One gauge sweep over every active container (dense slot order —
    /// retired replicas stop being sampled, so their series simply end).
    fn sample_metrics(&self, now: SimTime, sink: &SharedSink) {
        for c in 0..self.state.layout.n_slots() {
            if !self.state.replica_is(c, ReplicaState::Active) {
                continue;
            }
            let id = ContainerId(c as u32);
            let node = self.state.node_of(id);
            let emit = |metric: MetricId, value: f64| {
                sink.emit(TelemetryEvent::Metric(
                    MetricSample {
                        at: now,
                        node,
                        container: id,
                        metric,
                        value,
                    }
                    .sanitized(),
                ));
            };
            let alloc = self.state.alloc_of(id);
            emit(MetricId::Cores, alloc.cores as f64);
            emit(MetricId::FreqLevel, alloc.freq_level as f64);
            emit(
                MetricId::FrBoosts,
                self.fr_boost_counts[c].load(Ordering::Relaxed) as f64,
            );
            let window = *self.last_window[c].lock().unwrap();
            emit(
                MetricId::ExecMetric,
                window.mean_exec_metric.as_nanos() as f64,
            );
            emit(MetricId::QueueBuildup, window.queue_buildup);
            emit(MetricId::WindowRequests, window.requests as f64);
            emit(
                MetricId::UpscaleHints,
                self.upscale_hint_counts[c].load(Ordering::Relaxed) as f64,
            );
            let (mut in_use, mut waiters, mut queued_total) = (0u64, 0u64, 0u64);
            for pool in self.pools[c].iter().flatten() {
                let s = pool.stats();
                in_use += s.in_use as u64;
                waiters += s.waiters as u64;
                queued_total += s.queued_total;
            }
            emit(MetricId::PoolInUse, in_use as f64);
            emit(MetricId::PoolWaiters, waiters as f64);
            emit(MetricId::PoolQueuedTotal, queued_total as f64);
            let mut slack = std::mem::take(&mut *self.slack_acc[c].lock().unwrap());
            if let Some((p50, p99)) = slack_p50_p99(&mut slack) {
                emit(MetricId::SlackP50, p50 as f64);
                emit(MetricId::SlackP99, p99 as f64);
            }
        }
        // Replica count per service group, emitted on the primary. Gated
        // on horizontal scaling being enabled so single-replica runs keep
        // the schema-v1 metric stream shape.
        if self.state.layout.max_replicas > 1 {
            for s in 0..self.cfg.graph.len() {
                let svc = ServiceId(s as u32);
                let primary = ContainerId(svc.0);
                sink.emit(TelemetryEvent::Metric(
                    MetricSample {
                        at: now,
                        node: self.state.node_of(primary),
                        container: primary,
                        metric: MetricId::Replicas,
                        value: self.state.active_replicas(svc) as f64,
                    }
                    .sanitized(),
                ));
            }
        }
        // Controller-internal gauges (e.g. sensitivity arms), per node.
        let mut extra = Vec::new();
        for controller in &self.controllers {
            controller.lock().unwrap().metric_samples(now, &mut extra);
        }
        for sample in extra {
            sink.emit(TelemetryEvent::Metric(sample.sanitized()));
        }
        // Cumulative aggregation snapshots trail the gauge sweep; they
        // ride the same ring, so a full relay drops them (staleness, not
        // skew — the snapshots are state, not deltas).
        if let Some(agg) = &self.agg {
            for event in agg.all_node_events(now) {
                sink.emit(event);
            }
        }
    }
}

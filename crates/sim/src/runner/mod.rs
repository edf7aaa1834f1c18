//! The simulation runner: wires the task graph, cluster, network,
//! controllers and load schedule into one deterministic event loop.

use crate::app::{CallMode, TaskGraph};
use crate::cluster::SimConfig;
use crate::connpool::{Acquire, ConnPool};
use crate::container::{sample_work, Containers};
use crate::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use crate::engine::Engine;
use crate::event::{Event, InvocationId, Packet, PacketKind};
use crate::ledger::{action_event, AllocLedger, Effect, ReplicaState};
use crate::network::Network;
use crate::power::EnergyMeter;
use crate::substrate::{emit_sweep, packet_boost, GaugeRow};
use crate::trace::AllocTrace;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sg_core::arrivals::{ArrivalSource, ScheduleSource};
use sg_core::fault::{FaultKind, FaultNotice};
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::RequestSample;
use sg_core::replica::p2c_winner;
use sg_core::slack::{annotate_entry, per_packet_slack};
use sg_core::time::{SimDuration, SimTime};
use sg_core::violation::{insert_in_completion_order, LatencyPoint};
use sg_telemetry::metrics::slack_p50_p99;
use sg_telemetry::profile::{ProfileMark, ProfilePhase, SimProfiler};
use sg_telemetry::{
    ActionOrigin, AggRuntime, HopSpan, SharedSink, SpanRecord, SpanSampler, TelemetryEvent,
    METRICS_SCHEMA_VERSION,
};
use std::sync::Arc;
use std::time::Instant;

mod dispatch;
mod faults;
mod observe;
mod replicas;

/// Execution phase of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InvPhase {
    /// Running the pre-call work slice.
    Pre,
    /// Waiting on child RPCs (holding no CPU).
    Children,
    /// Running the post-call work slice.
    Post,
}

/// Per-invocation state (one service execution of one request).
#[derive(Debug, Clone)]
struct Invocation {
    service: ServiceId,
    /// The replica slot executing this invocation (the load balancer's
    /// pick; equals `ContainerId(service.0)` in single-replica runs).
    slot: ContainerId,
    /// `(parent invocation, edge index in the parent's child list)`.
    parent: Option<(InvocationId, u16)>,
    /// End-to-end job start (client send time).
    req_start: SimTime,
    /// Metadata as received.
    meta_in: RpcMetadata,
    /// Arrival at this container.
    arrival: SimTime,
    conn_wait: SimDuration,
    phase: InvPhase,
    next_child: u16,
    outstanding: u16,
    post_work: SimDuration,
    in_use: bool,
    /// Present iff this request was sampled for tracing.
    span: Option<HopSpan>,
}

/// Low-load profiling aggregates per container (used to derive the
/// per-container QoS parameters, §IV "SurgeGuard Parameters").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileStats {
    /// Requests completed at this container.
    pub requests: u64,
    /// Mean `execMetric`.
    pub mean_exec_metric: SimDuration,
    /// Mean `execTime`.
    pub mean_exec_time: SimDuration,
    /// Mean observed time-from-job-start at request arrival.
    pub mean_time_from_start: SimDuration,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completed end-to-end requests, in completion order; requests that
    /// complete at the same instant keep the order their responses were
    /// sent in.
    pub points: Vec<LatencyPoint>,
    /// Requests injected by the open-loop client.
    pub injected: u64,
    /// Requests completed (response reached the client).
    pub completed: u64,
    /// Arrivals dropped by the in-flight safety valve.
    pub dropped: u64,
    /// Time-averaged allocated cores over the measurement window.
    pub avg_cores: f64,
    /// Energy over the measurement window, joules.
    pub energy_j: f64,
    /// Events processed (simulator diagnostics).
    pub events: u64,
    /// Per-container profiling aggregates over the whole run.
    pub profile: Vec<ProfileStats>,
    /// Allocation timeline, when enabled.
    pub alloc_trace: Option<AllocTrace>,
    /// Peak simultaneous in-flight requests.
    pub peak_in_flight: usize,
    /// Controller actions that had to be clamped to fit constraints.
    pub clamped_actions: u64,
    /// `SetFreq` actions originating from packet hooks (FirstResponder
    /// boost count).
    pub packet_freq_boosts: u64,
}

/// Internal per-container profile accumulators.
#[derive(Debug, Clone, Copy, Default)]
struct ProfileAcc {
    requests: u64,
    sum_exec_metric: u64,
    sum_exec_time: u64,
    sum_tfs: u64,
}

/// The simulation.
pub struct Simulation {
    cfg: SimConfig,
    engine: Engine,
    rng: SmallRng,
    network: Network,
    /// Per-slot container state, structure-of-arrays keyed by slot id.
    containers: Containers,
    /// Reusable buffer for harvesting completed phases (hot path).
    done_scratch: Vec<InvocationId>,
    /// Allocations, node budgets and replica lifecycle: decides every
    /// controller action; this struct only applies the effects.
    ledger: AllocLedger,
    /// Reused effect buffer for [`AllocLedger::decide`].
    fx_scratch: Vec<Effect>,
    /// Requests dispatched to each slot and not yet answered (the load
    /// balancer's queue-depth signal and the drain/retire condition).
    inflight: Vec<u32>,
    /// `pools[caller_slot][edge][callee_replica]` — each replica of a
    /// callee gets its own connection pool on every inbound edge.
    pools: Vec<Vec<Vec<ConnPool>>>,
    controllers: Vec<Box<dyn Controller>>,
    invocations: Vec<Invocation>,
    free_list: Vec<InvocationId>,
    /// Open-loop arrival stream: the runner schedules exactly one
    /// pending `ClientArrival` at a time and pulls the next on delivery,
    /// so a 10M-request schedule never needs to be resident.
    arrivals: Box<dyn ArrivalSource>,
    meter: EnergyMeter,
    trace: Option<AllocTrace>,
    profile: Vec<ProfileAcc>,
    /// The completion log, kept in completion order as it is written
    /// (the only state held per finished request).
    points: Vec<LatencyPoint>,
    injected: u64,
    completed: u64,
    dropped: u64,
    in_flight: usize,
    peak_in_flight: usize,
    packet_freq_boosts: u64,
    meter_reset_done: bool,
    /// Decision-trace sink; `None` costs one branch per emission site.
    sink: Option<SharedSink>,
    /// Span sink; `None` costs one branch per request.
    span_sink: Option<SharedSink>,
    sampler: SpanSampler,
    next_span_id: u64,
    /// Metrics time-series sink; `None` costs one branch per decision
    /// cycle and one per request delivery.
    metrics_sink: Option<SharedSink>,
    /// Cumulative FirstResponder boost episodes per dest container
    /// (counter gauge; only maintained when metrics are recorded).
    fr_boost_counts: Vec<u64>,
    /// Cumulative upscale hints seen per container across windows.
    upscale_hint_counts: Vec<u64>,
    /// Per-packet slack observations since the last decision cycle,
    /// per container (drained into p50/p99 gauges at each tick).
    slack_acc: Vec<Vec<i64>>,
    /// Mergeable aggregation layer (latency digest + SLO window +
    /// heavy-hitter sketch per node shard); `None` costs one branch per
    /// root completion. The simulator records synchronously, so the
    /// per-node shards see exactly the completions `points` sees.
    agg: Option<Arc<AggRuntime>>,
    /// Self-profiler (phase timing + watermarks); `None` costs one
    /// branch per dispatched event.
    profiler: Option<Box<SimProfiler>>,
    /// Where the finished self-profile report is emitted (synchronous,
    /// like every sim sink).
    profile_sink: Option<SharedSink>,
}

impl Simulation {
    /// Build a simulation from a validated config, a controller factory,
    /// and the open-loop arrival schedule (ascending client send times).
    /// Arrival schedules are seed-free, so a multi-trial harness computes
    /// one and hands every trial the same `Arc<[SimTime]>`; a one-off
    /// caller passes the `Vec` it built.
    pub fn new(
        cfg: SimConfig,
        factory: &dyn ControllerFactory,
        arrivals: impl Into<Arc<[SimTime]>>,
    ) -> Self {
        let arrivals = arrivals.into();
        debug_assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        Self::new_streaming(cfg, factory, Box::new(ScheduleSource::new(arrivals)))
    }

    /// Like [`Simulation::new`] but pulling arrivals from a stream (e.g.
    /// [`sg-loadgen`'s `ProfileStream`]) instead of a materialized
    /// schedule — the cluster-scale path: a 10M-request spike run holds
    /// cursor state instead of an 80 MB timestamp vector. The stream must
    /// yield ascending times; same stream, same schedule, same result,
    /// byte for byte.
    ///
    /// [`sg-loadgen`'s `ProfileStream`]: https://docs.rs/sg-loadgen
    pub fn new_streaming(
        cfg: SimConfig,
        factory: &dyn ControllerFactory,
        arrivals: Box<dyn ArrivalSource>,
    ) -> Self {
        cfg.validate().expect("invalid SimConfig");
        let n = cfg.graph.len();
        let ledger = AllocLedger::new(&cfg);
        let layout = *ledger.layout();
        let n_slots = layout.n_slots();

        let mut containers = Containers::with_capacity(n_slots);
        let mut pools = Vec::with_capacity(n_slots);
        let mut meter = EnergyMeter::new(cfg.power, n_slots);
        for slot in 0..n_slots {
            let svc = layout.service_of(slot);
            let s = svc.index();
            let cores = ledger.alloc(slot).cores;
            // The PS server needs >= 1 core; an inactive slot's container
            // keeps a placeholder allocation (it receives no work) while
            // the ledger and the meter carry the true zero.
            let i = containers.push(ledger.node_of(slot), svc, cores.max(1));
            debug_assert_eq!(i, slot);
            if let Some(cap) = cfg.bw_caps.get(s).copied().flatten() {
                containers.set_bw_cap(slot, SimTime::ZERO, Some(cap));
            }
            pools.push(
                cfg.graph.services[s]
                    .children
                    .iter()
                    .map(|e| {
                        (0..cfg.max_replicas)
                            .map(|_| ConnPool::new(e.conn.capacity()))
                            .collect()
                    })
                    .collect(),
            );
            meter.set_state(SimTime::ZERO, slot, cores, cfg.freq_table.ghz(0));
        }

        // Per-node controllers, each seeing only its node.
        let controllers = (0..cfg.placement.nodes)
            .map(|node| factory.make(NodeInit::for_node(&cfg, &ledger, NodeId(node))))
            .collect();

        let trace = cfg.trace_allocations.then(AllocTrace::new);
        let seed = cfg.seed;

        Simulation {
            engine: Engine::new_with(cfg.queue),
            rng: SmallRng::seed_from_u64(seed),
            network: Network::for_config(&cfg),
            containers,
            done_scratch: Vec::new(),
            ledger,
            fx_scratch: Vec::new(),
            inflight: vec![0; n_slots],
            pools,
            controllers,
            invocations: Vec::new(),
            free_list: Vec::new(),
            arrivals,
            meter,
            trace,
            profile: vec![ProfileAcc::default(); n],
            points: Vec::new(),
            injected: 0,
            completed: 0,
            dropped: 0,
            in_flight: 0,
            peak_in_flight: 0,
            packet_freq_boosts: 0,
            meter_reset_done: false,
            sink: None,
            span_sink: None,
            sampler: SpanSampler::all(),
            next_span_id: 0,
            metrics_sink: None,
            fr_boost_counts: vec![0; n_slots],
            upscale_hint_counts: vec![0; n_slots],
            slack_acc: vec![Vec::new(); n_slots],
            agg: None,
            profiler: None,
            profile_sink: None,
            cfg,
        }
    }

    /// Put `event` on the queue at `at`, ahead of everything `run` seeds:
    /// for tests and drills that need an event the model would not
    /// produce at that point, such as a `PhaseComplete` with nothing due.
    pub fn with_event(mut self, at: SimTime, event: Event) -> Self {
        self.engine.schedule(at, event);
        self
    }

    /// Run to completion and produce the results.
    pub fn run(mut self) -> RunResult {
        // Wall clock for the self-profile only: never read unless the
        // profiler is on, and never fed back into simulation state.
        let wall_start = self.profiler.as_ref().map(|_| Instant::now());
        // The metrics stream self-describes: schema version + cadence
        // header before any sample (interval 0 = per decision cycle).
        if let Some(sink) = &self.metrics_sink {
            sink.emit(TelemetryEvent::MetricsMeta {
                version: METRICS_SCHEMA_VERSION,
                interval_ns: 0,
            });
        }
        // Seed the event loop: first arrival + a tick per node.
        if let Some(first) = self.arrivals.next_arrival() {
            self.engine
                .schedule(first, Event::ClientArrival { arrival_idx: 0 });
        }
        for node in 0..self.cfg.placement.nodes as usize {
            let at = SimTime::ZERO + self.controllers[node].tick_interval();
            self.engine.schedule(
                at,
                Event::ControllerTick {
                    node: NodeId(node as u32),
                },
            );
        }
        for i in 0..self.cfg.faults.faults.len() {
            let f = self.cfg.faults.faults[i];
            self.engine
                .schedule(f.at, Event::FaultStart { idx: i as u32 });
            self.engine
                .schedule(f.end(), Event::FaultEnd { idx: i as u32 });
        }

        let end = self.cfg.end;
        while let Some((now, event)) = self.engine.pop() {
            if !self.meter_reset_done && now >= self.cfg.measure_start {
                self.meter.reset_window(self.cfg.measure_start);
                self.meter_reset_done = true;
            }
            if now > end {
                break;
            }
            if self.profiler.is_some() {
                let phase = Self::classify(&event);
                let t0 = self.profiler.as_mut().expect("checked").begin(phase);
                self.dispatch(now, event);
                self.profiler.as_mut().expect("checked").end(phase, t0);
            } else {
                self.dispatch(now, event);
            }
        }

        let end_time = end;
        let avg_cores = self.meter.avg_cores(end_time, self.cfg.measure_start);
        let energy_j = self.meter.energy_joules(end_time);
        let profile = self
            .profile
            .iter()
            .map(|acc| {
                if acc.requests == 0 {
                    ProfileStats::default()
                } else {
                    ProfileStats {
                        requests: acc.requests,
                        mean_exec_metric: SimDuration::from_nanos(
                            acc.sum_exec_metric / acc.requests,
                        ),
                        mean_exec_time: SimDuration::from_nanos(acc.sum_exec_time / acc.requests),
                        mean_time_from_start: SimDuration::from_nanos(acc.sum_tfs / acc.requests),
                    }
                }
            })
            .collect();

        let events = self.engine.processed();

        // Final cumulative aggregation snapshots: completions after the
        // last decision cycle would otherwise never reach the stream.
        if let (Some(agg), Some(sink)) = (&self.agg, &self.metrics_sink) {
            for event in agg.all_node_events(end_time) {
                sink.emit(event);
            }
        }

        // Finalize the self-profile while the engine and invocation
        // table are still alive (their watermarks come from them).
        if let (Some(p), Some(t0)) = (&mut self.profiler, wall_start) {
            p.mark_max(
                ProfileMark::HeapDepthHighWater,
                self.engine.heap_high_water() as u64,
            );
            p.mark_max(
                ProfileMark::InvocationHighWater,
                self.invocations.len() as u64,
            );
            // Per-level wheel occupancy (schema v2); `None` on the heap
            // backend, where only the total-pending mark applies.
            if let Some(levels) = self.engine.wheel_high_water() {
                for (mark, hw) in ProfileMark::WHEEL_LEVELS.into_iter().zip(levels) {
                    p.mark_max(mark, hw as u64);
                }
            }
            if let Some(overflow) = self.engine.wheel_overflow_high_water() {
                p.mark_max(ProfileMark::WheelOverflowHighWater, overflow as u64);
            }
            let report = p.report(t0.elapsed().as_nanos() as u64);
            if let Some(sink) = &self.profile_sink {
                for event in report.events() {
                    sink.emit(event);
                }
            }
        }

        RunResult {
            points: self.points,
            injected: self.injected,
            completed: self.completed,
            dropped: self.dropped,
            avg_cores,
            energy_j,
            events,
            profile,
            alloc_trace: self.trace,
            peak_in_flight: self.peak_in_flight,
            clamped_actions: self.ledger.clamped(),
            packet_freq_boosts: self.packet_freq_boosts,
        }
    }

    /// Bring slot `c`'s completion timer in line with its container
    /// state; the only caller of `Engine::{arm, disarm}`. Called after
    /// every mutation of the slot, exactly where the tombstoning engine
    /// scheduled a fresh `PhaseComplete` and left the old one to be
    /// popped dead. Two rules keep the live events in that engine's
    /// `(time, seq)` order, and with them the single RNG stream:
    ///
    /// 1. every re-arm takes a fresh `seq` at this call, not the `seq`
    ///    of the timer it replaces;
    /// 2. a slot already armed under its current epoch is left alone.
    ///    Nothing changed since it was armed, so a second event would be
    ///    the same-epoch twin: same time, later `seq`, dead once the
    ///    first fires — the earlier one is the one to keep.
    fn reschedule(&mut self, now: SimTime, c: ContainerId) {
        let epoch = self.containers.epoch(c.index());
        if self.engine.armed_epoch(c) == Some(epoch) {
            return;
        }
        match self.containers.next_completion(c.index(), now) {
            Some(at) => self.engine.arm(c, at, epoch),
            None => self.engine.disarm(c),
        }
    }

    fn alloc_invocation(
        &mut self,
        service: ServiceId,
        slot: ContainerId,
        parent: Option<(InvocationId, u16)>,
        req_start: SimTime,
        meta: RpcMetadata,
        span: Option<HopSpan>,
    ) -> InvocationId {
        let inv = Invocation {
            service,
            slot,
            parent,
            req_start,
            meta_in: meta,
            arrival: SimTime::ZERO,
            conn_wait: SimDuration::ZERO,
            phase: InvPhase::Pre,
            next_child: 0,
            outstanding: 0,
            post_work: SimDuration::ZERO,
            in_use: true,
            span,
        };
        match self.free_list.pop() {
            Some(id) => {
                self.invocations[id as usize] = inv;
                id
            }
            None => {
                self.invocations.push(inv);
                (self.invocations.len() - 1) as InvocationId
            }
        }
    }

    fn free_invocation(&mut self, id: InvocationId) {
        debug_assert!(self.invocations[id as usize].in_use, "double free");
        self.invocations[id as usize].in_use = false;
        self.free_list.push(id);
    }
}

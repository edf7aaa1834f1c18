//! Same-seed heap-vs-wheel equivalence: the calendar-queue engine must
//! be *indistinguishable* from the binary-heap engine it replaced —
//! byte-identical `RunResult`s and byte-identical telemetry, span, and
//! metrics JSONL streams on every paper-sized scenario class (see
//! SCALING.md §1 for the argument; these tests are its enforcement).
//!
//! Three scenario classes cover the event-pattern space:
//!
//! * a Fig. 5-style steady spike run under the full SurgeGuard stack
//!   (packet hooks, DVFS landings, controller ticks);
//! * a chaos run with deterministic fault injection (fault start/end
//!   events scheduled far ahead — they land in outer wheel levels);
//! * a replica-zoo run with horizontal scaling (replica add/retire and
//!   metrics sweeps under a periodic surge).
//!
//! The profiler stream is deliberately excluded: it reports wall-clock
//! timings and backend-specific occupancy watermarks, so it is the one
//! export *expected* to differ across queue backends.

use sg_controllers::{SmartHpaFactory, SurgeGuardFactory};
use sg_core::time::{SimDuration, SimTime};
use sg_experiments::{chaos, ExpProfile};
use sg_loadgen::SpikePattern;
use sg_sim::cluster::SimConfig;
use sg_sim::controller::ControllerFactory;
use sg_sim::runner::{RunResult, Simulation};
use sg_sim::QueueKind;
use sg_telemetry::{SharedSink, SpanSampler, VecSink};
use sg_workloads::{prepare, CalibrationOptions, PreparedWorkload, Workload};
use std::sync::Arc;

/// One run with every comparable export enabled, returning the result
/// plus the rendered JSONL for the trace, span, and metrics streams.
fn run_with_exports(
    cfg: SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: Arc<[SimTime]>,
) -> (RunResult, [String; 3]) {
    let trace = VecSink::shared();
    let spans = VecSink::shared();
    let metrics = VecSink::shared();
    let result = Simulation::new(cfg, factory, arrivals)
        .with_telemetry(Arc::clone(&trace) as SharedSink)
        .with_spans(Arc::clone(&spans) as SharedSink, SpanSampler::rate(1, 4, 7))
        .with_metrics(Arc::clone(&metrics) as SharedSink)
        .run();
    let jsonl = |sink: &Arc<VecSink>| {
        sink.take()
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let streams = [jsonl(&trace), jsonl(&spans), jsonl(&metrics)];
    (result, streams)
}

/// Assert two results are byte-identical, comparing floats by bit
/// pattern (equality up to rounding is not the bar — *same bits* is).
fn assert_results_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.points, b.points, "latency points diverged");
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(
        a.avg_cores.to_bits(),
        b.avg_cores.to_bits(),
        "avg_cores bits diverged: {} vs {}",
        a.avg_cores,
        b.avg_cores
    );
    assert_eq!(
        a.energy_j.to_bits(),
        b.energy_j.to_bits(),
        "energy bits diverged: {} vs {}",
        a.energy_j,
        b.energy_j
    );
    assert_eq!(a.profile, b.profile, "per-container profiles diverged");
    assert_eq!(a.peak_in_flight, b.peak_in_flight);
    assert_eq!(a.clamped_actions, b.clamped_actions);
    assert_eq!(a.packet_freq_boosts, b.packet_freq_boosts);
}

/// The modelled outputs of one scenario as captured at commit 9fd354b,
/// the last tree whose engine tombstoned stale completions. The
/// cross-backend comparison cannot see a change that moves both
/// backends together; these can. `events` is deliberately not pinned:
/// it counts queue pops, not modelled behaviour.
#[derive(Debug, PartialEq)]
struct Pins {
    /// FNV-1a over every point's `(completion, latency)` nanoseconds.
    points_fnv: u64,
    energy_bits: u64,
    avg_cores_bits: u64,
    injected: u64,
    completed: u64,
    dropped: u64,
    clamped_actions: u64,
    packet_freq_boosts: u64,
}

impl Pins {
    fn of(r: &RunResult) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in &r.points {
            for word in [p.completion.as_nanos(), p.latency.as_nanos()] {
                for b in word.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        Pins {
            points_fnv: h,
            energy_bits: r.energy_j.to_bits(),
            avg_cores_bits: r.avg_cores.to_bits(),
            injected: r.injected,
            completed: r.completed,
            dropped: r.dropped,
            clamped_actions: r.clamped_actions,
            packet_freq_boosts: r.packet_freq_boosts,
        }
    }
}

/// Run `cfg` once per queue backend (same seed, same arrivals, same
/// controller stack) and require byte-identical results and exports,
/// and the parent-captured `pins` on both.
fn assert_backends_equivalent(
    cfg: &SimConfig,
    factory: &dyn ControllerFactory,
    arrivals: &Arc<[SimTime]>,
    pins: &Pins,
) {
    let mut heap_cfg = cfg.clone();
    heap_cfg.queue = QueueKind::Heap;
    let (heap, heap_streams) = run_with_exports(heap_cfg, factory, Arc::clone(arrivals));
    let mut wheel_cfg = cfg.clone();
    wheel_cfg.queue = QueueKind::Wheel;
    let (wheel, wheel_streams) = run_with_exports(wheel_cfg, factory, Arc::clone(arrivals));

    assert!(heap.completed > 0, "scenario did not exercise the engine");
    assert_results_identical(&heap, &wheel);
    assert_eq!(
        &Pins::of(&heap),
        pins,
        "heap backend left the parent's pins"
    );
    assert_eq!(
        &Pins::of(&wheel),
        pins,
        "wheel backend left the parent's pins"
    );
    for (name, (h, w)) in ["telemetry", "spans", "metrics"]
        .iter()
        .zip(heap_streams.iter().zip(wheel_streams.iter()))
    {
        assert!(h == w, "{name} JSONL diverged between heap and wheel");
        assert!(
            !h.is_empty(),
            "{name} stream empty — the comparison is vacuous"
        );
    }
}

/// A short but controller-complete scenario window: long enough for
/// warmup, several spike cycles, controller ticks, and retire sweeps.
fn profile() -> ExpProfile {
    ExpProfile {
        trials: 1,
        warmup: SimDuration::from_secs(2),
        measure: SimDuration::from_secs(8),
        base_seed: 4242,
    }
}

fn window_end(p: &ExpProfile) -> SimTime {
    SimTime::ZERO + p.warmup + p.measure
}

fn configure(pw: &PreparedWorkload, p: &ExpProfile) -> SimConfig {
    let mut cfg = pw.cfg.clone();
    cfg.seed = p.base_seed;
    cfg.end = window_end(p) + SimDuration::from_millis(200);
    cfg.measure_start = SimTime::ZERO + p.warmup;
    cfg
}

const FIG05_PINS: Pins = Pins {
    points_fnv: 0xc750_7e19_591d_8c44,
    energy_bits: 0x4085_c7ff_ffff_ffff,
    avg_cores_bits: 0x4041_0000_0000_0000,
    injected: 30000,
    completed: 30000,
    dropped: 0,
    clamped_actions: 0,
    packet_freq_boosts: 0,
};

const CHAOS_PINS: Pins = Pins {
    points_fnv: 0x35bc_2fcc_3569_51fd,
    energy_bits: 0x4090_dd75_7b42_c79d,
    avg_cores_bits: 0x4047_3512_bb51_2bb4,
    injected: 30000,
    completed: 30000,
    dropped: 0,
    clamped_actions: 0,
    packet_freq_boosts: 137,
};

const ZOO_PINS: Pins = Pins {
    points_fnv: 0xc7b2_746e_cfcb_8b91,
    energy_bits: 0x4090_a800_0000_0000,
    avg_cores_bits: 0x404a_0000_0000_0000,
    injected: 30000,
    completed: 30000,
    dropped: 0,
    clamped_actions: 0,
    packet_freq_boosts: 0,
};

#[test]
fn fig05_style_run_is_backend_identical() {
    let p = profile();
    let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    let cfg = configure(&pw, &p);
    let pattern = SpikePattern::periodic(pw.base_rate, 2.0, SimDuration::from_secs(2));
    let arrivals: Arc<[SimTime]> = pattern.arrivals(SimTime::ZERO, window_end(&p)).into();
    let factory = SurgeGuardFactory::full();
    assert_backends_equivalent(&cfg, &factory, &arrivals, &FIG05_PINS);
}

#[test]
fn faulted_chaos_run_is_backend_identical() {
    let p = profile();
    let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    let mut cfg = configure(&pw, &p);
    // A container crash mid-window: fault start/end events are scheduled
    // far in the future relative to packet traffic, so they sit in outer
    // wheel levels (or overflow) and must still fire in exact order.
    cfg.faults = chaos::plan_for("crash", &pw, &p);
    let pattern = SpikePattern::constant(pw.base_rate);
    let arrivals: Arc<[SimTime]> = pattern.arrivals(SimTime::ZERO, window_end(&p)).into();
    let factory = SurgeGuardFactory::full();
    assert_backends_equivalent(&cfg, &factory, &arrivals, &CHAOS_PINS);
}

#[test]
fn replica_zoo_run_is_backend_identical() {
    let p = profile();
    let mut pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    // The replica-zoo setup: horizontal headroom with a per-container
    // core cap, so the HPA actually scales out under the surge.
    pw.cfg.max_replicas = 3;
    pw.cfg.constraints.max_cores = 12;
    for c in &mut pw.cfg.initial_cores {
        *c = (*c).min(12);
    }
    let cfg = configure(&pw, &p);
    let pattern = SpikePattern::periodic(pw.base_rate, 1.75, SimDuration::from_secs(3));
    let arrivals: Arc<[SimTime]> = pattern.arrivals(SimTime::ZERO, window_end(&p)).into();
    let factory = SmartHpaFactory::default();
    assert_backends_equivalent(&cfg, &factory, &arrivals, &ZOO_PINS);
}

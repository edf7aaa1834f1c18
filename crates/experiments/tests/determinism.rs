//! Parallel-vs-serial determinism: everything a figure emits — rendered
//! tables and `--json` rows — must be byte-identical whatever the
//! worker-thread count, and span telemetry must not be perturbed by
//! parallel trial execution. See DESIGN.md "Parallel experiment runner".

use serde_json::Value;
use sg_core::time::{SimDuration, SimTime};
use sg_experiments::parallel::{par_map, set_threads};
use sg_experiments::{fig05, ExpProfile, JsonSink};
use sg_loadgen::SpikePattern;
use sg_sim::runner::Simulation;
use sg_telemetry::{SharedSink, SpanSampler, VecSink};
use sg_workloads::{prepare, CalibrationOptions, Workload};
use std::sync::{Arc, Mutex, OnceLock};

/// `set_threads` is a process-global override, so tests that flip it must
/// not interleave.
fn thread_override_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Render one full figure run — tables plus serialized JSON rows — at a
/// given worker-thread count.
fn fig05_output(threads: usize) -> String {
    set_threads(threads);
    let profile = ExpProfile::quick();
    let mut sink = JsonSink::new();
    let tables = fig05::run(&mut sg_experiments::Suite::new(profile), &mut sink);
    let rendered: String = tables.iter().map(|t| t.render()).collect();
    let json: Value = sink.into_value();
    rendered + &serde_json::to_string_pretty(&json).unwrap()
}

#[test]
fn fig05_parallel_output_is_byte_identical_to_serial() {
    let _guard = thread_override_lock().lock().unwrap();
    let serial = fig05_output(1);
    let parallel = fig05_output(4);
    assert_eq!(serial, parallel);
}

/// Per-trial span JSONL streams (spans enabled via `with_spans`) at a
/// given worker-thread count, assembled in trial order.
fn span_streams(pw: &sg_workloads::PreparedWorkload, threads: usize) -> Vec<String> {
    set_threads(threads);
    let profile = ExpProfile {
        trials: 4,
        warmup: SimDuration::from_secs(1),
        measure: SimDuration::from_secs(2),
        base_seed: 1000,
    };
    let horizon = SimTime::ZERO + profile.warmup + profile.measure;
    let pattern = SpikePattern::constant(pw.base_rate);
    let arrivals: Arc<[SimTime]> = pattern.arrivals(SimTime::ZERO, horizon).into();
    par_map((0..profile.trials).collect::<Vec<_>>(), |i| {
        let factory = sg_controllers::SurgeGuardFactory::full();
        let sink = VecSink::shared();
        let mut cfg = pw.cfg.clone();
        cfg.seed = profile.trial_seed(i);
        cfg.end = horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::ZERO + profile.warmup;
        let r = Simulation::new(cfg, &factory, Arc::clone(&arrivals))
            .with_spans(Arc::clone(&sink) as SharedSink, SpanSampler::rate(1, 4, 7))
            .run();
        assert!(r.completed > 0);
        sink.take()
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    })
}

#[test]
fn span_streams_are_byte_identical_serial_vs_parallel() {
    let _guard = thread_override_lock().lock().unwrap();
    let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    let serial = span_streams(&pw, 1);
    let parallel = span_streams(&pw, 4);
    assert!(serial.iter().any(|s| !s.is_empty()), "no spans recorded");
    assert_eq!(serial, parallel);
}

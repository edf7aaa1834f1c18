//! Self-profiler guard tests: the always-on profiler must be invisible.
//!
//! Two contracts protect the rest of the observability stack from the
//! profiler:
//!
//! * **Determinism** — the sim profiler reads the wall clock but never
//!   sim state or the RNG, so enabling it must leave the decision,
//!   span, and metrics streams *byte-identical* (same JSONL lines, same
//!   order) to an unprofiled run of the same seed.
//! * **Silence when off** — without `--profile-out`, no Profile-family
//!   event may appear in any stream, on either substrate.
//!
//! Plus the live-side acceptance gate: a profiled live smoke run must
//! produce a report whose phase totals cover the audit floor of wall
//! time and pass the structural audit.

use sg_core::time::SimTime;
use sg_live::conformance::two_stage_cfg;
use sg_live::LiveOpts;
use sg_sim::app::ConnModel;
use sg_sim::controller::NoopFactory;
use sg_sim::profile::constant_arrivals;
use sg_sim::runner::Simulation;
use sg_telemetry::{EventFamily, ProfileReport, SharedSink, SpanSampler, TelemetryEvent, VecSink};
use std::sync::Arc;

/// JSONL-serialize an event stream exactly as a `JsonlSink` would.
fn to_lines(events: &[TelemetryEvent]) -> String {
    events
        .iter()
        .map(|e| e.to_json_line())
        .collect::<Vec<_>>()
        .join("\n")
}

struct SimRun {
    decision: String,
    spans: String,
    metrics: String,
    profile: Vec<TelemetryEvent>,
}

/// One fully-instrumented sim run; `profiled` toggles the profiler.
fn sim_run(profiled: bool) -> SimRun {
    let end = SimTime::from_millis(300);
    let cfg = two_stage_cfg(ConnModel::PerRequest, end);
    let arrivals = constant_arrivals(400.0, SimTime::ZERO, end);
    let decision = VecSink::shared();
    let spans = VecSink::shared();
    let metrics = VecSink::shared();
    let profile = VecSink::shared();
    let mut sim = Simulation::new(cfg, &NoopFactory, arrivals)
        .with_telemetry(Arc::clone(&decision) as SharedSink)
        .with_spans(Arc::clone(&spans) as SharedSink, SpanSampler::all())
        .with_metrics(Arc::clone(&metrics) as SharedSink);
    if profiled {
        sim = sim.with_profile(Arc::clone(&profile) as SharedSink);
    }
    sim.run();
    SimRun {
        decision: to_lines(&decision.take()),
        spans: to_lines(&spans.take()),
        metrics: to_lines(&metrics.take()),
        profile: profile.take(),
    }
}

/// Enabling the sim profiler must not perturb a single byte of the
/// decision, span, or metrics exports — it observes the run, it does
/// not participate in it.
#[test]
fn sim_profiling_keeps_exports_byte_identical() {
    let plain = sim_run(false);
    let profiled = sim_run(true);
    assert_eq!(
        plain.decision, profiled.decision,
        "decision trace changed under profiling"
    );
    assert_eq!(
        plain.spans, profiled.spans,
        "span trace changed under profiling"
    );
    assert_eq!(
        plain.metrics, profiled.metrics,
        "metrics timeline changed under profiling"
    );
    assert!(
        !profiled.profile.is_empty(),
        "profiled run emitted no profile records"
    );
}

/// A disabled profiler emits nothing: zero Profile-family events across
/// every sim stream.
#[test]
fn sim_disabled_profiler_emits_zero_events() {
    let plain = sim_run(false);
    assert!(plain.profile.is_empty(), "no profile sink was attached");
    for line in plain
        .decision
        .lines()
        .chain(plain.spans.lines())
        .chain(plain.metrics.lines())
    {
        let event = TelemetryEvent::from_json_line(line).expect("re-parse");
        assert_ne!(
            event.family(),
            EventFamily::Profile,
            "profile event leaked into another stream: {line}"
        );
    }
}

/// The profiled sim report itself is structurally sound: nonzero wall,
/// a dispatch phase for every event the engine processed, consistent
/// sampling counters.
#[test]
fn sim_profile_report_is_structurally_sound() {
    let profiled = sim_run(true);
    let report = ProfileReport::from_events(&profiled.profile).expect("meta header present");
    assert_eq!(report.substrate, "sim");
    report.audit().expect("sim profile audit");
    assert!(
        report.phases.iter().any(|p| p.count > 0),
        "no phase ever ran"
    );
}

/// Live runs without `--profile-out` must not leak Profile-family
/// events either; with it, the report passes the coverage audit — the
/// phase totals account for the audit floor of measured wall time.
#[test]
fn live_profiler_silent_when_off_and_covering_when_on() {
    let end = SimTime::from_millis(300);
    let arrivals = constant_arrivals(400.0, SimTime::ZERO, end);

    // Off: every stream open, profiler absent.
    let decision = VecSink::shared();
    let opts = LiveOpts {
        telemetry: Some(Arc::clone(&decision) as SharedSink),
        ..LiveOpts::default()
    };
    sg_live::run_live_with_stats(
        two_stage_cfg(ConnModel::PerRequest, end),
        &NoopFactory,
        arrivals.clone(),
        opts,
    );
    for event in decision.take() {
        assert_ne!(
            event.family(),
            EventFamily::Profile,
            "profile event leaked with the profiler off"
        );
    }

    // On: the report must exist, name the substrate, and pass the
    // audit (which enforces the live coverage floor).
    let profile = VecSink::shared();
    let opts = LiveOpts {
        profile: Some(Arc::clone(&profile) as SharedSink),
        ..LiveOpts::default()
    };
    sg_live::run_live_with_stats(
        two_stage_cfg(ConnModel::PerRequest, end),
        &NoopFactory,
        arrivals,
        opts,
    );
    let events = profile.take();
    let report = ProfileReport::from_events(&events).expect("meta header present");
    assert_eq!(report.substrate, "live");
    if let Err(findings) = report.audit() {
        panic!("live profile audit failed: {findings:?}");
    }
}

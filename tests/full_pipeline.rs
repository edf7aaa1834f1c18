//! Cross-crate integration tests: the full calibrate → load → control →
//! report pipeline, exercised through the facade crate exactly as a
//! downstream user would.

use surgeguard::controllers::{CaladanFactory, PartiesFactory, SurgeGuardFactory};
use surgeguard::core::time::{SimDuration, SimTime};
use surgeguard::loadgen::{AggregateReport, RunReport, SpikePattern};
use surgeguard::sim::controller::{ControllerFactory, NoopFactory};
use surgeguard::sim::runner::Simulation;
use surgeguard::workloads::{prepare, CalibrationOptions, Workload};

/// Shared 12-second scenario runner.
fn run_workload(
    wl: Workload,
    factory: &dyn ControllerFactory,
    magnitude: f64,
    seed: u64,
) -> (RunReport, surgeguard::sim::runner::RunResult) {
    let pw = prepare(wl, 1, CalibrationOptions::default());
    let pattern = SpikePattern {
        base_rate: pw.base_rate,
        spike_rate: pw.base_rate * magnitude,
        spike_len: SimDuration::from_secs(2),
        period: SimDuration::from_secs(10),
        first_spike: SimTime::from_secs(4),
    };
    let warmup = SimTime::from_secs(2);
    let end = SimTime::from_secs(12);
    let mut cfg = pw.cfg.clone();
    cfg.end = end + SimDuration::from_millis(200);
    cfg.measure_start = warmup;
    cfg.seed = seed;
    let arrivals = pattern.arrivals(SimTime::ZERO, end);
    let result = Simulation::new(cfg, factory, arrivals).run();
    let report = RunReport::from_points(
        &result.points,
        pw.qos,
        warmup,
        end,
        result.avg_cores,
        result.energy_j,
    );
    (report, result)
}

#[test]
fn every_workload_calibrates_and_meets_qos_at_steady_state() {
    for wl in Workload::all() {
        let pw = prepare(wl, 1, CalibrationOptions::default());
        assert!(pw.base_rate > 100.0, "{wl:?}: implausible base rate");
        assert!(pw.qos > pw.e2e_low, "{wl:?}: QoS below low-load latency");
        let total: u32 = pw.cfg.initial_cores.iter().sum();
        assert!(
            total <= 34,
            "{wl:?}: initial allocation {total} exceeds the 34-core budget"
        );

        // At the base rate with static allocation, the QoS limit should
        // be met for the overwhelming majority of requests (it was set
        // from this distribution's P98 with headroom).
        let pattern = SpikePattern::constant(pw.base_rate);
        let mut cfg = pw.cfg.clone();
        cfg.end = SimTime::from_secs(8);
        cfg.measure_start = SimTime::from_secs(2);
        let arrivals = pattern.arrivals(SimTime::ZERO, SimTime::from_secs(8));
        let r = Simulation::new(cfg, &NoopFactory, arrivals).run();
        let rep = RunReport::from_points(
            &r.points,
            pw.qos,
            SimTime::from_secs(2),
            SimTime::from_secs(8),
            r.avg_cores,
            r.energy_j,
        );
        assert!(
            rep.violation_rate < 0.05,
            "{wl:?}: {}% violating at steady state",
            rep.violation_rate * 100.0
        );
    }
}

#[test]
fn surgeguard_beats_parties_on_every_fixed_pool_workload() {
    for wl in [Workload::Chain, Workload::ReadUserTimeline] {
        let (p, _) = run_workload(wl, &PartiesFactory, 1.75, 5);
        let (s, _) = run_workload(wl, &SurgeGuardFactory::full(), 1.75, 5);
        assert!(
            s.violation_volume <= p.violation_volume,
            "{wl:?}: SG {} vs Parties {}",
            s.violation_volume,
            p.violation_volume
        );
    }
}

#[test]
fn caladan_never_upscales_connection_per_request_workloads() {
    let pw = prepare(Workload::RecommendHotel, 1, CalibrationOptions::default());
    let pattern = SpikePattern::periodic(pw.base_rate, 1.75, SimDuration::from_secs(2));
    let mut cfg = pw.cfg.clone();
    cfg.end = SimTime::from_secs(14);
    cfg.measure_start = SimTime::from_secs(2);
    cfg.trace_allocations = true;
    let arrivals = pattern.arrivals(SimTime::ZERO, SimTime::from_secs(14));
    let r = Simulation::new(cfg, &CaladanFactory, arrivals).run();
    let upscales = r
        .alloc_trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(|e| e.cores > pw.cfg.initial_cores[e.container.index()])
        .count();
    assert_eq!(
        upscales, 0,
        "no queues exist under connection-per-request: CaladanAlgo must stay blind"
    );
}

#[test]
fn full_determinism_across_the_whole_stack() {
    let (a, ra) = run_workload(Workload::Chain, &SurgeGuardFactory::full(), 1.75, 7);
    let (b, rb) = run_workload(Workload::Chain, &SurgeGuardFactory::full(), 1.75, 7);
    assert_eq!(ra.points, rb.points);
    assert_eq!(ra.events, rb.events);
    assert_eq!(a.violation_volume, b.violation_volume);
    assert_eq!(a.energy_j, b.energy_j);
}

#[test]
fn surgeguard_steady_state_is_quiet() {
    // Without surges, SurgeGuard must not churn: no fast-path boosts, no
    // runaway allocation drift (paper: FirstResponder "does not change the
    // load-latency curve of the application at steady state").
    let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    let pattern = SpikePattern::constant(pw.base_rate);
    let mut cfg = pw.cfg.clone();
    cfg.end = SimTime::from_secs(12);
    cfg.measure_start = SimTime::from_secs(2);
    let arrivals = pattern.arrivals(SimTime::ZERO, SimTime::from_secs(12));
    let r = Simulation::new(cfg, &SurgeGuardFactory::full(), arrivals).run();
    assert_eq!(r.packet_freq_boosts, 0, "no boosts at steady state");
    let initial: u32 = pw.cfg.initial_cores.iter().sum();
    assert!(
        (r.avg_cores - initial as f64).abs() <= 4.0,
        "allocation should stay near the initial {initial}, got {:.1}",
        r.avg_cores
    );
}

#[test]
fn multi_node_round_robin_works_end_to_end() {
    let pw = prepare(Workload::ReadUserTimeline, 2, CalibrationOptions::default());
    let pattern = SpikePattern::periodic(pw.base_rate, 1.75, SimDuration::from_secs(2));
    let mut cfg = pw.cfg.clone();
    cfg.end = SimTime::from_secs(14);
    cfg.measure_start = SimTime::from_secs(2);
    let arrivals = pattern.arrivals(SimTime::ZERO, SimTime::from_secs(14));
    let r = Simulation::new(cfg, &SurgeGuardFactory::full(), arrivals).run();
    assert!(r.completed > 0);
    assert_eq!(r.dropped, 0);
    // Cross-node traffic means higher base latency than single-node.
    let single = prepare(Workload::ReadUserTimeline, 1, CalibrationOptions::default());
    assert!(pw.e2e_low > single.e2e_low);
}

#[test]
fn aggregate_report_protocol_runs_over_trials() {
    let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
    let pattern = SpikePattern::periodic(pw.base_rate, 1.5, SimDuration::from_secs(2));
    let reports: Vec<RunReport> = (0..3)
        .map(|i| {
            let mut cfg = pw.cfg.clone();
            cfg.end = SimTime::from_secs(12);
            cfg.measure_start = SimTime::from_secs(2);
            cfg.seed = 100 + i;
            let arrivals = pattern.arrivals(SimTime::ZERO, SimTime::from_secs(12));
            let r = Simulation::new(cfg, &SurgeGuardFactory::full(), arrivals).run();
            RunReport::from_points(
                &r.points,
                pw.qos,
                SimTime::from_secs(2),
                SimTime::from_secs(12),
                r.avg_cores,
                r.energy_j,
            )
        })
        .collect();
    let agg = AggregateReport::from_reports(&reports);
    assert_eq!(agg.trials, 3);
    assert!(agg.p98_s > 0.0);
}

//! hotelReservation `recommendHotel` — the connection-per-request workload
//! where queue-watching controllers go blind.
//!
//! gRPC-style connection-per-request never forms explicit or implicit
//! queues, so CaladanAlgo (whose congestion signal is queueing) never
//! upscales during surges: tiny energy use, huge violation volume
//! (§VI-B). SurgeGuard still wins because its `execMetric` condition and
//! sensitivity-aware allocation don't depend on queues existing.
//!
//! Run with: `cargo run --release --example hotel_comparison`

use surgeguard::controllers::{CaladanFactory, PartiesFactory, SurgeGuardFactory};
use surgeguard::core::time::{SimDuration, SimTime};
use surgeguard::loadgen::{RunReport, SpikePattern};
use surgeguard::sim::controller::ControllerFactory;
use surgeguard::sim::runner::Simulation;
use surgeguard::workloads::{prepare, CalibrationOptions, Workload};

fn main() {
    println!("calibrating hotelReservation:recommendHotel ...");
    let pw = prepare(Workload::RecommendHotel, 1, CalibrationOptions::default());
    println!(
        "  base rate {:.0} req/s, QoS limit {}",
        pw.base_rate, pw.qos
    );

    let pattern = SpikePattern::periodic(pw.base_rate, 1.75, SimDuration::from_secs(2));
    let warmup = SimTime::from_secs(5);
    let end = SimTime::from_secs(35);

    let mut rows = Vec::new();
    for factory in [
        &PartiesFactory as &dyn ControllerFactory,
        &CaladanFactory,
        &SurgeGuardFactory::full(),
    ] {
        let mut cfg = pw.cfg.clone();
        cfg.end = end + SimDuration::from_millis(200);
        cfg.measure_start = warmup;
        cfg.seed = 21;
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
        rows.push((factory.name(), report));
    }

    println!(
        "\n{:<12} {:>14} {:>12} {:>10} {:>10}",
        "controller", "VV (s^2)", "P98", "cores", "energy(J)"
    );
    for (name, r) in &rows {
        println!(
            "{:<12} {:>14.4} {:>12} {:>10.1} {:>10.0}",
            name,
            r.violation_volume,
            format!("{}", r.p98),
            r.avg_cores,
            r.energy_j
        );
    }

    let caladan = rows.iter().find(|(n, _)| *n == "caladan").unwrap();
    let sg = rows.iter().find(|(n, _)| *n == "surgeguard").unwrap();
    if caladan.1.violation_volume > 0.0 {
        println!(
            "\nCaladanAlgo vs SurgeGuard: {:.0}x the violation volume with {:.2}x the energy",
            caladan.1.violation_volume / sg.1.violation_volume.max(1e-12),
            caladan.1.energy_j / sg.1.energy_j.max(1e-12),
        );
        println!(
            "(paper §VI-B: no queues form under connection-per-request, so the \
             queue-driven controller never upscales — cheap but badly violating)"
        );
    }
}

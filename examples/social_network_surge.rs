//! socialNetwork `ReadUserTimeline` under surges — the paper's flagship
//! hidden-dependency workload (fixed-size Thrift threadpools).
//!
//! Runs Parties, CaladanAlgo and SurgeGuard on identical surge traffic
//! and prints (a) the QoS comparison and (b) the Fig. 14-style
//! core-allocation timeline showing where each controller sends cores.
//!
//! Run with: `cargo run --release --example social_network_surge`

use surgeguard::controllers::{CaladanFactory, PartiesFactory, SurgeGuardFactory};
use surgeguard::core::ids::ContainerId;
use surgeguard::core::time::{SimDuration, SimTime};
use surgeguard::loadgen::{RunReport, SpikePattern};
use surgeguard::sim::controller::ControllerFactory;
use surgeguard::sim::runner::Simulation;
use surgeguard::workloads::{prepare, CalibrationOptions, Workload};

fn main() {
    println!("calibrating socialNetwork:readUserTimeline ...");
    let pw = prepare(Workload::ReadUserTimeline, 1, CalibrationOptions::default());
    println!(
        "  base rate {:.0} req/s, QoS limit {}",
        pw.base_rate, pw.qos
    );

    // One 10s surge at 1.75x starting at t=15s (the Fig. 14 scenario).
    let pattern = SpikePattern {
        base_rate: pw.base_rate,
        spike_rate: pw.base_rate * 1.75,
        spike_len: SimDuration::from_secs(10),
        period: SimDuration::from_secs(1000),
        first_spike: SimTime::from_secs(15),
    };
    let warmup = SimTime::from_secs(5);
    let end = SimTime::from_secs(32);

    let services = [
        "user-timeline-service",
        "post-storage-service",
        "post-storage-memcached",
    ];
    let idx = |name: &str| {
        pw.cfg
            .graph
            .services
            .iter()
            .position(|s| s.name == name)
            .unwrap() as u32
    };

    for factory in [
        &PartiesFactory as &dyn ControllerFactory,
        &CaladanFactory,
        &SurgeGuardFactory::full(),
    ] {
        let mut cfg = pw.cfg.clone();
        cfg.end = end + SimDuration::from_millis(200);
        cfg.measure_start = warmup;
        cfg.trace_allocations = true;
        cfg.seed = 7;
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
        println!(
            "\n=== {} === VV {:.4} s^2 | P98 {} | cores {:.1} | energy {:.0} J",
            factory.name(),
            report.violation_volume,
            report.p98,
            report.avg_cores,
            report.energy_j
        );
        // Allocation timeline, sampled each second across the surge.
        let trace = result.alloc_trace.as_ref().unwrap();
        let times: Vec<SimTime> = (12..=28).map(SimTime::from_secs).collect();
        print!("  t(s):                  ");
        for t in &times {
            print!("{:>3}", t.as_secs_f64() as u64);
        }
        println!();
        for name in services {
            let id = idx(name);
            let series = trace.cores_at(ContainerId(id), &times, pw.cfg.initial_cores[id as usize]);
            print!("  {name:<22} ");
            for c in series {
                print!("{c:>3}");
            }
            println!();
        }
    }
    println!(
        "\nExpected shape (paper Fig. 14): Parties/CaladanAlgo pile cores onto \
         user-timeline-service (it shows the inflated latency); SurgeGuard also \
         feeds post-storage downstream and revokes cores it stops needing."
    );
}

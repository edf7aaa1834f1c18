//! Fig. 14 — core allocations over time for `readUserTimeline` during a
//! 10 s 1.75× surge starting at t = 15 s.
//!
//! Paper expectations: Parties and CaladanAlgo keep feeding
//! `user-timeline-service` (it shows the inflated latency) until it holds
//! close to half the machine, starving `post-storage-service` and
//! `post-storage-memcached`; SurgeGuard spreads cores across the chain
//! and revokes them again mid-surge when sensitivity says they stopped
//! helping.

use crate::common::run_one;
use crate::output::{JsonSink, Table};
use crate::parallel::par_map;
use crate::suite::{Arm, Suite};
use serde_json::json;
use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::SpikePattern;
use sg_workloads::Workload;

/// Services plotted, matching the paper's figure.
pub(crate) const SERVICES: [&str; 3] = [
    "user-timeline-service",
    "post-storage-service",
    "post-storage-memcached",
];

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let seed = suite.profile.base_seed;
    let pw = suite.prepared(Workload::ReadUserTimeline, 1);
    let pattern = SpikePattern {
        base_rate: pw.base_rate,
        spike_rate: pw.base_rate * 1.75,
        spike_len: SimDuration::from_secs(10),
        period: SimDuration::from_secs(1000),
        first_spike: SimTime::from_secs(15),
    };
    let idx_of = |name: &str| {
        pw.cfg
            .graph
            .services
            .iter()
            .position(|s| s.name == name)
            .expect("service exists") as u32
    };
    let ids: Vec<u32> = SERVICES.iter().map(|n| idx_of(n)).collect();
    let sample_times: Vec<SimTime> = (10..=30).map(SimTime::from_secs).collect();

    // Three independent traced runs, one per controller.
    let results = par_map(Arm::PAPER.to_vec(), |arm| {
        let (warmup, measure) = (SimDuration::from_secs(5), SimDuration::from_secs(27));
        let factory = arm.factory();
        run_one(&pw, factory.as_ref(), &pattern, warmup, measure, seed, true).1
    });

    let mut tables = Vec::new();
    for (arm, result) in Arm::PAPER.iter().zip(&results) {
        let name = arm.label();
        let trace = result.alloc_trace.as_ref().expect("trace enabled");
        let mut t = Table::new(
            &format!("Fig 14 — {name}: cores over time (surge 15s-25s at 1.75x)"),
            &["t (s)", SERVICES[0], SERVICES[1], SERVICES[2]],
        );
        let series: Vec<Vec<u32>> = ids
            .iter()
            .map(|&id| {
                trace.cores_at(
                    ContainerId(id),
                    &sample_times,
                    pw.cfg.initial_cores[id as usize],
                )
            })
            .collect();
        for (i, at) in sample_times.iter().enumerate() {
            t.row(vec![
                format!("{:.0}", at.as_secs_f64()),
                series[0][i].to_string(),
                series[1][i].to_string(),
                series[2][i].to_string(),
            ]);
        }
        sink.push(json!({
            "experiment": "fig14",
            "controller": name,
            "services": SERVICES,
            "t_s": sample_times.iter().map(|t| t.as_secs_f64()).collect::<Vec<_>>(),
            "cores": series,
        }));
        tables.push(t);
    }
    tables
}

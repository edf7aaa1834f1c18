//! Fig. 6 — sensitivity curves: execution time vs allocated cores for two
//! services of socialNetwork.
//!
//! The paper contrasts `post-store`, whose curve keeps dropping with more
//! cores (worth upscaling), against `user-timeline`, whose curve flattens
//! early (holds 7 cores when 4 would do). The curves here are measured
//! the same way the controller's online profiler would see them: mean
//! `execMetric` at the base request rate while holding one service at a
//! sweep allocation.

use crate::output::{JsonSink, Table};
use crate::parallel::par_map;
use crate::suite::{Arm, Suite};
use serde_json::json;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::profile::constant_arrivals;
use sg_sim::runner::Simulation;
use sg_workloads::Workload;
use std::sync::Arc;

/// Sweep range of logical cores.
pub(crate) const CORE_SWEEP: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let seed = suite.profile.base_seed;
    let pw = suite.prepared(Workload::ReadUserTimeline, 1);
    let targets = ["post-storage-mongodb", "user-timeline-service"].map(|name| {
        let services = &pw.cfg.graph.services;
        services
            .iter()
            .position(|s| s.name == name)
            .expect("service exists")
    });

    let mut t = Table::new(
        "Fig 6 — sensitivity curves: mean execMetric (us) vs allocated cores at base rate",
        &["cores", "post-storage-mongodb", "user-timeline-service"],
    );
    // 6 sweep points × 2 services = 12 independent single runs; the
    // arrival schedule is shared (seed-free) across all of them.
    let arrivals: Arc<[SimTime]> =
        constant_arrivals(pw.base_rate, SimTime::ZERO, SimTime::from_secs(5)).into();
    let samples = par_map(CORE_SWEEP.to_vec(), |cores| {
        targets.map(|idx| {
            let mut cfg = pw.cfg.clone();
            cfg.initial_cores[idx] = cores;
            cfg.end = SimTime::from_secs(5) + SimDuration::from_millis(200);
            cfg.measure_start = SimTime::from_secs(1);
            cfg.seed = seed;
            let factory = Arm::Static.factory();
            let r = Simulation::new(cfg, factory.as_ref(), Arc::clone(&arrivals)).run();
            r.profile[idx].mean_exec_metric.as_nanos() as f64 / 1000.0
        })
    });

    for (cores, [s0, s1]) in CORE_SWEEP.into_iter().zip(samples) {
        t.row(vec![
            cores.to_string(),
            format!("{s0:.0}"),
            format!("{s1:.0}"),
        ]);
        sink.push(json!({
            "experiment": "fig06",
            "cores": cores,
            "post_storage_mongodb_us": s0,
            "user_timeline_service_us": s1,
        }));
    }
    vec![t]
}

//! Fig. 6 — sensitivity curves: execution time vs allocated cores for two
//! services of socialNetwork.
//!
//! The paper contrasts `post-store`, whose curve keeps dropping with more
//! cores (worth upscaling), against `user-timeline`, whose curve flattens
//! early (holds 7 cores when 4 would do). The curves here are measured
//! the same way the controller's online profiler would see them: mean
//! `execMetric` at the base request rate while holding one service at a
//! sweep allocation.

use crate::common::ExpProfile;
use crate::output::{JsonSink, Table};
use serde_json::json;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::NoopFactory;
use sg_sim::profile::constant_arrivals;
use sg_sim::runner::Simulation;
use sg_workloads::{prepare, CalibrationOptions, Workload};

/// Sweep range of logical cores.
pub const CORE_SWEEP: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// Run the experiment.
pub fn run(profile: &ExpProfile, sink: &mut JsonSink) -> Vec<Table> {
    let pw = prepare(Workload::ReadUserTimeline, 1, CalibrationOptions::default());
    let svc_idx = |name: &str| {
        pw.cfg
            .graph
            .services
            .iter()
            .position(|s| s.name == name)
            .expect("service exists")
    };
    let targets = [
        ("post-storage-mongodb", svc_idx("post-storage-mongodb")),
        ("user-timeline-service", svc_idx("user-timeline-service")),
    ];

    let mut t = Table::new(
        "Fig 6 — sensitivity curves: mean execMetric (us) vs allocated cores at base rate",
        &["cores", "post-storage-mongodb", "user-timeline-service"],
    );
    // 2 services × 6 sweep points = 12 independent single runs; the
    // arrival schedule is shared (seed-free) across all of them.
    let arrivals: std::sync::Arc<[SimTime]> =
        constant_arrivals(pw.base_rate, SimTime::ZERO, SimTime::from_secs(5)).into();
    let jobs: Vec<(usize, u32)> = targets
        .iter()
        .flat_map(|&(_, idx)| CORE_SWEEP.iter().map(move |&c| (idx, c)))
        .collect();
    let samples = crate::parallel::par_map(jobs, |(idx, cores)| {
        let mut cfg = pw.cfg.clone();
        cfg.initial_cores[idx] = cores;
        cfg.end = SimTime::from_secs(5) + SimDuration::from_millis(200);
        cfg.measure_start = SimTime::from_secs(1);
        cfg.seed = profile.base_seed;
        let r = Simulation::new(cfg, &NoopFactory, std::sync::Arc::clone(&arrivals)).run();
        r.profile[idx].mean_exec_metric.as_nanos() as f64 / 1000.0
    });

    for (i, &cores) in CORE_SWEEP.iter().enumerate() {
        let (s0, s1) = (samples[i], samples[CORE_SWEEP.len() + i]);
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

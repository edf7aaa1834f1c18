//! Fig. 5 — the threading-model hidden dependency, demonstrated live:
//! which containers each controller upscales during a surge on a
//! two-service application under both connection models.
//!
//! Expectations (from the paper's figure): a per-container controller
//! (Parties) upscales both services under connection-per-request (a) but
//! only the upstream one under a fixed-size threadpool (b); SurgeGuard's
//! metrics upscale both in both cases (c).

use crate::common::run_one;
use crate::output::{JsonSink, Table};
use crate::parallel::par_map;
use crate::suite::{Arm, Suite};
use serde_json::json;
use sg_core::allocator::AllocConstraints;
use sg_core::config::PROFILE_TARGET_FACTOR;
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::SpikePattern;
use sg_sim::app::{linear_chain, ConnModel};
use sg_sim::cluster::{Placement, SimConfig};
use sg_sim::profile::profile_low_load;
use sg_workloads::PreparedWorkload;
use sg_workloads::Workload;

/// Build the two-service scenario of Fig. 5 (downstream-bottlenecked).
fn two_service(conn: ConnModel) -> PreparedWorkload {
    let graph = linear_chain(
        "c1-c2",
        &[
            SimDuration::from_micros(600),
            SimDuration::from_micros(1200),
        ],
        conn,
        0.1,
    );
    let mut cfg = SimConfig::new(graph, Placement::single_node(2));
    cfg.constraints = AllocConstraints {
        total_cores: 20,
        min_cores: 2,
        max_cores: 20,
        core_step: 2,
    };
    cfg.initial_cores = vec![4, 6];
    cfg.seed = 5;
    let outcome = profile_low_load(
        cfg.clone(),
        300.0,
        SimDuration::from_secs(2),
        PROFILE_TARGET_FACTOR,
    );
    cfg.params = outcome.params;
    cfg.e2e_low_load = outcome.e2e_mean;
    PreparedWorkload {
        workload: Workload::Chain, // placeholder tag; scenario is custom
        cfg,
        base_rate: 3000.0,
        qos: outcome.e2e_p98.mul_f64(2.0),
        e2e_low: outcome.e2e_mean,
    }
}

fn peak(r: &sg_sim::runner::RunResult, id: u32, initial: u32) -> u32 {
    r.alloc_trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(|e| e.container.0 == id)
        .map(|e| e.cores)
        .max()
        .unwrap_or(initial)
}

/// Run the experiment.
pub fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let seed = suite.profile.base_seed;
    let pattern_for = |base: f64| SpikePattern {
        base_rate: base,
        spike_rate: base * 1.75,
        spike_len: SimDuration::from_secs(30),
        period: SimDuration::from_secs(1000),
        first_spike: SimTime::from_secs(3),
    };
    let cases = [
        (
            "(a) per-request + per-container ctrl",
            ConnModel::PerRequest,
            Arm::Parties,
        ),
        (
            "(b) fixed pool + per-container ctrl",
            ConnModel::FixedPool(10),
            Arm::Parties,
        ),
        (
            "(c) fixed pool + SurgeGuard",
            ConnModel::FixedPool(10),
            Arm::SurgeGuard,
        ),
    ];

    // Each case profiles its own two-service scenario and runs one traced
    // trial — fully independent, so fan the three out.
    let peaks = par_map(cases.to_vec(), |(_, conn, arm)| {
        let factory = arm.factory();
        let pw = two_service(conn);
        let pattern = pattern_for(pw.base_rate);
        let (_, result) = run_one(
            &pw,
            factory.as_ref(),
            &pattern,
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            seed,
            true,
        );
        (peak(&result, 0, 4), peak(&result, 1, 6))
    });

    let mut t = Table::new(
        "Fig 5 — who gets upscaled during a 1.75x surge (peak cores, initial c1=4 c2=6)",
        &["case", "c1 peak", "c2 peak", "c1 upscaled", "c2 upscaled"],
    );
    for (&(name, _, _), (c1, c2)) in cases.iter().zip(peaks) {
        t.row(vec![
            name.to_string(),
            c1.to_string(),
            c2.to_string(),
            if c1 > 4 { "yes" } else { "NO" }.to_string(),
            if c2 > 6 { "yes" } else { "NO" }.to_string(),
        ]);
        sink.push(json!({
            "experiment": "fig05",
            "case": name,
            "c1_peak": c1,
            "c2_peak": c2,
        }));
    }
    vec![t]
}

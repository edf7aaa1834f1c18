//! §VII extension experiment — ML-class controller vs SurgeGuard vs the
//! hybrid deployment.
//!
//! The paper's Discussion proposes running heavy ML controllers (Sage,
//! Sinan) for periodic steady-state re-baselining with SurgeGuard
//! guarding transients in between, "without negatively impacting the
//! QoS". This experiment quantifies that: an ML-class controller alone
//! (global knowledge, > 1 s decision pipeline), SurgeGuard alone, and the
//! hybrid, all under the §VI-B surge protocol.

use crate::output::{JsonSink, Table};
use crate::suite::{Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_loadgen::trimmed_mean;
use sg_workloads::Workload;

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let arms = [Arm::MlCentralized, Arm::SurgeGuard, Arm::Hybrid];
    let pattern = PatternSpec::periodic(1.75, 2000);
    let keys =
        arms.map(|a| BatchKey::new(Workload::ReadUserTimeline, 1, pattern, a, suite.profile));
    let batches = suite.run_batches(&keys);
    let mut t = Table::new(
        "§VII extension — ML-class vs SurgeGuard vs hybrid (readUserTimeline, 1.75x surges)",
        &[
            "controller",
            "VV (s^2)",
            "P98 (ms)",
            "avg cores",
            "energy (J)",
        ],
    );
    for (arm, b) in arms.iter().zip(&batches) {
        let arm = arm.label();
        let (vv, cores, energy) = (b.violation_volume, b.avg_cores, b.energy_j);
        let p98_ms: Vec<f64> = b
            .reports
            .iter()
            .map(|r| r.p98.as_secs_f64() * 1e3)
            .collect();
        let p98 = trimmed_mean(&p98_ms);
        t.row(vec![
            arm.to_string(),
            format!("{vv:.4}"),
            format!("{p98:.1}"),
            format!("{cores:.1}"),
            format!("{energy:.0}"),
        ]);
        sink.push(json!({
            "experiment": "hybrid",
            "controller": arm,
            "vv": vv,
            "p98_ms": p98,
            "cores": cores,
            "energy_j": energy,
        }));
    }
    vec![t]
}

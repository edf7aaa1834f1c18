//! Fig. 15 — per-component breakdown of Escalator over the Parties base
//! allocator: Parties alone, Parties + new metrics, Parties + sensitivity,
//! and the complete Escalator.
//!
//! Paper expectations: the new metrics help only the fixed-threadpool
//! workload (`readUserTimeline` −23.5 % VV; `recommendHotel` unchanged
//! since `execMetric = execTime` without pools); sensitivity-based
//! allocation helps both (−28 % / −63 % VV, −5 % / −8 % cores); combined
//! they compound (−74 % average).

use crate::common::ratio;
use crate::output::{fr, JsonSink, Table};
use crate::suite::{Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_workloads::Workload;

/// Run the experiment.
pub fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let ablation = |metrics, sens| Arm::Ablation { metrics, sens };
    let arms = [
        Arm::Parties,
        ablation(true, false),
        ablation(false, true),
        ablation(true, true),
    ];
    let workloads = [Workload::ReadUserTimeline, Workload::RecommendHotel];
    let grid = suite.grid(workloads, arms, |wl, arm| {
        BatchKey::new(wl, 1, PatternSpec::periodic(1.75, 2000), arm, profile)
    });

    let mut tables = Vec::new();
    for (wl, [base, ablations @ ..]) in grid {
        let pw = suite.prepared(wl, 1);
        let mut t = Table::new(
            &format!(
                "Fig 15 — Escalator component breakdown, {} (normalized to Parties)",
                pw.cfg.graph.name
            ),
            &["configuration", "VV ratio", "cores ratio"],
        );
        t.row(vec!["parties".into(), "1.00".into(), "1.00".into()]);
        sink.push(json!({
            "experiment": "fig15", "workload": wl.label(), "arm": "parties",
            "vv": base.violation_volume, "cores": base.avg_cores,
        }));
        for (arm, a) in arms[1..].iter().zip(ablations) {
            let name = arm.label();
            t.row(vec![
                name.to_string(),
                fr(ratio(a.violation_volume, base.violation_volume)),
                fr(ratio(a.avg_cores, base.avg_cores)),
            ]);
            sink.push(json!({
                "experiment": "fig15", "workload": wl.label(), "arm": name,
                "vv": a.violation_volume, "cores": a.avg_cores,
                "vv_ratio": ratio(a.violation_volume, base.violation_volume),
                "cores_ratio": ratio(a.avg_cores, base.avg_cores),
            }));
        }
        tables.push(t);
    }
    tables
}

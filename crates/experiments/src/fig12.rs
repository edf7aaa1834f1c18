//! Fig. 12 — effect of surge duration (0.1 s – 5 s at 1.75×) on
//! `recommendHotel` (connection-per-request) and `readUserTimeline`
//! (fixed threadpool), SurgeGuard normalized to Parties and CaladanAlgo.
//!
//! Paper expectations: SurgeGuard wins at every duration and its margin
//! grows with duration (43.4 % → 56.5 % over the baselines from 0.1 s to
//! 5 s); against CaladanAlgo on `recommendHotel` the violation-volume gap
//! becomes enormous (~251× at 5 s) while CaladanAlgo burns much less
//! energy (it simply never upscales).

use crate::common::ratio;
use crate::output::{fr, JsonSink, Table};
use crate::suite::{by_arm, Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_workloads::Workload;

/// Surge durations in milliseconds.
pub(crate) const DURATIONS_MS: [u64; 5] = [100, 500, 1000, 2000, 5000];

/// Run the experiment.
pub fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let workloads = [Workload::RecommendHotel, Workload::ReadUserTimeline];
    let rows = workloads.map(|wl| DURATIONS_MS.map(|ms| (wl, ms)));
    let grid = suite.grid(rows.into_iter().flatten(), Arm::PAPER, |(wl, ms), arm| {
        BatchKey::new(wl, 1, PatternSpec::periodic(1.75, ms), arm, profile)
    });

    let mut tables = Vec::new();
    for wl in workloads {
        let pw = suite.prepared(wl, 1);
        let mut t = Table::new(
            &format!(
                "Fig 12 — surge duration sweep at 1.75x, {} (SG normalized to baselines)",
                pw.cfg.graph.name
            ),
            &[
                "duration",
                "VV sg/parties",
                "VV sg/caladan",
                "cores sg/parties",
                "energy sg/parties",
                "energy sg/caladan",
            ],
        );
        for &((_, ms), ref arms) in grid.iter().filter(|((w, _), _)| *w == wl) {
            let [p, c, s] = arms;
            t.row(vec![
                format!("{:.1}s", ms as f64 / 1000.0),
                fr(ratio(s.violation_volume, p.violation_volume)),
                fr(ratio(s.violation_volume, c.violation_volume)),
                fr(ratio(s.avg_cores, p.avg_cores)),
                fr(ratio(s.energy_j, p.energy_j)),
                fr(ratio(s.energy_j, c.energy_j)),
            ]);
            sink.push(json!({
                "experiment": "fig12",
                "workload": wl.label(),
                "duration_ms": ms,
                "vv": by_arm(&Arm::PAPER, arms, |b| b.violation_volume),
                "cores": by_arm(&Arm::PAPER, arms, |b| b.avg_cores),
                "energy": by_arm(&Arm::PAPER, arms, |b| b.energy_j),
            }));
        }
        tables.push(t);
    }
    tables
}

//! Fig. 13 — node scaling: 1, 2 and 4 nodes with services spread
//! round-robin, 1.75× surges of 2 s every 10 s, SurgeGuard normalized to
//! Parties and CaladanAlgo.
//!
//! Paper expectations: SurgeGuard wins everywhere; its *resource* margin
//! grows with node count (cores −6.5 % → −16.4 %, energy −14.2 % →
//! −28.3 % vs the baselines) because the baselines inefficiently spend
//! the growing spare-core pool, while its *violation-volume* margin
//! shrinks (67.2 % → 51.4 %) because spreading containers lowers the odds
//! that one container hogs a node's cores.

use crate::common::ratio;
use crate::output::{fr, JsonSink, Table};
use crate::suite::{by_arm, Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_workloads::Workload;

/// Node counts evaluated.
pub(crate) const NODES: [u32; 3] = [1, 2, 4];

/// Run the experiment. The quick profile averages two representative
/// workloads; the full profile uses all five.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let workloads: Vec<Workload> = if profile.is_full() {
        Workload::all().to_vec()
    } else {
        vec![Workload::ReadUserTimeline, Workload::RecommendHotel]
    };
    let rows = NODES
        .iter()
        .flat_map(|&n| workloads.iter().map(move |&wl| (n, wl)));
    let grid = suite.grid(rows, Arm::PAPER, |(n, wl), arm| {
        BatchKey::new(wl, n, PatternSpec::periodic(1.75, 2000), arm, profile)
    });

    let mut t = Table::new(
        "Fig 13 — node scaling at 1.75x (2s/10s), SG normalized to baselines (workload avg)",
        &[
            "nodes",
            "VV sg/parties",
            "VV sg/caladan",
            "cores sg/parties",
            "cores sg/caladan",
            "energy sg/parties",
            "energy sg/caladan",
        ],
    );
    for nodes in NODES {
        let mut sums = [0.0f64; 6];
        let mut counts = [0.0f64; 6];
        for ((_, wl), arms) in grid.iter().filter(|((n, _), _)| *n == nodes) {
            let [p, c, s] = arms;
            let rs = [
                ratio(s.violation_volume, p.violation_volume),
                ratio(s.violation_volume, c.violation_volume),
                ratio(s.avg_cores, p.avg_cores),
                ratio(s.avg_cores, c.avg_cores),
                ratio(s.energy_j, p.energy_j),
                ratio(s.energy_j, c.energy_j),
            ];
            for i in 0..6 {
                if rs[i].is_finite() {
                    sums[i] += rs[i];
                    counts[i] += 1.0;
                }
            }
            sink.push(json!({
                "experiment": "fig13",
                "nodes": nodes,
                "workload": wl.label(),
                "vv": by_arm(&Arm::PAPER, arms, |b| b.violation_volume),
                "cores": by_arm(&Arm::PAPER, arms, |b| b.avg_cores),
                "energy": by_arm(&Arm::PAPER, arms, |b| b.energy_j),
            }));
        }
        let avg = |i: usize| {
            if counts[i] > 0.0 {
                sums[i] / counts[i]
            } else {
                f64::INFINITY
            }
        };
        t.row(vec![
            nodes.to_string(),
            fr(avg(0)),
            fr(avg(1)),
            fr(avg(2)),
            fr(avg(3)),
            fr(avg(4)),
            fr(avg(5)),
        ]);
    }
    vec![t]
}

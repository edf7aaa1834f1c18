//! Fig. 11 — long surges: normalized violation volume, cores and energy
//! for 1.25×/1.5×/1.75× request-rate surges (2 s every 10 s), across all
//! five workloads, for Parties / CaladanAlgo / SurgeGuard.
//!
//! Paper expectations: SurgeGuard reduces violation volume vs Parties by
//! ~19 % (1.25×), ~43 % (1.5×) and ~61 % (1.75×) on average, with 2–8 %
//! fewer cores and 2–4 % less energy; CaladanAlgo collapses on the
//! connection-per-request hotel workloads.

use crate::common::ratio;
use crate::output::{fr, JsonSink, Table};
use crate::suite::{by_arm, Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_workloads::Workload;

/// Surge magnitudes evaluated (×base rate).
pub(crate) const MAGNITUDES: [f64; 3] = [1.25, 1.5, 1.75];

/// Run the experiment; returns the printed tables.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let rows = MAGNITUDES.map(|m| Workload::all().map(|wl| (m, wl)));
    let grid = suite.grid(rows.into_iter().flatten(), Arm::PAPER, |(m, wl), arm| {
        BatchKey::new(wl, 1, PatternSpec::periodic(m, 2000), arm, profile)
    });

    let mut tables = Vec::new();
    for mag in MAGNITUDES {
        let mut t = Table::new(
            &format!("Fig 11 — {mag}x surge (2s every 10s), normalized to Parties"),
            &[
                "workload",
                "VV parties (s^2)",
                "VV sg/p",
                "VV cal/p",
                "cores sg/p",
                "cores cal/p",
                "energy sg/p",
                "energy cal/p",
            ],
        );
        let mut sums = [0.0f64; 6];
        let mut n = 0.0;
        for ((_, wl), arms) in grid.iter().filter(|((m, _), _)| *m == mag) {
            let [p, c, s] = arms;
            let r = [
                ratio(s.violation_volume, p.violation_volume),
                ratio(c.violation_volume, p.violation_volume),
                ratio(s.avg_cores, p.avg_cores),
                ratio(c.avg_cores, p.avg_cores),
                ratio(s.energy_j, p.energy_j),
                ratio(c.energy_j, p.energy_j),
            ];
            for (acc, v) in sums.iter_mut().zip(r) {
                if v.is_finite() {
                    *acc += v;
                }
            }
            n += 1.0;
            t.row(vec![
                wl.label().to_string(),
                format!("{:.3e}", p.violation_volume),
                fr(r[0]),
                fr(r[1]),
                fr(r[2]),
                fr(r[3]),
                fr(r[4]),
                fr(r[5]),
            ]);
            sink.push(json!({
                "experiment": "fig11",
                "workload": wl.label(),
                "magnitude": mag,
                "vv": by_arm(&Arm::PAPER, arms, |b| b.violation_volume),
                "cores": by_arm(&Arm::PAPER, arms, |b| b.avg_cores),
                "energy": by_arm(&Arm::PAPER, arms, |b| b.energy_j),
                "p98_s": by_arm(&Arm::PAPER, arms, |b| b.p98_s),
            }));
        }
        t.row(vec![
            "AVG".to_string(),
            "-".to_string(),
            fr(sums[0] / n),
            fr(sums[1] / n),
            fr(sums[2] / n),
            fr(sums[3] / n),
            fr(sums[4] / n),
            fr(sums[5] / n),
        ]);
        tables.push(t);
    }
    tables
}

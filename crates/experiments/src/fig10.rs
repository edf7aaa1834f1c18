//! Fig. 10 — short surges on CHAIN: FirstResponder vs Escalator alone.
//!
//! The paper injects 20× instantaneous-rate surges of 100 µs and 2 ms and
//! finds FirstResponder cuts the violation volume by 98 % / 88 % over
//! Escalator alone, with the relative benefit shrinking as the surge
//! lengthens (Escalator eventually sees longer surges in its averaged
//! windows). Surge lengths here are scaled to this testbed's lower base
//! rates (see DESIGN.md): the regime boundaries — "invisible to window
//! averages" vs "long enough for the slow path" — are what is reproduced.

use crate::common::ratio;
use crate::output::{pct_change, JsonSink, Table};
use crate::suite::{Arm, BatchKey, PatternSpec, Suite};
use serde_json::json;
use sg_core::time::SimDuration;
use sg_workloads::Workload;

/// Surge lengths (µs) evaluated; 20× instantaneous rate, every 100 ms.
pub(crate) const SURGE_US: [u64; 4] = [500, 1000, 2000, 5000];

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    // Short-surge profile: lots of surges, shorter window is enough.
    let mut prof = suite.profile;
    prof.measure = SimDuration::from_secs(10).min(prof.measure);
    let arms = [Arm::EscalatorOnly, Arm::SurgeGuard];
    let grid = suite.grid(SURGE_US, arms, |us, arm| {
        BatchKey::new(
            Workload::Chain,
            1,
            PatternSpec::ShortSurge { us },
            arm,
            prof,
        )
    });

    let mut t = Table::new(
        "Fig 10 — short 20x surges on CHAIN: FirstResponder benefit",
        &[
            "surge len",
            "VV escalator-only (s^2)",
            "VV full SG (s^2)",
            "VV change",
        ],
    );
    for (us, [r_esc, r_full]) in grid {
        let rel = ratio(r_full.violation_volume, r_esc.violation_volume);
        t.row(vec![
            format!("{}us", us),
            format!("{:.3e}", r_esc.violation_volume),
            format!("{:.3e}", r_full.violation_volume),
            pct_change(rel),
        ]);
        sink.push(json!({
            "experiment": "fig10",
            "surge_us": us,
            "vv_escalator": r_esc.violation_volume,
            "vv_full": r_full.violation_volume,
            "vv_ratio": rel,
        }));
    }
    vec![t]
}

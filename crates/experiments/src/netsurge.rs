//! Network-latency-surge experiment — the abstract's second surge class.
//!
//! SurgeGuard is "specifically designed to guard application QoS during
//! surges in load *and network latency*" (§I). The evaluation section
//! only exercises request-rate surges, so this extension injects fabric
//! latency surges instead: for a window, every cross-node hop pays extra
//! delay. FirstResponder's per-packet slack sees the lateness immediately
//! (late packets are late regardless of cause) and boosts the receiving
//! containers so the downstream work catches back up.

use crate::common::ExpProfile;
use crate::output::{JsonSink, Table};
use crate::suite::{by_arm, Arm, BatchKey, PatternSpec, Suite, Tweak};
use serde_json::json;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::network::LatencySurge;
use sg_workloads::Workload;

/// Extra one-way fabric latencies injected.
pub(crate) const EXTRA_US: [u64; 3] = [200, 500, 1000];

/// The injected surge: `extra_us` on every cross-node hop, from 5 s to
/// 7 s into the measurement window.
pub(crate) fn surge(extra_us: u64, profile: &ExpProfile) -> LatencySurge {
    LatencySurge {
        start: SimTime::ZERO + profile.warmup + SimDuration::from_secs(5),
        end: SimTime::ZERO + profile.warmup + SimDuration::from_secs(7),
        extra: SimDuration::from_micros(extra_us),
    }
}

/// Run the experiment: 2-node readUserTimeline (so RPCs actually cross
/// the fabric), constant base load, one 2 s latency surge.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let arms = [Arm::Static, Arm::Parties, Arm::SurgeGuard];
    let grid = suite.grid(EXTRA_US, arms, |us, arm| {
        let wl = Workload::ReadUserTimeline;
        BatchKey::new(wl, 2, PatternSpec::Constant, arm, profile).tweaked(Tweak::LatencySurge(us))
    });

    let mut t = Table::new(
        "Extension — network latency surges (2 nodes, 2s surges every 10s)",
        &[
            "extra hop latency",
            "VV static (s^2)",
            "VV parties",
            "VV surgeguard",
            "SG boosts/run",
        ],
    );
    for (extra, batches) in &grid {
        let [st, pa, sg] = batches;
        let boosts = sg.boosts.iter().sum::<u64>() / sg.boosts.len() as u64;
        t.row(vec![
            format!("{extra}us"),
            format!("{:.4}", st.violation_volume),
            format!("{:.4}", pa.violation_volume),
            format!("{:.4}", sg.violation_volume),
            boosts.to_string(),
        ]);
        sink.push(json!({
            "experiment": "netsurge",
            "extra_us": extra,
            "vv": by_arm(&arms, batches, |b| b.violation_volume),
            "sg_boosts": boosts,
        }));
    }
    vec![t]
}

//! Chaos — controllers under deterministic fault injection.
//!
//! The paper evaluates SurgeGuard against load surges; this figure asks
//! what the same controllers do when the *infrastructure* misbehaves.
//! CHAIN runs at its calibrated base rate across two nodes — steady
//! load, so the injected fault is the only disturbance — and each arm
//! (Parties, Caladan, SurgeGuard, SurgeGuard-H) faces every fault class
//! of the [`sg_core::fault`] plan DSL in turn: a container crash, the
//! loss of a whole node, a connection-pool leak on the first edge,
//! cross-node network jitter, and a straggling replica. One fault per
//! run, injected 30% into the measurement window for a tenth of it,
//! identical across arms and paired by seed.
//!
//! Reported per (fault, arm): trimmed-mean violation volume, P98,
//! energy, and average cores, with the violation volume normalized two
//! ways — against Parties under the same fault (the paper's baseline)
//! and against the same arm's fault-free run (the degradation factor).

use crate::common::{ratio, ExpProfile};
use crate::output::{fr, JsonSink, Table};
use crate::suite::{Arm, BatchKey, PatternSpec, Suite, Tweak};
use serde_json::json;
use sg_core::fault::{FaultKind, FaultPlan, FaultSpec};
use sg_core::ids::{NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};
use sg_sim::app::ConnModel;
use sg_workloads::{PreparedWorkload, Workload};

/// The evaluated line-up; Parties first — rows normalize to it.
pub(crate) const ARMS: [Arm; 4] = [Arm::Parties, Arm::Caladan, Arm::SurgeGuard, Arm::SgH];

/// Fault classes, `none` first (the per-arm degradation baseline).
pub(crate) const FAULTS: [&str; 6] = [
    "none",
    "crash",
    "node-loss",
    "pool-leak",
    "jitter",
    "straggler",
];

/// Connections to leak: three quarters of the first edge's calibrated
/// pool, leaving the parent a sliver of capacity far below the base
/// rate's Little's-law requirement.
fn leak_connections(pw: &PreparedWorkload) -> u32 {
    match pw.cfg.graph.services[0].children[0].conn {
        ConnModel::FixedPool(n) => (n * 3 / 4).max(1),
        ConnModel::PerRequest => panic!("CHAIN edges are fixed pools"),
    }
}

/// The fault plan for one class: a single fault starting 30% into the
/// measurement window, lasting a tenth of it (3 s under the quick
/// profile) — long enough to build a real backlog, short enough that
/// recovery and drain are both inside the window.
pub fn plan_for(fault: &str, pw: &PreparedWorkload, profile: &ExpProfile) -> FaultPlan {
    let at = SimTime::ZERO + profile.warmup + profile.measure.mul_f64(0.3);
    let duration = profile.measure.mul_f64(0.1);
    let kind = match fault {
        "none" => return FaultPlan::default(),
        "crash" => FaultKind::ContainerCrash {
            service: ServiceId(2),
        },
        "node-loss" => FaultKind::NodeLoss { node: NodeId(1) },
        "pool-leak" => FaultKind::PoolLeak {
            service: ServiceId(1),
            connections: leak_connections(pw),
        },
        "jitter" => FaultKind::NetworkJitter {
            extra: SimDuration::from_millis(1),
        },
        "straggler" => FaultKind::Straggler {
            service: ServiceId(2),
            replica: 0,
            slowdown: 4.0,
        },
        other => panic!("unknown fault class '{other}'"),
    };
    FaultPlan {
        faults: vec![FaultSpec { at, duration, kind }],
    }
}

/// Run the experiment: CHAIN over two nodes (round-robin placement, so
/// node 1 hosts services 1 and 3 and every edge is a remote hop — the
/// node-loss and jitter faults need both).
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    let grid = suite.grid(FAULTS, ARMS, |fault, arm| {
        BatchKey::new(Workload::Chain, 2, PatternSpec::Constant, arm, profile)
            .tweaked(Tweak::Fault(fault))
    });
    let (_, clean) = &grid[0];

    let mut t = Table::new(
        "Chaos — fault injection on CHAIN at base rate (one fault per run, 30% into the \
         window, 10% of it long)",
        &[
            "fault",
            "controller",
            "VV (s^2)",
            "VV vs parties",
            "VV vs fault-free",
            "P98 (ms)",
            "energy (J)",
            "avg cores",
        ],
    );
    for &(fault, ref batches) in &grid {
        let base_vv = batches[0].violation_volume;
        for ((arm, r), clean) in ARMS.iter().zip(batches).zip(clean) {
            let clean_vv = clean.violation_volume;
            t.row(vec![
                fault.to_string(),
                arm.label().to_string(),
                format!("{:.3e}", r.violation_volume),
                fr(ratio(r.violation_volume, base_vv)),
                fr(ratio(r.violation_volume, clean_vv)),
                format!("{:.2}", r.p98_s * 1e3),
                format!("{:.1}", r.energy_j),
                format!("{:.1}", r.avg_cores),
            ]);
            sink.push(json!({
                "experiment": "chaos",
                "fault": fault,
                "controller": arm.label(),
                "vv": r.violation_volume,
                "vv_vs_parties": ratio(r.violation_volume, base_vv),
                "vv_vs_clean": ratio(r.violation_volume, clean_vv),
                "p98_s": r.p98_s,
                "energy_j": r.energy_j,
                "avg_cores": r.avg_cores,
            }));
        }
    }
    vec![t]
}

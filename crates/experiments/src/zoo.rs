//! Zoo — the horizontal-autoscaler comparison the paper leaves open:
//! when does fast vertical scaling beat (or compose with) capacity-adding
//! horizontal scaling?
//!
//! The spike protocol runs unchanged across five controllers —
//! Parties and SurgeGuard (vertical-only), LSRAM (gradient-descent SLO
//! allocation, arXiv:2411.11493), Smart HPA (resource-efficient pod
//! autoscaling, arXiv:2403.07909), and SurgeGuard-H (SurgeGuard plus a
//! slow replica tier) — on a node whose per-container core cap is far
//! below its total budget, so vertical controllers saturate per
//! container while horizontal ones can spend the spare budget on
//! replicas. Every arm sees the same cap, the same replica ceiling, and
//! paired seeds.
//!
//! Reported per arm: trimmed-mean violation volume, P98, energy, and
//! average cores across the trial batch, plus the replica-count
//! timeline of a metrics-enabled run reconstructed with
//! [`sg_telemetry::timeline::TimelineSet`] and the end-of-run replica
//! counts scraped from a [`MetricsRegistry`] fed by the same stream.

use crate::common::ratio;
use crate::output::{fr, JsonSink, Table};
use crate::parallel::par_map;
use crate::suite::{Arm, BatchKey, PatternSpec, Suite, Tweak};
use serde_json::json;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::time::{SimDuration, SimTime};
use sg_sim::runner::Simulation;
use sg_telemetry::timeline::TimelineSet;
use sg_telemetry::{MetricId, MetricsRegistry, SharedSink, TelemetrySink, VecSink};
use sg_workloads::{PreparedWorkload, Workload};
use std::sync::Arc;

/// Replica ceiling per service group.
pub(crate) const MAX_REPLICAS: u32 = 3;

/// Per-container core cap. This is the knob that makes the comparison
/// interesting: well below the node budget, so a vertical controller
/// saturates per container while a horizontal one keeps going.
pub(crate) const MAX_CORES: u32 = 12;

/// The evaluated line-up; Parties first — the zoo normalizes to it.
pub(crate) const ARMS: [Arm; 5] = [
    Arm::Parties,
    Arm::SurgeGuard,
    Arm::Lsram,
    Arm::SmartHpa,
    Arm::SgH,
];

/// Horizontal scaling enabled and the per-container cap applied
/// (identically for every arm).
pub(crate) fn cap(pw: &mut PreparedWorkload) {
    pw.cfg.max_replicas = MAX_REPLICAS;
    pw.cfg.constraints.max_cores = MAX_CORES;
    for c in &mut pw.cfg.initial_cores {
        *c = (*c).min(MAX_CORES);
    }
}

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let profile = suite.profile;
    // The standard periodic spike protocol (Fig. 12) at its longest
    // surge duration: 5 s at 1.75x every 10 s — long enough that
    // capacity, not just reaction time, decides the outcome.
    let spec = PatternSpec::periodic(1.75, 5000);
    let keys =
        ARMS.map(|a| BatchKey::new(Workload::Chain, 1, spec, a, profile).tweaked(Tweak::ZooCaps));
    let aggs = suite.run_batches(&keys);
    // Every arm's key differs only in the controller: one scenario.
    let (pw, pattern) = suite.scenario(&keys[0]);
    let n_services = pw.cfg.graph.len();
    let w_end = SimTime::ZERO + profile.warmup + profile.measure;

    let sample_times: Vec<SimTime> = (0..=(w_end.as_secs_f64() / 2.0) as u64)
        .map(|i| SimTime::ZERO + SimDuration::from_secs(2 * i))
        .collect();

    // Beside each arm's trial batch, one metrics-enabled run for the
    // total active replicas every 2 s and the end-of-run replica count
    // per service.
    let results = par_map(ARMS.to_vec(), |arm| {
        let factory = arm.factory();
        let mut cfg = pw.cfg.clone();
        cfg.end = w_end + SimDuration::from_millis(200);
        cfg.measure_start = SimTime::ZERO + profile.warmup;
        cfg.seed = profile.base_seed;
        let metrics = VecSink::shared();
        let arrivals = pattern.arrivals(SimTime::ZERO, w_end);
        let result = Simulation::new(cfg, factory.as_ref(), arrivals)
            .with_metrics(Arc::clone(&metrics) as SharedSink)
            .run();
        assert!(result.completed > 0);
        let events = metrics.take();

        // The PR-5 pipeline both ways: the full gauge history through
        // TimelineSet, the current values through a MetricsRegistry —
        // the same stream a live `--scrape` endpoint would serve.
        let set = TimelineSet::from_events(events.iter());
        let registry = MetricsRegistry::new();
        for e in &events {
            registry.emit(e.clone());
        }
        let timeline: Vec<f64> = sample_times
            .iter()
            .map(|&at| {
                (0..n_services)
                    .map(|s| {
                        set.value_at(s as u32, MetricId::Replicas, at)
                            .unwrap_or(1.0)
                    })
                    .sum()
            })
            .collect();
        let final_replicas: Vec<f64> = (0..n_services)
            .map(|s| {
                registry
                    .get(NodeId(0), ContainerId(s as u32), MetricId::Replicas)
                    .unwrap_or(1.0)
            })
            .collect();
        (timeline, final_replicas)
    });

    let base_vv = aggs[0].violation_volume;
    let base_energy = aggs[0].energy_j;

    let mut t = Table::new(
        &format!(
            "Zoo — autoscalers on the spike protocol (5s surges at 1.75x, {MAX_CORES}-core \
             container cap, up to {MAX_REPLICAS} replicas)"
        ),
        &[
            "controller",
            "VV (s^2)",
            "VV vs parties",
            "P98 (ms)",
            "energy (J)",
            "energy vs parties",
            "avg cores",
            "peak replicas",
        ],
    );
    for ((arm, (timeline, final_replicas)), agg) in ARMS.iter().zip(&results).zip(&aggs) {
        let name = arm.label();
        let peak_replicas = timeline.iter().copied().fold(f64::MIN, f64::max);
        t.row(vec![
            name.to_string(),
            format!("{:.3e}", agg.violation_volume),
            fr(ratio(agg.violation_volume, base_vv)),
            format!("{:.2}", agg.p98_s * 1e3),
            format!("{:.1}", agg.energy_j),
            fr(ratio(agg.energy_j, base_energy)),
            format!("{:.1}", agg.avg_cores),
            format!("{peak_replicas:.0}"),
        ]);
        sink.push(json!({
            "experiment": "zoo",
            "controller": name,
            "vv": agg.violation_volume,
            "vv_vs_parties": ratio(agg.violation_volume, base_vv),
            "p98_s": agg.p98_s,
            "energy_j": agg.energy_j,
            "energy_vs_parties": ratio(agg.energy_j, base_energy),
            "avg_cores": agg.avg_cores,
            "peak_replicas": peak_replicas,
            "final_replicas": final_replicas.clone(),
            "replica_timeline_t_s": sample_times.iter().map(|t| t.as_secs_f64()).collect::<Vec<_>>(),
            "replica_timeline": timeline.clone(),
        }));
    }

    let mut header: Vec<&str> = vec!["t (s)"];
    header.extend(ARMS.map(Arm::label));
    let mut tt = Table::new(
        &format!("Zoo — total active replicas over time ({n_services} services, 1 each at start)"),
        &header,
    );
    for (i, &at) in sample_times.iter().enumerate() {
        tt.row(
            std::iter::once(format!("{:.0}", at.as_secs_f64()))
                .chain(
                    results
                        .iter()
                        .map(|(timeline, _)| format!("{:.0}", timeline[i])),
                )
                .collect(),
        );
    }

    vec![t, tt]
}

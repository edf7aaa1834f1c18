//! Fig. 7/8 — internal-state timelines during a surge, reconstructed
//! from the metrics stream the run records about itself.
//!
//! The paper's Figs. 7 and 8 plot what SurgeGuard's two loops are doing
//! from the inside while a spike passes through: FirstResponder's
//! frequency boosts land within microseconds of the first late packets,
//! then Escalator's core reallocations take over on its 100 ms cadence
//! and the boosts retire. This experiment reproduces that view through
//! the same pipeline a user of `--metrics` gets: the run records its
//! per-cycle gauge timeline, the timeline is reconstructed with
//! [`sg_telemetry::timeline::TimelineSet`], and — the part that makes it
//! a claim rather than a plot — every alloc and boost event in the
//! decision trace is reconciled against the gauge series, exactly what
//! `sg-trace timeline --reconcile` asserts.

use crate::output::{JsonSink, Table};
use crate::suite::{Arm, Suite};
use serde_json::json;
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::SpikePattern;
use sg_sim::runner::Simulation;
use sg_telemetry::timeline::{reconcile, TimelineSet};
use sg_telemetry::{MetricId, SharedSink, VecSink};
use sg_workloads::Workload;
use std::sync::Arc;

/// Run the experiment.
pub fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let pw = suite.prepared(Workload::Chain, 1);
    let pattern = SpikePattern {
        base_rate: pw.base_rate,
        spike_rate: pw.base_rate * 1.75,
        spike_len: SimDuration::from_secs(2),
        period: SimDuration::from_secs(1000),
        first_spike: SimTime::from_secs(10),
    };
    let end = SimTime::from_secs(16);
    let mut cfg = pw.cfg.clone();
    cfg.end = end + SimDuration::from_millis(200);
    cfg.measure_start = SimTime::from_secs(5);
    cfg.seed = suite.profile.base_seed;

    let metrics = VecSink::shared();
    let trace = VecSink::shared();
    let factory = Arm::SurgeGuard.factory();
    let arrivals = pattern.arrivals(SimTime::ZERO, end);
    let result = Simulation::new(cfg, factory.as_ref(), arrivals)
        .with_telemetry(Arc::clone(&trace) as SharedSink)
        .with_metrics(Arc::clone(&metrics) as SharedSink)
        .run();
    assert!(result.completed > 0);

    let metric_events = metrics.take();
    let set = TimelineSet::from_events(metric_events.iter());
    let trace_events = trace.take();
    let grace = set
        .median_interval()
        .unwrap_or(SimDuration::from_millis(1))
        .max(SimDuration::from_millis(1));
    let report = reconcile(&set, &trace_events, grace);

    let containers = set.containers();
    let names: Vec<&str> = containers
        .iter()
        .map(|&c| pw.cfg.graph.services[c as usize].name.as_str())
        .collect();

    // Sample the reconstructed timeline every 500 ms across the surge
    // window (spike at 10 s for 2 s): before, during, and after.
    let sample_times: Vec<SimTime> = (16..=30)
        .map(|half_s| SimTime::ZERO + SimDuration::from_millis(half_s * 500))
        .collect();

    let mut tables = Vec::new();
    for (metric, label) in [
        (MetricId::Cores, "cores"),
        (MetricId::FreqLevel, "DVFS level"),
        (MetricId::FrBoosts, "FR boosts (cumulative)"),
    ] {
        let mut header: Vec<&str> = vec!["t (s)"];
        header.extend(names.iter());
        let mut t = Table::new(
            &format!("Fig 7/8 — {label} over time (surge 10s-12s at 1.75x)"),
            &header,
        );
        for &at in &sample_times {
            let mut row = vec![format!("{:.1}", at.as_secs_f64())];
            for &c in &containers {
                row.push(match set.value_at(c, metric, at) {
                    Some(v) => format!("{v:.0}"),
                    None => "-".into(),
                });
            }
            t.row(row);
        }
        tables.push(t);
    }

    let mut t = Table::new("Fig 7/8 — timeline vs decision trace", &["check", "value"]);
    t.row(vec!["samples".into(), set.samples.to_string()]);
    t.row(vec![
        "trace events confirmed in gauges".into(),
        report.checked.to_string(),
    ]);
    t.row(vec![
        "superseded within grace".into(),
        report.superseded.to_string(),
    ]);
    t.row(vec![
        "reconciled".into(),
        if report.passed() { "yes" } else { "NO" }.into(),
    ]);
    assert!(
        report.passed(),
        "fig7 timeline does not reconcile with its own decision trace:\n{}",
        report.render()
    );
    tables.push(t);

    sink.push(json!({
        "experiment": "fig7",
        "services": names,
        "t_s": sample_times.iter().map(|t| t.as_secs_f64()).collect::<Vec<_>>(),
        "cores": containers.iter().map(|&c| sample_times.iter()
            .map(|&at| set.value_at(c, MetricId::Cores, at).unwrap_or(0.0))
            .collect::<Vec<_>>()).collect::<Vec<_>>(),
        "freq_level": containers.iter().map(|&c| sample_times.iter()
            .map(|&at| set.value_at(c, MetricId::FreqLevel, at).unwrap_or(0.0))
            .collect::<Vec<_>>()).collect::<Vec<_>>(),
        "fr_boosts": containers.iter().map(|&c| sample_times.iter()
            .map(|&at| set.value_at(c, MetricId::FrBoosts, at).unwrap_or(0.0))
            .collect::<Vec<_>>()).collect::<Vec<_>>(),
        "reconcile_checked": report.checked,
        "reconcile_passed": report.passed(),
    }));
    tables
}

//! Fig. 4 — why detection latency matters: an ideal controller with a
//! configurable detection delay handles a single 4 s surge.
//!
//! Paper expectations: relative to a 0.2 ms detection delay, a 0.5 s delay
//! (Parties-class) costs ~5× the violation volume and a 1 s delay
//! (ML-class) ~24×, while also needing 40–75 % more cores to absorb the
//! queued requests.

use crate::common::{ratio, run_one};
use crate::output::{fr, JsonSink, Table};
use crate::suite::Suite;
use serde_json::json;
use sg_controllers::{OracleConfig, OracleFactory, OracleKnowledge};
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::SpikePattern;
use sg_workloads::Workload;

/// Detection delays evaluated: SurgeGuard-class, Parties-class, ML-class.
pub(crate) const DELAYS_MS: [f64; 3] = [0.2, 500.0, 1000.0];

/// Run the experiment.
pub(crate) fn run(suite: &mut Suite, sink: &mut JsonSink) -> Vec<Table> {
    let seed = suite.profile.base_seed;
    let mut pw = (*suite.prepared(Workload::Chain, 1)).clone();
    // Fig. 4 is the paper's illustrative example, not part of the 52-core
    // cluster protocol: the ideal controller must be able to allocate "the
    // exact amount of cores needed", so give the node headroom and make
    // the surge deep enough that queues grow fast while undetected.
    pw.cfg.constraints.total_cores = 128;
    pw.cfg.constraints.max_cores = 128;
    let magnitude = 2.5;

    // One 4 s surge starting 2 s into the window.
    let warmup = SimDuration::from_secs(3);
    let surge_start = SimTime::ZERO + warmup + SimDuration::from_secs(2);
    let surge_len = SimDuration::from_secs(4);
    let measure = SimDuration::from_secs(2) + surge_len + SimDuration::from_secs(6);
    let pattern = SpikePattern {
        base_rate: pw.base_rate,
        spike_rate: pw.base_rate * magnitude,
        spike_len: surge_len,
        period: SimDuration::from_secs(1000),
        first_spike: surge_start,
    };
    let knowledge = OracleKnowledge {
        work: pw.cfg.graph.services.iter().map(|s| s.work_mean).collect(),
    };

    // One independent arm per detection delay.
    let reports = crate::parallel::par_map(DELAYS_MS.to_vec(), |delay_ms| {
        let factory = OracleFactory {
            cfg: OracleConfig {
                surge_start,
                surge_end: surge_start + surge_len,
                spike_rate: pw.base_rate * magnitude,
                base_rate: pw.base_rate,
                delay: SimDuration::from_nanos((delay_ms * 1e6) as u64),
                utilization: 0.75,
                interval: SimDuration::from_micros(100),
            },
            knowledge: knowledge.clone(),
        };
        run_one(&pw, &factory, &pattern, warmup, measure, seed, false).0
    });
    let results: Vec<(f64, _)> = DELAYS_MS.into_iter().zip(reports).collect();

    let base_vv = results[0].1.violation_volume;
    let base_cores = results[0].1.avg_cores;
    let mut t = Table::new(
        "Fig 4 — detection delay vs violation volume (ideal controller, 4s surge at 2.5x)",
        &["delay", "VV (s^2)", "VV ratio", "avg cores", "cores ratio"],
    );
    for (delay_ms, rep) in &results {
        t.row(vec![
            if *delay_ms < 1.0 {
                format!("{:.1}ms", delay_ms)
            } else {
                format!("{:.1}s", delay_ms / 1000.0)
            },
            format!("{:.3e}", rep.violation_volume),
            fr(ratio(rep.violation_volume, base_vv)),
            format!("{:.1}", rep.avg_cores),
            fr(ratio(rep.avg_cores, base_cores)),
        ]);
        sink.push(json!({
            "experiment": "fig04",
            "delay_ms": delay_ms,
            "vv": rep.violation_volume,
            "vv_ratio": ratio(rep.violation_volume, base_vv),
            "avg_cores": rep.avg_cores,
            "cores_ratio": ratio(rep.avg_cores, base_cores),
        }));
    }
    vec![t]
}

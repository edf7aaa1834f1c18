//! The batch memo is exact and scoped to one suite invocation: two
//! figures that share a batch key run it once, their rows equal those of
//! separate invocations, and separate invocations share nothing.

use sg_core::time::SimDuration;
use sg_experiments::{fig12, fig15, ExpProfile, Figure, JsonSink, Suite, SuiteStats};

/// A tiny profile: the comparison is exactness, not the numbers.
fn tiny() -> ExpProfile {
    ExpProfile {
        trials: 1,
        warmup: SimDuration::from_millis(500),
        measure: SimDuration::from_secs(1),
        base_seed: 7,
    }
}

/// Rendered tables, pretty JSON rows and stats of `figures` run in one
/// suite.
fn invoke(figures: &[Figure]) -> (String, Vec<String>, SuiteStats) {
    let mut suite = Suite::new(tiny());
    let mut sink = JsonSink::new();
    let mut tables = String::new();
    for run in figures {
        tables.extend(run(&mut suite, &mut sink).iter().map(|t| t.render()));
    }
    let value = sink.into_value();
    let rows = value.as_array().unwrap().iter();
    let rows = rows
        .map(|r| serde_json::to_string_pretty(r).unwrap())
        .collect();
    (tables, rows, suite.stats)
}

#[test]
fn shared_batches_run_once_and_change_nothing() {
    // fig15's Parties arm is fig12's 2 s Parties batch on both workloads.
    let (tables, rows, stats) = invoke(&[fig12::run, fig15::run]);
    assert_eq!(stats.batches_run, 30 + 8 - 2);
    assert_eq!(stats.batches_reused, 2);
    assert_eq!(stats.prepares, 2);

    let (tables12, rows12, stats12) = invoke(&[fig12::run]);
    let (tables15, rows15, stats15) = invoke(&[fig15::run]);
    assert_eq!((stats12.batches_run, stats12.batches_reused), (30, 0));
    assert_eq!((stats15.batches_run, stats15.batches_reused), (8, 0));
    assert_eq!(
        stats15.prepares, 2,
        "a new suite starts with no calibrations"
    );
    assert_eq!(tables, tables12 + &tables15);
    assert_eq!(rows, [rows12, rows15].concat());
}

//! The committed quick-profile reference (`results/results_quick.json`)
//! must match what the code emits today. The two cheapest figures are
//! rerun in quick mode and their JSON rows compared with the committed
//! ones, so the reference cannot drift silently; regenerate it with
//! `sg-experiments all --json results/results_quick.json`.

use serde_json::Value;
use sg_experiments::{fig05, fig07, ExpProfile, Figure, JsonSink, Suite};

fn pretty_rows(rows: &Value, experiment: &str) -> Vec<String> {
    rows.as_array()
        .expect("a JSON array of rows")
        .iter()
        .filter(|r| r.get("experiment").and_then(Value::as_str) == Some(experiment))
        .map(|r| serde_json::to_string_pretty(r).unwrap())
        .collect()
}

fn assert_matches_reference(run: Figure, experiment: &str) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/results_quick.json"
    );
    let text = std::fs::read_to_string(path).expect("committed quick reference");
    let committed = pretty_rows(&serde_json::from_str(&text).unwrap(), experiment);
    assert!(!committed.is_empty(), "no {experiment} rows in {path}");

    let mut sink = JsonSink::new();
    run(&mut Suite::new(ExpProfile::quick()), &mut sink);
    let fresh = pretty_rows(&sink.into_value(), experiment);
    assert_eq!(fresh, committed, "{experiment} drifted from {path}");
}

#[test]
fn fig05_rows_match_committed_quick_reference() {
    assert_matches_reference(fig05::run, "fig05");
}

#[test]
fn fig07_rows_match_committed_quick_reference() {
    assert_matches_reference(fig07::run, "fig7");
}

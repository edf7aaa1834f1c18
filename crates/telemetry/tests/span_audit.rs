//! `sg-trace` at the process boundary: a drop the relay ring reports
//! for the span family fails the span audit, not the decision audit.

use serde_json::Value;
use sg_core::time::SimTime;
use sg_telemetry::{EventFamily, SpanRecord, TelemetryEvent};
use std::path::PathBuf;
use std::process::Command;

/// Write `events` as a JSONL file named after `name` and run
/// `sg-trace --json` on it; returns the exit code and the parsed report.
fn sg_trace_json(name: &str, events: &[TelemetryEvent]) -> (i32, Value) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("sg-span-audit-{name}-{}.jsonl", std::process::id()));
    let body: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    std::fs::write(&path, body).expect("write the span file");
    let out = Command::new(env!("CARGO_BIN_EXE_sg-trace"))
        .arg("--json")
        .arg(&path)
        .output()
        .expect("run sg-trace");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let report = serde_json::from_str(stdout.trim()).expect("one JSON object");
    (out.status.code().expect("exit code"), report)
}

fn audit<'a>(report: &'a Value, part: &str) -> Vec<&'a str> {
    report
        .get(part)
        .and_then(|p| p.get("audit"))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default()
}

#[test]
fn a_span_family_drop_fails_the_span_audit_and_not_the_decision_audit() {
    let spans: Vec<TelemetryEvent> = (0..3)
        .map(|trace| {
            let start = SimTime::from_micros(100 * trace);
            TelemetryEvent::Span(SpanRecord::request(
                trace,
                trace,
                start,
                start + sg_core::time::SimDuration::from_micros(50),
            ))
        })
        .collect();

    let (code, clean) = sg_trace_json("clean", &spans);
    assert_eq!(code, 0, "{clean:?}");
    assert!(audit(&clean, "spans").is_empty());

    let mut dropped = spans;
    dropped.push(TelemetryEvent::Dropped {
        count: 1,
        family: Some(EventFamily::Span),
    });
    let (code, report) = sg_trace_json("dropped", &dropped);
    assert_eq!(code, 1, "{report:?}");
    assert_eq!(
        report
            .get("spans")
            .and_then(|s| s.get("dropped"))
            .and_then(Value::as_u64),
        Some(1)
    );
    let span_audit = audit(&report, "spans");
    assert!(
        span_audit
            .iter()
            .any(|f| f.contains("span record(s) dropped by the recording pipeline")),
        "{span_audit:?}"
    );
    assert!(
        audit(&report, "decision").is_empty(),
        "{:?}",
        audit(&report, "decision")
    );
}

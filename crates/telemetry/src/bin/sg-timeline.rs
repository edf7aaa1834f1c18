//! `sg-timeline` — render and reconcile a metrics JSONL timeline.
//!
//! Usage: `sg-timeline [--trace PATH] [--reconcile] [--svg PATH]
//! [--json] [--grace-ms MS] METRICS.jsonl`
//!
//! Reads a metrics time-series recorded with `sg-loadtest --metrics`
//! (either backend) and prints per-container timeline tables plus ASCII
//! strip charts — the Fig. 7/8 view of allocation and frequency around a
//! surge.
//!
//! Flags:
//!
//! * `--trace PATH` also load the decision trace recorded alongside the
//!   metrics (same run, `--telemetry PATH`).
//! * `--reconcile` (requires `--trace`) cross-check the two streams:
//!   every `alloc` event must be visible as a step in the matching
//!   `cores`/`freq_level` gauge series, every `fr_boost` event as a step
//!   in the cumulative `fr_boosts` counter. Exits 1 on any mismatch or
//!   on testified drops in either stream.
//! * `--svg PATH` write an SVG strip chart (cores + DVFS level per
//!   container over time).
//! * `--json` machine-readable summary instead of tables.
//! * `--grace-ms MS` supersede/boundary grace window for `--reconcile`;
//!   defaults to the measured sampling interval (min 1 ms).
//!
//! Exit status: 0 clean (and on `--help`), 1 reconcile failure, 2 usage
//! errors.

use sg_core::time::SimDuration;
use sg_telemetry::{
    read_trace, schema_warning, stream_trace, timeline, TelemetryEvent, TimelineSet,
};
use std::path::Path;
use std::process::ExitCode;

fn print_schema_warning(event: &TelemetryEvent) {
    if let Some(warning) = schema_warning(event) {
        eprintln!("sg-timeline: warning: {warning}");
    }
}

const USAGE: &str = "\
usage: sg-timeline [--trace PATH] [--reconcile] [--svg PATH] [--json] [--grace-ms MS] METRICS.jsonl
  render a metrics timeline recorded with sg-loadtest --metrics;
  with --trace + --reconcile, cross-check gauges against the decision trace
";

/// `--help`: usage on stdout, success.
fn help() -> ExitCode {
    print!("{USAGE}");
    ExitCode::SUCCESS
}

/// A usage error: usage on stderr, exit 2.
fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut do_reconcile = false;
    let mut json = false;
    let mut grace_ms: Option<f64> = None;
    let mut metrics_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return help(),
            "--json" => json = true,
            "--reconcile" => do_reconcile = true,
            "--trace" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("sg-timeline: --trace needs a path");
                    return usage();
                };
                trace_path = Some(p.clone());
            }
            "--svg" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("sg-timeline: --svg needs a path");
                    return usage();
                };
                svg_path = Some(p.clone());
            }
            "--grace-ms" => {
                i += 1;
                let Some(ms) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("sg-timeline: --grace-ms needs a millisecond value");
                    return usage();
                };
                if ms.is_nan() || ms < 0.0 {
                    eprintln!("sg-timeline: --grace-ms must be non-negative");
                    return usage();
                }
                grace_ms = Some(ms);
            }
            flag if flag.starts_with("--") => {
                eprintln!("sg-timeline: unknown flag {flag}");
                return usage();
            }
            p => {
                if metrics_path.replace(p.to_string()).is_some() {
                    eprintln!("sg-timeline: more than one metrics file given");
                    return usage();
                }
            }
        }
        i += 1;
    }
    let Some(metrics_path) = metrics_path else {
        return usage();
    };
    if do_reconcile && trace_path.is_none() {
        eprintln!("sg-timeline: --reconcile requires --trace");
        return usage();
    }

    // The metrics file is the large one on a cluster-scale run: stream
    // it line-by-line, folding samples into the timeline incrementally.
    let metrics_stream = match stream_trace(Path::new(&metrics_path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sg-timeline: cannot read {metrics_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut set = TimelineSet::default();
    let metrics_bad_lines = match metrics_stream.for_each(|event| {
        print_schema_warning(&event);
        set.push(&event);
    }) {
        Ok(bad) => bad,
        Err(e) => {
            eprintln!("sg-timeline: read error on {metrics_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    set.seal();

    // The decision trace (reconcile cross-check) is replayed as a whole
    // event set and stays buffered.
    let trace = match &trace_path {
        Some(p) => match read_trace(Path::new(p)) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("sg-timeline: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if let Some(t) = &trace {
        for event in &t.events {
            print_schema_warning(event);
        }
    }

    // Grace: explicit flag, else the measured sampling interval (the
    // natural boundary-race window), floored at 1 ms.
    let grace = match grace_ms {
        Some(ms) => SimDuration::from_nanos((ms * 1_000_000.0) as u64),
        None => set
            .median_interval()
            .unwrap_or(SimDuration::from_millis(1))
            .max(SimDuration::from_millis(1)),
    };

    let report = trace
        .as_ref()
        .filter(|_| do_reconcile)
        .map(|t| timeline::reconcile(&set, &t.events, grace));

    if let Some(svg) = &svg_path {
        if let Err(e) = std::fs::write(svg, set.render_svg()) {
            eprintln!("sg-timeline: cannot write {svg}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if json {
        let reconcile_json = match &report {
            Some(r) => serde_json::json!({
                "passed": r.passed(),
                "checked": r.checked,
                "superseded": r.superseded,
                "tail_skipped": r.tail_skipped,
                "metrics_dropped": r.metrics_dropped,
                "trace_dropped": r.trace_dropped,
                "mismatches": r.mismatches.clone(),
            }),
            None => serde_json::Value::Null,
        };
        let obj = serde_json::json!({
            "schema_version": set.version,
            "interval_ns": set.interval_ns,
            "samples": set.samples,
            "containers": set.containers(),
            "dropped": set.dropped,
            "bad_lines": metrics_bad_lines,
            "reconcile": reconcile_json,
        });
        println!("{obj}");
    } else {
        println!(
            "metrics timeline: {} sample(s), {} container(s), schema v{}",
            set.samples,
            set.containers().len(),
            set.version.map_or("?".to_string(), |v| v.to_string()),
        );
        if set.dropped > 0 {
            println!("  !! {} metrics sample(s) dropped in-flight", set.dropped);
        }
        print!("{}", set.render_tables(20));
        println!();
        print!("{}", set.render_ascii(72));
        if let Some(r) = &report {
            print!("{}", r.render());
            println!("reconcile grace: {:.1} ms", grace.as_nanos() as f64 / 1e6);
        }
    }
    if metrics_bad_lines > 0 {
        eprintln!("sg-timeline: skipped {metrics_bad_lines} unparseable line(s)");
    }

    match &report {
        Some(r) if !r.passed() => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

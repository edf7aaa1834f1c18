//! `sg-trace` — summarize, audit, and watch telemetry JSONL streams.
//!
//! Usage:
//!
//! * `sg-trace [--json] [--qos MS] [--folded PATH] [--profile]
//!   TRACE.jsonl` — summarize a recorded trace.
//! * `sg-trace watch [--json] [--tail] [--qos MS] [--objective PCT]
//!   [--topk N] [--idle-exit SECS] METRICS.jsonl` — fold a
//!   metrics/span stream into a rolling cluster view: merged latency
//!   digest percentiles, SLO burn rates with fast/slow alerts, and the
//!   heavy-hitter loss table (see `sg_telemetry::watch`).
//!
//! Reads traces produced by `sg-loadtest --telemetry` / `--spans` /
//! `--metrics` (or any `JsonlSink`) and prints the per-container
//! allocation timeline, the boost→retire latency distribution, the
//! decision-cycle action histogram, and — when the trace carries span
//! records — the critical-path attribution report for deadline-violating
//! requests.
//!
//! Flags (summarize mode):
//!
//! * `--json`     emit one JSON object (`{"decision": …, "spans": …}`)
//!   instead of the human-readable report.
//! * `--qos MS`   classify violations against this deadline in
//!   milliseconds (fractional OK); defaults to self-calibrating on the
//!   p99 of observed request durations.
//! * `--folded PATH` write the attribution histogram as collapsed
//!   stacks (`client;c0;c1;pool_queue 1234`) for inferno / speedscope.
//! * `--profile`  render a self-profile recorded with `sg-loadtest
//!   --profile-out`: phase table (% of wall, count, p50/p99), watermark
//!   summary, and the explicit self-overhead line. `--folded` then
//!   writes the phase stacks instead of the attribution stacks, and the
//!   exit status reflects the profile audit (zero wall, inconsistent
//!   sampling, live coverage below the floor).
//!
//! Flags (watch mode):
//!
//! * `--tail`     follow the file as it is appended (`tail -f`
//!   semantics), re-rendering when new events arrive.
//! * `--objective PCT` the SLO objective (default 99.9).
//! * `--topk N`   heavy-hitter rows to print (default 8).
//! * `--idle-exit SECS` with `--tail`: exit once no new data has
//!   arrived for this long (CI uses this; default is to follow
//!   forever).
//!
//! Input is **streamed** line-by-line in both modes — a multi-gigabyte
//! `cluster_scale` export folds in constant memory (span records and
//! profile events, which need whole-set analysis, are the only events
//! retained).
//!
//! Any file whose `schema` header names an unknown version is still
//! summarized, with a warning — never silently misparsed.
//!
//! Exit status: 0 on a clean trace, 1 when the clamp/reconciliation
//! audit, the span structural audit, the profile audit, or the watch
//! audit (no aggregation records, cumulative snapshots regressing)
//! finds a mismatch, 2 on usage errors (`--help` exits 0). Unparseable
//! lines are counted
//! and reported, not fatal — a trace truncated by a crash should still
//! summarize.

use sg_core::time::SimDuration;
use sg_telemetry::{
    schema_warning, stream_trace, EventFamily, ProfileReport, SpanRecord, SpanReport,
    SummaryBuilder, TailStream, TelemetryEvent, WatchConfig, Watcher, PROFILE_SCHEMA,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sg-trace [--json] [--qos MS] [--folded PATH] [--profile] TRACE.jsonl
       sg-trace watch [--json] [--tail] [--qos MS] [--objective PCT] [--topk N]
                      [--idle-exit SECS] METRICS.jsonl
  summarize a telemetry trace recorded with sg-loadtest --telemetry/--spans,
  render a self-profile (--profile), or watch a metrics/span stream (watch):
  rolling latency digests, SLO burn rates, and heavy-hitter loss tables
  exits nonzero when the reconciliation, span, profile, or watch audit fails
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

fn print_schema_warning(event: &TelemetryEvent) {
    if let Some(warning) = schema_warning(event) {
        eprintln!("sg-trace: warning: {warning}");
    }
}

/// `--profile` mode: rebuild and render the self-profile report; the
/// exit code is its audit verdict.
fn profile_mode(
    path: &str,
    events: &[TelemetryEvent],
    bad_lines: u64,
    json: bool,
    folded: Option<&str>,
) -> ExitCode {
    let Some(report) = ProfileReport::from_events(events) else {
        eprintln!("sg-trace: no profile records in {path} (record with sg-loadtest --profile-out)");
        return ExitCode::FAILURE;
    };
    if let Some(folded_path) = folded {
        let mut text = report.folded_lines().join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(folded_path, text) {
            eprintln!("sg-trace: cannot write {folded_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let audit = report.audit();
    if json {
        let phases: Vec<serde_json::Value> = report
            .phases
            .iter()
            .map(|p| {
                serde_json::json!({
                    "phase": p.phase.name(),
                    "count": p.count,
                    "sampled": p.sampled,
                    "total_ns": p.total_ns,
                    "p50_ns": p.p50_ns,
                    "p99_ns": p.p99_ns,
                    "max_ns": p.max_ns,
                })
            })
            .collect();
        let marks: Vec<serde_json::Value> = report
            .marks
            .iter()
            .map(|(m, v)| serde_json::json!({"mark": m.name(), "value": v}))
            .collect();
        let obj = serde_json::json!({
            "schema": PROFILE_SCHEMA,
            "version": report.version,
            "substrate": report.substrate,
            "wall_ns": report.wall_ns,
            "phases": phases,
            "marks": marks,
            "audit": audit.as_ref().err().cloned().unwrap_or_default(),
            "bad_lines": bad_lines,
        });
        println!("{obj}");
    } else {
        print!("{}", report.render());
        if let Err(findings) = &audit {
            for finding in findings {
                eprintln!("sg-trace: AUDIT: {finding}");
            }
        }
    }
    if bad_lines > 0 {
        eprintln!("sg-trace: skipped {bad_lines} unparseable line(s)");
    }
    if audit.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_qos_ms(value: Option<&String>) -> Result<SimDuration, ExitCode> {
    let Some(ms) = value.and_then(|v| v.parse::<f64>().ok()) else {
        eprintln!("sg-trace: --qos needs a millisecond value");
        return Err(usage());
    };
    if ms.is_nan() || ms <= 0.0 {
        eprintln!("sg-trace: --qos must be positive");
        return Err(usage());
    }
    Ok(SimDuration::from_nanos((ms * 1_000_000.0) as u64))
}

/// `watch` subcommand: fold a metrics/span stream into a rolling
/// cluster view. Exit code is the watch audit verdict.
fn watch_mode(args: &[String]) -> ExitCode {
    let mut cfg = WatchConfig::default();
    let mut json = false;
    let mut tail = false;
    let mut idle_exit: Option<std::time::Duration> = None;
    let mut path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return help(),
            "--json" => json = true,
            "--tail" => tail = true,
            "--qos" => {
                i += 1;
                match parse_qos_ms(args.get(i)) {
                    Ok(q) => cfg.qos = Some(q),
                    Err(code) => return code,
                }
            }
            "--objective" => {
                i += 1;
                let Some(pct) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("sg-trace: --objective needs a percentage");
                    return usage();
                };
                if !(0.0..100.0).contains(&pct) {
                    eprintln!("sg-trace: --objective must be in [0, 100)");
                    return usage();
                }
                cfg.objective_pct = pct;
            }
            "--topk" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("sg-trace: --topk needs a count");
                    return usage();
                };
                cfg.topk = n.max(1);
            }
            "--idle-exit" => {
                i += 1;
                let Some(secs) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("sg-trace: --idle-exit needs seconds");
                    return usage();
                };
                idle_exit = Some(std::time::Duration::from_secs_f64(secs.max(0.0)));
            }
            flag if flag.starts_with("--") => {
                eprintln!("sg-trace: unknown flag {flag}");
                return usage();
            }
            p => {
                if path.replace(p.to_string()).is_some() {
                    eprintln!("sg-trace: more than one metrics file given");
                    return usage();
                }
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage();
    };

    let mut watcher = Watcher::new(cfg);
    let bad_lines;
    if tail {
        let mut stream = match TailStream::open(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sg-trace: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let poll_every = std::time::Duration::from_millis(200);
        let mut idle = std::time::Duration::ZERO;
        loop {
            let events = match stream.poll() {
                Ok(events) => events,
                Err(e) => {
                    eprintln!("sg-trace: read error on {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if events.is_empty() {
                idle += poll_every;
                if idle_exit.is_some_and(|limit| idle >= limit) {
                    break;
                }
            } else {
                idle = std::time::Duration::ZERO;
                for event in events {
                    print_schema_warning(&event);
                    watcher.push(event);
                }
                if !json {
                    println!(
                        "--- sg-trace watch @ {} ms ---",
                        watcher.last_at.as_nanos() / 1_000_000
                    );
                    print!("{}", watcher.render());
                }
            }
            std::thread::sleep(poll_every);
        }
        bad_lines = stream.bad_lines;
    } else {
        let stream = match stream_trace(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sg-trace: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        bad_lines = match stream.for_each(|event| {
            print_schema_warning(&event);
            watcher.push(event);
        }) {
            Ok(bad) => bad,
            Err(e) => {
                eprintln!("sg-trace: read error on {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let audit = watcher.audit();
    if json {
        println!("{}", watcher.to_json());
    } else {
        print!("{}", watcher.render());
        for finding in &audit {
            eprintln!("sg-trace: AUDIT: {finding}");
        }
    }
    if bad_lines > 0 {
        eprintln!("sg-trace: skipped {bad_lines} unparseable line(s)");
    }
    if audit.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("watch") {
        return watch_mode(&args[1..]);
    }
    let mut json = false;
    let mut profile = false;
    let mut qos: Option<SimDuration> = None;
    let mut folded: Option<String> = None;
    let mut path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return help(),
            "--json" => json = true,
            "--profile" => profile = true,
            "--qos" => {
                i += 1;
                match parse_qos_ms(args.get(i)) {
                    Ok(q) => qos = Some(q),
                    Err(code) => return code,
                }
            }
            "--folded" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("sg-trace: --folded needs a path");
                    return usage();
                };
                folded = Some(p.clone());
            }
            flag if flag.starts_with("--") => {
                eprintln!("sg-trace: unknown flag {flag}");
                return usage();
            }
            p => {
                if path.replace(p.to_string()).is_some() {
                    eprintln!("sg-trace: more than one trace file given");
                    return usage();
                }
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage();
    };

    // Stream the file once, folding the decision summary incrementally.
    // Only span records (whole-set critical-path analysis) and profile
    // events (whole-set phase accounting) are retained in memory.
    let stream = match stream_trace(Path::new(&path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sg-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = SummaryBuilder::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut profile_events: Vec<TelemetryEvent> = Vec::new();
    let bad_lines = match stream.for_each(|event| {
        print_schema_warning(&event);
        if let TelemetryEvent::Span(record) = &event {
            spans.push(*record);
        }
        if profile && event.family() == EventFamily::Profile {
            profile_events.push(event.clone());
        }
        builder.push(event);
    }) {
        Ok(bad) => bad,
        Err(e) => {
            eprintln!("sg-trace: read error on {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if profile {
        return profile_mode(&path, &profile_events, bad_lines, json, folded.as_deref());
    }

    let summary = builder.finish();
    let report = SpanReport::from_records(&spans, qos);

    if let Some(folded_path) = &folded {
        if let Err(e) = std::fs::write(folded_path, report.folded_lines()) {
            eprintln!("sg-trace: cannot write {folded_path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let decision_audit = summary.audit();
    let span_audit = report.audit();

    if json {
        let spans_json = if report.spans > 0 {
            report.to_json()
        } else {
            serde_json::Value::Null
        };
        let obj = serde_json::json!({
            "decision": summary.to_json(),
            "spans": spans_json,
            "bad_lines": bad_lines,
        });
        println!("{obj}");
    } else {
        print!("{}", summary.render());
        if report.spans > 0 {
            print!("{}", report.render());
        }
        for finding in decision_audit.iter().chain(span_audit.iter()) {
            eprintln!("sg-trace: AUDIT: {finding}");
        }
    }
    if bad_lines > 0 {
        eprintln!("sg-trace: skipped {bad_lines} unparseable line(s)");
    }

    if decision_audit.is_empty() && span_audit.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

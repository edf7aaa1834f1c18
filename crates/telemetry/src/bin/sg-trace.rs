//! `sg-trace` — summarize, audit, watch and chart the telemetry JSONL
//! streams `sg-loadtest` records. The modes, flags and exit codes are the
//! tables below (`--help`).
//!
//! Input is streamed line-by-line, so a multi-gigabyte export folds in
//! constant memory; only span records and profile events, which need
//! whole-set analysis, and a `--trace` for reconciliation are kept. A
//! file whose `schema` header names an unknown or newer version is still
//! read, with a warning. Unparseable lines are counted and reported, not
//! fatal: a trace truncated by a crash should still summarize.

use sg_core::cli::{Args, Flag, Operands, Spec};
use sg_core::time::SimDuration;
use sg_telemetry::{
    schema_warning, stream_trace, timeline, EventFamily, ProfileReport, SpanRecord, SpanReport,
    SummaryBuilder, TailStream, TelemetryEvent, TimelineSet, WatchConfig, Watcher, PROFILE_SCHEMA,
};
use std::path::Path;
use std::process::ExitCode;

static SUMMARIZE: Spec = Spec {
    name: "sg-trace",
    flags: &[
        Flag::switch(
            "--json",
            "emit one JSON object ({\"decision\": ..., \"spans\": ...}) instead of the report",
        ),
        Flag::value(
            "--qos",
            "MS",
            "classify violations against this deadline in milliseconds (fractional OK); \
             default: the p99 of observed request durations",
        ),
        Flag::value(
            "--folded",
            "PATH",
            "write the attribution histogram (with --profile: the phase stacks) as \
             collapsed stacks (client;c0;c1;pool_queue 1234) for inferno / speedscope",
        ),
        Flag::switch(
            "--profile",
            "render a self-profile recorded with sg-loadtest --profile-out: phase table \
             (% of wall, count, p50/p99), watermarks and self-overhead; the exit status \
             is the profile audit (zero wall, inconsistent sampling, live coverage below \
             the floor)",
        ),
    ],
    operands: Operands::One("TRACE.jsonl"),
    subcommands: &[&WATCH, &TIMELINE],
    notes: "\
Summarizes a telemetry trace recorded with sg-loadtest --telemetry/--spans,
renders a self-profile (--profile), watches a metrics/span stream (watch:
rolling latency digests, SLO burn rates, heavy-hitter loss tables) or
charts and reconciles the gauge timelines (timeline). Each subcommand takes
--help. Exits 1 when the reconciliation, span, profile, watch or timeline
audit fails, 2 on a usage error.
",
};

static WATCH: Spec = Spec {
    name: "sg-trace watch",
    flags: &[
        Flag::switch("--json", "emit the final view as one JSON object"),
        Flag::switch(
            "--tail",
            "follow the file as it is appended (tail -f), re-rendering when new events arrive",
        ),
        Flag::value(
            "--qos",
            "MS",
            "deadline in milliseconds; default: the one the stream carries",
        ),
        Flag::value(
            "--objective",
            "PCT",
            "SLO objective in [0, 100) (default 99.9)",
        ),
        Flag::value("--topk", "N", "heavy-hitter rows to print (default 8)"),
        Flag::value(
            "--idle-exit",
            "SECS",
            "with --tail: exit once no new data has arrived for this long (default: follow \
             forever)",
        ),
    ],
    operands: Operands::One("METRICS.jsonl"),
    subcommands: &[],
    notes: "",
};

static TIMELINE: Spec = Spec {
    name: "sg-trace timeline",
    flags: &[
        Flag::value(
            "--trace",
            "PATH",
            "also load the decision trace recorded alongside the metrics (same run, \
             sg-loadtest --telemetry)",
        ),
        Flag::switch(
            "--reconcile",
            "with --trace: every alloc event must be a step in the matching cores / \
             freq_level gauge, every fr_boost a step in the fr_boosts counter; exits 1 on a \
             mismatch or on drops in either stream",
        ),
        Flag::value(
            "--svg",
            "PATH",
            "write an SVG strip chart (cores + DVFS level per container over time)",
        ),
        Flag::switch("--json", "machine-readable summary instead of tables"),
        Flag::value(
            "--grace-ms",
            "MS",
            "supersede/boundary grace window for --reconcile; default: the measured \
             sampling interval (min 1 ms)",
        ),
    ],
    operands: Operands::One("METRICS.jsonl"),
    subcommands: &[],
    notes: "",
};

fn main() -> ExitCode {
    let args = SUMMARIZE.parse_or_exit();
    let run = if args.is(&WATCH) {
        watch(&args)
    } else if args.is(&TIMELINE) {
        timeline(&args)
    } else {
        summarize(&args)
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sg-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A mode's outcome: whether its audit passed, or why it could not run.
type Verdict = Result<bool, String>;

/// Stream `path`, checking each event's schema header before `f` sees
/// it; returns the count of unparseable lines.
fn read(path: &str, mut f: impl FnMut(TelemetryEvent)) -> Result<u64, String> {
    let stream = stream_trace(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    stream
        .for_each(|event| {
            warn_schema(&event);
            f(event);
        })
        .map_err(|e| format!("read error on {path}: {e}"))
}

fn warn_schema(event: &TelemetryEvent) {
    if let Some(warning) = schema_warning(event) {
        eprintln!("sg-trace: warning: {warning}");
    }
}

fn report_bad_lines(bad_lines: u64) {
    if bad_lines > 0 {
        eprintln!("sg-trace: skipped {bad_lines} unparseable line(s)");
    }
}

fn print_audit<'a>(findings: impl IntoIterator<Item = &'a String>) {
    for finding in findings {
        eprintln!("sg-trace: AUDIT: {finding}");
    }
}

/// `--qos MS` as a deadline; a value that is not positive is a usage error.
fn deadline(args: &Args) -> Option<SimDuration> {
    let ms: f64 = args.number("--qos")?;
    if ms.is_nan() || ms <= 0.0 {
        args.fail("--qos must be positive");
    }
    Some(SimDuration::from_nanos((ms * 1_000_000.0) as u64))
}

/// Summarize a recorded trace, or with `--profile` render its
/// self-profile. Only span records (whole-set critical-path analysis) and
/// profile events (whole-set phase accounting) are kept in memory.
fn summarize(args: &Args) -> Verdict {
    let (json, profile, qos) = (args.has("--json"), args.has("--profile"), deadline(args));
    let folded = args.value("--folded");
    let path = args.operand();
    let mut builder = SummaryBuilder::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut span_drops = 0;
    let mut profile_events: Vec<TelemetryEvent> = Vec::new();
    let bad_lines = read(path, |event| {
        // Each drop reports to its family's audit: span drops to the
        // span report, every other family's to the summary.
        match &event {
            TelemetryEvent::Span(record) => spans.push(*record),
            TelemetryEvent::Dropped { count, .. } if event.family() == EventFamily::Span => {
                span_drops += count
            }
            _ => {}
        }
        if profile && event.family() == EventFamily::Profile {
            profile_events.push(event.clone());
        }
        builder.push(event);
    })?;
    if profile {
        return render_profile(path, &profile_events, bad_lines, json, folded);
    }

    let summary = builder.finish();
    let mut report = SpanReport::from_records(&spans, qos);
    report.dropped = span_drops;
    if let Some(folded) = folded {
        std::fs::write(folded, report.folded_lines())
            .map_err(|e| format!("cannot write {folded}: {e}"))?;
    }
    let decision_audit = summary.audit();
    let span_audit = report.audit();
    if json {
        let spans_json = if report.spans > 0 || report.dropped > 0 {
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
        if report.spans > 0 || report.dropped > 0 {
            print!("{}", report.render());
        }
        print_audit(decision_audit.iter().chain(span_audit.iter()));
    }
    report_bad_lines(bad_lines);
    Ok(decision_audit.is_empty() && span_audit.is_empty())
}

/// `--profile`: rebuild and render the self-profile report; the verdict is
/// its audit.
fn render_profile(
    path: &str,
    events: &[TelemetryEvent],
    bad_lines: u64,
    json: bool,
    folded: Option<&str>,
) -> Verdict {
    let report = ProfileReport::from_events(events).ok_or_else(|| {
        format!("no profile records in {path} (record with sg-loadtest --profile-out)")
    })?;
    if let Some(folded) = folded {
        let mut text = report.folded_lines().join("\n");
        text.push('\n');
        std::fs::write(folded, text).map_err(|e| format!("cannot write {folded}: {e}"))?;
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
            print_audit(findings);
        }
    }
    report_bad_lines(bad_lines);
    Ok(audit.is_ok())
}

/// `watch`: fold a metrics/span stream into a rolling cluster view; the
/// verdict is the watch audit.
fn watch(args: &Args) -> Verdict {
    let defaults = WatchConfig::default();
    let objective_pct = args.number("--objective").unwrap_or(defaults.objective_pct);
    if !(0.0..100.0).contains(&objective_pct) {
        args.fail("--objective must be in [0, 100)");
    }
    let cfg = WatchConfig {
        qos: deadline(args),
        objective_pct,
        topk: args
            .number("--topk")
            .map_or(defaults.topk, |n: usize| n.max(1)),
    };
    let idle_exit = args
        .number("--idle-exit")
        .map(|secs: f64| std::time::Duration::from_secs_f64(secs.max(0.0)));
    let json = args.has("--json");
    let path = args.operand();

    let mut watcher = Watcher::new(cfg);
    let bad_lines = if args.has("--tail") {
        let mut stream =
            TailStream::open(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
        let poll_every = std::time::Duration::from_millis(200);
        let mut idle = std::time::Duration::ZERO;
        loop {
            let events = stream
                .poll()
                .map_err(|e| format!("read error on {path}: {e}"))?;
            if events.is_empty() {
                idle += poll_every;
                if idle_exit.is_some_and(|limit| idle >= limit) {
                    break;
                }
            } else {
                idle = std::time::Duration::ZERO;
                for event in events {
                    warn_schema(&event);
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
        stream.bad_lines
    } else {
        read(path, |event| watcher.push(event))?
    };

    let audit = watcher.audit();
    if json {
        println!("{}", watcher.to_json());
    } else {
        print!("{}", watcher.render());
        print_audit(&audit);
    }
    report_bad_lines(bad_lines);
    Ok(audit.is_empty())
}

/// `timeline`: render the metrics timeline and, with `--trace` +
/// `--reconcile`, cross-check it against the decision trace; the verdict
/// is the reconciliation.
fn timeline(args: &Args) -> Verdict {
    let reconcile = args.has("--reconcile");
    let trace_path = args.value("--trace");
    if reconcile && trace_path.is_none() {
        args.fail("--reconcile requires --trace");
    }
    let grace_ms: Option<f64> = args.number("--grace-ms");
    if grace_ms.is_some_and(|ms| ms.is_nan() || ms < 0.0) {
        args.fail("--grace-ms must be non-negative");
    }
    let metrics_path = args.operand();

    // The metrics file is the large one on a cluster-scale run: fold its
    // samples into the timeline as they stream by.
    let mut set = TimelineSet::default();
    let bad_lines = read(metrics_path, |event| set.push(&event))?;
    set.seal();
    // The decision trace is replayed as a whole event set.
    let mut trace = Vec::new();
    if let Some(path) = trace_path {
        read(path, |event| trace.push(event))?;
    }

    // Grace: the flag, else the measured sampling interval (the natural
    // boundary-race window), floored at 1 ms.
    let grace = match grace_ms {
        Some(ms) => SimDuration::from_nanos((ms * 1_000_000.0) as u64),
        None => set
            .median_interval()
            .unwrap_or(SimDuration::from_millis(1))
            .max(SimDuration::from_millis(1)),
    };
    let report = reconcile.then(|| timeline::reconcile(&set, &trace, grace));

    if let Some(svg) = args.value("--svg") {
        std::fs::write(svg, set.render_svg()).map_err(|e| format!("cannot write {svg}: {e}"))?;
    }
    if args.has("--json") {
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
            "bad_lines": bad_lines,
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
    report_bad_lines(bad_lines);
    Ok(!matches!(&report, Some(r) if !r.passed()))
}

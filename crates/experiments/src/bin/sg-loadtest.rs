//! `sg-loadtest` — the `wrk2_spike` equivalent (paper artifact A₂).
//!
//! Drives one calibrated workload under a spiking open-loop load and
//! prints what the paper's modified wrk2 prints: a latency histogram and
//! the violation volume. The command line is in [`USAGE`] (`--help`).

use sg_core::fault::FaultPlan;
use sg_core::time::{SimDuration, SimTime};
use sg_experiments::Arm;
use sg_loadgen::{ArrivalProfile, LatencyHistogram, RunReport, SpikePattern};
use sg_sim::runner::Simulation;
use sg_telemetry::{
    topk_unpack, AggConfig, AggRuntime, JsonlSink, SharedSink, SloConfig, SpanSampler,
    TelemetryEvent, PROFILE_SCHEMA, SPANS_SCHEMA, TRACE_SCHEMA,
};
use sg_workloads::{prepare, CalibrationOptions, Workload};
use std::str::FromStr;
use std::sync::Arc;

/// Usage text, printed by `--help` and on a parse error.
const USAGE: &str = "\
usage: sg-loadtest [--workload NAME] [--controller NAME] [--backend NAME]
                   [--nodes N] [--max-replicas N] [--rate R] [--spikerate R]
                   [--spikelen SECS] [--profile SPEC] [--faults PATH]
                   [--duration SECS] [--qos MS] [--seed N]
                   [--telemetry PATH] [--spans PATH] [--span-sample N/M]
                   [--metrics PATH] [--metrics-interval MS]
                   [--metrics-listen ADDR] [--slo-objective PCT]
                   [--profile-out PATH]

  --workload    chain | read | compose | search | reco   (default chain)
  --controller  static | parties | caladan | surgeguard | escalator
                | ml | hybrid | lsram | smart-hpa | sg-h
                                                         (default surgeguard)
                lsram, smart-hpa and sg-h are the horizontal autoscaler
                zoo: they drive `SetReplicas` and need a replica ceiling
                above 1 (the default when one of them is selected is 3)
  --max-replicas
                replica ceiling per service group (default 1, i.e.
                horizontal scaling disabled; 3 for the zoo controllers)
  --backend     sim | live                               (default sim)
                `live` replays the same schedule in real time on the
                wall-clock backend (`sg-live`): the run blocks for
                warmup + duration seconds of actual time.
  --nodes       cluster nodes (default 1)
  --rate        steady request rate; default: the calibrated base rate
  --spikerate   rate during spikes; default: 1.75 x rate
  --spikelen    spike duration in seconds (default 2; 0 disables spikes)
  --profile     arrival shape: spike | diurnal | mmpp | trace:PATH
                (default spike). diurnal swings 0.6-1.6x the base rate
                over a 60 s cycle; mmpp is a 2-state Markov-modulated
                Poisson process with mean exactly the base rate;
                trace:PATH replays a Google-cluster-style CSV
                (`timestamp_s,rate` rows, see traces/) rescaled so its
                mean rate equals the base rate. All shapes are
                deterministic in --seed.
  --faults      deterministic fault plan (JSON or TOML, see DESIGN.md
                section 8): container crashes, node loss, pool leaks,
                network jitter, stragglers -- injected identically on
                either backend
  --duration    measurement seconds after warmup (default 30 sim, 5 live)
  --qos         QoS limit in ms; default: calibrated limit
  --seed        run seed (default 42)
  --telemetry   write the decision trace (why every scaling action
                happened) as JSONL to PATH; summarize with `sg-trace`
  --spans       write per-request span trees (per-hop pool wait,
                service, downstream and network time) as JSONL to
                PATH; analyze with `sg-trace` (critical-path report)
  --span-sample trace N out of every M requests, deterministically
                seeded by --seed (default 1/1 = every request)
  --metrics     write the internal-state gauge/counter timeline
                (cores, DVFS level, FR boosts, queue buildup, pool
                occupancy, slack quantiles, sensitivity arms) as JSONL
                to PATH; render with `sg-timeline`. Also turns on the
                mergeable aggregation layer: per-node latency digests,
                SLO burn windows and heavy-hitter sketches ride the
                same stream as cumulative snapshots -- tail them with
                `sg-trace watch PATH`
  --metrics-interval
                live sampler cadence in ms (default 100). The sim
                backend ignores it: it records synchronously at every
                decision cycle.
  --metrics-listen
                live only: serve the current metric values as
                Prometheus text exposition on ADDR (e.g.
                127.0.0.1:9184) for the duration of the run; with the
                aggregation layer on, the `sg_slo_*` burn-rate series
                are served too
  --slo-objective
                SLO objective percentage for the burn-rate windows
                (default 99.9, i.e. 0.1% error budget against the QoS
                deadline)
  --profile-out turn on the runtime self-profiler and write its
                report (phase totals, p50/p99, watermarks, self-
                overhead) as JSONL to PATH; render with
                `sg-trace --profile PATH`. Works on both backends;
                when off, every instrumented site costs one branch.
  -h, --help    print this help

Warmup is 5 s with the first spike at 10 s on the simulator; the live
backend shortens both (1 s warmup, first spike at 2 s) so short real
runs still exercise a surge. A bad argument exits 2 before anything runs.
";

/// The command line, every value checked before calibration starts.
struct Args {
    workload: Workload,
    controller_name: String,
    arm: Arm,
    live: bool,
    nodes: u32,
    max_replicas: Option<u32>,
    rate: Option<f64>,
    spike_rate: Option<f64>,
    spike_len_s: f64,
    profile_spec: String,
    faults: Option<String>,
    duration: Option<u64>,
    qos_ms: Option<f64>,
    seed: u64,
    telemetry_path: Option<String>,
    spans_path: Option<String>,
    span_sample: Option<(u64, u64)>,
    metrics_path: Option<String>,
    metrics_interval_ms: u64,
    metrics_listen: Option<String>,
    slo_objective: f64,
    profile_path: Option<String>,
}

fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got '{value}'"))
}

/// Parse the arguments after the program name; `Ok(None)` is `--help`.
/// An unknown argument, a flag missing its value, an unparsable number
/// or an unknown name is an error.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: Workload::Chain,
        controller_name: "surgeguard".into(),
        arm: Arm::SurgeGuard,
        live: false,
        nodes: 1,
        max_replicas: None,
        rate: None,
        spike_rate: None,
        spike_len_s: 2.0,
        profile_spec: "spike".into(),
        faults: None,
        duration: None,
        qos_ms: None,
        seed: 42,
        telemetry_path: None,
        spans_path: None,
        span_sample: None,
        metrics_path: None,
        metrics_interval_ms: 100,
        metrics_listen: None,
        slo_objective: 99.9,
        profile_path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) if !v.starts_with('-') => Ok(v.clone()),
            _ => Err(format!("{flag} expects a value")),
        };
        match flag.as_str() {
            "-h" | "--help" => return Ok(None),
            "--workload" => {
                a.workload = match value()?.as_str() {
                    "chain" => Workload::Chain,
                    "read" => Workload::ReadUserTimeline,
                    "compose" => Workload::ComposePost,
                    "search" => Workload::SearchHotel,
                    "reco" => Workload::RecommendHotel,
                    other => return Err(format!("unknown workload '{other}'")),
                }
            }
            "--controller" => {
                a.controller_name = value()?;
                a.arm = match a.controller_name.as_str() {
                    "static" => Arm::Static,
                    "parties" => Arm::Parties,
                    "caladan" => Arm::Caladan,
                    "surgeguard" => Arm::SurgeGuard,
                    "escalator" => Arm::EscalatorOnly,
                    "ml" => Arm::MlCentralized,
                    "hybrid" => Arm::Hybrid,
                    "lsram" => Arm::Lsram,
                    "smart-hpa" => Arm::SmartHpa,
                    "sg-h" => Arm::SgH,
                    other => return Err(format!("unknown controller '{other}'")),
                }
            }
            "--backend" => {
                a.live = match value()?.as_str() {
                    "sim" => false,
                    "live" => true,
                    other => return Err(format!("unknown backend '{other}'")),
                }
            }
            "--nodes" => a.nodes = number(flag, value()?)?,
            "--max-replicas" => a.max_replicas = Some(number(flag, value()?)?),
            "--rate" => a.rate = Some(number(flag, value()?)?),
            "--spikerate" => a.spike_rate = Some(number(flag, value()?)?),
            "--spikelen" => a.spike_len_s = number(flag, value()?)?,
            "--profile" => a.profile_spec = value()?,
            "--faults" => a.faults = Some(value()?),
            "--duration" => a.duration = Some(number(flag, value()?)?),
            "--qos" => a.qos_ms = Some(number(flag, value()?)?),
            "--seed" => a.seed = number(flag, value()?)?,
            "--telemetry" => a.telemetry_path = Some(value()?),
            "--spans" => a.spans_path = Some(value()?),
            "--span-sample" => {
                let ratio = value()?;
                let parsed = SpanSampler::parse_ratio(&ratio);
                let bad = || format!("bad --span-sample '{ratio}' (want N/M with 1 <= N <= M)");
                a.span_sample = Some(parsed.ok_or_else(bad)?);
            }
            "--metrics" => a.metrics_path = Some(value()?),
            "--metrics-interval" => a.metrics_interval_ms = number(flag, value()?)?,
            "--metrics-listen" => a.metrics_listen = Some(value()?),
            "--slo-objective" => {
                a.slo_objective = number(flag, value()?)?;
                if !(0.0..100.0).contains(&a.slo_objective) {
                    return Err("--slo-objective must be in [0, 100)".into());
                }
            }
            "--profile-out" => a.profile_path = Some(value()?),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if a.metrics_listen.is_some() && !a.live {
        return Err("--metrics-listen needs --backend live (the simulator has no wall clock for a scraper to exist in)".into());
    }
    Ok(Some(a))
}

/// Open a JSONL export file, stamping the schema header as line 1 —
/// written here, before any relay ring, so it can never be dropped.
/// (The metrics stream passes `None`: its header is the richer
/// `MetricsMeta` record, emitted by the harness itself.)
fn file_sink(path: &str, what: &str, schema: Option<&str>) -> SharedSink {
    let sink = JsonlSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot create {what} file '{path}': {e}");
        std::process::exit(2);
    });
    let sink = Arc::new(sink) as SharedSink;
    if let Some(schema) = schema {
        sink.emit(TelemetryEvent::Schema {
            schema: schema.into(),
        });
    }
    sink
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprint!("sg-loadtest: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Args {
        workload,
        controller_name,
        arm,
        live,
        nodes,
        max_replicas,
        rate,
        spike_rate,
        spike_len_s,
        profile_spec,
        faults,
        duration,
        qos_ms,
        seed,
        telemetry_path,
        spans_path,
        span_sample,
        metrics_path,
        metrics_interval_ms,
        metrics_listen,
        slo_objective,
        profile_path,
    } = args;
    let duration = duration.unwrap_or(if live { 5 } else { 30 });

    eprintln!("calibrating {workload:?} on {nodes} node(s) ...");
    let pw = prepare(workload, nodes, CalibrationOptions::default());

    let rate = rate.unwrap_or(pw.base_rate);
    let spike_rate = spike_rate.unwrap_or(rate * 1.75);
    let qos = qos_ms.map_or(pw.qos, |ms| SimDuration::from_secs_f64(ms / 1e3));

    let horizontal = matches!(arm, Arm::Lsram | Arm::SmartHpa | Arm::SgH);
    let factory = arm.factory();
    let max_replicas = max_replicas.unwrap_or(if horizontal { 3 } else { 1 });

    let first_spike = if live {
        SimTime::from_secs(2)
    } else {
        SimTime::from_secs(10)
    };
    let pattern = if spike_len_s > 0.0 && spike_rate > rate {
        SpikePattern {
            base_rate: rate,
            spike_rate,
            spike_len: SimDuration::from_secs_f64(spike_len_s),
            period: SimDuration::from_secs(10),
            first_spike,
        }
    } else {
        SpikePattern::constant(rate)
    };

    let profile = ArrivalProfile::parse(&profile_spec, pattern, seed).unwrap_or_else(|e| {
        eprintln!("bad --profile: {e}");
        std::process::exit(2);
    });

    let warmup = if live {
        SimTime::from_secs(1)
    } else {
        SimTime::from_secs(5)
    };
    let end = warmup + SimDuration::from_secs(duration);
    let mut cfg = pw.cfg.clone();
    cfg.end = end + SimDuration::from_millis(200);
    cfg.measure_start = warmup;
    cfg.seed = seed;
    cfg.max_replicas = max_replicas;
    if let Some(path) = &faults {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read fault plan '{path}': {e}");
            std::process::exit(2);
        });
        let plan = FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad fault plan '{path}': {e}");
            std::process::exit(2);
        });
        plan.validate(cfg.graph.len(), nodes, max_replicas)
            .unwrap_or_else(|e| {
                eprintln!("fault plan '{path}' does not fit this cluster: {e}");
                std::process::exit(2);
            });
        eprintln!("fault plan: {} fault(s) from {path}", plan.faults.len());
        cfg.faults = plan;
    }
    let arrivals = profile.arrivals(SimTime::ZERO, end);
    eprintln!(
        "running {} on the {} backend for {duration}s at {rate:.0} req/s ({} profile; spikes: {spike_rate:.0} req/s x {spike_len_s}s), qos {qos}",
        controller_name,
        if live { "live" } else { "sim" },
        profile.label(),
    );
    let telemetry: Option<SharedSink> = telemetry_path
        .as_ref()
        .map(|p| file_sink(p, "telemetry", Some(TRACE_SCHEMA)));
    let spans: Option<SharedSink> = spans_path
        .as_ref()
        .map(|p| file_sink(p, "span", Some(SPANS_SCHEMA)));
    let metrics: Option<SharedSink> = metrics_path.as_ref().map(|p| file_sink(p, "metrics", None));
    let profile_out: Option<SharedSink> = profile_path
        .as_ref()
        .map(|p| file_sink(p, "profile", Some(PROFILE_SCHEMA)));
    let metrics_interval = SimDuration::from_millis(metrics_interval_ms);
    // The aggregation layer rides the metrics stream (and the scrape
    // endpoint), so it turns on with either metrics destination.
    let agg: Option<Arc<AggRuntime>> = (metrics.is_some() || metrics_listen.is_some()).then(|| {
        let mut agg_cfg = AggConfig::new(qos);
        agg_cfg.slo = SloConfig::default().with_objective_pct(slo_objective);
        Arc::new(AggRuntime::new(agg_cfg, nodes as usize))
    });
    let sampler = match span_sample {
        Some((n, m)) => SpanSampler::rate(n, m, seed),
        None => SpanSampler::all(),
    };

    let result = if live {
        let opts = sg_live::LiveOpts {
            telemetry: telemetry.clone(),
            spans: spans.clone(),
            span_sampler: sampler,
            metrics: metrics.clone(),
            metrics_interval,
            metrics_listen: metrics_listen.clone(),
            agg: agg.clone(),
            profile: profile_out.clone(),
            ..sg_live::LiveOpts::default()
        };
        if let Some(addr) = &metrics_listen {
            eprintln!("serving Prometheus metrics on http://{addr}/metrics for the run");
        }
        let (result, stats) = sg_live::run_live_with_stats(cfg, factory.as_ref(), arrivals, opts);
        eprintln!(
            "live substrate: {} deliveries, {} freq updates applied, {} dropped (fr_dropped)",
            stats.deliveries, stats.fr_applied, stats.fr_dropped
        );
        if telemetry.is_some() || spans.is_some() || metrics.is_some() || profile_out.is_some() {
            eprintln!(
                "telemetry: {} events forwarded, {} dropped by the relay ring (decision {}, span {}, metrics {}, profile {})",
                stats.telemetry_forwarded,
                stats.telemetry_dropped,
                stats.telemetry_dropped_decision,
                stats.telemetry_dropped_span,
                stats.telemetry_dropped_metrics,
                stats.telemetry_dropped_profile,
            );
        }
        result
    } else {
        let mut sim = Simulation::new(cfg, factory.as_ref(), arrivals);
        if let Some(sink) = &telemetry {
            sim = sim.with_telemetry(Arc::clone(sink));
        }
        if let Some(sink) = &spans {
            sim = sim.with_spans(Arc::clone(sink), sampler);
        }
        if let Some(sink) = &metrics {
            sim = sim.with_metrics(Arc::clone(sink));
        }
        if let Some(a) = &agg {
            sim = sim.with_agg(Arc::clone(a));
        }
        if let Some(sink) = &profile_out {
            sim = sim.with_profile(Arc::clone(sink));
        }
        sim.run()
    };
    // Drop our handles so the JSONL writers flush before we report.
    drop(telemetry);
    drop(spans);
    drop(metrics);
    drop(profile_out);
    if let Some(p) = &telemetry_path {
        eprintln!("decision trace written to {p} (summarize with: sg-trace {p})");
    }
    if let Some(p) = &spans_path {
        eprintln!("span trace written to {p} (analyze with: sg-trace {p})");
    }
    if let Some(p) = &metrics_path {
        eprintln!("metrics timeline written to {p} (render with: sg-timeline {p})");
        eprintln!("  aggregation snapshots ride the same file (watch with: sg-trace watch {p})");
    }
    if let Some(p) = &profile_path {
        eprintln!("self-profile written to {p} (render with: sg-trace --profile {p})");
    }

    // wrk2-style output.
    let mut hist = LatencyHistogram::with_default_resolution();
    for p in result.points.iter().filter(|p| p.completion >= warmup) {
        hist.record(p.latency);
    }
    let report = RunReport::from_points(
        &result.points,
        qos,
        warmup,
        end,
        result.avg_cores,
        result.energy_j,
    );

    println!("  Latency Distribution (HdrHistogram)");
    for q in [50.0, 75.0, 90.0, 98.0, 99.0, 99.9, 99.99, 100.0] {
        let v = hist.percentile(q).unwrap_or(SimDuration::ZERO);
        println!("    {q:>6.2}%  {v}");
    }
    println!(
        "  {} requests in {}s ({:.0} req/s completed), {} dropped",
        report.requests,
        duration,
        report.requests as f64 / duration as f64,
        result.dropped,
    );
    println!("  Mean latency: {}", report.mean);
    println!();
    println!("  QoS limit:          {qos}");
    println!("  Violation volume:   {:.6} s^2", report.violation_volume);
    println!(
        "  Violating requests: {:.2}%",
        report.violation_rate * 100.0
    );
    println!("  Avg allocated cores: {:.1}", report.avg_cores);
    println!("  Energy (idle-subtracted): {:.0} J", report.energy_j);
    println!("  FirstResponder boosts: {}", result.packet_freq_boosts);

    // Cluster view from the mergeable aggregation layer: the per-node
    // shards merged at teardown (order-independent, exact).
    if let Some(agg) = &agg {
        let merged = agg.merged();
        let p = |q: f64| {
            merged
                .digest
                .percentile(q)
                .map_or("-".into(), |v| v.to_string())
        };
        println!();
        println!(
            "  SLO view (merged digest, {} request(s), rel err {:.1}%):",
            merged.digest.len(),
            100.0 * merged.digest.relative_error(),
        );
        println!(
            "    digest p50 {}  p99 {}  p99.9 {}",
            p(50.0),
            p(99.0),
            p(99.9)
        );
        let v = merged.slo.verdict_at_last();
        let burn = |b: Option<f64>| b.map_or("-".into(), |x| format!("{x:.2}x"));
        println!(
            "    objective {slo_objective}%: {}/{} beyond deadline, burn fast {}{} slow {}{}, budget {:.1}%",
            merged.slo.bad(),
            merged.slo.total(),
            burn(v.fast),
            if v.fast_alert { " ALERT" } else { "" },
            burn(v.slow),
            if v.slow_alert { " ALERT" } else { "" },
            100.0 * v.budget_remaining,
        );
        for e in merged.topk.top(3) {
            let (container, class) = topk_unpack(e.key);
            println!(
                "    top loss: {container} {} {:.3} ms (err {:.3} ms)",
                class.map_or("total", |c| c.name()),
                e.weight as f64 / 1e6,
                e.err as f64 / 1e6,
            );
        }
    }
}

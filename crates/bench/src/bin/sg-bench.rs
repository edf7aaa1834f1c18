//! `sg-bench` — machine-readable perf baseline + regression gate.
//!
//! ```text
//! sg-bench [--quick|--full] [--out PATH] [--compare OLD.json]
//!          [--threshold PCT] [--only NAMES] [--demo-cluster]
//!
//!   --quick          CI-sized iteration counts (default)
//!   --full           more iterations for tighter quartiles
//!   --out PATH       write the fresh baseline JSON to PATH
//!   --compare OLD    run fresh, compare against a stored baseline, and
//!                    exit 1 on any regression or missing scenario; a
//!                    baseline recorded on another host is refused
//!                    (exit 2) before anything runs
//!   --threshold PCT  median regression threshold in percent (default 25)
//!   --only NAMES     run only scenarios whose name contains one of the
//!                    comma-separated substrings (e.g. cluster_scale_50);
//!                    --compare then covers just those scenarios
//!   --demo-cluster   instead of the scenario set, run the ROADMAP
//!                    200-node / 5 001-container / 10M-request spike
//!                    once and print its throughput
//! ```
//!
//! See BENCH.md for the scenario set and gate semantics.

use sg_bench::baseline::{recorded_calib, run_selected, to_json, BenchMode, Host};
use sg_bench::compare::{compare, Verdict, DEFAULT_THRESHOLD_PCT};
use sg_bench::ClusterScenario;
use sg_core::time::SimTime;
use sg_sim::controller::NoopFactory;
use std::time::Instant;

/// `--demo-cluster`: the acceptance-scale run. 200 nodes × 25 backends,
/// 500 req/s per node with 2× spikes (1 s every 10 s) for 95 simulated
/// seconds ≈ 10.2M requests, arrivals streamed (never materialized).
/// Runs with the mergeable aggregation layer on, and checks the merged
/// 200-shard digest against an exact histogram of the same points —
/// the observability-layer acceptance check at full scale.
fn demo_cluster() {
    let scenario = ClusterScenario::new(200, 500.0, SimTime::from_secs(95));
    eprintln!(
        "sg-bench: demo cluster run — {} nodes, {} containers, ~10M requests...",
        scenario.nodes,
        scenario.cfg.graph.len()
    );
    let t0 = Instant::now();
    let (r, agg) = scenario.run_with_agg(&NoopFactory);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(r.dropped, 0, "demo run saturated the in-flight valve");
    println!(
        "demo_cluster_200: {} requests, {} events, {:.1} s wall, {:.0} events/sec, {:.0} req/sec",
        r.completed,
        r.events,
        wall,
        r.events as f64 / wall,
        r.completed as f64 / wall,
    );

    // Merge contract at scale: the 200 per-node digests, merged, must
    // agree with an exact whole-run histogram within the documented γ.
    assert_eq!(
        agg.digest.len(),
        r.points.len() as u64,
        "every measured completion reaches a shard"
    );
    let mut hist = sg_loadgen::LatencyHistogram::with_default_resolution();
    for p in &r.points {
        hist.record(p.latency);
    }
    let gamma = agg.digest.relative_error();
    for q in [50.0, 99.0, 99.9] {
        let exact = hist.percentile(q).expect("nonempty").as_nanos() as f64;
        let approx = agg.digest.percentile(q).expect("nonempty").as_nanos() as f64;
        assert!(
            (approx - exact).abs() <= gamma * exact + 1.0,
            "p{q}: merged digest {approx} vs exact {exact} beyond γ={gamma}"
        );
    }
    let pct = |q: f64| {
        agg.digest.percentile(q).map_or("-".into(), |v| {
            format!("{:.3} ms", v.as_nanos() as f64 / 1e6)
        })
    };
    println!(
        "demo_cluster_200 agg: {} completions across 200 shards, p50 {}, p99 {}, p99.9 {} \
         (merged digest == exact histogram within γ={:.4})",
        agg.digest.len(),
        pct(50.0),
        pct(99.0),
        pct(99.9),
        gamma,
    );
    let verdict = agg.slo.verdict_at_last();
    println!(
        "demo_cluster_200 slo: {}/{} over QoS, burn fast {} slow {}",
        agg.slo.bad(),
        agg.slo.total(),
        verdict.fast.map_or("-".into(), |b| format!("{b:.2}x")),
        verdict.slow.map_or("-".into(), |b| format!("{b:.2}x")),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = BenchMode::Quick;
    let mut out: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold = DEFAULT_THRESHOLD_PCT;
    let mut only: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| match it.next() {
            Some(v) => v.clone(),
            None => usage(&format!("{arg} needs {what}")),
        };
        match arg.as_str() {
            "--quick" => mode = BenchMode::Quick,
            "--full" => mode = BenchMode::Full,
            "--demo-cluster" => {
                demo_cluster();
                return;
            }
            "--only" => only = Some(value("NAMES")),
            "--out" => out = Some(value("PATH")),
            "--compare" => compare_path = Some(value("PATH")),
            "--threshold" => {
                let v = value("PCT");
                threshold = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--threshold expects a number, got '{v}'")));
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }

    // The stored baseline is read and its host checked before anything
    // runs: a cross-host compare is meaningless, so it costs nothing.
    let here = Host::detect();
    let stored = compare_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        let old =
            serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e:?}")));
        if let Err(e) = here.check(&old) {
            fail(&format!("{path} was {e}"));
        }
        (path, old)
    });

    eprintln!(
        "sg-bench: running pinned scenario set ({} mode) on {} x {}...",
        mode.label(),
        here.cpus,
        here.cpu
    );
    let run = run_selected(mode, only.as_deref(), |s| {
        eprintln!(
            "  {:<18} median {:>10.3} {}  (p25 {:.3}, p75 {:.3}, n={})",
            s.name, s.median, s.unit, s.p25, s.p75, s.iters
        );
    });
    if run.scenarios.is_empty() {
        fail("--only matched no scenarios");
    }
    let fresh = to_json(mode, &here, &run);

    if let Some(path) = &out {
        let text = serde_json::to_string_pretty(&fresh).unwrap();
        std::fs::write(path, text + "\n").unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        eprintln!("sg-bench: baseline written to {path}");
    }

    let Some((old_path, old)) = stored else {
        return;
    };
    let report = compare(&old, &fresh, threshold, only.as_deref()).unwrap_or_else(|e| fail(&e));
    eprintln!("sg-bench: compare vs {old_path} (threshold {threshold}%):");
    if Host::recorded(&old).is_none() {
        eprintln!(
            "  (baseline records no host: deltas only mean something if it was measured here)"
        );
    }
    let calib = |pair: Option<[f64; 2]>| {
        pair.map_or("not recorded".into(), |[before, after]| {
            format!("{before:.0} before, {after:.0} after")
        })
    };
    eprintln!("  calib_ns baseline: {}", calib(recorded_calib(&old)));
    eprintln!("  calib_ns fresh:    {}", calib(Some(run.calib_ns)));
    for (name, verdict) in &report.verdicts {
        match verdict {
            Verdict::Ok { delta_pct } => {
                eprintln!("  OK         {name:<16} {delta_pct:+.1}% median");
            }
            Verdict::Noisy { delta_pct } => {
                eprintln!(
                    "  NOISY      {name:<16} {delta_pct:+.1}% median (IQRs overlap; not fatal)"
                );
            }
            Verdict::Regression { delta_pct } => {
                eprintln!("  REGRESSION {name:<16} {delta_pct:+.1}% median (IQRs separated)");
            }
            Verdict::Missing => {
                eprintln!("  MISSING    {name:<16} scenario absent from fresh run");
            }
        }
    }
    if report.failed() {
        eprintln!("sg-bench: FAILED — perf regression vs {old_path}");
        std::process::exit(1);
    }
    eprintln!("sg-bench: PASSED");
}

/// Exit 2: an IO, parse or cross-host error (not a perf verdict).
fn fail(err: &str) -> ! {
    eprintln!("sg-bench: {err}");
    std::process::exit(2);
}

fn usage(err: &str) -> ! {
    eprintln!("sg-bench: {err}");
    eprintln!(
        "usage: sg-bench [--quick|--full] [--out PATH] [--compare OLD.json] \
         [--threshold PCT] [--only NAMES] [--demo-cluster]"
    );
    std::process::exit(2);
}

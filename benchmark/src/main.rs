//! `sg-benchmark` — the repo benchmark (README.md, ../BENCHMARK.json).
//!
//! ```text
//! sg-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     One run of one workload. The last line of standard output is the
//!     result object: {"correct", "attempted", "failed", "metrics"}.
//!     --trace 0: the end-to-end metrics; --trace 1: the per-layer
//!     metrics, and benchmark/out/trace_<workload>.jsonl.
//!
//! sg-benchmark set [--runs N] [--seeds A..B] [--seconds S] [--trace 0|1] [--out PATH]
//!     Every workload, N runs per seed, each run a child process; prints
//!     median, quartiles and count per metric; exits 1 on a failed check.
//!
//! sg-benchmark compare A.json B.json
//!     Judge set B against set A with the contract's bounds.
//! ```

mod adapter;
mod compare;
mod latency;
mod procstat;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use spec::Spec;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{Args, Report};

fn usage() -> ExitCode {
    eprintln!("usage: sg-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
    eprintln!("       sg-benchmark set [--runs N] [--seeds A..B] [--seconds S] [--trace 0|1] [--out PATH]");
    eprintln!("       sg-benchmark compare A.json B.json");
    ExitCode::from(2)
}

/// `--flag value` pairs; `Err` names what is wrong.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.insert(flag.clone(), value.clone());
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value `{v}` for `{flag}`")),
    }
}

fn trace_flag(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    match parse::<u8>(flags, "--trace", 0)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("`--trace` is 0 or 1, not {other}")),
    }
}

fn seconds_flag(flags: &BTreeMap<String, String>, spec: &Spec) -> Result<f64, String> {
    let seconds = parse(flags, "--seconds", spec.run_seconds as f64)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("`--seconds` is 1 to 60, not {seconds}"));
    }
    Ok(seconds)
}

fn metrics_json(report: &Report) -> Value {
    Value::Object(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json!({"value": m.value, "unit": m.unit.clone()}),
                )
            })
            .collect(),
    )
}

/// One run of one workload: the contract's command.
fn run_one(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let flags = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let args = Args {
        workload: flags
            .get("--workload")
            .cloned()
            .ok_or("`--workload` is required")?,
        seed: parse(&flags, "--seed", 1)?,
        seconds: seconds_flag(&flags, spec)?,
        trace: trace_flag(&flags)?,
    };
    let report = workloads::run_workload(&args, spec).ok_or_else(|| {
        format!(
            "no workload `{}` (have: {})",
            args.workload,
            spec.workloads.join(", ")
        )
    })?;
    for check in &report.checks {
        eprintln!("CHECK FAILED: {check}");
    }
    eprintln!(
        "{}: timed region {:.2} s, {} attempted, {} failed, {} disturbed pass(es)",
        args.workload, report.timed_s, report.attempted, report.failed, report.disturbed_runs
    );
    // For `set`: what the contract's result object has no key for.
    println!(
        "info {}",
        json!({
            "digest": report.digest.map(|d| format!("{d:016x}")),
            "timed_s": report.timed_s,
            "disturbed_runs": report.disturbed_runs,
            "checks": report.checks.clone(),
        })
    );
    println!(
        "{}",
        json!({
            "correct": report.checks.is_empty(),
            "attempted": report.attempted.max(1),
            "failed": report.failed,
            "metrics": metrics_json(&report),
        })
    );
    Ok(if report.checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one child and return its `info` and result objects.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| {
            format!(
                "{workload}: no result line (exit {:?})",
                output.status.code()
            )
        })?;
    let info = lines
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| serde_json::from_str(l).ok())
        .unwrap_or(Value::Null);
    Ok((info, result))
}

/// Every workload, several runs each, summarised.
fn run_set(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let flags = flags(
        args,
        &["--runs", "--seeds", "--seconds", "--trace", "--out"],
    )?;
    let runs: usize = parse(&flags, "--runs", 5)?;
    let seconds = seconds_flag(&flags, spec)?;
    let trace = trace_flag(&flags)?;
    let seeds = flags.get("--seeds").map_or("1..1", String::as_str);
    let (first, last) = seeds
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .filter(|(a, b)| a <= b)
        .ok_or_else(|| format!("`--seeds` is FIRST..LAST, not `{seeds}`"))?;

    let mut all_ok = true;
    let mut docs = Vec::new();
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "{:<15} {:<36} {:>6} {:>14} {:>14} {:>14} {:>3} {:>7}",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "iqr"
    );
    for workload in &spec.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut digests: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for seed in first..=last {
            for _ in 0..runs {
                let (info, result) = child_run(workload, seed, seconds, trace)?;
                if result.get("correct").and_then(Value::as_bool) != Some(true) {
                    println!("{workload} seed {seed}: FAILED its output checks");
                    all_ok = false;
                }
                let digest = info.get("digest").and_then(Value::as_str);
                if let Some(d) = digest {
                    digests.entry(seed).or_default().push(d.to_string());
                }
                for m in wanted {
                    let v = result
                        .get("metrics")
                        .and_then(|ms| ms.get(&m.name))
                        .and_then(|r| r.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{workload}: result lacks {}", m.name))?;
                    values.entry(m.name.clone()).or_default().push(v);
                }
                let pick = |from: &Value, key: &str| from.get(key).cloned().unwrap_or(Value::Null);
                docs.push(json!({
                    "workload": workload.clone(),
                    "seed": seed,
                    "trace": trace,
                    "correct": pick(&result, "correct"),
                    "attempted": pick(&result, "attempted"),
                    "failed": pick(&result, "failed"),
                    "digest": digest.map(str::to_string),
                    "timed_s": pick(&info, "timed_s"),
                    "metrics": pick(&result, "metrics"),
                }));
            }
        }
        for (seed, seen) in &digests {
            if seen.iter().any(|d| d != &seen[0]) {
                println!("{workload} seed {seed}: result digests differ across runs: {seen:?}");
                all_ok = false;
            }
        }
        for m in wanted {
            let s = stats::Summary::of(&values[&m.name]).expect("at least one run");
            println!(
                "{workload:<15} {:<36} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>6.1}%",
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                100.0 * s.spread()
            );
        }
    }
    if let Some(path) = flags.get("--out") {
        let text = serde_json::to_string_pretty(&json!({ "runs": docs })).expect("serialises");
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("`compare` takes two set files".into());
    };
    let load = |path: &String| -> Result<compare::RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
        compare::RunSet::parse(&doc).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if compare::compare(spec, &load(a)?, &load(b)?) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = match args.first().map(String::as_str) {
        Some("set") => run_set(&args[1..], &spec),
        Some("compare") => run_compare(&args[1..], &spec),
        Some(_) => run_one(&args, &spec),
        None => return usage(),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("sg-benchmark: {message}");
        usage()
    })
}

//! `compare A.json B.json`: is set B worse than set A?
//!
//! One row per workload × end-to-end metric. A metric is `worse` only
//! if B's median is beyond the contract's bound *and* the quartile
//! ranges do not overlap; beyond the bound with overlapping quartiles,
//! or within it but noisier than the bound, it is `unresolved` — never
//! reported as unchanged. The sim workloads' result digests must match
//! run for run.

use crate::spec::{Metric, Spec};
use crate::stats::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the baseline's runs, `b` the candidate's.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Option<(Summary, Summary, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let bound = metric.bound.unwrap_or(0.0);
    // Orient so that larger is worse.
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs();
    let separated = if metric.higher_is_better {
        sb.q3 < sa.q1
    } else {
        sb.q1 > sa.q3
    };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if worse_by > bound {
        if separated {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if (sa.spread() > bound || sb.spread() > bound) && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((sa, sb, verdict))
}

/// The runs of one set, keyed by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// `workload → metric → values`, untraced runs only.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// `(workload, seed) → digests seen`.
    pub digests: BTreeMap<(String, u64), Vec<String>>,
}

impl RunSet {
    /// Read the `{"runs": [...]}` document `set --out` writes.
    pub fn parse(doc: &Value) -> Result<RunSet, String> {
        let runs = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("no `runs` array")?;
        let mut set = RunSet::default();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without `workload`")?;
            let seed = run.get("seed").and_then(Value::as_u64).unwrap_or(0);
            if let Some(d) = run.get("digest").and_then(Value::as_str) {
                set.digests
                    .entry((workload.to_string(), seed))
                    .or_default()
                    .push(d.to_string());
            }
            if run.get("trace").and_then(Value::as_bool) == Some(true) {
                continue;
            }
            let Some(Value::Object(metrics)) = run.get("metrics") else {
                return Err(format!("run of {workload} without `metrics`"));
            };
            let per_metric = set.values.entry(workload.to_string()).or_default();
            for (name, reading) in metrics {
                let value = reading
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}/{name}: no numeric `value`"))?;
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
        Ok(set)
    }
}

/// Print the table; `true` if nothing is worse and every digest agrees.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> bool {
    let mut pass = true;
    println!(
        "{:<15} {:<14} {:>6} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "unit", "A median", "B median", "change", "A iqr", "B iqr"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let side = |s: &RunSet| {
                s.values
                    .get(workload)
                    .and_then(|m| m.get(&metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let Some((sa, sb, verdict)) = judge(metric, &side(a), &side(b)) else {
                println!("{workload:<15} {:<14} missing from a set", metric.name);
                pass = false;
                continue;
            };
            pass &= verdict != Verdict::Worse;
            println!(
                "{workload:<15} {:<14} {:>6} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {} (n={}+{}, bound {:.0}%)",
                metric.name,
                metric.unit,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                verdict.label(),
                sa.n,
                sb.n,
                100.0 * metric.bound.unwrap_or(0.0),
            );
        }
    }
    for (key, da) in &a.digests {
        let Some(db) = b.digests.get(key) else {
            continue;
        };
        let same = da.iter().chain(db).all(|d| d == &da[0]);
        if !same {
            println!(
                "{} seed {}: result digests differ: {da:?} vs {db:?}",
                key.0, key.1
            );
            pass = false;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "lat".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> Metric {
        Metric {
            higher_is_better: true,
            ..lower(bound)
        }
    }

    fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
        judge(m, a, b).unwrap().2
    }

    #[test]
    fn within_bound_and_steady_is_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(verdict(&lower(0.10), &a, &b), Verdict::Ok);
        assert_eq!(verdict(&higher(0.10), &a, &b), Verdict::Ok);
    }

    #[test]
    fn beyond_bound_with_separated_quartiles_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&lower(0.10), &a, &b), Verdict::Worse);
        // The same move is an improvement when higher is better.
        assert_eq!(verdict(&higher(0.10), &a, &b), Verdict::Ok);
        assert_eq!(verdict(&higher(0.10), &b, &a), Verdict::Worse);
    }

    #[test]
    fn beyond_bound_with_overlapping_quartiles_is_unresolved() {
        let a = [100.0, 60.0, 140.0, 90.0, 110.0];
        let b = [115.0, 70.0, 160.0, 100.0, 130.0];
        assert_eq!(verdict(&lower(0.10), &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn noisy_but_within_bound_is_unresolved_unless_every_run_is_better() {
        let a = [100.0, 60.0, 140.0, 90.0, 110.0];
        let b = [101.0, 61.0, 141.0, 91.0, 111.0];
        assert_eq!(verdict(&lower(0.10), &a, &b), Verdict::Unresolved);
        let all_better = [50.0, 40.0, 59.0, 45.0, 55.0];
        assert_eq!(verdict(&lower(0.10), &a, &all_better), Verdict::Ok);
    }

    #[test]
    fn run_sets_group_untraced_values_and_all_digests() {
        let doc = serde_json::from_str(
            r#"{"runs": [
                {"workload": "w", "seed": 1, "trace": false, "digest": "ab",
                 "metrics": {"m": {"value": 1.5, "unit": "s"}}},
                {"workload": "w", "seed": 1, "trace": true, "digest": "ab",
                 "metrics": {"layer": {"value": 9.0, "unit": "ns"}}},
                {"workload": "w", "seed": 1, "trace": false, "digest": "ab",
                 "metrics": {"m": {"value": 2.5, "unit": "s"}}}
            ]}"#,
        )
        .unwrap();
        let set = RunSet::parse(&doc).unwrap();
        assert_eq!(set.values["w"]["m"], [1.5, 2.5]);
        assert!(!set.values["w"].contains_key("layer"));
        assert_eq!(set.digests[&("w".to_string(), 1)], ["ab", "ab", "ab"]);
        assert!(RunSet::parse(&serde_json::from_str("{}").unwrap()).is_err());
    }
}

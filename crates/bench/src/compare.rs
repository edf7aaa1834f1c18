//! The `sg-bench --compare` regression gate over two baseline documents
//! (see [`crate::baseline`] and BENCH.md): a scenario regresses only
//! when its fresh median exceeds the baseline median by more than the
//! threshold AND the fresh p25 clears the baseline p75 (the IQR noise
//! guard, so ordinary run-to-run jitter cannot fail a build).

use crate::baseline::{comparable, scenario_field, scenario_names, selects, Host};
use serde_json::Value;

/// Default regression threshold (percent over the baseline median).
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Verdict for one scenario in a [`compare`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within threshold (or faster).
    Ok {
        /// Percent change of the median vs baseline (negative = faster).
        delta_pct: f64,
    },
    /// Median exceeded threshold and cleared the IQR noise guard.
    Regression {
        /// Percent change of the median vs baseline.
        delta_pct: f64,
    },
    /// Median exceeded threshold but IQRs overlap — reported, not fatal.
    Noisy {
        /// Percent change of the median vs baseline.
        delta_pct: f64,
    },
    /// Scenario present in the baseline but absent from the fresh run.
    Missing,
}

/// Result of comparing a fresh run against a stored baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// `(scenario, verdict)` for every compared baseline scenario.
    pub verdicts: Vec<(String, Verdict)>,
}

impl CompareReport {
    /// True when any scenario regressed or went missing — the nonzero-exit
    /// condition for `sg-bench --compare`.
    pub fn failed(&self) -> bool {
        self.verdicts
            .iter()
            .any(|(_, v)| matches!(v, Verdict::Regression { .. } | Verdict::Missing))
    }
}

/// Compare a fresh baseline document against a stored one, over the
/// stored scenarios `only` selects (the selector the fresh run was made
/// with, so a partial run is not blamed for what it was told to skip).
///
/// A scenario regresses when `new.median > old.median × (1 + pct/100)`
/// AND `new.p25 > old.p75` (the fresh run's fast quartile is slower than
/// the baseline's slow quartile — i.e. the distributions actually
/// separated, not just the medians). Selected scenarios in the stored
/// baseline but absent from the fresh run are failures; extra fresh
/// scenarios are ignored (forward-compatible). `Err` when both documents
/// record a host, or a mode, and the two differ.
pub fn compare(
    old: &Value,
    new: &Value,
    threshold_pct: f64,
    only: Option<&str>,
) -> Result<CompareReport, String> {
    if let (Some(host), Some(mode)) = (Host::recorded(new), new.get("mode")) {
        comparable(old, &host, mode.as_str().unwrap_or_default())?;
    }
    let mut verdicts = Vec::new();
    for name in scenario_names(old) {
        if !selects(only, &name) {
            continue;
        }
        let field = |doc, key| scenario_field(doc, &name, key);
        let gate_fields = (
            field(old, "median"),
            field(old, "p75"),
            field(new, "median"),
            field(new, "p25"),
        );
        let verdict = match gate_fields {
            (Some(old_median), Some(old_p75), Some(new_median), Some(new_p25)) => {
                let delta_pct = (new_median / old_median - 1.0) * 100.0;
                if new_median <= old_median * (1.0 + threshold_pct / 100.0) {
                    Verdict::Ok { delta_pct }
                } else if new_p25 > old_p75 {
                    Verdict::Regression { delta_pct }
                } else {
                    Verdict::Noisy { delta_pct }
                }
            }
            _ => Verdict::Missing,
        };
        verdicts.push((name, verdict));
    }
    Ok(CompareReport { verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A baseline document with `(name, median, p25, p75)` scenarios,
    /// recorded on `host` (`None` = a pre-BENCH_16 file) in `mode`; the
    /// gate reads nothing else.
    fn doc_on(host: Option<&str>, mode: &str, entries: &[(&str, f64, f64, f64)]) -> Value {
        let scenarios = entries.iter().map(|&(name, median, p25, p75)| {
            let stats = json!({ "median": median, "p25": p25, "p75": p75 });
            (name.to_string(), stats)
        });
        let mut doc = vec![
            ("scenarios".to_string(), Value::Object(scenarios.collect())),
            ("mode".to_string(), json!(mode)),
        ];
        doc.extend(host.map(|cpu| ("host".into(), json!({ "cpus": 2u64, "cpu": cpu }))));
        Value::Object(doc)
    }

    fn doc(entries: &[(&str, f64, f64, f64)]) -> Value {
        doc_on(Some("this box"), "quick", entries)
    }

    fn gate(old: &Value, new: &Value, threshold_pct: f64) -> CompareReport {
        compare(old, new, threshold_pct, None).expect("same host")
    }

    #[test]
    fn clean_run_passes() {
        let old = doc(&[("a", 10.0, 9.0, 11.0), ("b", 100.0, 95.0, 105.0)]);
        let new = doc(&[("a", 10.5, 9.5, 11.5), ("b", 90.0, 85.0, 95.0)]);
        let rep = gate(&old, &new, 25.0);
        assert!(!rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Ok { .. }));
        assert!(matches!(rep.verdicts[1].1, Verdict::Ok { delta_pct } if delta_pct < 0.0));
    }

    #[test]
    fn separated_distributions_regress() {
        // +50% median and new p25 (14.0) clears old p75 (11.0).
        let old = doc(&[("a", 10.0, 9.0, 11.0)]);
        let new = doc(&[("a", 15.0, 14.0, 16.0)]);
        let rep = gate(&old, &new, 25.0);
        assert!(rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Regression { .. }));
    }

    #[test]
    fn overlapping_iqrs_are_noisy_not_fatal() {
        // Median jumped 50% but the quartiles still overlap the baseline.
        let old = doc(&[("a", 10.0, 8.0, 20.0)]);
        let new = doc(&[("a", 15.0, 9.0, 22.0)]);
        let rep = gate(&old, &new, 25.0);
        assert!(!rep.failed());
        assert!(matches!(rep.verdicts[0].1, Verdict::Noisy { .. }));
    }

    #[test]
    fn missing_scenario_fails() {
        let old = doc(&[("a", 10.0, 9.0, 11.0), ("gone", 5.0, 4.0, 6.0)]);
        let new = doc(&[("a", 10.0, 9.0, 11.0)]);
        let rep = gate(&old, &new, 25.0);
        assert!(rep.failed());
        assert!(rep
            .verdicts
            .iter()
            .any(|(n, v)| n == "gone" && matches!(v, Verdict::Missing)));

        // A run restricted to `a` is not blamed for skipping `gone` ...
        let rep = compare(&old, &new, 25.0, Some("a")).unwrap();
        assert!(!rep.failed());
        assert_eq!(rep.verdicts.len(), 1);
        // ... but a selected scenario the fresh run lacks is still missing.
        let rep = compare(&old, &new, 25.0, Some("a, gone")).unwrap();
        assert!(rep.failed());
        assert_eq!(rep.verdicts.len(), 2);
    }

    #[test]
    fn extra_fresh_scenarios_are_ignored() {
        let old = doc(&[("a", 10.0, 9.0, 11.0)]);
        let new = doc(&[("a", 10.0, 9.0, 11.0), ("new_one", 1.0, 0.9, 1.1)]);
        assert!(!gate(&old, &new, 25.0).failed());
    }

    #[test]
    fn threshold_is_respected() {
        // +30% with separated IQRs: regression at 25%, pass at 50%.
        let old = doc(&[("a", 10.0, 9.0, 10.5)]);
        let new = doc(&[("a", 13.0, 12.5, 13.5)]);
        assert!(gate(&old, &new, 25.0).failed());
        assert!(!gate(&old, &new, 50.0).failed());
    }

    #[test]
    fn cross_host_compare_is_refused() {
        let entries = [("a", 10.0, 9.0, 11.0)];
        let new = doc(&entries);
        let other_box = doc_on(Some("another box"), "quick", &entries);
        let err = compare(&other_box, &new, 25.0, None).unwrap_err();
        assert!(err.contains("recorded on a different host"), "{err}");
        // BENCH_4–15 carry no host: compared, the caller prints the caveat.
        let unrecorded = doc_on(None, "quick", &entries);
        assert_eq!(Host::recorded(&unrecorded), None);
        assert!(!gate(&unrecorded, &new, 25.0).failed());
    }

    #[test]
    fn quick_against_full_is_refused() {
        let entries = [("a", 10.0, 9.0, 11.0)];
        let in_mode = |mode| doc_on(Some("this box"), mode, &entries);
        let (quick, full) = (in_mode("quick"), in_mode("full"));
        let err = compare(&full, &quick, 25.0, None).unwrap_err();
        assert!(err.contains("recorded in full mode"), "{err}");
        assert!(err.contains("rerun with --full"), "{err}");
        let err = compare(&quick, &full, 25.0, None).unwrap_err();
        assert!(err.contains("rerun with --quick"), "{err}");
        assert!(!gate(&full, &full, 25.0).failed());
        // A baseline with no mode is compared, as one with no host is.
        let mut unrecorded = full.clone();
        if let Value::Object(fields) = &mut unrecorded {
            fields.retain(|(key, _)| key != "mode");
        }
        assert!(!gate(&unrecorded, &quick, 25.0).failed());
    }
}

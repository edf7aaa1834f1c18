//! `BENCHMARK.json`, compiled in: the harness emits exactly the names
//! the contract file lists, and applies exactly its bounds.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median it may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: u64,
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
        .to_string()
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array `{key}`"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in file; it is part of this program, so a
    /// malformed one is a bug and panics.
    pub fn load() -> Spec {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_file_is_within_its_limits() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            [
                "sim_trials",
                "sim_cluster",
                "sim_observed",
                "live_steady",
                "live_saturated"
            ]
        );
        assert_eq!(spec.end_to_end.len(), 6);
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name.clone()), "name used twice: {name}");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.unit.len() <= 16, "unit of {}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    /// Quoted strings in `source` that look like a per-layer metric:
    /// `<layer>.<rest>`. (Span names are written `layer:call`.)
    fn metric_literals(source: &str) -> std::collections::BTreeSet<String> {
        const LAYERS: [&str; 8] = [
            "workloads",
            "loadgen",
            "sim",
            "controllers",
            "core",
            "telemetry",
            "live",
            "bench",
        ];
        source
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|lit| {
                lit.split_once('.').is_some_and(|(layer, rest)| {
                    LAYERS.contains(&layer)
                        && !rest.is_empty()
                        && rest
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.".contains(c))
                })
            })
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_name_the_harness_emits_is_in_the_contract_and_back() {
        let spec = Spec::load();
        let workloads = include_str!("workloads.rs");
        let mut emitted = metric_literals(workloads);
        emitted.extend(metric_literals(include_str!("adapter.rs")));
        let listed: std::collections::BTreeSet<String> =
            spec.per_layer.iter().map(|m| m.name.clone()).collect();
        let unlisted: Vec<_> = emitted.difference(&listed).collect();
        assert!(
            unlisted.is_empty(),
            "emitted but not in BENCHMARK.json: {unlisted:?}"
        );
        let silent: Vec<_> = listed.difference(&emitted).collect();
        assert!(
            silent.is_empty(),
            "in BENCHMARK.json but never emitted: {silent:?}"
        );
        for m in &spec.end_to_end {
            assert!(
                workloads.contains(&format!("(\"{}\",", m.name)),
                "end-to-end metric {} is never given a value",
                m.name
            );
        }
    }
}

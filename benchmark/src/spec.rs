//! The metric definitions of the repository's `BENCHMARK.json`: names,
//! units, which way is better, and each end-to-end metric's regression
//! bound. Compiled in, so the worker, `run` and `compare` all read the one
//! definition the regression gate uses.

use crate::stats::Better;
use mlc_telemetry::json::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// Which way is better.
    pub better: Better,
    /// For end-to-end metrics, how much worse (a share of the baseline
    /// median) it may get before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// How long one run measures, in seconds.
    pub run_seconds: f64,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> Spec {
    parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed (checked by the unit tests)")
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let list = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("no {k:?} array"))
    };
    let metrics = |k: &str| -> Result<Vec<Metric>, String> {
        list(k)?
            .iter()
            .map(|m| {
                let s = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("{k} entry without {f:?}"))
                };
                Ok(Metric {
                    name: s("name")?.to_string(),
                    unit: s("unit")?.to_string(),
                    better: Better::parse(s("better")?).ok_or("better must be lower or higher")?,
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect::<Option<_>>()
            .ok_or("workload without a name")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("no run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_matches_the_code() {
        let s = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(s.workloads, names);
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up time gets the largest bound"
        );
    }
}

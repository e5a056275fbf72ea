//! `BENCHMARK.json` is the single catalogue of workloads, metric names, units,
//! directions and regression bounds; it is embedded at build time so the
//! binary and the committed file cannot disagree.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, unique across the catalogue.
    pub name: String,
    /// Unit printed with every value.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures by default.
    pub run_seconds: u64,
    /// Workload names, in catalogue order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees, measured with tracing off.
    pub end_to_end: Vec<MetricSpec>,
    /// Single-layer metrics, measured by the traced pass.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is malformed — a build-time artefact, so
    /// a bug in this repository rather than bad input.
    pub fn load() -> Spec {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is malformed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("missing array `{key}`"))
        };
        let string = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        better: match string(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("bad direction `{other}`")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing `run_seconds`")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_catalogue_meets_the_contract_limits() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["long_context", "serve_mixed", "serve_shared_prefix"]
        );
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric carries a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}

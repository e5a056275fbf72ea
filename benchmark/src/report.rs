//! Result documents: the one-line JSON the driver reads, the suite file
//! `--out` writes, and the `compare` table over two suite files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::spec::{Better, MetricSpec, Spec};

/// Measured run-to-run spreads (interquartile distance over median, ten
/// seeds), committed beside the bounds: `{workload: {metric: spread}}`.
const SPREADS_JSON: &str = include_str!("../baseline/spreads.json");

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// One workload's results within a suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or short of budget.
    pub failed: u64,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Values,
    /// Per-layer metrics (traced pass; empty if none ran).
    pub per_layer: Values,
    /// Counts that must repeat exactly for one seed.
    pub exact: Values,
}

/// A whole invocation's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Suite {
    /// `full`, or `smoke` — which can never be a baseline.
    pub mode: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested timed seconds per workload.
    pub seconds: u64,
    /// Results in run order.
    pub workloads: Vec<WorkloadResult>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metric_object(values: &Values, specs: &[MetricSpec]) -> String {
    let members: Vec<String> = specs
        .iter()
        .filter_map(|m| {
            let value = values.get(&m.name)?;
            Some(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(*value),
                m.unit
            ))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (the end-to-end set untraced, the per-layer set traced).
pub fn contract_line(result: &WorkloadResult, traced: bool, spec: &Spec) -> String {
    let metrics = if traced {
        metric_object(&result.per_layer, &spec.per_layer)
    } else {
        metric_object(&result.end_to_end, &spec.end_to_end)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        result.correct, result.attempted, result.failed
    )
}

fn plain_object(values: &Values) -> String {
    let members: Vec<String> = values
        .iter()
        .map(|(name, value)| format!("\"{name}\":{}", number(*value)))
        .collect();
    format!("{{{}}}", members.join(","))
}

impl Suite {
    /// Serializes the suite for `--out`.
    pub fn to_json(&self, spec: &Spec) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                format!(
                    "\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{},\"exact\":{}}}",
                    w.name,
                    w.correct,
                    w.attempted,
                    w.failed,
                    metric_object(&w.end_to_end, &spec.end_to_end),
                    metric_object(&w.per_layer, &spec.per_layer),
                    plain_object(&w.exact),
                )
            })
            .collect();
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        format!(
            "{{\"schema\":\"million-benchmark/v1\",\"mode\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\"workloads\":{{{}}}}}\n",
            self.mode,
            self.seed,
            self.seconds,
            workloads.join(",")
        )
    }

    /// Parses a suite file written by [`Suite::to_json`].
    pub fn from_json(text: &str) -> Result<Suite, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |key: &str| doc.get(key).ok_or(format!("missing `{key}`"));
        let Value::Object(members) = field("workloads")? else {
            return Err("`workloads` is not an object".into());
        };
        let values = |v: &Value, key: &str, nested: bool| -> Values {
            let Some(Value::Object(members)) = v.get(key) else {
                return Values::new();
            };
            members
                .iter()
                .filter_map(|(name, m)| {
                    let value = if nested { m.get("value")? } else { m };
                    Some((name.clone(), value.as_f64()?))
                })
                .collect()
        };
        Ok(Suite {
            mode: field("mode")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            seconds: field("seconds")?.as_f64().unwrap_or(0.0) as u64,
            workloads: members
                .iter()
                .map(|(name, w)| WorkloadResult {
                    name: name.clone(),
                    correct: w.get("correct") == Some(&Value::Bool(true)),
                    attempted: w.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    failed: w.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    end_to_end: values(w, "end_to_end", true),
                    per_layer: values(w, "per_layer", true),
                    exact: values(w, "exact", false),
                })
                .collect(),
        })
    }
}

/// Verdict of one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The recorded run-to-run spread is wider than the bound, so neither
    /// "unchanged" nor "worse" can be claimed.
    Unresolved,
}

/// Judges `candidate` against `base` for one metric.
pub fn judge(spec: &MetricSpec, base: f64, candidate: f64, spread: Option<f64>) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse = match spec.better {
        Better::Lower => candidate > base * (1.0 + bound),
        Better::Higher => candidate < base * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table of two suites and the number of `worse` rows
/// (including exact counts that disagree).
pub fn compare(base: &Suite, candidate: &Suite, spec: &Spec) -> (String, usize) {
    let spreads = serde_json::from_str(SPREADS_JSON).unwrap_or(Value::Null);
    let mut table = String::new();
    let mut worse = 0;
    let _ = writeln!(
        table,
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for a in &base.workloads {
        let Some(b) = candidate.workloads.iter().find(|w| w.name == a.name) else {
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(&va), Some(&vb)) = (a.end_to_end.get(&m.name), b.end_to_end.get(&m.name))
            else {
                continue;
            };
            let spread = spreads
                .get(&a.name)
                .and_then(|w| w.get(&m.name))
                .and_then(Value::as_f64);
            let verdict = judge(m, va, vb, spread);
            worse += usize::from(verdict == Verdict::Worse);
            let _ = writeln!(
                table,
                "{:<20} {:<26} {:>14.6} {:>14.6} {:>9.4} {:>6}  {}",
                a.name,
                m.name,
                va,
                vb,
                vb / va,
                m.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if base.seed == candidate.seed && base.seconds == candidate.seconds {
            for (name, va) in &a.exact {
                if b.exact.get(name).is_some_and(|vb| vb != va) {
                    worse += 1;
                    let _ = writeln!(
                        table,
                        "{:<20} {:<26} exact count differs: {} vs {}",
                        a.name, name, va, b.exact[name]
                    );
                }
            }
        }
    }
    (table, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(judge(&lower, 100.0, 109.0, None), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, 111.0, None), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 50.0, Some(0.05)), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, 111.0, Some(0.2)), Verdict::Unresolved);
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(judge(&higher, 100.0, 91.0, None), Verdict::Ok);
        assert_eq!(judge(&higher, 100.0, 89.0, None), Verdict::Worse);
    }

    #[test]
    fn suite_round_trips_and_compare_flags_regressions_and_count_drift() {
        let spec = Spec::load();
        let mut result = WorkloadResult {
            name: "serve_mixed".into(),
            correct: true,
            attempted: 32,
            failed: 0,
            ..WorkloadResult::default()
        };
        for m in &spec.end_to_end {
            result.end_to_end.insert(m.name.clone(), 10.0);
        }
        result.exact.insert("serving.rounds_total".into(), 321.0);
        let base = Suite {
            mode: "full".into(),
            seed: 11,
            seconds: 15,
            workloads: vec![result],
        };
        let parsed = Suite::from_json(&base.to_json(&spec)).expect("parses");
        assert_eq!(parsed, base);
        assert_eq!(compare(&base, &parsed, &spec).1, 0);

        let mut slower = base.clone();
        slower.workloads[0]
            .end_to_end
            .insert("tpot_ms_p50".into(), 14.0);
        slower.workloads[0]
            .exact
            .insert("serving.rounds_total".into(), 322.0);
        let (table, worse) = compare(&base, &slower, &spec);
        assert_eq!(worse, 2, "{table}");
        assert!(table.contains("worse") && table.contains("exact count differs"));

        let line = contract_line(&base.workloads[0], false, &spec);
        let doc = serde_json::from_str(&line).expect("one JSON object");
        let Value::Object(keys) = &doc else {
            panic!("not an object")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Value::String("s".into()))
        );
    }
}

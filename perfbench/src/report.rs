//! The metric catalogue, read from `BENCHMARK.json` when the benchmark is
//! built, and the result of one run: the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`, as
//! the catalogue declares them.

use crate::spans::Spans;
use obs::json::Json;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The declared metrics, `(name, unit)` in the order `BENCHMARK.json`
/// lists them.
pub struct Catalogue {
    /// Measured untraced, reported by every workload.
    pub end_to_end: Vec<(String, String)>,
    /// Measured in the traced run. A layer the workload does not run reads
    /// 0 and is listed under `not_exercised`.
    pub per_layer: Vec<(String, String)>,
}

impl Catalogue {
    fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let metrics = json.get(key).and_then(Json::as_arr).ok_or(key)?;
            metrics
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
                    s("name")
                        .zip(s("unit"))
                        .ok_or(format!("{key}: metric without name or unit"))
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    fn declares(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|(n, _)| n == name)
    }
}

/// The catalogue of the `BENCHMARK.json` this benchmark was built with.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        Catalogue::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// Measured metric values by name, in the order they were set.
#[derive(Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Sets metric `name`, which must be declared in the [`catalogue`].
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(catalogue().declares(name), "metric {name} is not declared");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: folds for CV workloads, requests for serving.
    pub attempted: u64,
    /// Operations that failed: timed-out folds, non-200 or wrong responses.
    pub failed: u64,
    /// Correctness failures; the run is correct when there are none.
    pub errors: Vec<String>,
    /// Metric values.
    pub values: Values,
    /// Human-readable context printed before the result line.
    pub details: Vec<(String, String)>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Adds a `key: value` line of context.
    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// The result line for the declared metrics in `list`; a declared
    /// metric the run did not set reads 0 and is named in `missing`.
    pub fn result_line(&self, list: &[(String, String)], missing: &mut Vec<String>) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.values.get(name).unwrap_or_else(|| {
                missing.push(name.clone());
                0.0
            });
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let c = catalogue();
        let all: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(c.declares("setup_s"));
    }

    #[test]
    fn result_line_reports_every_metric_with_unit() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.values.set("setup_s", 0.25);
        out.values.set("cpu_ms_per_op", 12.5);
        let mut missing = Vec::new();
        let line = out.result_line(&catalogue().end_to_end, &mut missing);
        assert_eq!(missing, vec!["f_measure", "peak_rss_mb"]);
        let json = Json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(3.0));
        let setup = json
            .path(&["metrics", "setup_s", "value"])
            .and_then(Json::as_f64);
        assert_eq!(setup, Some(0.25));
        let unit = json
            .path(&["metrics", "cpu_ms_per_op", "unit"])
            .and_then(Json::as_str);
        assert_eq!(unit, Some("ms"));
        out.errors.push("wrong".into());
        assert!(out
            .result_line(&catalogue().end_to_end, &mut missing)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Values::default().set("no_such_metric", 1.0);
    }
}

//! Perf-regression comparison between two `BENCH_<dataset>.json` trajectory
//! files (as written by the `bench_json` binary): a committed baseline and a
//! fresh run. Used by the `bench_compare` binary as a CI gate.
//!
//! A regression is flagged when, for any method present in the baseline:
//!
//! - end-to-end `time_secs` exceeds `baseline × time_tolerance`;
//! - any phase with a baseline `total_secs` above `min_phase_secs` exceeds
//!   `baseline × phase_tolerance` (tiny phases are pure noise);
//! - `f_measure` drops more than `quality_margin` below the baseline — a
//!   speedup that loses recall is not a win;
//! - a gated counter (`GATED_COUNTERS`, e.g. the constraint-pruning
//!   counter) is positive in the baseline but zero or missing in the fresh
//!   run — the phase tolerances assume those mechanisms are engaged, so a
//!   silently disabled one must fail loudly rather than eat the whole timing
//!   budget;
//! - a serving-benchmark throughput metric (`predictions_per_sec`,
//!   `achieved_rps`, `speedup`) falls below `baseline / time_tolerance`, or a
//!   latency metric (`p99_us`, `p999_us`) exceeds `baseline ×
//!   time_tolerance` — only gated when the baseline carries the key, so
//!   learning trajectories are unaffected;
//! - a method or gated phase disappears from the fresh run (a structural
//!   change that should come with a baseline refresh).
//!
//! Tolerances are deliberately ratio-based: baselines are recorded on
//! whatever machine ran them, so only relative slowdowns are meaningful, and
//! CI runners warrant generous ratios (the workflow uses ≥ 2×).

use obs::json::Json;

/// Counters gated by [`compare`]: positive in the baseline ⇒ must stay
/// positive in the fresh run. Deliberately a "still engaged" check, not a
/// ratio — counter magnitudes shift with legitimate search-order changes.
const GATED_COUNTERS: [&str; 5] = [
    "autobias_plan_compiled_total",
    "autobias_http_keepalive_reuses_total",
    // A baseline that observed per-operator q-errors means the plan-stats
    // pipeline was on; a fresh run where it reads zero has silently lost
    // EXPLAIN ANALYZE (and the estimate-accuracy feedback loop with it).
    "autobias_plan_estimate_qerror_count",
    // The bitset subsumption search (DESIGN.md §15): a baseline that
    // exercised it but a fresh run that reads zero means the run silently
    // lost domain accounting or component splitting — the coverage.theta
    // phase tolerance assumes both.
    "autobias_core_subsume_domain_words_total",
    "autobias_core_subsume_components_split_total",
];

/// Serving-benchmark throughput metrics (`BENCH_serve_*.json`): a fresh
/// value below `baseline / time_tolerance` is a regression. Learning
/// baselines don't carry these keys, so they gate nothing there.
const FLOOR_METRICS: [&str; 3] = ["predictions_per_sec", "achieved_rps", "speedup"];

/// Serving-benchmark latency metrics: a fresh value above
/// `baseline × time_tolerance` is a regression.
const CEILING_METRICS: [&str; 2] = ["p99_us", "p999_us"];

/// Thresholds for [`compare`]. Ratios are multiplicative (2.0 = "may take
/// twice as long"), the quality margin is absolute in F-measure points.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Allowed `fresh / baseline` ratio for end-to-end `time_secs`.
    pub time_tolerance: f64,
    /// Allowed `fresh / baseline` ratio for per-phase `total_secs`.
    pub phase_tolerance: f64,
    /// Phases whose baseline `total_secs` is below this are not gated.
    pub min_phase_secs: f64,
    /// Allowed absolute drop in `f_measure`.
    pub quality_margin: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            time_tolerance: 2.0,
            phase_tolerance: 2.0,
            min_phase_secs: 0.01,
            quality_margin: 0.05,
        }
    }
}

/// One failed check.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Method label (`"Manual"`, `"AutoBias"`, ...).
    pub method: String,
    /// What regressed: `time_secs`, `f_measure`, or `phase:<name>`.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value (NaN when the metric is missing from the fresh run).
    pub fresh: f64,
    /// The limit the fresh value violated.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.fresh.is_nan() {
            write!(
                f,
                "{}/{}: missing from fresh run (baseline {:.4})",
                self.method, self.what, self.baseline
            )
        } else {
            write!(
                f,
                "{}/{}: {:.4} exceeds limit {:.4} (baseline {:.4})",
                self.method, self.what, self.fresh, self.limit, self.baseline
            )
        }
    }
}

/// Result of comparing a fresh trajectory file against a baseline.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks evaluated (time, quality, and gated phases per method).
    pub checks: usize,
    /// Checks that failed.
    pub regressions: Vec<Regression>,
    /// Human-readable `ok`-or-`FAIL` line per check, in evaluation order.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn method_names(doc: &Json) -> Result<Vec<String>, String> {
    Ok(doc
        .get("methods")
        .and_then(Json::as_obj)
        .ok_or("no \"methods\" object")?
        .iter()
        .map(|(name, _)| name.clone())
        .collect())
}

/// Compares `fresh` against `baseline`, both parsed `BENCH_*.json` documents.
/// Errors on structurally unusable input; regressions are data, not errors.
pub fn compare(baseline: &Json, fresh: &Json, cfg: &CompareConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base_ds = baseline.get("dataset").and_then(Json::as_str);
    let fresh_ds = fresh.get("dataset").and_then(Json::as_str);
    if base_ds != fresh_ds {
        return Err(format!(
            "dataset mismatch: baseline {base_ds:?} vs fresh {fresh_ds:?}"
        ));
    }
    for method in method_names(baseline)? {
        let base = baseline
            .path(&["methods", method.as_str()])
            .expect("listed method");
        if base.get("error").is_some() {
            // The baseline recorded a failure for this method; nothing to gate.
            continue;
        }
        let fresh_m = match fresh.path(&["methods", method.as_str()]) {
            Some(m) if m.get("error").is_none() => m,
            _ => {
                out.checks += 1;
                out.fail(&method, "methods", 0.0, f64::NAN, 0.0);
                continue;
            }
        };

        let metric = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
        if let Some(base_t) = metric(base, "time_secs") {
            out.check_ceiling(
                &method,
                "time_secs",
                base_t,
                metric(fresh_m, "time_secs"),
                base_t * cfg.time_tolerance,
            );
        }
        if let Some(base_f) = metric(base, "f_measure") {
            // A floor, not a ceiling: flip both sides' signs.
            out.check_ceiling(
                &method,
                "f_measure",
                base_f,
                metric(fresh_m, "f_measure").map(|v| -v),
                -(base_f - cfg.quality_margin),
            );
        }
        for name in FLOOR_METRICS {
            if let Some(base_v) = metric(base, name) {
                // Same negation trick as f_measure: floor via ceiling.
                out.check_ceiling(
                    &method,
                    name,
                    -base_v,
                    metric(fresh_m, name).map(|v| -v),
                    -(base_v / cfg.time_tolerance),
                );
            }
        }
        for name in CEILING_METRICS {
            if let Some(base_v) = metric(base, name) {
                out.check_ceiling(
                    &method,
                    name,
                    base_v,
                    metric(fresh_m, name),
                    base_v * cfg.time_tolerance,
                );
            }
        }
        let base_phases = base.get("phases").and_then(Json::as_obj);
        for (phase, entry) in base_phases.unwrap_or(&[]) {
            let base_t = match entry.get("total_secs").and_then(Json::as_f64) {
                Some(t) if t >= cfg.min_phase_secs => t,
                _ => continue,
            };
            let fresh_t = fresh_m
                .path(&["phases", phase.as_str()])
                .and_then(|p| p.get("total_secs"))
                .and_then(Json::as_f64);
            out.check_ceiling(
                &method,
                &format!("phase:{phase}"),
                base_t,
                fresh_t,
                base_t * cfg.phase_tolerance,
            );
        }
        let base_counters = base.get("counters").and_then(Json::as_obj);
        for (name, entry) in base_counters.unwrap_or(&[]) {
            if !GATED_COUNTERS.contains(&name.as_str()) {
                continue;
            }
            let base_v = match entry.as_f64() {
                Some(v) if v > 0.0 => v,
                _ => continue,
            };
            let fresh_v = fresh_m
                .path(&["counters", name.as_str()])
                .and_then(Json::as_f64);
            // A floor at 1: negate both sides of the ceiling check.
            out.check_ceiling(
                &method,
                &format!("counter:{name}"),
                -base_v,
                fresh_v.map(|v| -v),
                -1.0,
            );
        }
    }
    if out.checks == 0 {
        return Err("baseline has no usable methods to compare".to_string());
    }
    Ok(out)
}

impl Outcome {
    /// Records one `fresh <= limit` check; a missing fresh value fails it.
    /// Negated inputs turn the ceiling into a floor (see the f_measure call).
    fn check_ceiling(
        &mut self,
        method: &str,
        what: &str,
        baseline: f64,
        fresh: Option<f64>,
        limit: f64,
    ) {
        self.checks += 1;
        match fresh {
            Some(v) if v <= limit => self.lines.push(format!(
                "ok   {method}/{what}: {:.4} within {:.4} (baseline {:.4})",
                v.abs(),
                limit.abs(),
                baseline.abs()
            )),
            Some(v) => self.fail(method, what, baseline.abs(), v.abs(), limit.abs()),
            None => self.fail(method, what, baseline.abs(), f64::NAN, limit.abs()),
        }
    }

    fn fail(&mut self, method: &str, what: &str, baseline: f64, fresh: f64, limit: f64) {
        let r = Regression {
            method: method.to_string(),
            what: what.to_string(),
            baseline,
            fresh,
            limit,
        };
        self.lines.push(format!("FAIL {r}"));
        self.regressions.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(time: f64, fm: f64, theta_secs: f64) -> Json {
        Json::parse(&format!(
            r#"{{"dataset": "UW", "folds": 2, "methods": {{
                "Manual": {{
                    "f_measure": {fm}, "time_secs": {time},
                    "phases": {{
                        "coverage.theta": {{"count": 10, "total_secs": {theta_secs}, "max_us": 9}},
                        "tiny.phase": {{"count": 1, "total_secs": 0.0001, "max_us": 1}}
                    }}
                }}
            }}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_runs_pass_every_check() {
        let base = doc(10.0, 0.9, 4.0);
        let out = compare(&base, &base, &CompareConfig::default()).unwrap();
        assert!(out.passed(), "{:?}", out.regressions);
        // time + quality + one gated phase; the sub-threshold phase is skipped.
        assert_eq!(out.checks, 3);
        assert!(
            out.lines.iter().all(|l| l.starts_with("ok")),
            "{:?}",
            out.lines
        );
    }

    #[test]
    fn slowdowns_and_quality_drops_are_flagged() {
        let base = doc(10.0, 0.9, 4.0);
        let fresh = doc(25.0, 0.7, 9.0); // 2.5× slower, −0.2 F, 2.25× phase
        let out = compare(&base, &fresh, &CompareConfig::default()).unwrap();
        let whats: Vec<&str> = out.regressions.iter().map(|r| r.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["time_secs", "f_measure", "phase:coverage.theta"],
            "{:?}",
            out.regressions
        );
        // Generous tolerances wave the same run through.
        let lax = CompareConfig {
            time_tolerance: 3.0,
            phase_tolerance: 3.0,
            quality_margin: 0.25,
            ..CompareConfig::default()
        };
        assert!(compare(&base, &fresh, &lax).unwrap().passed());
    }

    #[test]
    fn missing_method_or_phase_fails_instead_of_passing_vacuously() {
        let base = doc(10.0, 0.9, 4.0);
        let gone = Json::parse(r#"{"dataset": "UW", "methods": {}}"#).unwrap();
        let out = compare(&base, &gone, &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].fresh.is_nan());

        let renamed = Json::parse(
            r#"{"dataset": "UW", "methods": {"Manual": {
                "f_measure": 0.9, "time_secs": 10.0, "phases": {}
            }}}"#,
        )
        .unwrap();
        let out = compare(&base, &renamed, &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].what, "phase:coverage.theta");
    }

    fn doc_with_counters(splits: u64) -> Json {
        Json::parse(&format!(
            r#"{{"dataset": "UW", "folds": 2, "methods": {{
                "AutoBias": {{
                    "f_measure": 0.9, "time_secs": 10.0,
                    "phases": {{}},
                    "counters": {{
                        "autobias_core_subsume_components_split_total": {splits},
                        "autobias_core_subsumption_tests_total": 5000
                    }}
                }}
            }}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn disabled_component_splitting_fails_the_counter_gate() {
        let base = doc_with_counters(1200);
        // Engaged component splitting passes, whatever the magnitude.
        let out = compare(&base, &doc_with_counters(3), &CompareConfig::default()).unwrap();
        assert!(out.passed(), "{:?}", out.regressions);
        // A zero or missing component-split counter fails.
        let out = compare(&base, &doc_with_counters(0), &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(
            out.regressions[0].what,
            "counter:autobias_core_subsume_components_split_total"
        );
        let stripped = Json::parse(
            r#"{"dataset": "UW", "methods": {"AutoBias": {
                "f_measure": 0.9, "time_secs": 10.0, "phases": {}
            }}}"#,
        )
        .unwrap();
        let out = compare(&base, &stripped, &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].fresh.is_nan());
        // Ungated counters never gate, and a gated counter at zero in the
        // baseline is not checked: this pair makes no counter checks at all.
        let out = compare(
            &doc_with_counters(0),
            &doc_with_counters(0),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(out.passed());
        assert_eq!(out.checks, 2); // time + quality only
    }

    #[test]
    fn silently_disabled_subsume_engine_fails_the_counter_gate() {
        let doc = |words: u64| {
            Json::parse(&format!(
                r#"{{"dataset": "UW", "methods": {{
                    "AutoBias": {{
                        "f_measure": 0.9, "time_secs": 10.0, "phases": {{}},
                        "counters": {{
                            "autobias_core_subsume_domain_words_total": {words},
                            "autobias_core_subsume_components_split_total": {words}
                        }}
                    }}
                }}}}"#
            ))
            .unwrap()
        };
        let base = doc(27_000_000);
        // Magnitudes may move freely as long as both stay engaged.
        assert!(compare(&base, &doc(9), &CompareConfig::default())
            .unwrap()
            .passed());
        // Legacy-engine fallback: domain-word and component counters at zero.
        let out = compare(&base, &doc(0), &CompareConfig::default()).unwrap();
        let whats: Vec<&str> = out.regressions.iter().map(|r| r.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                "counter:autobias_core_subsume_domain_words_total",
                "counter:autobias_core_subsume_components_split_total",
            ],
            "{:?}",
            out.regressions
        );
    }

    #[test]
    fn silently_disabled_plan_stats_fail_the_qerror_gate() {
        let doc = |observations: u64| {
            Json::parse(&format!(
                r#"{{"dataset": "UW", "methods": {{
                    "http": {{
                        "achieved_rps": 900.0, "phases": {{}},
                        "counters": {{
                            "autobias_plan_estimate_qerror_count": {observations},
                            "autobias_plan_variant_selections_total": 0
                        }}
                    }}
                }}}}"#
            ))
            .unwrap()
        };
        let base = doc(480);
        // Any positive observation count passes — magnitudes track traffic.
        assert!(compare(&base, &doc(7), &CompareConfig::default())
            .unwrap()
            .passed());
        // Zero means no batch tallied its plan steps under load.
        let out = compare(&base, &doc(0), &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(
            out.regressions[0].what,
            "counter:autobias_plan_estimate_qerror_count"
        );
        // Variant selections are recorded but never gated: a single-variant
        // plan legitimately reads zero.
        let out = compare(&doc(0), &doc(0), &CompareConfig::default()).unwrap();
        assert!(out.passed());
    }

    fn serve_doc(pps: f64, speedup: f64, p99: f64) -> Json {
        Json::parse(&format!(
            r#"{{"dataset": "UW", "methods": {{
                "compiled": {{
                    "predictions_per_sec": {pps}, "speedup": {speedup},
                    "phases": {{}}
                }},
                "http": {{
                    "achieved_rps": 900.0, "p99_us": {p99}, "p999_us": {p99},
                    "phases": {{}}
                }}
            }}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn serve_throughput_floors_and_latency_ceilings_gate() {
        let base = serve_doc(1_000_000.0, 40.0, 800.0);
        let out = compare(&base, &base, &CompareConfig::default()).unwrap();
        assert!(out.passed(), "{:?}", out.regressions);
        // compiled: pps + speedup; http: rps + p99 + p999.
        assert_eq!(out.checks, 5);

        // Halved tolerance-adjusted throughput and tripled tail latency fail.
        let slow = serve_doc(400_000.0, 15.0, 2500.0);
        let out = compare(&base, &slow, &CompareConfig::default()).unwrap();
        let whats: Vec<&str> = out.regressions.iter().map(|r| r.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["predictions_per_sec", "speedup", "p99_us", "p999_us"],
            "{:?}",
            out.regressions
        );

        // Within the 2× ratio band in both directions: passes.
        let ok = serve_doc(600_000.0, 25.0, 1500.0);
        assert!(compare(&base, &ok, &CompareConfig::default())
            .unwrap()
            .passed());

        // Missing serve metrics in the fresh run fail instead of vacuously
        // passing.
        let stripped = Json::parse(
            r#"{"dataset": "UW", "methods": {
                "compiled": {"phases": {}}, "http": {"phases": {}}
            }}"#,
        )
        .unwrap();
        let out = compare(&base, &stripped, &CompareConfig::default()).unwrap();
        assert_eq!(out.regressions.len(), 5);
        assert!(out.regressions.iter().all(|r| r.fresh.is_nan()));
    }

    #[test]
    fn structural_mismatches_are_errors_not_regressions() {
        let base = doc(10.0, 0.9, 4.0);
        let other = Json::parse(r#"{"dataset": "IMDB", "methods": {}}"#).unwrap();
        assert!(compare(&base, &other, &CompareConfig::default()).is_err());
        let empty = Json::parse(r#"{"dataset": "UW", "methods": {}}"#).unwrap();
        assert!(compare(&empty, &empty, &CompareConfig::default()).is_err());
        let errored =
            Json::parse(r#"{"dataset": "UW", "methods": {"Manual": {"error": "boom"}}}"#).unwrap();
        assert!(
            compare(&errored, &errored, &CompareConfig::default()).is_err(),
            "a baseline of only errors gates nothing"
        );
    }
}

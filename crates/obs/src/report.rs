//! Structured run reports: a versioned JSON artifact tying one learning
//! run's hyper-parameters, per-iteration search decisions, phase timings,
//! and counters together. Written by `autobias learn --report-out FILE` and
//! archived per-job by the serving layer's run ledger, so a run's story
//! survives the process that produced it.
//!
//! [`ReportBuilder`] is a [`ProgressSink`] that owns the run's trace tree
//! ([`ReportBuilder::trace`]): install that context around the run and feed
//! the builder the learner's event stream, then call
//! [`ReportBuilder::finish`]. The report's phases are folded from the run's
//! own spans — worker threads included — so they describe *this* run and
//! nothing else a long-lived server did meanwhile; the chrome-trace export
//! (`--trace-out`) and a server job's kept trace are views of the same tree.
//! Counters are process-global, so the report carries their deltas since the
//! builder was created.

use crate::progress::{ProgressEvent, ProgressSink};
use crate::trace::TraceCtx;
use std::collections::HashMap;
use std::sync::Mutex;

/// Report schema version, bumped on any incompatible JSON change.
///
/// v2 added the optional `"plan"` section ([`PlanReport`]); v1 readers that
/// ignore unknown keys keep working, and v2 readers must treat a missing or
/// null `"plan"` as "no compile outcome recorded" (see the back-compat
/// test).
pub const SCHEMA_VERSION: u32 = 2;

/// One covering-loop iteration as recorded in the report.
#[derive(Debug, Clone, Default)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Positives uncovered when the iteration began.
    pub uncovered_pos: usize,
    /// Body literals of the seed's bottom clause.
    pub seed_bc_literals: usize,
    /// Beam iterations executed by the clause search.
    pub beam_iterations: usize,
    /// Candidates generated by armg.
    pub candidates_generated: usize,
    /// Candidates pruned by the positive-coverage bound.
    pub candidates_pruned: usize,
    /// armg applications.
    pub armg_calls: usize,
    /// Whether the searched clause was accepted.
    pub accepted: bool,
    /// Positives covered by the searched clause.
    pub covered_pos: usize,
    /// Negatives covered by the searched clause.
    pub covered_neg: usize,
    /// Training precision of the searched clause.
    pub precision: f64,
    /// Rendered clause text (accepted clauses only).
    pub clause: Option<String>,
    /// Positives still uncovered after the iteration.
    pub uncovered_after: usize,
}

/// Ground-BC construction summary.
#[derive(Debug, Clone, Default)]
pub struct BcSummary {
    /// Positive training examples.
    pub pos_examples: usize,
    /// Negative training examples.
    pub neg_examples: usize,
    /// Total ground literals built.
    pub ground_literals: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Terminal state of the run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// `done`, `timed_out`, or `cancelled`.
    pub state: String,
    /// Clauses in the final definition.
    pub clauses: usize,
    /// Positives left uncovered.
    pub uncovered_pos: usize,
    /// Whether the time budget expired.
    pub timed_out: bool,
    /// Whether external cancellation stopped the run.
    pub cancelled: bool,
    /// Seconds in BC construction.
    pub bc_secs: f64,
    /// Seconds in the covering loop.
    pub search_secs: f64,
}

/// Compile outcome of the learned definition: how many clauses the plan
/// compiler turned into index-probe pipelines and how many it declined to
/// the interpreter (schema v2).
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// Clauses compiled into evaluation plans.
    pub compiled_clauses: usize,
    /// Clauses declined to the interpreter.
    pub fallback_clauses: usize,
    /// Decline reasons, one rendered string per declined clause.
    pub declined: Vec<String>,
}

/// Wall-clock totals of one span name over the run's trace tree.
#[derive(Debug, Clone)]
pub struct RunPhase {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name the run completed.
    pub count: u64,
    /// Total microseconds.
    pub total_us: u64,
    /// Longest single span of the run, microseconds.
    pub max_us: u64,
}

/// The versioned flight-recorder artifact for one learning run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Dataset name or directory the run learned from.
    pub dataset: String,
    /// Trace id (32 hex digits) of the run's span tree — correlates the
    /// archived report with the serving layer's trace store. Additive, so
    /// the schema stays v2 (readers of older reports see it null or absent).
    pub trace_id: String,
    /// Hyper-parameters as `(key, value)` pairs, in insertion order.
    pub params: Vec<(String, String)>,
    /// Ground-BC construction summary, when the run got that far.
    pub bc: Option<BcSummary>,
    /// Per-iteration search decisions, in order.
    pub iterations: Vec<IterationRecord>,
    /// Rendered clauses of the learned definition, in acceptance order.
    pub clauses: Vec<String>,
    /// Per-span-name wall-clock totals of the run, sorted by name.
    pub phases: Vec<RunPhase>,
    /// Counter deltas over the run, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Compile outcome of the learned definition, when recorded (v2).
    pub plan: Option<PlanReport>,
    /// Terminal state, when the run finished.
    pub outcome: Option<RunOutcome>,
}

impl RunReport {
    /// Renders the report as pretty-ish JSON (stable key order, one
    /// iteration per line).
    pub fn to_json(&self) -> String {
        let esc = crate::chrome::json_escape;
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"dataset\": \"{}\",\n", esc(&self.dataset)));
        out.push_str(&format!("  \"trace_id\": \"{}\",\n", esc(&self.trace_id)));

        out.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\": \"{}\"", esc(k), esc(v)));
        }
        out.push_str("},\n");

        match &self.bc {
            Some(bc) => out.push_str(&format!(
                "  \"bc\": {{\"pos_examples\": {}, \"neg_examples\": {}, \
                 \"ground_literals\": {}, \"elapsed_secs\": {:.6}}},\n",
                bc.pos_examples, bc.neg_examples, bc.ground_literals, bc.elapsed_secs
            )),
            None => out.push_str("  \"bc\": null,\n"),
        }

        out.push_str("  \"iterations\": [\n");
        for (i, it) in self.iterations.iter().enumerate() {
            let clause = match &it.clause {
                Some(c) => format!("\"{}\"", esc(c)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"iteration\": {}, \"uncovered_pos\": {}, \"seed_bc_literals\": {}, \
                 \"beam_iterations\": {}, \"candidates_generated\": {}, \
                 \"candidates_pruned\": {}, \"armg_calls\": {}, \"accepted\": {}, \
                 \"covered_pos\": {}, \"covered_neg\": {}, \"precision\": {:.4}, \
                 \"clause\": {clause}, \"uncovered_after\": {}}}{}\n",
                it.iteration,
                it.uncovered_pos,
                it.seed_bc_literals,
                it.beam_iterations,
                it.candidates_generated,
                it.candidates_pruned,
                it.armg_calls,
                it.accepted,
                it.covered_pos,
                it.covered_neg,
                it.precision,
                it.uncovered_after,
                if i + 1 < self.iterations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"clauses\": [");
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", esc(c)));
        }
        out.push_str("],\n");

        out.push_str("  \"phases\": {");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_secs\": {:.6}, \"max_us\": {}}}",
                esc(p.name),
                p.count,
                p.total_us as f64 / 1e6,
                p.max_us
            ));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", esc(name)));
        }
        out.push_str("\n  },\n");

        match &self.plan {
            Some(p) => {
                let mut declined = String::new();
                for (i, d) in p.declined.iter().enumerate() {
                    if i > 0 {
                        declined.push(',');
                    }
                    declined.push_str(&format!("\"{}\"", esc(d)));
                }
                out.push_str(&format!(
                    "  \"plan\": {{\"compiled_clauses\": {}, \"fallback_clauses\": {}, \
                     \"declined\": [{declined}]}},\n",
                    p.compiled_clauses, p.fallback_clauses
                ));
            }
            None => out.push_str("  \"plan\": null,\n"),
        }

        match &self.outcome {
            Some(o) => out.push_str(&format!(
                "  \"outcome\": {{\"state\": \"{}\", \"clauses\": {}, \"uncovered_pos\": {}, \
                 \"timed_out\": {}, \"cancelled\": {}, \"bc_secs\": {:.6}, \
                 \"search_secs\": {:.6}}}\n",
                esc(&o.state),
                o.clauses,
                o.uncovered_pos,
                o.timed_out,
                o.cancelled,
                o.bc_secs,
                o.search_secs
            )),
            None => out.push_str("  \"outcome\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// The human view printed by `autobias learn --profile`: the per-phase
    /// table sorted by total time descending (the dominating phase on top),
    /// then the counters the run moved. Zero counters are elided: a run
    /// registers every counter in the process, most of which are silent for
    /// any one configuration.
    pub fn render_profile(&self) -> String {
        let mut phases: Vec<&RunPhase> = self.phases.iter().collect();
        phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(b.name)));
        let name_w = phases
            .iter()
            .map(|p| p.name.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5);
        let mut out = format!(
            "{:name_w$}  {:>9}  {:>10}  {:>10}  {:>10}\n",
            "phase", "count", "total", "mean", "max"
        );
        for p in phases {
            out.push_str(&format!(
                "{:name_w$}  {:>9}  {:>10}  {:>10}  {:>10}\n",
                p.name,
                p.count,
                fmt_us(p.total_us),
                fmt_us(p.total_us.checked_div(p.count).unwrap_or(0)),
                fmt_us(p.max_us),
            ));
        }
        let counters: Vec<_> = self.counters.iter().filter(|(_, v)| *v != 0).collect();
        if counters.is_empty() {
            return out;
        }
        let name_w = counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(std::iter::once("counter".len()))
            .max()
            .unwrap_or(7);
        out.push_str(&format!("\n{:name_w$}  {:>12}\n", "counter", "value"));
        for (name, value) in counters {
            out.push_str(&format!("{name:name_w$}  {value:>12}\n"));
        }
        out
    }
}

/// Formats microseconds as a human duration (`873µs`, `12.3ms`, `4.56s`).
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

#[derive(Clone, Default)]
struct BuilderState {
    bc: Option<BcSummary>,
    iterations: Vec<IterationRecord>,
    clauses: Vec<String>,
    plan: Option<PlanReport>,
    outcome: Option<RunOutcome>,
}

/// Accumulates one run's record into a [`RunReport`]. Create it *before*
/// the run (it begins the run's trace tree and snapshots the counter
/// registry), install [`ReportBuilder::trace`] on the running thread, feed
/// the builder as the run's sink, then read it with
/// [`ReportBuilder::finish`].
pub struct ReportBuilder {
    dataset: String,
    params: Vec<(String, String)>,
    counter_base: HashMap<&'static str, u64>,
    trace: TraceCtx,
    state: Mutex<BuilderState>,
}

impl ReportBuilder {
    /// Creates a builder: begins the run's trace tree
    /// ([`TraceCtx::begin_run`]) and snapshots counters as the run's
    /// baseline.
    pub fn new(dataset: impl Into<String>, params: Vec<(String, String)>) -> Self {
        // A run whose tree hits its cap says so in its counters.
        crate::metrics::register(&crate::trace::DROPPED_SPANS);
        let counter_base = crate::metrics::registered()
            .iter()
            .map(|c| (c.name(), c.get()))
            .collect();
        Self {
            dataset: dataset.into(),
            params,
            counter_base,
            trace: TraceCtx::begin_run(),
            state: Mutex::new(BuilderState::default()),
        }
    }

    /// The run's trace context: install it on the thread that runs the
    /// learn, and the spans entered there (and on the workers it fans out
    /// to) make up the report's phases.
    pub fn trace(&self) -> &TraceCtx {
        &self.trace
    }

    /// Records the compile outcome of the learned definition. Called by the
    /// learn pipeline that compiles the final model (`autobias learn` and
    /// serve jobs share one), not by the learner's event stream —
    /// compilation happens after learning.
    pub fn set_plan(&self, plan: PlanReport) {
        self.state.lock().expect("report builder poisoned").plan = Some(plan);
    }

    /// The report so far: the events fed until now, the phases of the spans
    /// the run's tree holds, and counter deltas since construction. Leaves
    /// the builder open, so a live run can be read as often as it is polled.
    pub fn finish(&self) -> RunReport {
        let state = self.state.lock().expect("report builder poisoned").clone();
        let mut counters: Vec<(String, u64)> = crate::metrics::registered()
            .iter()
            .map(|c| {
                let base = self.counter_base.get(c.name()).copied().unwrap_or(0);
                (c.name().to_string(), c.get().saturating_sub(base))
            })
            .collect();
        counters.sort();
        let mut by_name: HashMap<&'static str, RunPhase> = HashMap::new();
        for s in self.trace.spans().iter() {
            let p = by_name.entry(s.name).or_insert(RunPhase {
                name: s.name,
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            p.count += 1;
            p.total_us += s.dur_us;
            p.max_us = p.max_us.max(s.dur_us);
        }
        let mut phases: Vec<RunPhase> = by_name.into_values().collect();
        phases.sort_by_key(|p| p.name);
        RunReport {
            dataset: self.dataset.clone(),
            trace_id: self.trace.trace_id_hex(),
            params: self.params.clone(),
            bc: state.bc,
            iterations: state.iterations,
            clauses: state.clauses,
            phases,
            counters,
            plan: state.plan,
            outcome: state.outcome,
        }
    }
}

impl ProgressSink for ReportBuilder {
    fn on_event(&self, ev: &ProgressEvent) {
        let mut s = self.state.lock().expect("report builder poisoned");
        match ev {
            ProgressEvent::BcBuildFinished {
                pos_examples,
                neg_examples,
                ground_literals,
                elapsed_us,
            } => {
                s.bc = Some(BcSummary {
                    pos_examples: *pos_examples,
                    neg_examples: *neg_examples,
                    ground_literals: *ground_literals,
                    elapsed_secs: *elapsed_us as f64 / 1e6,
                });
            }
            ProgressEvent::IterationStarted {
                iteration,
                uncovered_pos,
                clauses_so_far: _,
                seed_bc_literals,
            } => {
                s.iterations.push(IterationRecord {
                    iteration: *iteration,
                    uncovered_pos: *uncovered_pos,
                    seed_bc_literals: *seed_bc_literals,
                    uncovered_after: *uncovered_pos,
                    ..IterationRecord::default()
                });
            }
            ProgressEvent::ClauseSearched {
                iteration: _,
                beam_iterations,
                candidates_generated,
                candidates_pruned,
                armg_calls,
            } => {
                if let Some(it) = s.iterations.last_mut() {
                    it.beam_iterations = *beam_iterations;
                    it.candidates_generated = *candidates_generated;
                    it.candidates_pruned = *candidates_pruned;
                    it.armg_calls = *armg_calls;
                }
            }
            ProgressEvent::ClauseAccepted {
                iteration: _,
                covered_pos,
                covered_neg,
                precision,
                literals: _,
                uncovered_after,
                clause,
            } => {
                if let Some(it) = s.iterations.last_mut() {
                    it.accepted = true;
                    it.covered_pos = *covered_pos;
                    it.covered_neg = *covered_neg;
                    it.precision = *precision;
                    it.clause = Some(clause.clone());
                    it.uncovered_after = *uncovered_after;
                }
                s.clauses.push(clause.clone());
            }
            ProgressEvent::ClauseRejected {
                iteration: _,
                covered_pos,
                covered_neg,
                precision,
            } => {
                if let Some(it) = s.iterations.last_mut() {
                    it.accepted = false;
                    it.covered_pos = *covered_pos;
                    it.covered_neg = *covered_neg;
                    it.precision = *precision;
                    it.uncovered_after = it.uncovered_pos.saturating_sub(1);
                }
            }
            ProgressEvent::Finished {
                clauses,
                uncovered_pos,
                timed_out,
                cancelled,
                bc_us,
                search_us,
            } => {
                let state = if *cancelled {
                    "cancelled"
                } else if *timed_out {
                    "timed_out"
                } else {
                    "done"
                };
                s.outcome = Some(RunOutcome {
                    state: state.to_string(),
                    clauses: *clauses,
                    uncovered_pos: *uncovered_pos,
                    timed_out: *timed_out,
                    cancelled: *cancelled,
                    bc_secs: *bc_us as f64 / 1e6,
                    search_secs: *search_us as f64 / 1e6,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn feed(builder: &ReportBuilder) {
        for ev in [
            ProgressEvent::BcBuildFinished {
                pos_examples: 8,
                neg_examples: 8,
                ground_literals: 120,
                elapsed_us: 2_000,
            },
            ProgressEvent::IterationStarted {
                iteration: 1,
                uncovered_pos: 8,
                clauses_so_far: 0,
                seed_bc_literals: 14,
            },
            ProgressEvent::ClauseSearched {
                iteration: 1,
                beam_iterations: 2,
                candidates_generated: 6,
                candidates_pruned: 1,
                armg_calls: 5,
            },
            ProgressEvent::ClauseAccepted {
                iteration: 1,
                covered_pos: 5,
                covered_neg: 0,
                precision: 1.0,
                literals: 2,
                uncovered_after: 3,
                clause: "t(x) ← r(x, y)".to_string(),
            },
            ProgressEvent::IterationStarted {
                iteration: 2,
                uncovered_pos: 3,
                clauses_so_far: 1,
                seed_bc_literals: 9,
            },
            ProgressEvent::ClauseRejected {
                iteration: 2,
                covered_pos: 1,
                covered_neg: 3,
                precision: 0.25,
            },
            ProgressEvent::Finished {
                clauses: 1,
                uncovered_pos: 2,
                timed_out: false,
                cancelled: false,
                bc_us: 2_000,
                search_us: 9_000,
            },
        ] {
            builder.on_event(&ev);
        }
    }

    #[test]
    fn builder_accumulates_iterations_and_outcome() {
        let builder = ReportBuilder::new(
            "uw",
            vec![
                ("bias".to_string(), "manual".to_string()),
                ("seed".to_string(), "7".to_string()),
            ],
        );
        feed(&builder);
        let report = builder.finish();
        assert_eq!(report.dataset, "uw");
        assert_eq!(report.iterations.len(), 2);
        assert!(report.iterations[0].accepted);
        assert!(!report.iterations[1].accepted);
        assert_eq!(report.iterations[0].uncovered_after, 3);
        assert_eq!(report.iterations[1].uncovered_after, 2);
        assert_eq!(report.clauses, vec!["t(x) ← r(x, y)"]);
        let o = report.outcome.as_ref().unwrap();
        assert_eq!(o.state, "done");
        assert_eq!(o.clauses, 1);
        assert_eq!(report.bc.as_ref().unwrap().ground_literals, 120);
    }

    #[test]
    fn report_json_is_valid_and_versioned() {
        let builder = ReportBuilder::new("uw", vec![("x".to_string(), "y\"z".to_string())]);
        feed(&builder);
        builder.set_plan(PlanReport {
            compiled_clauses: 1,
            fallback_clauses: 1,
            declined: vec!["clause 1: 40 body literals exceed 32".to_string()],
        });
        let json = builder.finish().to_json();
        let parsed = Json::parse(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert_eq!(
            parsed.get("schema_version").unwrap().as_f64(),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("dataset").unwrap().as_str(), Some("uw"));
        assert_eq!(
            parsed.path(&["params", "x"]).unwrap().as_str(),
            Some("y\"z")
        );
        assert_eq!(parsed.get("iterations").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            parsed.path(&["outcome", "state"]).unwrap().as_str(),
            Some("done")
        );
        assert_eq!(
            parsed.path(&["bc", "ground_literals"]).unwrap().as_f64(),
            Some(120.0)
        );
        assert_eq!(
            parsed.path(&["plan", "compiled_clauses"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            parsed.path(&["plan", "fallback_clauses"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            parsed
                .get("plan")
                .unwrap()
                .get("declined")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            1
        );
    }

    /// Schema v1 artifacts (no `"plan"` key) must stay readable: every v1
    /// field parses as before, and probing for the v2 section yields `None`
    /// rather than an error. A fresh v2 report without a recorded plan emits
    /// `"plan": null`, which readers must treat the same way.
    #[test]
    fn v1_reports_without_plan_section_still_parse() {
        let v1 = r#"{
  "schema_version": 1,
  "dataset": "uw",
  "params": {"bias": "manual"},
  "bc": {"pos_examples": 8, "neg_examples": 8, "ground_literals": 120, "elapsed_secs": 0.002},
  "iterations": [],
  "clauses": [],
  "phases": {},
  "counters": {},
  "outcome": {"state": "done", "clauses": 1, "uncovered_pos": 0, "timed_out": false, "cancelled": false, "bc_secs": 0.002, "search_secs": 0.009}
}"#;
        let parsed = Json::parse(v1).unwrap();
        assert_eq!(parsed.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            parsed.path(&["outcome", "state"]).unwrap().as_str(),
            Some("done")
        );
        assert!(parsed.get("plan").is_none(), "v1 has no plan section");

        // A v2 report with no recorded plan renders it as null.
        let builder = ReportBuilder::new("uw", vec![]);
        feed(&builder);
        let json = builder.finish().to_json();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("schema_version").unwrap().as_f64(), Some(2.0));
        assert!(matches!(parsed.get("plan"), Some(Json::Null)));
    }

    #[test]
    fn phases_are_the_runs_own_and_counters_are_deltas() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Summary);
        // Pre-run noise the report must not include.
        {
            let _sp = crate::span!("test.report_phase");
        }
        static PRE: crate::metrics::Counter =
            crate::metrics::Counter::new("test_report_delta_total", "test");
        crate::metrics::register(&PRE);
        PRE.add(100);

        let builder = ReportBuilder::new("d", vec![]);
        PRE.add(3);
        {
            let _traced = builder.trace().install();
            let _sp = crate::span!("test.report_phase");
            let _sp2 = crate::span!("test.report_phase");
        }
        // Spans outside the run's context (another request on a server)
        // stay out of its report.
        {
            let _sp = crate::span!("test.report_phase");
        }
        let report = builder.finish();
        crate::set_mode(crate::Mode::Off);
        crate::reset();

        let c = report
            .counters
            .iter()
            .find(|(n, _)| n == "test_report_delta_total")
            .expect("registered counter in report");
        assert_eq!(c.1, 3, "counter must be the delta, not the absolute value");
        let p = report
            .phases
            .iter()
            .find(|p| p.name == "test.report_phase")
            .expect("phase in report");
        assert_eq!(p.count, 2, "phase count must be the run's own");
        assert_eq!(report.trace_id, builder.trace().trace_id_hex());
    }

    /// Two runs in sequence: the first one's span is the longer, and each
    /// report's `max_us` must still be its own.
    #[test]
    fn each_runs_max_us_is_its_own() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let run = |sleep_ms: u64| {
            let builder = ReportBuilder::new("d", vec![]);
            {
                let _traced = builder.trace().install();
                let _sp = crate::span!("test.report_max");
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            }
            let report = builder.finish();
            report
                .phases
                .iter()
                .find(|p| p.name == "test.report_max")
                .expect("phase in report")
                .max_us
        };
        let first = run(30);
        let second = run(1);
        assert!(first >= 30_000, "{first}");
        assert!(
            second < 30_000,
            "second run reports {second}us, first {first}us"
        );
    }

    #[test]
    fn profile_sorts_phases_by_total_and_elides_zero_counters() {
        let report = RunReport {
            phases: vec![
                RunPhase {
                    name: "test.fast",
                    count: 1,
                    total_us: 10,
                    max_us: 10,
                },
                RunPhase {
                    name: "test.slow",
                    count: 2,
                    total_us: 2_000_000,
                    max_us: 1_500_000,
                },
            ],
            counters: vec![
                ("demo_shown_total".to_string(), 3),
                ("demo_zero_total".to_string(), 0),
            ],
            ..RunReport::default()
        };
        let table = report.render_profile();
        assert!(table.starts_with("phase"), "{table}");
        let slow = table.find("test.slow").unwrap();
        let fast = table.find("test.fast").unwrap();
        assert!(slow < fast, "dominating phase first:\n{table}");
        assert!(table.contains("1.00s"), "mean of the slow phase: {table}");
        assert!(table.contains("\ncounter"), "{table}");
        assert!(table.contains("demo_shown_total"), "{table}");
        assert!(!table.contains("demo_zero_total"), "{table}");
    }

    #[test]
    fn fmt_us_scales_units() {
        assert_eq!(fmt_us(873), "873µs");
        assert_eq!(fmt_us(12_300), "12.3ms");
        assert_eq!(fmt_us(4_560_000), "4.56s");
    }
}

//! EXPLAIN / EXPLAIN ANALYZE rendering of compiled plans.
//!
//! Two renderings of the same facts, both stable enough to build tooling
//! on:
//!
//! - [`explain`] — a versioned (`"explain_version"`) JSON document as an
//!   [`obs::json::Json`] value; its canonical `Display` round-trips
//!   byte-identically through `Json::parse` + re-render (the property the
//!   `explain_roundtrip` suite pins). Numbers are exact: step
//!   counters are integers, ratios are `f64` printed in Rust's shortest
//!   round-trip form.
//! - [`explain_text`] — the human rendering `autobias explain` prints: step
//!   order and access paths, decline reasons, variant selection counts, and
//!   (with analyze data) per-operator observed cardinalities and q-errors.
//!
//! A clause appears exactly once: compiled clauses carry their variants,
//! access paths, residual ops, and compile-time estimates; declined clauses
//! carry the [`Declined`](crate::Declined) reason. A declined clause is not
//! servable (a model with one does not load), so the text rendering calls
//! it `declined`; the JSON document keeps the schema-1 value
//! `"engine": "interpreted"` for it, which means the same.
//!
//! Passing an [`Analyzed`] view (a [`BatchTally`] snapshot from
//! [`crate::stats::PlanStats`]) upgrades EXPLAIN to EXPLAIN ANALYZE: each
//! step gains `entries`, `candidates`, `emitted`, `rejected`, the mean
//! observed candidate count, and its q-error against the compile-time
//! estimate.

use crate::compile::{Access, CompiledDefinition, Key, Op};
use crate::stats::{q_error, BatchTally};
use autobias::clause::{Clause, Definition};
use obs::json::Json;
use relstore::{Const, Database};

/// Version of the EXPLAIN JSON schema, bumped on any incompatible change.
pub const EXPLAIN_VERSION: u64 = 1;

/// Runtime statistics to fold into the rendering (EXPLAIN ANALYZE).
#[derive(Debug, Clone, Copy)]
pub struct Analyzed<'a> {
    /// Aggregated per-operator counters, shaped like the definition.
    pub tally: &'a BatchTally,
    /// Predict batches the aggregates cover.
    pub batches: u64,
}

/// Constant names for rendering a model's plans: the database dictionary
/// first, then the model's own spelling of the constants the data lacks.
/// Parsing a model against a frozen dictionary gives its `i`-th unknown
/// constant the ephemeral id `dictionary length + i`.
#[derive(Debug, Clone, Copy)]
struct ConstNames<'a> {
    db: &'a Database,
    unknown: &'a [String],
}

impl ConstNames<'_> {
    fn name(&self, c: Const) -> String {
        let dict = self.db.dict();
        match dict.try_name(c) {
            Some(name) => name.to_string(),
            None => match self.unknown.get(c.index() - dict.len()) {
                Some(name) => name.clone(),
                None => format!("<const {}>", c.0),
            },
        }
    }

    fn clause(&self, clause: &Clause) -> String {
        clause.render_with(self.db, &|c| self.name(c))
    }
}

fn op_text(names: ConstNames<'_>, op: &Op) -> String {
    match *op {
        Op::CheckConst { pos, val } => format!("check [{pos}] = {}", names.name(val)),
        Op::CheckSlot { pos, slot } => format!("check [{pos}] = ?{slot}"),
        Op::Bind { pos, slot } => format!("bind [{pos}] -> ?{slot}"),
    }
}

/// Why the compiler declined clause `ci`, or `None` when it compiled.
fn declined_reason(compiled: &CompiledDefinition, ci: usize) -> Option<String> {
    compiled
        .declined()
        .iter()
        .find(|(i, _)| *i == ci)
        .map(|(_, why)| why.to_string())
}

/// Builds the EXPLAIN document as a [`Json`] tree; `analyzed` upgrades to
/// EXPLAIN ANALYZE. `unknown_constants` are the model's constants absent
/// from `db`, in first-seen order (empty when the model was parsed with
/// interning); they name the ephemeral ids the definition holds for them.
pub fn explain(
    db: &Database,
    model: Option<&str>,
    unknown_constants: &[String],
    definition: &Definition,
    compiled: &CompiledDefinition,
    analyzed: Option<Analyzed<'_>>,
) -> Json {
    let names = ConstNames {
        db,
        unknown: unknown_constants,
    };
    let mut top: Vec<(&str, Json)> = vec![("explain_version", EXPLAIN_VERSION.into())];
    if let Some(name) = model {
        top.push(("model", name.into()));
    }
    top.push(("compiled", compiled.num_compiled().into()));
    top.push(("fallback", compiled.num_declined().into()));
    top.push(("analyze", analyzed.is_some().into()));
    if let Some(a) = analyzed {
        top.push(("batches", a.batches.into()));
    }

    let mut clauses = Vec::with_capacity(definition.clauses.len());
    let mut plan_idx = 0usize;
    for (ci, clause) in definition.clauses.iter().enumerate() {
        let mut obj: Vec<(&str, Json)> =
            vec![("clause", ci.into()), ("text", names.clause(clause).into())];
        if let Some(reason) = declined_reason(compiled, ci) {
            // Schema 1's name for a declined clause; change it with the
            // next `EXPLAIN_VERSION` bump.
            obj.push(("engine", "interpreted".into()));
            obj.push(("reason", reason.into()));
            clauses.push(Json::obj(obj));
            continue;
        }
        let plan = &compiled.plans()[plan_idx];
        let ctally = analyzed.map(|a| &a.tally.clauses[plan_idx]);
        plan_idx += 1;
        obj.push(("engine", "compiled".into()));
        let head = &db.catalog().schema(plan.head_rel).name;
        obj.push(("head", head.as_str().into()));
        obj.push(("node_limit", plan.node_limit.into()));
        if let Some(ct) = ctally {
            obj.push(("evals", ct.evals.into()));
            obj.push(("matches", ct.matches.into()));
            obj.push(("backtracks", ct.backtracks.into()));
            obj.push(("node_limit_hits", ct.node_limit_hits.into()));
        }
        let mut variants = Vec::with_capacity(plan.variants.len());
        for (vi, variant) in plan.variants.iter().enumerate() {
            let vtally = ctally.map(|c| &c.variants[vi]);
            let mut vobj: Vec<(&str, Json)> = vec![("variant", vi.into())];
            if let Some(vt) = vtally {
                vobj.push(("selected", vt.selected.into()));
            }
            let mut steps = Vec::with_capacity(variant.steps.len());
            for (si, s) in variant.steps.iter().enumerate() {
                let name = &db.catalog().schema(s.rel).name;
                let mut sobj: Vec<(&str, Json)> =
                    vec![("step", si.into()), ("rel", name.as_str().into())];
                match s.access {
                    Access::Probe { pos, key } => {
                        sobj.push(("access", "probe".into()));
                        sobj.push(("pos", pos.into()));
                        let key = match key {
                            Key::Const(c) => names.name(c),
                            Key::Slot(slot) => format!("?{slot}"),
                        };
                        sobj.push(("key", key.into()));
                    }
                    Access::Scan => sobj.push(("access", "scan".into())),
                }
                let ops = s.ops.iter().map(|op| op_text(names, op).into()).collect();
                sobj.push(("ops", Json::Arr(ops)));
                sobj.push(("barrier", s.barrier.into()));
                sobj.push(("est", s.est_cost.into()));
                if let Some(vt) = vtally {
                    let st = &vt.steps[si];
                    sobj.push(("entries", st.entries.into()));
                    sobj.push(("candidates", st.candidates.into()));
                    sobj.push(("emitted", st.emitted.into()));
                    sobj.push(("rejected", st.rejected.into()));
                    let avg = st.avg_candidates();
                    sobj.push(("avg_candidates", avg.map_or(Json::Null, Json::Num)));
                    let qerror = avg.map(|avg| q_error(s.est_cost as f64, avg));
                    sobj.push(("qerror", qerror.map_or(Json::Null, Json::Num)));
                }
                steps.push(Json::obj(sobj));
            }
            vobj.push(("steps", Json::Arr(steps)));
            variants.push(Json::obj(vobj));
        }
        obj.push(("variants", Json::Arr(variants)));
        clauses.push(Json::obj(obj));
    }
    top.push(("clauses", Json::Arr(clauses)));
    Json::obj(top)
}

/// The pretty-text rendering `autobias explain` prints; constants are named
/// as in [`explain`].
pub fn explain_text(
    db: &Database,
    unknown_constants: &[String],
    definition: &Definition,
    compiled: &CompiledDefinition,
    analyzed: Option<Analyzed<'_>>,
) -> String {
    let names = ConstNames {
        db,
        unknown: unknown_constants,
    };
    let mut out = String::new();
    out.push_str(&format!(
        "plan: {} clause(s) compiled, {} declined\n",
        compiled.num_compiled(),
        compiled.num_declined()
    ));
    if let Some(a) = analyzed {
        out.push_str(&format!("analyze: {} batch(es) observed\n", a.batches));
    }
    let mut plan_idx = 0usize;
    for (ci, clause) in definition.clauses.iter().enumerate() {
        out.push_str(&format!("clause {ci}: {}\n", names.clause(clause)));
        if let Some(reason) = declined_reason(compiled, ci) {
            out.push_str(&format!("  engine: declined — {reason}\n"));
            continue;
        }
        let plan = &compiled.plans()[plan_idx];
        let ctally = analyzed.map(|a| &a.tally.clauses[plan_idx]);
        plan_idx += 1;
        match ctally {
            Some(ct) => out.push_str(&format!(
                "  engine: compiled ({} variant(s); evals {}, matches {}, backtracks {}, node-limit hits {})\n",
                plan.num_variants(),
                ct.evals,
                ct.matches,
                ct.backtracks,
                ct.node_limit_hits
            )),
            None => out.push_str(&format!(
                "  engine: compiled ({} variant(s))\n",
                plan.num_variants()
            )),
        }
        for (vi, variant) in plan.variants.iter().enumerate() {
            let vtally = ctally.map(|c| &c.variants[vi]);
            if plan.variants.len() > 1 {
                match vtally {
                    Some(vt) => out.push_str(&format!(
                        "  variant {vi} (runtime-selected {} time(s)):\n",
                        vt.selected
                    )),
                    None => out.push_str(&format!("  variant {vi} (runtime-selected):\n")),
                }
            }
            for (si, s) in variant.steps.iter().enumerate() {
                let name = &db.catalog().schema(s.rel).name;
                let access = match s.access {
                    Access::Probe {
                        pos,
                        key: Key::Const(c),
                    } => format!("probe {name}.{pos} = {}", names.name(c)),
                    Access::Probe {
                        pos,
                        key: Key::Slot(slot),
                    } => format!("probe {name}.{pos} = ?{slot}"),
                    Access::Scan => format!("scan {name}"),
                };
                let barrier = if s.barrier { " [component]" } else { "" };
                out.push_str(&format!(
                    "  step {si}: {access} (est {}){barrier}",
                    s.est_cost
                ));
                if let Some(vt) = vtally {
                    let st = &vt.steps[si];
                    match st.avg_candidates() {
                        Some(avg) => out.push_str(&format!(
                            "  entries={} avg_actual={avg:.1} emitted={} rejected={} qerror={:.2}",
                            st.entries,
                            st.emitted,
                            st.rejected,
                            q_error(s.est_cost as f64, avg)
                        )),
                        None => out.push_str("  (never entered)"),
                    }
                }
                out.push('\n');
                for op in s.ops.iter() {
                    out.push_str(&format!("          {}\n", op_text(names, op)));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_definition, CompileConfig};
    use autobias::clause::{Clause, Literal, Term, VarId};

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn setup() -> (Database, Definition) {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let publ = db.rel_id("publication").unwrap();
        let student = db.rel_id("student").unwrap();
        let mut def = Definition::new();
        def.clauses.push(Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        ));
        // A clause the compiler declines: `student` is unary.
        def.clauses.push(Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![Literal::new(student, vec![v(0), v(1)])],
        ));
        (db, def)
    }

    #[test]
    fn explain_reports_both_engines_and_round_trips() {
        let (db, def) = setup();
        let compiled = compile_definition(&db, &def, &CompileConfig::default());
        assert_eq!(compiled.num_compiled(), 1);
        assert_eq!(compiled.num_declined(), 1);

        let json = explain(&db, Some("uw"), &[], &def, &compiled, None).to_string();
        let parsed = Json::parse(&json).expect("explain emits valid JSON");
        assert_eq!(parsed.to_string(), json, "canonical rendering round-trips");
        assert_eq!(
            parsed.get("explain_version").unwrap().as_f64(),
            Some(EXPLAIN_VERSION as f64)
        );
        assert_eq!(parsed.get("model").unwrap().as_str(), Some("uw"));
        assert_eq!(parsed.get("compiled").unwrap().as_f64(), Some(1.0));
        assert_eq!(parsed.get("fallback").unwrap().as_f64(), Some(1.0));
        let clauses = parsed.get("clauses").unwrap().as_arr().unwrap();
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].get("engine").unwrap().as_str(), Some("compiled"));
        let steps = clauses[0].get("variants").unwrap().as_arr().unwrap()[0]
            .get("steps")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(steps[0].get("access").unwrap().as_str(), Some("probe"));
        assert!(steps[0].get("est").unwrap().as_f64().is_some());
        assert_eq!(
            clauses[1].get("engine").unwrap().as_str(),
            Some("interpreted")
        );
        assert!(clauses[1]
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("arity"));

        let text = explain_text(&db, &[], &def, &compiled, None);
        assert!(text.contains("engine: compiled"));
        assert!(text.contains("engine: declined — literal on rel#"));
        assert!(text.contains("probe publication"));
    }

    #[test]
    fn analyze_adds_observed_cardinalities() {
        let (db, def) = setup();
        let compiled = compile_definition(&db, &def, &CompileConfig::default());
        let mut tally = crate::stats::BatchTally::for_definition(&compiled);
        let mut scratch = crate::ExecScratch::default();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let covered =
            compiled.covers_compiled_tallied(&db, &[juan, sarita], &mut scratch, &mut tally);
        let _ = covered;
        assert_eq!(tally.clauses[0].evals, 1);

        let analyzed = Analyzed {
            tally: &tally,
            batches: 1,
        };
        let json = explain(&db, None, &[], &def, &compiled, Some(analyzed)).to_string();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.to_string(), json, "analyze JSON round-trips too");
        assert_eq!(parsed.get("analyze").unwrap().as_bool(), Some(true));
        let c0 = &parsed.get("clauses").unwrap().as_arr().unwrap()[0];
        assert_eq!(c0.get("evals").unwrap().as_f64(), Some(1.0));
        let s0 = c0.get("variants").unwrap().as_arr().unwrap()[0]
            .get("steps")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .clone();
        assert!(s0.get("entries").unwrap().as_f64().unwrap() >= 1.0);
        assert!(s0.get("qerror").unwrap().as_f64().unwrap() >= 1.0);

        let text = explain_text(&db, &[], &def, &compiled, Some(analyzed));
        assert!(text.contains("qerror="));
    }
}

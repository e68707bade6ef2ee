//! EXPLAIN / EXPLAIN ANALYZE rendering of compiled plans.
//!
//! Two renderings of the same facts, both stable enough to build tooling
//! on:
//!
//! - [`explain_json`] — a versioned (`"explain_version"`) JSON document,
//!   emitted through [`obs::json::Json`]'s canonical `Display` so it
//!   round-trips byte-identically through `Json::parse` + re-render (the
//!   property the `explain_roundtrip` suite pins). Numbers are exact: step
//!   counters are integers, ratios are `f64` printed in Rust's shortest
//!   round-trip form.
//! - [`explain_text`] — the human rendering `autobias explain` prints: step
//!   order and access paths, decline reasons, variant selection counts, and
//!   (with analyze data) per-operator observed cardinalities and q-errors.
//!
//! A clause appears exactly once, whichever engine serves it: compiled
//! clauses carry their variants, access paths, residual ops, and
//! compile-time estimates; declined clauses carry the
//! [`Declined`](crate::Declined) reason. Passing an [`Analyzed`] view (a
//! [`BatchTally`] snapshot from [`crate::stats::PlanStats`]) upgrades
//! EXPLAIN to EXPLAIN ANALYZE: each step gains `entries`, `candidates`,
//! `emitted`, `rejected`, the mean observed candidate count, and its
//! q-error against the compile-time estimate.

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

fn num(n: u64) -> Json {
    Json::Num(n as f64)
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
    let mut top: Vec<(String, Json)> = vec![("explain_version".into(), num(EXPLAIN_VERSION))];
    if let Some(name) = model {
        top.push(("model".into(), Json::Str(name.to_string())));
    }
    top.push(("compiled".into(), num(compiled.num_compiled() as u64)));
    top.push(("fallback".into(), num(compiled.num_declined() as u64)));
    top.push(("analyze".into(), Json::Bool(analyzed.is_some())));
    if let Some(a) = analyzed {
        top.push(("batches".into(), num(a.batches)));
    }

    let mut clauses = Vec::with_capacity(definition.clauses.len());
    let mut plan_idx = 0usize;
    for (ci, clause) in definition.clauses.iter().enumerate() {
        let mut obj: Vec<(String, Json)> = vec![
            ("clause".into(), num(ci as u64)),
            ("text".into(), Json::Str(names.clause(clause))),
        ];
        if let Some(reason) = declined_reason(compiled, ci) {
            obj.push(("engine".into(), Json::Str("interpreted".into())));
            obj.push(("reason".into(), Json::Str(reason)));
            clauses.push(Json::Obj(obj));
            continue;
        }
        let plan = &compiled.plans()[plan_idx];
        let ctally = analyzed.map(|a| &a.tally.clauses[plan_idx]);
        plan_idx += 1;
        obj.push(("engine".into(), Json::Str("compiled".into())));
        obj.push((
            "head".into(),
            Json::Str(db.catalog().schema(plan.head_rel).name.clone()),
        ));
        obj.push(("node_limit".into(), num(plan.node_limit as u64)));
        if let Some(ct) = ctally {
            obj.push(("evals".into(), num(ct.evals)));
            obj.push(("matches".into(), num(ct.matches)));
            obj.push(("backtracks".into(), num(ct.backtracks)));
            obj.push(("node_limit_hits".into(), num(ct.node_limit_hits)));
        }
        let mut variants = Vec::with_capacity(plan.variants.len());
        for (vi, variant) in plan.variants.iter().enumerate() {
            let vtally = ctally.map(|c| &c.variants[vi]);
            let mut vobj: Vec<(String, Json)> = vec![("variant".into(), num(vi as u64))];
            if let Some(vt) = vtally {
                vobj.push(("selected".into(), num(vt.selected)));
            }
            let mut steps = Vec::with_capacity(variant.steps.len());
            for (si, s) in variant.steps.iter().enumerate() {
                let name = &db.catalog().schema(s.rel).name;
                let mut sobj: Vec<(String, Json)> = vec![
                    ("step".into(), num(si as u64)),
                    ("rel".into(), Json::Str(name.clone())),
                ];
                match s.access {
                    Access::Probe { pos, key } => {
                        sobj.push(("access".into(), Json::Str("probe".into())));
                        sobj.push(("pos".into(), num(pos as u64)));
                        let key = match key {
                            Key::Const(c) => names.name(c),
                            Key::Slot(slot) => format!("?{slot}"),
                        };
                        sobj.push(("key".into(), Json::Str(key)));
                    }
                    Access::Scan => sobj.push(("access".into(), Json::Str("scan".into()))),
                }
                sobj.push((
                    "ops".into(),
                    Json::Arr(
                        s.ops
                            .iter()
                            .map(|op| Json::Str(op_text(names, op)))
                            .collect(),
                    ),
                ));
                sobj.push(("barrier".into(), Json::Bool(s.barrier)));
                sobj.push(("est".into(), num(s.est_cost as u64)));
                if let Some(vt) = vtally {
                    let st = &vt.steps[si];
                    sobj.push(("entries".into(), num(st.entries)));
                    sobj.push(("candidates".into(), num(st.candidates)));
                    sobj.push(("emitted".into(), num(st.emitted)));
                    sobj.push(("rejected".into(), num(st.rejected)));
                    match st.avg_candidates() {
                        Some(avg) => {
                            sobj.push(("avg_candidates".into(), Json::Num(avg)));
                            sobj.push((
                                "qerror".into(),
                                Json::Num(q_error(s.est_cost as f64, avg)),
                            ));
                        }
                        None => {
                            sobj.push(("avg_candidates".into(), Json::Null));
                            sobj.push(("qerror".into(), Json::Null));
                        }
                    }
                }
                steps.push(Json::Obj(sobj));
            }
            vobj.push(("steps".into(), Json::Arr(steps)));
            variants.push(Json::Obj(vobj));
        }
        obj.push(("variants".into(), Json::Arr(variants)));
        clauses.push(Json::Obj(obj));
    }
    top.push(("clauses".into(), Json::Arr(clauses)));
    Json::Obj(top)
}

/// [`explain`] rendered as compact canonical JSON text (byte-identical
/// through `obs::json::Json::parse` + `to_string`).
pub fn explain_json(
    db: &Database,
    model: Option<&str>,
    unknown_constants: &[String],
    definition: &Definition,
    compiled: &CompiledDefinition,
    analyzed: Option<Analyzed<'_>>,
) -> String {
    explain(db, model, unknown_constants, definition, compiled, analyzed).to_string()
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
        "plan: {} clause(s) compiled, {} interpreted\n",
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
            out.push_str(&format!("  engine: interpreted — {reason}\n"));
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
        // A clause the compiler declines (too many literals).
        def.clauses.push(Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            (0..40).map(|_| Literal::new(student, vec![v(2)])).collect(),
        ));
        (db, def)
    }

    #[test]
    fn explain_reports_both_engines_and_round_trips() {
        let (db, def) = setup();
        let compiled = compile_definition(&db, &def, &CompileConfig::default());
        assert_eq!(compiled.num_compiled(), 1);
        assert_eq!(compiled.num_declined(), 1);

        let json = explain_json(&db, Some("uw"), &[], &def, &compiled, None);
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
            .contains("literals"));

        let text = explain_text(&db, &[], &def, &compiled, None);
        assert!(text.contains("engine: compiled"));
        assert!(text.contains("engine: interpreted — 40 body literals"));
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
        let json = explain_json(&db, None, &[], &def, &compiled, Some(analyzed));
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

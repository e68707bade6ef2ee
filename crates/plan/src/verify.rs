//! Static soundness verification of compiled plans: an abstract interpreter
//! over each clause's op lists that proves the plan enforces *exactly* the
//! constraints of its source clause before the executor is allowed to serve
//! it.
//!
//! The differential suites hold the compiled and interpreted engines equal on
//! sampled worlds; this pass complements them with a per-plan static proof
//! that needs no data at all. It walks every variant's ops under a
//! binding-state lattice — each slot is `Unbound` until some `Bind` writes
//! it, after which its abstract value at an argument position is either a
//! `Bound` slot (value known only at run time) or a compile-time `Const` —
//! and checks four properties:
//!
//! 1. **Binding discipline** — every `Probe` key slot is bound at probe time
//!    (AB201), every `CheckSlot` reads a bound slot (AB202), and no `Bind`
//!    overwrites a bound slot (AB203, which would silently alias two
//!    variables). Slot and position indices stay inside the executor's
//!    fixed buffers (AB210) so `slots[slot]` / `states[depth]` can never
//!    index out of range.
//! 2. **Constraint accounting** — every argument position of every step is
//!    covered by exactly one op or the probe itself (AB204 dropped / AB205
//!    duplicated), and the literals *reconstructed* from the ops are a
//!    bijective match for the source body under a slot↔variable isomorphism
//!    anchored by the head (AB204/AB206/AB209). A plan that passes enforces
//!    each source argument equality exactly once — no dropped join
//!    predicate, no invented one.
//! 3. **Barrier placement** — step barriers mark exactly the first step of
//!    each connected component of the body
//!    ([`Clause::connected_body_components`]), and components are contiguous
//!    in step order (AB207). A missing barrier only costs wasted
//!    backtracking, but an extra one turns "exhausted candidates" into a
//!    wrong `false`; both reject.
//! 4. **Variant agreement** — every variant individually matches the source
//!    body, so they all enforce the same constraint set and runtime variant
//!    selection cannot change semantics; structural divergence between
//!    variants is additionally reported as AB208.
//!
//! Findings reuse the `analyze` reporting machinery (rules AB201–AB210, all
//! Error — the compiler guarantees these properties for everything it
//! emits, so any finding means a compiler bug or a hand-mutated plan).
//! [`compile_definition`](crate::compile_definition) runs this pass at every
//! compile boundary: a plan that fails is declined to interpreter fallback
//! and counted on [`crate::PLAN_VERIFY_REJECTS`] — a compiler bug degrades to slower
//! serving, never to a wrong answer.

use crate::compile::{Access, CompiledClause, CompiledDefinition, Key, Op, MAX_SLOTS, MAX_STEPS};
use analyze::{Anchor, Report, Rule};
use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use relstore::{Const, Database, FxHashMap};

/// Abstract value of one argument position after the ops that cover it ran:
/// the non-⊥ points of the binding-state lattice
/// `Unbound < Bound(slot) < Const`. Positions whose op reads an unbound slot
/// never produce a value — they produce an AB201/AB202 finding instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Bound at run time; equal to whatever the slot holds.
    Slot(u32),
    /// Known at compile time.
    Const(Const),
}

/// One body literal reconstructed from a step's access path and ops.
#[derive(Debug)]
struct RLit {
    rel: relstore::RelId,
    terms: Vec<Option<AbsVal>>,
}

/// Slot↔variable correspondence built by the head pass and extended during
/// body matching. Both directions are kept so the isomorphism stays
/// bijective: two variables may not share a slot, one variable may not span
/// two slots.
#[derive(Debug, Clone, Default)]
struct SlotMap {
    var_slot: FxHashMap<VarId, u32>,
    slot_var: FxHashMap<u32, VarId>,
}

impl SlotMap {
    /// Records `v ↔ slot`, failing when either side is already mapped
    /// elsewhere. Returns whether the pair was newly inserted (so a
    /// backtracking caller knows to undo it).
    fn unify(&mut self, v: VarId, slot: u32) -> Result<bool, ()> {
        match (self.var_slot.get(&v), self.slot_var.get(&slot)) {
            (Some(&s), _) if s != slot => Err(()),
            (_, Some(&w)) if w != v => Err(()),
            (Some(_), Some(_)) => Ok(false),
            _ => {
                self.var_slot.insert(v, slot);
                self.slot_var.insert(slot, v);
                Ok(true)
            }
        }
    }

    fn remove(&mut self, v: VarId, slot: u32) {
        self.var_slot.remove(&v);
        self.slot_var.remove(&slot);
    }
}

/// Backtracking attempts allowed while matching reconstructed steps to
/// source literals. Bodies are ≤ [`MAX_STEPS`] literals and the relation
/// filter prunes hard, so real plans match in linear time; the budget only
/// bounds adversarial symmetric bodies. Exhausting it rejects the plan
/// (interpreter fallback — the safe direction).
const MATCH_BUDGET: usize = 1 << 16;

/// Verifies one compiled clause against its source. `ci` is the clause's
/// index in the definition, used for anchors and locations. An empty report
/// is the proof; any Error finding means the plan must not serve.
pub fn verify_clause(db: &Database, clause: &Clause, plan: &CompiledClause, ci: usize) -> Report {
    analyze::register();
    let mut report = Report::default();
    let Some(head_map) = check_head(db, clause, plan, ci, &mut report) else {
        return report.finish();
    };

    if plan.variants.is_empty() {
        report.push(
            Rule::PlanBodyMismatch,
            Anchor::Clause(ci),
            format!("clause {ci}: {}", clause.render(db)),
            "plan has no variants; the executor indexes variant 0 unconditionally".to_string(),
        );
        return report.finish();
    }

    let components = clause.connected_body_components();
    let mut comp_of = vec![0usize; clause.body.len()];
    for (c, lits) in components.iter().enumerate() {
        for &li in lits {
            comp_of[li] = c;
        }
    }

    for vi in 0..plan.variants.len() {
        check_variant(db, clause, plan, vi, ci, &comp_of, &head_map, &mut report);
    }

    // AB208: defense-in-depth on top of property 4. Each variant matching
    // the source body already pins all variants to one constraint set; a
    // structural divergence is reported in its own right so a two-variant
    // plan where *both* drift still names the variant disagreement.
    let shape = |vi: usize| -> (usize, Vec<u32>) {
        let steps = &plan.variants[vi].steps;
        let mut rels: Vec<u32> = steps.iter().map(|s| s.rel.0).collect();
        rels.sort_unstable();
        (steps.len(), rels)
    };
    let first = shape(0);
    for vi in 1..plan.variants.len() {
        if shape(vi) != first {
            report.push(
                Rule::PlanVariantDivergence,
                Anchor::Clause(ci),
                format!("clause {ci}, variant {vi}"),
                format!(
                    "variant {vi} evaluates a different step multiset than variant 0; \
                     runtime variant selection would change semantics"
                ),
            );
        }
    }
    report.finish()
}

/// Verifies every compiled plan of `compiled` against `definition`,
/// re-running the pass from scratch (used by offline checks like
/// `autobias check --model` and `autobias explain --verify`; the compile
/// boundary itself verifies inline in
/// [`compile_definition`](crate::compile_definition)). Declined clauses are
/// skipped — they never reach the executor.
pub fn verify_definition(
    db: &Database,
    definition: &Definition,
    compiled: &CompiledDefinition,
) -> Report {
    let mut report = Report::default();
    let mut plan_idx = 0usize;
    for (ci, clause) in definition.clauses.iter().enumerate() {
        if compiled.declined().iter().any(|&(i, _)| i == ci) {
            continue;
        }
        let Some(plan) = compiled.plans().get(plan_idx) else {
            break;
        };
        plan_idx += 1;
        report.merge(verify_clause(db, clause, plan, ci));
    }
    report
}

/// Abstract interpretation of the head ops: seeds the slot states from the
/// example tuple and anchors the slot↔variable isomorphism at the head
/// positions. Returns `None` (after reporting) when the head dispatch does
/// not reproduce the head literal — body matching would be meaningless.
fn check_head(
    db: &Database,
    clause: &Clause,
    plan: &CompiledClause,
    ci: usize,
    report: &mut Report,
) -> Option<(Vec<bool>, SlotMap)> {
    let loc = || format!("clause {ci}, head: {}", clause.head.render(db));
    let before = report.findings.len();

    if plan.head_rel != clause.head.rel || plan.head_arity != clause.head.args.len() {
        report.push(
            Rule::PlanHeadMismatch,
            Anchor::Clause(ci),
            loc(),
            format!(
                "plan answers for rel#{}/{} but the clause head is rel#{}/{}",
                plan.head_rel.0,
                plan.head_arity,
                clause.head.rel.0,
                clause.head.args.len()
            ),
        );
        return None;
    }

    let mut bound = vec![false; MAX_SLOTS];
    let mut map = SlotMap::default();
    let mut covered = vec![0u8; plan.head_arity];
    for op in plan.head_ops.iter() {
        let (pos, slot) = match *op {
            Op::CheckConst { pos, .. } => (pos, None),
            Op::CheckSlot { pos, slot } | Op::Bind { pos, slot } => (pos, Some(slot)),
        };
        if pos >= plan.head_arity {
            report.push(
                Rule::PlanIndexOverflow,
                Anchor::Clause(ci),
                loc(),
                format!(
                    "head op addresses position {pos} of a {}-ary head",
                    plan.head_arity
                ),
            );
            continue;
        }
        if let Some(slot) = slot {
            if slot as usize >= MAX_SLOTS {
                report.push(
                    Rule::PlanIndexOverflow,
                    Anchor::Clause(ci),
                    loc(),
                    format!("head op addresses slot {slot}, beyond the executor's {MAX_SLOTS}-slot buffer"),
                );
                continue;
            }
        }
        covered[pos] += 1;
        let term = clause.head.args[pos];
        match (*op, term) {
            (Op::CheckConst { val, .. }, Term::Const(c)) if c == val => {}
            (Op::CheckConst { val, .. }, _) => {
                report.push(
                    Rule::PlanHeadMismatch,
                    Anchor::Clause(ci),
                    loc(),
                    format!(
                        "head position {pos} checks constant #{} but the source term is {}",
                        val.0,
                        render_term(db, term)
                    ),
                );
            }
            (Op::Bind { slot, .. }, Term::Var(v)) => {
                if bound[slot as usize] {
                    report.push(
                        Rule::PlanReboundSlot,
                        Anchor::Clause(ci),
                        loc(),
                        format!("head position {pos} re-binds slot {slot}, aliasing two variables"),
                    );
                } else {
                    bound[slot as usize] = true;
                    if map.unify(v, slot).is_err() {
                        report.push(
                            Rule::PlanHeadMismatch,
                            Anchor::Clause(ci),
                            loc(),
                            format!(
                                "head position {pos} binds a fresh slot {slot} but variable {} is already carried by another slot (a repeated-variable equality was dropped)",
                                v.label()
                            ),
                        );
                    }
                }
            }
            (Op::CheckSlot { slot, .. }, Term::Var(v)) => {
                if !bound[slot as usize] {
                    report.push(
                        Rule::PlanUnboundSlotRead,
                        Anchor::Clause(ci),
                        loc(),
                        format!("head position {pos} checks slot {slot} before anything binds it"),
                    );
                } else if map.var_slot.get(&v) != Some(&slot) {
                    report.push(
                        Rule::PlanHeadMismatch,
                        Anchor::Clause(ci),
                        loc(),
                        format!(
                            "head position {pos} checks slot {slot} but variable {} is not that slot",
                            v.label()
                        ),
                    );
                }
            }
            (Op::Bind { .. } | Op::CheckSlot { .. }, Term::Const(_)) => {
                report.push(
                    Rule::PlanHeadMismatch,
                    Anchor::Clause(ci),
                    loc(),
                    format!(
                        "head position {pos} is the constant {} in the source but the plan treats it as a variable",
                        render_term(db, term)
                    ),
                );
            }
        }
    }
    for (pos, &n) in covered.iter().enumerate() {
        if n == 0 {
            report.push(
                Rule::PlanDroppedConstraint,
                Anchor::Clause(ci),
                loc(),
                format!("head position {pos} is constrained by no head op"),
            );
        } else if n > 1 {
            report.push(
                Rule::PlanDuplicateConstraint,
                Anchor::Clause(ci),
                loc(),
                format!("head position {pos} is constrained by {n} head ops"),
            );
        }
    }
    (report.findings.len() == before).then_some((bound, map))
}

/// Abstract interpretation of one variant's steps (properties 1–3):
/// binding discipline and per-step constraint coverage while reconstructing
/// each step's literal, then the bijective match against the source body and
/// the barrier/component check.
#[allow(clippy::too_many_arguments)]
fn check_variant(
    db: &Database,
    clause: &Clause,
    plan: &CompiledClause,
    vi: usize,
    ci: usize,
    comp_of: &[usize],
    head: &(Vec<bool>, SlotMap),
    report: &mut Report,
) {
    let steps = &plan.variants[vi].steps;
    let loc = |si: usize, rel: relstore::RelId| {
        format!(
            "clause {ci}, variant {vi}, step {si}: {}",
            db.catalog().schema(rel).name
        )
    };
    let before = report.findings.len();

    if steps.len() != clause.body.len() || steps.len() > MAX_STEPS {
        report.push(
            Rule::PlanBodyMismatch,
            Anchor::Clause(ci),
            format!("clause {ci}, variant {vi}"),
            format!(
                "variant has {} steps for a {}-literal body (executor cap {MAX_STEPS})",
                steps.len(),
                clause.body.len()
            ),
        );
        return;
    }

    let mut bound = head.0.clone();
    let mut rlits: Vec<RLit> = Vec::with_capacity(steps.len());
    for (si, step) in steps.iter().enumerate() {
        let arity = db.catalog().schema(step.rel).arity();
        let mut covered = vec![0u8; arity];
        let mut terms: Vec<Option<AbsVal>> = vec![None; arity];
        let place = |pos: usize,
                     val: Option<AbsVal>,
                     covered: &mut Vec<u8>,
                     terms: &mut Vec<Option<AbsVal>>| {
            covered[pos] += 1;
            terms[pos] = val;
        };
        match step.access {
            Access::Scan => {}
            Access::Probe { pos, key } => {
                if pos >= arity {
                    report.push(
                        Rule::PlanIndexOverflow,
                        Anchor::Clause(ci),
                        loc(si, step.rel),
                        format!("probe addresses position {pos} of a {arity}-ary relation"),
                    );
                } else {
                    match key {
                        Key::Const(c) => {
                            place(pos, Some(AbsVal::Const(c)), &mut covered, &mut terms);
                        }
                        Key::Slot(s) if s as usize >= MAX_SLOTS => {
                            report.push(
                                Rule::PlanIndexOverflow,
                                Anchor::Clause(ci),
                                loc(si, step.rel),
                                format!("probe key slot {s} is beyond the executor's {MAX_SLOTS}-slot buffer"),
                            );
                        }
                        Key::Slot(s) => {
                            if !bound[s as usize] {
                                report.push(
                                    Rule::PlanUnboundProbeKey,
                                    Anchor::Clause(ci),
                                    loc(si, step.rel),
                                    format!(
                                        "probe on position {pos} is keyed by slot {s}, which nothing has bound at this point"
                                    ),
                                );
                            }
                            place(pos, Some(AbsVal::Slot(s)), &mut covered, &mut terms);
                        }
                    }
                }
            }
        }
        for op in step.ops.iter() {
            let (pos, slot) = match *op {
                Op::CheckConst { pos, .. } => (pos, None),
                Op::CheckSlot { pos, slot } | Op::Bind { pos, slot } => (pos, Some(slot)),
            };
            if pos >= arity {
                report.push(
                    Rule::PlanIndexOverflow,
                    Anchor::Clause(ci),
                    loc(si, step.rel),
                    format!("op addresses position {pos} of a {arity}-ary relation"),
                );
                continue;
            }
            if let Some(slot) = slot {
                if slot as usize >= MAX_SLOTS {
                    report.push(
                        Rule::PlanIndexOverflow,
                        Anchor::Clause(ci),
                        loc(si, step.rel),
                        format!("op addresses slot {slot}, beyond the executor's {MAX_SLOTS}-slot buffer"),
                    );
                    continue;
                }
            }
            match *op {
                Op::CheckConst { pos, val } => {
                    place(pos, Some(AbsVal::Const(val)), &mut covered, &mut terms);
                }
                Op::CheckSlot { pos, slot } => {
                    if !bound[slot as usize] {
                        report.push(
                            Rule::PlanUnboundSlotRead,
                            Anchor::Clause(ci),
                            loc(si, step.rel),
                            format!("position {pos} checks slot {slot} before anything binds it"),
                        );
                    }
                    place(pos, Some(AbsVal::Slot(slot)), &mut covered, &mut terms);
                }
                Op::Bind { pos, slot } => {
                    if bound[slot as usize] {
                        report.push(
                            Rule::PlanReboundSlot,
                            Anchor::Clause(ci),
                            loc(si, step.rel),
                            format!(
                                "position {pos} re-binds slot {slot}, silently aliasing it with an earlier variable"
                            ),
                        );
                    } else {
                        bound[slot as usize] = true;
                    }
                    place(pos, Some(AbsVal::Slot(slot)), &mut covered, &mut terms);
                }
            }
        }
        for (pos, &n) in covered.iter().enumerate() {
            if n == 0 {
                report.push(
                    Rule::PlanDroppedConstraint,
                    Anchor::Clause(ci),
                    loc(si, step.rel),
                    format!(
                        "position {pos} is neither probed nor checked nor bound; the tuple value there is unconstrained"
                    ),
                );
            } else if n > 1 {
                report.push(
                    Rule::PlanDuplicateConstraint,
                    Anchor::Clause(ci),
                    loc(si, step.rel),
                    format!("position {pos} is constrained by {n} ops"),
                );
            }
        }
        rlits.push(RLit {
            rel: step.rel,
            terms,
        });
    }

    if report.findings.len() != before {
        // The reconstruction is already known-unsound; matching its holes
        // against the source would only produce noise.
        return;
    }

    // Constraint accounting: the reconstructed steps must be a permutation
    // of the source body under a slot↔variable bijection extending the
    // head anchor. Relation multiset first — a cheap, precise AB206.
    let mut plan_rels: Vec<u32> = rlits.iter().map(|r| r.rel.0).collect();
    let mut body_rels: Vec<u32> = clause.body.iter().map(|l| l.rel.0).collect();
    plan_rels.sort_unstable();
    body_rels.sort_unstable();
    if plan_rels != body_rels {
        report.push(
            Rule::PlanBodyMismatch,
            Anchor::Clause(ci),
            format!("clause {ci}, variant {vi}"),
            "the steps' relation multiset differs from the body's".to_string(),
        );
        return;
    }

    let mut matcher = Matcher {
        body: &clause.body,
        rlits: &rlits,
        used: vec![false; clause.body.len()],
        assign: vec![usize::MAX; rlits.len()],
        map: head.1.clone(),
        budget: MATCH_BUDGET,
    };
    if !matcher.solve(0) {
        let detail = if matcher.budget == 0 {
            "matching search budget exhausted (pathologically symmetric body); declining to the interpreter".to_string()
        } else {
            format!(
                "no assignment of steps to body literals preserves the argument equalities \
                 (a join predicate was dropped or rewired); source body: {}",
                clause
                    .body
                    .iter()
                    .map(|l| l.render(db))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        report.push(
            Rule::PlanDroppedConstraint,
            Anchor::Clause(ci),
            format!("clause {ci}, variant {vi}"),
            detail,
        );
        return;
    }

    // Barrier placement against the matched literals' components: component
    // runs must be contiguous and a barrier must mark exactly each run's
    // first step.
    let mut seen = vec![false; comp_of.iter().map(|&c| c + 1).max().unwrap_or(0)];
    for si in 0..steps.len() {
        let c = comp_of[matcher.assign[si]];
        let entering = si == 0 || c != comp_of[matcher.assign[si - 1]];
        if entering {
            if seen[c] {
                report.push(
                    Rule::PlanBarrierMismatch,
                    Anchor::Clause(ci),
                    loc(si, steps[si].rel),
                    format!(
                        "step re-enters connected component {c}; components must be contiguous in step order"
                    ),
                );
            }
            seen[c] = true;
        }
        if steps[si].barrier != entering {
            let msg = if steps[si].barrier {
                format!(
                    "barrier inside component {c}: exhausting this step would wrongly refute the whole clause instead of backtracking"
                )
            } else {
                format!(
                    "missing barrier at the first step of component {c}: the executor would backtrack across independent subproblems"
                )
            };
            report.push(
                Rule::PlanBarrierMismatch,
                Anchor::Clause(ci),
                loc(si, steps[si].rel),
                msg,
            );
        }
    }
}

/// Depth-first search for a bijection between reconstructed steps and source
/// body literals consistent with one slot↔variable isomorphism.
struct Matcher<'a> {
    body: &'a [Literal],
    rlits: &'a [RLit],
    used: Vec<bool>,
    assign: Vec<usize>,
    map: SlotMap,
    budget: usize,
}

impl Matcher<'_> {
    fn solve(&mut self, si: usize) -> bool {
        if si == self.rlits.len() {
            return true;
        }
        for bi in 0..self.body.len() {
            if self.used[bi] || self.body[bi].rel != self.rlits[si].rel {
                continue;
            }
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            let mut added: Vec<(VarId, u32)> = Vec::new();
            if self.try_literal(si, bi, &mut added) {
                self.used[bi] = true;
                self.assign[si] = bi;
                if self.solve(si + 1) {
                    return true;
                }
                self.used[bi] = false;
            }
            for (v, s) in added {
                self.map.remove(v, s);
            }
        }
        false
    }

    /// Whether step `si`'s reconstruction unifies with body literal `bi`
    /// under the current isomorphism, recording additions into `added`.
    fn try_literal(&mut self, si: usize, bi: usize, added: &mut Vec<(VarId, u32)>) -> bool {
        let lit = &self.body[bi];
        let r = &self.rlits[si];
        if lit.args.len() != r.terms.len() {
            return false;
        }
        for (pos, term) in lit.args.iter().enumerate() {
            let ok = match (r.terms[pos], *term) {
                (Some(AbsVal::Const(c)), Term::Const(want)) => c == want,
                (Some(AbsVal::Slot(s)), Term::Var(v)) => match self.map.unify(v, s) {
                    Ok(true) => {
                        added.push((v, s));
                        true
                    }
                    Ok(false) => true,
                    Err(()) => false,
                },
                _ => false,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

fn render_term(db: &Database, t: Term) -> String {
    match t {
        Term::Var(v) => v.label(),
        Term::Const(c) => db.const_name(c).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_clause, CompileConfig, Step, Variant};
    use autobias::clause::{Clause, Literal};
    use relstore::RelId;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn setup() -> (Database, RelId) {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        (db, target)
    }

    /// `advisedBy(x, y) ← publication(z, x), publication(z, y)` — the
    /// paper's co-authorship clause; compiles to a symmetric two-variant
    /// plan, the richest shape the compiler emits.
    fn coauthor_clause(db: &Database, target: RelId) -> Clause {
        let publ = db.rel_id("publication").unwrap();
        Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        )
    }

    /// A three-component clause exercising barrier placement.
    fn component_clause(db: &Database, target: RelId) -> Clause {
        let publ = db.rel_id("publication").unwrap();
        let student = db.rel_id("student").unwrap();
        let professor = db.rel_id("professor").unwrap();
        Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
                Literal::new(student, vec![v(3)]),
                Literal::new(professor, vec![v(4)]),
            ],
        )
    }

    fn compiled(db: &Database, clause: &Clause) -> CompiledClause {
        compile_clause(db, clause, &CompileConfig::default()).expect("compiles")
    }

    #[test]
    fn compiler_output_verifies_clean() {
        let (db, target) = setup();
        for clause in [
            coauthor_clause(&db, target),
            component_clause(&db, target),
            // Empty body, head constant, repeated head var.
            Clause::new(Literal::new(target, vec![v(0), v(1)]), vec![]),
            Clause::new(Literal::new(target, vec![v(0), v(0)]), vec![]),
            Clause::new(
                Literal::new(target, vec![Term::Const(db.lookup("juan").unwrap()), v(1)]),
                vec![],
            ),
        ] {
            let plan = compiled(&db, &clause);
            let report = verify_clause(&db, &clause, &plan, 0);
            assert!(report.is_clean(), "{}", report.render_text());
        }
    }

    #[test]
    fn dropped_residual_check_is_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        let mut plan = compiled(&db, &clause);
        // Drop the first CheckSlot/CheckConst op we find in any step — the
        // mutated plan no longer enforces one argument equality.
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| {
                s.ops
                    .iter()
                    .any(|o| matches!(o, Op::CheckSlot { .. } | Op::CheckConst { .. }))
            })
            .expect("coauthor plan has a residual check");
        let kept: Vec<Op> = step
            .ops
            .iter()
            .copied()
            .scan(false, |dropped, o| {
                let is_check = matches!(o, Op::CheckSlot { .. } | Op::CheckConst { .. });
                if is_check && !*dropped {
                    *dropped = true;
                    Some(None)
                } else {
                    Some(Some(o))
                }
            })
            .flatten()
            .collect();
        step.ops = kept.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanDroppedConstraint),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn swapped_probe_key_is_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        let mut plan = compiled(&db, &clause);
        // Head binds slots 0 and 1. The opener probes publication.1 with
        // one of them; swapping to the other changes which head variable
        // the join is anchored on — bound, so only constraint accounting
        // can catch it.
        let step0 = &mut plan.variants[0].steps[0];
        match &mut step0.access {
            Access::Probe {
                key: Key::Slot(s), ..
            } => *s = 1 - *s,
            other => panic!("expected a slot-keyed probe, got {other:?}"),
        }
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanDroppedConstraint),
            "{}",
            report.render_text()
        );

        // Swapping to a *fresh* slot instead trips the binding lattice.
        let mut plan = compiled(&db, &clause);
        match &mut plan.variants[0].steps[0].access {
            Access::Probe {
                key: Key::Slot(s), ..
            } => *s = 63,
            other => panic!("expected a slot-keyed probe, got {other:?}"),
        }
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanUnboundProbeKey),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn shuffled_barriers_are_rejected() {
        let (db, target) = setup();
        let clause = component_clause(&db, target);
        // Missing barrier at a component start.
        let mut plan = compiled(&db, &clause);
        let si = plan.variants[0]
            .steps
            .iter()
            .skip(1)
            .position(|s| s.barrier)
            .expect("multi-component plan has a later barrier")
            + 1;
        plan.variants[0].steps[si].barrier = false;
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanBarrierMismatch),
            "{}",
            report.render_text()
        );

        // Spurious barrier mid-component: turns exhaustion into a wrong
        // refutation — the unsound direction.
        let mut plan = compiled(&db, &clause);
        let si = plan.variants[0]
            .steps
            .iter()
            .position(|s| !s.barrier)
            .expect("two-literal component has a non-barrier step");
        plan.variants[0].steps[si].barrier = true;
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanBarrierMismatch),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn rebinding_and_unbound_reads_are_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        // CheckSlot → Bind on a bound slot: aliases two variables.
        let mut plan = compiled(&db, &clause);
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| s.ops.iter().any(|o| matches!(o, Op::CheckSlot { .. })))
            .expect("has a check");
        let ops: Vec<Op> = step
            .ops
            .iter()
            .map(|o| match *o {
                Op::CheckSlot { pos, slot } => Op::Bind { pos, slot },
                other => other,
            })
            .collect();
        step.ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanReboundSlot),
            "{}",
            report.render_text()
        );

        // Bind → CheckSlot on a fresh slot: reads before any write.
        let mut plan = compiled(&db, &clause);
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| s.ops.iter().any(|o| matches!(o, Op::Bind { .. })))
            .expect("has a bind");
        let ops: Vec<Op> = step
            .ops
            .iter()
            .map(|o| match *o {
                Op::Bind { pos, slot } => Op::CheckSlot { pos, slot },
                other => other,
            })
            .collect();
        step.ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanUnboundSlotRead),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn duplicate_op_and_overflow_are_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        let mut plan = compiled(&db, &clause);
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| !s.ops.is_empty())
            .expect("has ops");
        let mut ops: Vec<Op> = step.ops.to_vec();
        ops.push(ops[0]);
        step.ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanDuplicateConstraint),
            "{}",
            report.render_text()
        );

        let mut plan = compiled(&db, &clause);
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| s.ops.iter().any(|o| matches!(o, Op::Bind { .. })))
            .expect("has a bind");
        let ops: Vec<Op> = step
            .ops
            .iter()
            .map(|o| match *o {
                Op::Bind { pos, .. } => Op::Bind {
                    pos,
                    slot: MAX_SLOTS as u32,
                },
                other => other,
            })
            .collect();
        step.ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanIndexOverflow),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn variant_divergence_is_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        let mut plan = compiled(&db, &clause);
        assert!(plan.variants.len() >= 2, "coauthor join is symmetric");
        // Drop a step from variant 1 only: it now evaluates a weaker body.
        let mut variants: Vec<Variant> = Vec::new();
        for (i, variant) in plan.variants.iter_mut().enumerate() {
            let steps: Vec<Step> = std::mem::take(&mut variant.steps)
                .into_vec()
                .into_iter()
                .skip(usize::from(i == 1))
                .collect();
            variants.push(Variant {
                steps: steps.into_boxed_slice(),
            });
        }
        plan.variants = variants.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanVariantDivergence),
            "{}",
            report.render_text()
        );
        assert!(
            report.fired(Rule::PlanBodyMismatch),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn head_mutations_are_rejected() {
        let (db, target) = setup();
        // Repeated head variable: advisedBy(x, x).
        let clause = Clause::new(Literal::new(target, vec![v(0), v(0)]), vec![]);
        let mut plan = compiled(&db, &clause);
        let ops: Vec<Op> = plan
            .head_ops
            .iter()
            .map(|o| match *o {
                Op::CheckSlot { pos, .. } => Op::Bind { pos, slot: 1 },
                other => other,
            })
            .collect();
        plan.head_ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanHeadMismatch),
            "{}",
            report.render_text()
        );
    }

    /// Randomized companion to the directed mutation tests: on random
    /// worlds and random clauses, (a) compiler output verifies clean, and
    /// (b) a randomly mutated plan either fails verification or — when the
    /// mutation happened to be semantics-preserving, e.g. re-keying a probe
    /// onto an isomorphic literal — still agrees with the interpreter on
    /// every example. Together: the verifier never rejects the compiler and
    /// never passes a semantics-changing mutation.
    #[cfg(not(miri))] // proptest-heavy: hundreds of compiles, too slow under miri
    mod fuzz {
        use super::*;
        use autobias::example::Example;
        use autobias::query::{clause_covers, QueryConfig};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn world(seed: u64) -> (Database, Vec<Clause>, Vec<Example>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            let r = db.add_relation("r", &["a", "b"]);
            let s = db.add_relation("s", &["a", "b"]);
            let u = db.add_relation("u", &["a"]);
            let t = db.add_relation("t", &["a", "b"]);
            let n = 5usize;
            let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            for name in &names {
                db.insert(t, &[name, name]);
            }
            for _ in 0..10 {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                db.insert(r, &[&names[a], &names[b]]);
            }
            for _ in 0..10 {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                db.insert(s, &[&names[a], &names[b]]);
            }
            for name in &names {
                if rng.random_range(0..2u32) == 0 {
                    db.insert(u, &[name]);
                }
            }
            let consts: Vec<Const> = names.iter().map(|x| db.lookup(x).unwrap()).collect();
            let examples: Vec<Example> = (0..6)
                .map(|_| {
                    Example::new(
                        t,
                        vec![
                            consts[rng.random_range(0..n)],
                            consts[rng.random_range(0..n)],
                        ],
                    )
                })
                .collect();
            let term = |rng: &mut StdRng| {
                if rng.random_range(0..5u32) == 0 {
                    Term::Const(consts[rng.random_range(0..consts.len())])
                } else {
                    Term::Var(VarId(rng.random_range(0..5u32)))
                }
            };
            let clauses: Vec<Clause> = (0..6)
                .map(|_| {
                    let mut body = Vec::new();
                    for _ in 0..rng.random_range(0..=4usize) {
                        match rng.random_range(0..3u32) {
                            0 => body.push(Literal::new(r, vec![term(&mut rng), term(&mut rng)])),
                            1 => body.push(Literal::new(s, vec![term(&mut rng), term(&mut rng)])),
                            _ => body.push(Literal::new(u, vec![term(&mut rng)])),
                        }
                    }
                    Clause::new(
                        Literal::new(t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
                        body,
                    )
                })
                .collect();
            (db, clauses, examples)
        }

        /// Applies one random mutation from the three classes the issue
        /// names — dropped residual op, swapped probe key, shuffled barrier
        /// — returning its class, or `None` when none applies (e.g. an
        /// empty body).
        fn mutate(plan: &mut CompiledClause, rng: &mut StdRng) -> Option<&'static str> {
            let start = rng.random_range(0..3u32);
            for k in 0..3u32 {
                let vi = rng.random_range(0..plan.variants.len());
                let steps = &mut plan.variants[vi].steps;
                match (start + k) % 3 {
                    0 => {
                        let with_ops: Vec<usize> = steps
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| !s.ops.is_empty())
                            .map(|(i, _)| i)
                            .collect();
                        if with_ops.is_empty() {
                            continue;
                        }
                        let si = with_ops[rng.random_range(0..with_ops.len())];
                        let drop_i = rng.random_range(0..steps[si].ops.len());
                        let ops: Vec<Op> = steps[si]
                            .ops
                            .iter()
                            .copied()
                            .enumerate()
                            .filter(|&(i, _)| i != drop_i)
                            .map(|(_, o)| o)
                            .collect();
                        steps[si].ops = ops.into_boxed_slice();
                        return Some("drop-op");
                    }
                    1 => {
                        let keyed: Vec<usize> = steps
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| {
                                matches!(
                                    s.access,
                                    Access::Probe {
                                        key: Key::Slot(_),
                                        ..
                                    }
                                )
                            })
                            .map(|(i, _)| i)
                            .collect();
                        if keyed.is_empty() {
                            continue;
                        }
                        let si = keyed[rng.random_range(0..keyed.len())];
                        if let Access::Probe {
                            key: Key::Slot(s), ..
                        } = &mut steps[si].access
                        {
                            let old = *s;
                            let mut new = rng.random_range(0..7u32);
                            if new == old {
                                new = (new + 1) % 7;
                            }
                            *s = new;
                        }
                        return Some("swap-probe-key");
                    }
                    _ => {
                        if steps.is_empty() {
                            continue;
                        }
                        let si = rng.random_range(0..steps.len());
                        steps[si].barrier = !steps[si].barrier;
                        return Some("flip-barrier");
                    }
                }
            }
            None
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn clean_compiles_verify_and_mutants_are_caught(seed in 0u64..u64::MAX / 2) {
                let (db, clauses, examples) = world(seed);
                let qcfg = QueryConfig::default();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                for (ci, clause) in clauses.iter().enumerate() {
                    let plan = compile_clause(&db, clause, &CompileConfig::default())
                        .expect("small worlds always compile");
                    let report = verify_clause(&db, clause, &plan, ci);
                    prop_assert!(
                        report.is_clean(),
                        "seed {seed}: clean plan flagged for {}:\n{}",
                        clause.render(&db),
                        report.render_text()
                    );

                    let mut mutant = compile_clause(&db, clause, &CompileConfig::default())
                        .expect("small worlds always compile");
                    let Some(class) = mutate(&mut mutant, &mut rng) else {
                        continue;
                    };
                    let report = verify_clause(&db, clause, &mutant, ci);
                    if report.has_errors() {
                        continue; // mutant killed — the expected outcome
                    }
                    // A surviving mutant must be semantics-preserving.
                    for e in &examples {
                        prop_assert_eq!(
                            mutant.covers(&db, &e.args),
                            clause_covers(&db, clause, e, &qcfg),
                            "seed {}: verifier passed a {} mutant that changed semantics on {} for {}",
                            seed,
                            class,
                            e.render(&db),
                            clause.render(&db)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn definition_pass_maps_indices_over_declines() {
        let (db, target) = setup();
        let student = db.rel_id("student").unwrap();
        let long_body: Vec<Literal> = (0..40).map(|_| Literal::new(student, vec![v(2)])).collect();
        let definition = Definition {
            clauses: vec![
                Clause::new(Literal::new(target, vec![v(0), v(1)]), long_body),
                coauthor_clause(&db, target),
            ],
        };
        let compiled = crate::compile_definition(&db, &definition, &CompileConfig::default());
        assert_eq!(compiled.num_declined(), 1);
        let report = verify_definition(&db, &definition, &compiled);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

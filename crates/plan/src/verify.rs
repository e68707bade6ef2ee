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
//!    variables). Slot indices stay below the plan's own slot count — the
//!    buffer the executor allocates for it — and positions inside each
//!    relation's arity (AB210), so `slots[slot]` can never index out of
//!    range.
//! 2. **Constraint accounting** — every argument position of every step is
//!    covered by exactly one op or the probe itself (AB204 dropped / AB205
//!    duplicated), and the literals *reconstructed* from the ops match the
//!    source body under one slot↔variable isomorphism anchored by the head
//!    (AB204/AB206/AB209). The compiler certifies which body literal each
//!    step implements (`Step::src`); the check proves that certificate
//!    instead of searching for a matching — the `src` values must be a
//!    permutation of the body, each step's relation its source literal's,
//!    and each reconstruction must unify with its source literal. This is
//!    translation validation (Pnueli, Siegel and Singerman, TACAS 1998):
//!    one linear pass, whatever the body's size or symmetry, and a wrong
//!    certificate rejects the plan. A plan that passes enforces each source
//!    argument equality exactly once — no dropped join predicate, no
//!    invented one.
//! 3. **Barrier placement** — step barriers mark exactly the first step of
//!    each connected component of the body
//!    ([`Clause::connected_body_components`]), read through each step's
//!    certified source literal, and components are contiguous in step
//!    order (AB207). A missing barrier only costs wasted
//!    backtracking, but an extra one turns "exhausted candidates" into a
//!    wrong `false`; both reject.
//! 4. **Variant agreement** — every variant individually matches the source
//!    body, so they all enforce the same constraint set and runtime variant
//!    selection cannot change semantics; structural divergence between
//!    variants is additionally reported as AB208.
//! 5. **Backjump sets** — each step's `deps` names exactly the earlier steps
//!    that bind a slot it reads (AB211). A missing one lets a dead end jump
//!    past a step whose retry could revive it (a wrong `false`); an extra
//!    one only costs backtracking; both reject.
//!
//! Findings reuse the `analyze` reporting machinery (rules AB201–AB211, all
//! Error — the compiler guarantees these properties for everything it
//! emits, so any finding means a compiler bug or a hand-mutated plan).
//! [`compile_definition`](crate::compile_definition) runs this pass at every
//! compile boundary: a plan that fails is declined, never executed, and
//! counted on [`crate::PLAN_VERIFY_REJECTS`] — a compiler bug makes a model
//! unservable, never wrong.

use crate::compile::{Access, CompiledClause, CompiledDefinition, Key, Op};
use analyze::{Anchor, Report, Rule};
use autobias::clause::{Clause, Definition, Term, VarId};
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

/// Slot↔variable correspondence built by the head pass and extended
/// through each step's certified source literal. Both directions are kept
/// so the isomorphism stays bijective: two variables may not share a slot,
/// one variable may not span two slots.
#[derive(Debug, Clone, Default)]
struct SlotMap {
    var_slot: FxHashMap<VarId, u32>,
    slot_var: FxHashMap<u32, VarId>,
}

impl SlotMap {
    /// Records `v ↔ slot`; `false` when either side is already mapped
    /// elsewhere.
    fn unify(&mut self, v: VarId, slot: u32) -> bool {
        match (self.var_slot.get(&v), self.slot_var.get(&slot)) {
            (Some(&s), _) if s != slot => false,
            (_, Some(&w)) if w != v => false,
            _ => {
                self.var_slot.insert(v, slot);
                self.slot_var.insert(slot, v);
                true
            }
        }
    }
}

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

    let mut bound = vec![false; plan.num_slots];
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
            if slot as usize >= plan.num_slots {
                report.push(
                    Rule::PlanIndexOverflow,
                    Anchor::Clause(ci),
                    loc(),
                    format!(
                        "head op addresses slot {slot}, beyond the plan's {}-slot buffer",
                        plan.num_slots
                    ),
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
                    if !map.unify(v, slot) {
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
/// each step's literal, then the certificate check against the source body
/// and the barrier/component check.
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

    if steps.len() != clause.body.len() {
        report.push(
            Rule::PlanBodyMismatch,
            Anchor::Clause(ci),
            format!("clause {ci}, variant {vi}"),
            format!(
                "variant has {} steps for a {}-literal body",
                steps.len(),
                clause.body.len()
            ),
        );
        return;
    }

    let mut bound = head.0.clone();
    // The step that bound each slot (`None` for the head's), and from it the
    // backjump set each step must carry.
    let mut binder: Vec<Option<usize>> = vec![None; plan.num_slots];
    let words = steps.len().div_ceil(64);
    let mut want_deps: Vec<Vec<u64>> = Vec::with_capacity(steps.len());
    let mut rlits: Vec<RLit> = Vec::with_capacity(steps.len());
    for (si, step) in steps.iter().enumerate() {
        let mut deps = vec![0u64; words];
        let mut depend = |slot: u32| {
            if let Some(p) = binder[slot as usize] {
                deps[p / 64] |= 1 << (p % 64);
            }
        };
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
                        Key::Slot(s) if s as usize >= plan.num_slots => {
                            report.push(
                                Rule::PlanIndexOverflow,
                                Anchor::Clause(ci),
                                loc(si, step.rel),
                                format!(
                                    "probe key slot {s} is beyond the plan's {}-slot buffer",
                                    plan.num_slots
                                ),
                            );
                        }
                        Key::Slot(s) => {
                            depend(s);
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
                if slot as usize >= plan.num_slots {
                    report.push(
                        Rule::PlanIndexOverflow,
                        Anchor::Clause(ci),
                        loc(si, step.rel),
                        format!(
                            "op addresses slot {slot}, beyond the plan's {}-slot buffer",
                            plan.num_slots
                        ),
                    );
                    continue;
                }
            }
            match *op {
                Op::CheckConst { pos, val } => {
                    place(pos, Some(AbsVal::Const(val)), &mut covered, &mut terms);
                }
                Op::CheckSlot { pos, slot } => {
                    depend(slot);
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
        for op in step.ops.iter() {
            if let Op::Bind { slot, .. } = *op {
                if let Some(b) = binder.get_mut(slot as usize) {
                    b.get_or_insert(si);
                }
            }
        }
        want_deps.push(deps);
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

    // Constraint accounting against the compiler's certificate: the steps'
    // source indices must be a permutation of the body, ...
    let mut claimed = vec![false; clause.body.len()];
    for (si, step) in steps.iter().enumerate() {
        let why = match claimed.get(step.src) {
            None => format!(
                "step claims body literal {} of a {}-literal body",
                step.src,
                clause.body.len()
            ),
            Some(true) => format!(
                "step claims body literal {}, which an earlier step already implements",
                step.src
            ),
            Some(false) => {
                claimed[step.src] = true;
                continue;
            }
        };
        report.push(
            Rule::PlanBodyMismatch,
            Anchor::Clause(ci),
            loc(si, step.rel),
            format!("{why}; the steps are not a permutation of the body"),
        );
    }
    if report.findings.len() != before {
        return;
    }
    // ... each step must evaluate its source literal's relation, and every
    // reconstruction must unify with its source literal under the one
    // slot↔variable isomorphism the head anchors.
    let mut map = head.1.clone();
    for (si, (step, r)) in steps.iter().zip(&rlits).enumerate() {
        let lit = &clause.body[step.src];
        if lit.rel != r.rel {
            report.push(
                Rule::PlanBodyMismatch,
                Anchor::Clause(ci),
                loc(si, step.rel),
                format!(
                    "step evaluates {} but its source literal {} is {}",
                    db.catalog().schema(r.rel).name,
                    step.src,
                    lit.render(db)
                ),
            );
            continue;
        }
        let unifies = lit.args.len() == r.terms.len()
            && lit
                .args
                .iter()
                .zip(&r.terms)
                .all(|(term, val)| match (*val, *term) {
                    (Some(AbsVal::Const(c)), Term::Const(want)) => c == want,
                    (Some(AbsVal::Slot(s)), Term::Var(v)) => map.unify(v, s),
                    _ => false,
                });
        if !unifies {
            report.push(
                Rule::PlanDroppedConstraint,
                Anchor::Clause(ci),
                loc(si, step.rel),
                format!(
                    "step does not preserve the argument equalities of its source literal {} \
                     (a join predicate was dropped or rewired): {}",
                    step.src,
                    lit.render(db)
                ),
            );
        }
    }
    if report.findings.len() != before {
        return;
    }

    // Barrier placement against the source literals' components: component
    // runs must be contiguous and a barrier must mark exactly each run's
    // first step.
    let mut seen = vec![false; comp_of.iter().map(|&c| c + 1).max().unwrap_or(0)];
    for si in 0..steps.len() {
        let c = comp_of[steps[si].src];
        let entering = si == 0 || c != comp_of[steps[si - 1].src];
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

    // Backjump sets against the slots each step reads.
    for (si, (step, want)) in steps.iter().zip(&want_deps).enumerate() {
        if *step.deps == want[..] {
            continue;
        }
        let names = |set: &[u64]| -> Vec<usize> {
            (0..set.len() * 64)
                .filter(|&p| set[p / 64] >> (p % 64) & 1 == 1)
                .collect()
        };
        report.push(
            Rule::PlanBackjumpMismatch,
            Anchor::Clause(ci),
            loc(si, step.rel),
            format!(
                "step's backjump set is steps {:?}, but it reads slots bound by steps {:?}; \
                 a dead end here must resume at the latest of the latter",
                names(&step.deps),
                names(want)
            ),
        );
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

        // Swapping to a *fresh* slot instead trips the binding lattice: the
        // last slot is the join variable, which the opener itself binds.
        let mut plan = compiled(&db, &clause);
        let fresh = plan.num_slots as u32 - 1;
        match &mut plan.variants[0].steps[0].access {
            Access::Probe {
                key: Key::Slot(s), ..
            } => *s = fresh,
            other => panic!("expected a slot-keyed probe, got {other:?}"),
        }
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanUnboundProbeKey),
            "{}",
            report.render_text()
        );

        // A key at the slot count is outside the buffer the executor
        // allocates for this plan.
        let mut plan = compiled(&db, &clause);
        let past = plan.num_slots as u32;
        match &mut plan.variants[0].steps[0].access {
            Access::Probe {
                key: Key::Slot(s), ..
            } => *s = past,
            other => panic!("expected a slot-keyed probe, got {other:?}"),
        }
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanIndexOverflow),
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
    fn wrong_backjump_sets_are_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);
        let plan = compiled(&db, &clause);
        // The second step reads the co-author variable the first binds.
        assert_eq!(&*plan.variants[0].steps[1].deps, &[0b1]);

        // A dropped dependency lets a dead end jump past the step whose
        // retry could revive it: the unsound direction.
        let mut dropped = compiled(&db, &clause);
        dropped.variants[0].steps[1].deps[0] = 0;
        // An extra one (here a step naming itself) only costs retries.
        let mut extra = compiled(&db, &clause);
        extra.variants[0].steps[1].deps[0] = 0b11;
        // A set of the wrong width.
        let mut wide = compiled(&db, &clause);
        wide.variants[0].steps[0].deps = vec![0, 0].into_boxed_slice();
        for plan in [dropped, extra, wide] {
            let report = verify_clause(&db, &clause, &plan, 0);
            assert!(
                report.fired(Rule::PlanBackjumpMismatch),
                "{}",
                report.render_text()
            );
        }
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

        // A bind at the plan's slot count writes past its slot buffer.
        let mut plan = compiled(&db, &clause);
        let past = plan.num_slots as u32;
        let step = plan.variants[0]
            .steps
            .iter_mut()
            .find(|s| s.ops.iter().any(|o| matches!(o, Op::Bind { .. })))
            .expect("has a bind");
        let ops: Vec<Op> = step
            .ops
            .iter()
            .map(|o| match *o {
                Op::Bind { pos, .. } => Op::Bind { pos, slot: past },
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

        // So does a head bind.
        let mut plan = compiled(&db, &clause);
        let ops: Vec<Op> = plan
            .head_ops
            .iter()
            .map(|o| match *o {
                Op::Bind { pos, .. } if pos == 1 => Op::Bind { pos, slot: past },
                other => other,
            })
            .collect();
        plan.head_ops = ops.into_boxed_slice();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanIndexOverflow),
            "{}",
            report.render_text()
        );
    }

    /// The compiler's step→literal certificate is checked, not trusted: a
    /// map that is not a permutation of the body, or that pairs a step with
    /// a literal of the same relation but different arguments, rejects the
    /// plan.
    #[test]
    fn corrupt_certificates_are_rejected() {
        let (db, target) = setup();
        let clause = coauthor_clause(&db, target);

        // Two steps claim one literal, leaving the other unimplemented.
        let mut plan = compiled(&db, &clause);
        let claimed = plan.variants[0].steps[0].src;
        plan.variants[0].steps[1].src = claimed;
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanBodyMismatch),
            "{}",
            report.render_text()
        );

        // A step claims a literal the body does not have.
        let mut plan = compiled(&db, &clause);
        plan.variants[0].steps[1].src = clause.body.len();
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanBodyMismatch),
            "{}",
            report.render_text()
        );

        // Swapped between `publication(z, x)` and `publication(z, y)`: still
        // a permutation over one relation, but each step now claims the
        // literal whose head variable it does not read.
        let mut plan = compiled(&db, &clause);
        let steps = &mut plan.variants[0].steps;
        let (a, b) = (steps[0].src, steps[1].src);
        steps[0].src = b;
        steps[1].src = a;
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(
            report.fired(Rule::PlanDroppedConstraint),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    /// The bodies that exhausted a budgeted matching search: long symmetric
    /// runs of private variables on one hub, which learned clauses carry
    /// (`hasPosition(v5, v6), hasPosition(v7, v6), …`). The certificate
    /// check proves them in one pass.
    #[test]
    fn symmetric_private_runs_verify_clean() {
        let (db, target) = setup();
        let publ = db.rel_id("publication").unwrap();
        let student = db.rel_id("student").unwrap();
        let mut body = vec![Literal::new(publ, vec![v(2), v(0)])];
        body.extend((3..100).map(|i| Literal::new(publ, vec![v(2), v(i)])));
        body.extend((100..140).map(|i| Literal::new(student, vec![v(i)])));
        let clause = Clause::new(Literal::new(target, vec![v(0), v(1)]), body);
        let plan = compiled(&db, &clause);
        assert_eq!(plan.num_slots, 140);
        let report = verify_clause(&db, &clause, &plan, 0);
        assert!(report.is_clean(), "{}", report.render_text());
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
        // Repeated head variable: advisedBy(x, x) ← publication(z, x), so
        // the re-bound slot 1 (z's) is inside the plan's slot buffer.
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(0)]),
            vec![Literal::new(publ, vec![v(2), v(0)])],
        );
        let mut plan = compiled(&db, &clause);
        assert_eq!(plan.num_slots, 2);
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

        /// Applies one random mutation — dropped residual op, swapped probe
        /// key, shuffled barrier, flipped backjump dependency — returning
        /// its class, or `None` when none applies (e.g. an empty body).
        fn mutate(plan: &mut CompiledClause, rng: &mut StdRng) -> Option<&'static str> {
            let start = rng.random_range(0..4u32);
            for k in 0..4u32 {
                let vi = rng.random_range(0..plan.variants.len());
                let steps = &mut plan.variants[vi].steps;
                match (start + k) % 4 {
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
                    2 => {
                        if steps.is_empty() {
                            continue;
                        }
                        let si = rng.random_range(0..steps.len());
                        let p = rng.random_range(0..steps.len());
                        steps[si].deps[p / 64] ^= 1 << (p % 64);
                        return Some("flip-dep");
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
        let bad_arity = vec![Literal::new(student, vec![v(0), v(1)])];
        let definition = Definition {
            clauses: vec![
                Clause::new(Literal::new(target, vec![v(0), v(1)]), bad_arity),
                coauthor_clause(&db, target),
            ],
        };
        let compiled = crate::compile_definition(&db, &definition, &CompileConfig::default());
        assert_eq!(compiled.num_declined(), 1);
        let report = verify_definition(&db, &definition, &compiled);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

//! Clause → plan compilation: literal ordering by estimated selectivity,
//! index-probe access-path selection, and bound/free argument dispatch
//! resolved into flat op lists.
//!
//! A compiled clause is a sequence of `Step`s, one per body literal, in an
//! order chosen at compile time (with up to `MAX_VARIANTS` alternative
//! orderings kept when cost estimates tie — see `Variant` — selected per
//! evaluation from the concrete head bindings). Each step names its access
//! path — an
//! [`AttrIndex`](relstore::AttrIndex) probe keyed by a constant or an
//! already-bound variable slot, or a scan when no position is bound
//! — plus the residual per-tuple ops (equality checks and slot binds). The
//! body is first split into [connected components]
//! (`autobias::clause::Clause::connected_body_components`): literals that
//! share no non-head variable are independent semi-join subproblems, so the
//! executor never backtracks across a component boundary (the first step of
//! each component is a *barrier* — exhausting it refutes the whole clause).
//! Within a component, each step records the earlier steps whose slots it
//! reads (`Step::deps`), so a dead end backjumps to the latest step that
//! can change its outcome instead of retrying every step in between.
//!
//! Ordering within a component is greedy: starting from the head-bound
//! variables, repeatedly emit the literal with the smallest estimated
//! candidate count ([`relstore::Relation::estimated_matches`] — the exact
//! posting length for constant keys, average posting length for bound
//! variables, relation cardinality for scans), then mark its variables
//! bound. This mirrors the fewest-candidates-first heuristic the interpreter
//! applies per backtracking node, hoisted to compile time.

use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use relstore::{Const, Database, FxHashMap, FxHashSet, RelId};

/// The runtime search budget baked into each plan.
#[derive(Debug, Clone, Copy)]
pub struct CompileConfig {
    /// Backtracking node budget per evaluation: past it the plan answers
    /// `false`, as the interpreter does past
    /// `autobias::query::QueryConfig::node_limit`. The two engines search
    /// in different orders, so they need not give up on the same searches.
    pub node_limit: usize,
}

impl Default for CompileConfig {
    fn default() -> Self {
        Self {
            node_limit: 1_000_000,
        }
    }
}

/// Why a clause was not compiled. Every well-formed clause compiles, of
/// any length; a clause declines only when it is malformed or its plan
/// fails verification. [`crate::PLAN_FALLBACK`] counts it, and the serve
/// registry refuses to load a model with a declined clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Declined {
    /// A literal's arity disagrees with the catalog (a malformed clause;
    /// the interpreter answers `false` for it, and so would a plan, but we
    /// decline rather than encode out-of-range positions).
    ArityMismatch {
        /// Relation whose use disagrees with the catalog.
        rel: RelId,
        /// Arity written in the clause.
        got: usize,
        /// Arity declared by the catalog.
        want: usize,
    },
    /// The compiled plan failed soundness verification ([`crate::verify`],
    /// AB2xx findings — the summary is carried here). The plan never
    /// executes, so a compiler bug cannot serve a wrong answer;
    /// [`crate::PLAN_VERIFY_REJECTS`] counts it.
    FailedVerification(String),
}

impl std::fmt::Display for Declined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Declined::ArityMismatch { rel, got, want } => {
                write!(
                    f,
                    "literal on rel#{} has arity {got}, catalog says {want}",
                    rel.0
                )
            }
            Declined::FailedVerification(summary) => {
                write!(f, "plan failed soundness verification: {summary}")
            }
        }
    }
}

/// Probe key for an indexed access: a constant from the clause text, or the
/// runtime value of an already-bound variable slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Key {
    /// Constant known at compile time.
    Const(Const),
    /// Slot bound by the head or an earlier step.
    Slot(u32),
}

/// Access path of one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Access {
    /// Probe the attribute index at `pos` with `key`; candidates are the
    /// posting list (every candidate already satisfies position `pos`, so
    /// the op list skips it).
    Probe {
        /// Indexed attribute position.
        pos: usize,
        /// Probe key.
        key: Key,
    },
    /// No bound position: iterate all tuple ids.
    Scan,
}

/// One per-candidate-tuple operation. Ops run left-to-right; a fresh
/// variable's `Bind` always precedes any `CheckSlot` on the same slot, so
/// slots never need un-binding on backtrack — re-running the ops on the
/// next candidate overwrites them before any read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Tuple position must equal a compile-time constant.
    CheckConst {
        /// Attribute position.
        pos: usize,
        /// Required value.
        val: Const,
    },
    /// Tuple position must equal an already-bound slot.
    CheckSlot {
        /// Attribute position.
        pos: usize,
        /// Slot to compare against.
        slot: u32,
    },
    /// Tuple position binds a fresh slot.
    Bind {
        /// Attribute position.
        pos: usize,
        /// Slot to write.
        slot: u32,
    },
}

/// One body literal, compiled.
#[derive(Debug)]
pub(crate) struct Step {
    /// Index of the body literal this step evaluates: the compiler's
    /// certificate, which [`crate::verify`] checks instead of searching for
    /// a step→literal matching.
    pub(crate) src: usize,
    pub(crate) rel: RelId,
    pub(crate) access: Access,
    pub(crate) ops: Box<[Op]>,
    /// First step of a connected component: exhausting its candidates
    /// refutes the clause outright (no earlier binding can revive an
    /// independent subproblem), so the executor returns `false` instead of
    /// backtracking across the boundary.
    pub(crate) barrier: bool,
    /// Bitset over earlier steps (bit `p` of word `p / 64`, one word per 64
    /// steps of the variant): the steps that bind a slot this step reads,
    /// through its probe key or a residual check. Its candidates depend on
    /// those steps alone, so when it runs dry the executor backjumps to the
    /// latest of them — retrying a step in between, such as a private
    /// variable's star literal `r(v_i, h)`, cannot change the outcome.
    pub(crate) deps: Box<[u64]>,
    /// Estimated candidate count at compile time (kept for diagnostics).
    pub(crate) est_cost: usize,
}

/// One complete step ordering for a clause body. A clause usually compiles
/// to a single variant; symmetric joins (several literals tied at the
/// minimum compile-time estimate for the opening step, e.g.
/// `publication(z,x), publication(z,y)`) compile to one variant per tied
/// opener, and the executor picks per evaluation by the *actual* posting
/// frequency of each variant's first probe key. Compile-time estimates
/// cannot break such ties — both openers probe the same index with an
/// unknown key — but at run time the keys are concrete and their posting
/// lengths can differ by orders of magnitude (a student's publications vs.
/// a prolific professor's).
#[derive(Debug)]
pub(crate) struct Variant {
    pub(crate) steps: Box<[Step]>,
}

/// A clause compiled into an ordered index-probe pipeline. Evaluate with
/// [`CompiledClause::covers`](crate::exec). Plans are only valid against
/// the database they were compiled for: step order assumes its cardinalities.
#[derive(Debug)]
pub struct CompiledClause {
    pub(crate) head_rel: RelId,
    pub(crate) head_arity: usize,
    pub(crate) head_ops: Box<[Op]>,
    /// Equivalent step orderings (always ≥ 1); see [`Variant`].
    pub(crate) variants: Box<[Variant]>,
    /// Distinct variables of the clause: the slot buffer the executor
    /// allocates. Every variant binds the same variables.
    pub(crate) num_slots: usize,
    pub(crate) node_limit: usize,
}

impl CompiledClause {
    /// The head relation this plan answers for.
    pub fn head_rel(&self) -> RelId {
        self.head_rel
    }

    /// Number of compiled steps (body literals).
    pub fn num_steps(&self) -> usize {
        self.variants[0].steps.len()
    }

    /// Number of equivalent step orderings the executor chooses between at
    /// run time (1 unless the opening step was tied at compile time).
    pub fn num_variants(&self) -> usize {
        self.variants.len()
    }

    /// Number of steps in variant `vi` (every variant orders the same body,
    /// so this equals [`Self::num_steps`] for all valid `vi`).
    pub fn variant_len(&self, vi: usize) -> usize {
        self.variants[vi].steps.len()
    }

    /// Compile-time candidate estimate of step `si` of variant `vi` — the
    /// baseline the q-error measures observed cardinalities against.
    pub fn step_est(&self, vi: usize, si: usize) -> usize {
        self.variants[vi].steps[si].est_cost
    }
}

/// A whole definition compiled: the plans that compiled plus the indices of
/// clauses that declined. Only a fully compiled definition serves.
#[derive(Debug, Default)]
pub struct CompiledDefinition {
    plans: Vec<CompiledClause>,
    declined: Vec<(usize, Declined)>,
    /// Findings from the soundness pass run at compile time.
    verify: analyze::Report,
}

impl CompiledDefinition {
    /// Number of clauses that compiled.
    pub fn num_compiled(&self) -> usize {
        self.plans.len()
    }

    /// Number of clauses that declined.
    pub fn num_declined(&self) -> usize {
        self.declined.len()
    }

    /// Whether every clause compiled — the serve registry's admission bar.
    pub fn is_fully_compiled(&self) -> bool {
        self.declined.is_empty()
    }

    /// Indices (into the source definition) and reasons of declined clauses.
    pub fn declined(&self) -> &[(usize, Declined)] {
        &self.declined
    }

    /// One `clause {i}: {reason}` line per declined clause.
    pub fn decline_reasons(&self) -> Vec<String> {
        self.declined
            .iter()
            .map(|(i, why)| format!("clause {i}: {why}"))
            .collect()
    }

    /// Why this definition may not serve, or `None` when every clause
    /// compiled into a verified plan. The one admission bar of every load
    /// boundary — the serve registry's rescan, upload and learn-job
    /// completion, and the CLI's `eval` and `predict` — so a model is only
    /// ever answered by compiled plans. A parsed model can decline only
    /// through a verifier rejection, since the parser refuses arity
    /// mismatches.
    pub fn refusal(&self) -> Option<String> {
        if self.is_fully_compiled() {
            return None;
        }
        Some(format!(
            "{} clause(s) declined by the plan compiler: {}",
            self.declined.len(),
            self.decline_reasons().join("; ")
        ))
    }

    /// The compiled plans, in source-definition order (declined clauses
    /// skipped).
    pub fn plans(&self) -> &[CompiledClause] {
        &self.plans
    }

    /// The soundness-verification report accumulated while compiling
    /// ([`crate::verify`]): findings for every clause that produced a plan,
    /// including plans subsequently declined as
    /// [`Declined::FailedVerification`].
    pub fn verify_report(&self) -> &analyze::Report {
        &self.verify
    }

    /// Whether any *compiled* clause covers `args` (Horn-definition
    /// disjunction over the compiled subset). When [`Self::is_fully_compiled`]
    /// this is the definition's verdict.
    pub fn covers_compiled(&self, db: &Database, args: &[Const]) -> bool {
        self.covers_compiled_with(db, args, &mut crate::ExecScratch::default())
    }

    /// [`Self::covers_compiled`] with execution buffers reused from
    /// `scratch` — the batch form used by the serve predict loop.
    pub fn covers_compiled_with<'a>(
        &self,
        db: &'a Database,
        args: &[Const],
        scratch: &mut crate::ExecScratch<'a>,
    ) -> bool {
        self.plans.iter().any(|p| p.covers_with(db, args, scratch))
    }

    /// [`Self::covers_compiled_with`] with per-operator counters
    /// accumulated into `tally` (shaped by
    /// [`crate::stats::BatchTally::for_definition`]) — the EXPLAIN ANALYZE
    /// form of the batch loop. Same short-circuiting disjunction, so the
    /// verdict (and therefore the /predict response bytes) is identical to
    /// the untallied path.
    pub fn covers_compiled_tallied<'a>(
        &self,
        db: &'a Database,
        args: &[Const],
        scratch: &mut crate::ExecScratch<'a>,
        tally: &mut crate::stats::BatchTally,
    ) -> bool {
        self.plans
            .iter()
            .zip(tally.clauses.iter_mut())
            .any(|(p, t)| p.covers_with_tally(db, args, scratch, t))
    }
}

/// Compiles every clause of `definition`, bumping [`crate::PLAN_COMPILED`] /
/// [`crate::PLAN_FALLBACK`] per clause. Never fails: malformed clauses are
/// recorded as declined.
///
/// This is the compile boundary every load path funnels through (serve
/// registry scans, model uploads, learn-job completions, CLI eval, predict
/// and explain), so soundness verification happens here: each plan runs
/// through [`crate::verify::verify_clause`] and a plan with Error findings
/// is declined as [`Declined::FailedVerification`] — counted on
/// [`crate::PLAN_VERIFY_REJECTS`] and never executed. The accumulated
/// findings are kept on the result ([`CompiledDefinition::verify_report`]).
pub fn compile_definition(
    db: &Database,
    definition: &Definition,
    cfg: &CompileConfig,
) -> CompiledDefinition {
    crate::register();
    let mut out = CompiledDefinition::default();
    for (i, clause) in definition.clauses.iter().enumerate() {
        match compile_clause(db, clause, cfg) {
            Ok(plan) => out.admit(db, i, clause, plan),
            Err(why) => {
                crate::PLAN_FALLBACK.bump();
                out.declined.push((i, why));
            }
        }
    }
    out
}

impl CompiledDefinition {
    /// Admission point for one freshly compiled plan: runs
    /// [`crate::verify::verify_clause`], records the findings, and declines
    /// plans with Error findings. Separate from [`compile_definition`]'s loop so tests
    /// can drive it with hand-mutated plans — through the public API the
    /// compiler's own output never takes the reject branch.
    pub(crate) fn admit(&mut self, db: &Database, i: usize, clause: &Clause, plan: CompiledClause) {
        let found = crate::verify::verify_clause(db, clause, &plan, i);
        let rejected = found.has_errors();
        let summary = found.summary();
        self.verify.merge(found);
        if rejected {
            crate::PLAN_VERIFY_REJECTS.bump();
            crate::PLAN_FALLBACK.bump();
            self.declined
                .push((i, Declined::FailedVerification(summary)));
            return;
        }
        crate::PLAN_COMPILED.bump();
        self.plans.push(plan);
    }
}

/// Compiles one clause, or says why it declined. `db` supplies the catalog
/// (arity checks) and cardinalities (ordering, access paths); the produced
/// plan must be evaluated against the same database.
pub fn compile_clause(
    db: &Database,
    clause: &Clause,
    cfg: &CompileConfig,
) -> Result<CompiledClause, Declined> {
    check_arity(db, &clause.head)?;
    for lit in &clause.body {
        check_arity(db, lit)?;
    }

    let mut slots: FxHashMap<VarId, u32> = FxHashMap::default();

    // Head dispatch: binds head-variable slots from the example tuple and
    // checks head constants / repeated head variables.
    let mut head_ops = Vec::with_capacity(clause.head.args.len());
    for (pos, t) in clause.head.args.iter().enumerate() {
        head_ops.push(term_op(*t, pos, &mut slots));
    }

    let components = clause.connected_body_components();
    // One ordering per tied opener of the first component (usually just
    // one); the executor selects per evaluation by actual probe frequency.
    let mut variants = Vec::new();
    let mut num_slots = slots.len();
    for force_first in tied_openers(db, clause, &components, &slots) {
        let (steps, n) = order_steps(db, clause, &components, slots.clone(), force_first);
        num_slots = num_slots.max(n);
        variants.push(Variant { steps });
    }
    Ok(CompiledClause {
        head_rel: clause.head.rel,
        head_arity: clause.head.args.len(),
        head_ops: head_ops.into_boxed_slice(),
        variants: variants.into_boxed_slice(),
        num_slots,
        node_limit: cfg.node_limit,
    })
}

/// Cap on runtime-selected orderings per clause. Ties wider than this keep
/// only the first openers in source order; selection still beats a blind
/// static pick among those.
const MAX_VARIANTS: usize = 4;

/// Body indices to force as the opening step, one per compiled variant.
/// `[None]` (single variant, pure greedy) unless several literals of the
/// first component tie at the minimum estimate with an index-probe access —
/// the one situation where compile-time statistics cannot distinguish
/// orderings but runtime posting lengths can.
fn tied_openers(
    db: &Database,
    clause: &Clause,
    components: &[Vec<usize>],
    head_slots: &FxHashMap<VarId, u32>,
) -> Vec<Option<usize>> {
    let Some(first) = components.first() else {
        return vec![None];
    };
    let bound: FxHashSet<VarId> = head_slots.keys().copied().collect();
    let ests: Vec<(usize, usize, bool)> = first
        .iter()
        .map(|&li| {
            let (est, access) = estimate(db, &clause.body[li], &bound, head_slots);
            (li, est, matches!(access, Access::Probe { .. }))
        })
        .collect();
    let min = ests
        .iter()
        .map(|&(_, est, _)| est)
        .min()
        .expect("non-empty");
    let mut tied: Vec<usize> = ests
        .iter()
        .filter(|&&(_, est, probe)| est == min && probe)
        .map(|&(li, _, _)| li)
        .collect();
    if tied.len() <= 1 {
        return vec![None];
    }
    tied.truncate(MAX_VARIANTS);
    tied.into_iter().map(Some).collect()
}

/// Orders every component's literals greedily into steps, optionally
/// forcing `force_first` as the opening literal of the first component.
/// Returns the steps and the number of slots allocated (head + body).
fn order_steps(
    db: &Database,
    clause: &Clause,
    components: &[Vec<usize>],
    mut slots: FxHashMap<VarId, u32>,
    force_first: Option<usize>,
) -> (Box<[Step]>, usize) {
    let mut bound: FxHashSet<VarId> = slots.keys().copied().collect();
    let mut steps: Vec<Step> = Vec::with_capacity(clause.body.len());
    for component in components {
        let mut remaining = component.clone();
        let mut first = true;
        while !remaining.is_empty() {
            // Greedy: the cheapest literal under the current bound set.
            // `min_by_key` keeps the first minimum, so ties break toward
            // source order (stable plans for stable clauses).
            let k = match force_first.filter(|_| first && steps.is_empty()) {
                Some(li) => remaining
                    .iter()
                    .position(|&x| x == li)
                    .expect("forced opener is in the first component"),
                None => {
                    remaining
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &li)| estimate(db, &clause.body[li], &bound, &slots).0)
                        .expect("remaining is non-empty")
                        .0
                }
            };
            let li = remaining.swap_remove(k);
            let lit = &clause.body[li];
            let (est_cost, access) = estimate(db, lit, &bound, &slots);
            let probe_pos = match access {
                Access::Probe { pos, .. } => Some(pos),
                Access::Scan => None,
            };
            let mut ops = Vec::with_capacity(lit.args.len());
            for (pos, t) in lit.args.iter().enumerate() {
                // The probe position is satisfied by construction: posting
                // lists only contain tuples matching the key.
                if Some(pos) == probe_pos {
                    if let Term::Var(v) = *t {
                        debug_assert!(slots.contains_key(&v), "probe key var must be bound");
                    }
                    continue;
                }
                ops.push(term_op(*t, pos, &mut slots));
            }
            bound.extend(lit.vars());
            steps.push(Step {
                src: li,
                rel: lit.rel,
                access,
                ops: ops.into_boxed_slice(),
                barrier: first,
                deps: Box::default(),
                est_cost,
            });
            first = false;
        }
    }
    let num_slots = slots.len();
    set_deps(&mut steps, num_slots);
    (steps.into_boxed_slice(), num_slots)
}

/// Fills each step's [`Step::deps`]: the earlier steps that bind a slot it
/// reads. Head-bound slots have no binding step, and a step's reads of the
/// slots it binds itself (a repeated fresh variable) are not dependencies.
fn set_deps(steps: &mut [Step], num_slots: usize) {
    let words = steps.len().div_ceil(64);
    let mut binder: Vec<Option<usize>> = vec![None; num_slots];
    for (si, step) in steps.iter_mut().enumerate() {
        let mut deps = vec![0u64; words];
        let key = match step.access {
            Access::Probe {
                key: Key::Slot(s), ..
            } => Some(s),
            _ => None,
        };
        let checks = step.ops.iter().filter_map(|op| match *op {
            Op::CheckSlot { slot, .. } => Some(slot),
            _ => None,
        });
        for slot in key.into_iter().chain(checks) {
            if let Some(p) = binder[slot as usize] {
                deps[p / 64] |= 1 << (p % 64);
            }
        }
        for op in step.ops.iter() {
            if let Op::Bind { slot, .. } = *op {
                binder[slot as usize] = Some(si);
            }
        }
        step.deps = deps.into_boxed_slice();
    }
}

fn check_arity(db: &Database, lit: &Literal) -> Result<(), Declined> {
    let want = db.catalog().schema(lit.rel).arity();
    if lit.args.len() != want {
        return Err(Declined::ArityMismatch {
            rel: lit.rel,
            got: lit.args.len(),
            want,
        });
    }
    Ok(())
}

/// The op for one argument position: check against a constant, check
/// against an already-bound slot, or bind a fresh slot (allocating it).
fn term_op(t: Term, pos: usize, slots: &mut FxHashMap<VarId, u32>) -> Op {
    match t {
        Term::Const(c) => Op::CheckConst { pos, val: c },
        Term::Var(v) => match slots.get(&v) {
            Some(&slot) => Op::CheckSlot { pos, slot },
            None => {
                let slot = slots.len() as u32;
                slots.insert(v, slot);
                Op::Bind { pos, slot }
            }
        },
    }
}

/// Estimated candidate count and best access path for `lit` given the
/// variables bound so far. Prefers the most selective bound position; with
/// none bound, a scan costed at the relation's cardinality.
fn estimate(
    db: &Database,
    lit: &Literal,
    bound: &FxHashSet<VarId>,
    slots: &FxHashMap<VarId, u32>,
) -> (usize, Access) {
    let rel = db.relation(lit.rel);
    let mut best: Option<(usize, Access)> = None;
    for (pos, t) in lit.args.iter().enumerate() {
        let (value, key) = match *t {
            Term::Const(c) => (Some(c), Key::Const(c)),
            Term::Var(v) if bound.contains(&v) => (
                None,
                Key::Slot(*slots.get(&v).expect("bound var has a slot")),
            ),
            Term::Var(_) => continue,
        };
        let est = rel.estimated_matches(pos, value);
        if best.is_none() || est < best.as_ref().map_or(usize::MAX, |b| b.0) {
            best = Some((est, Access::Probe { pos, key }));
        }
    }
    best.unwrap_or((rel.len().max(1), Access::Scan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    /// The reject branch of [`CompiledDefinition::admit`]: an unsound plan
    /// is declined as [`Declined::FailedVerification`], never served
    /// compiled, and counted on [`crate::PLAN_VERIFY_REJECTS`] — driven
    /// directly because the compiler's own output never fails verification.
    #[test]
    fn admit_declines_unsound_plans_to_the_interpreter() {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        let mut plan = compile_clause(&db, &clause, &CompileConfig::default()).unwrap();
        // Spurious mid-component barrier: the unsound mutation class.
        let si = plan.variants[0]
            .steps
            .iter()
            .position(|s| !s.barrier)
            .unwrap();
        plan.variants[0].steps[si].barrier = true;

        let mut out = CompiledDefinition::default();
        let rejects_before = crate::PLAN_VERIFY_REJECTS.get();
        out.admit(&db, 0, &clause, plan);
        assert_eq!(out.num_compiled(), 0);
        assert_eq!(out.num_declined(), 1);
        assert!(matches!(
            out.declined()[0],
            (0, Declined::FailedVerification(_))
        ));
        assert!(out.declined()[0].1.to_string().contains("AB207"));
        assert_eq!(crate::PLAN_VERIFY_REJECTS.get(), rejects_before + 1);
        assert!(out.verify_report().has_errors());

        // A sound plan through the same gate is admitted and leaves the
        // reject counter alone.
        let plan = compile_clause(&db, &clause, &CompileConfig::default()).unwrap();
        out.admit(&db, 1, &clause, plan);
        assert_eq!(out.num_compiled(), 1);
        assert_eq!(crate::PLAN_VERIFY_REJECTS.get(), rejects_before + 1);
    }
}

//! Allocation-free execution of compiled plans.
//!
//! [`CompiledClause::covers`] is an iterative backtracking walk over the
//! plan's steps. All state lives in an [`ExecScratch`] sized to the plan:
//! the slot bindings, and one candidate cursor per depth — a borrowed
//! posting-list slice for index probes, a plain id range for scans. The
//! buffers grow once to the largest plan a scratch has run, so a batch
//! allocates nothing per tuple. No hashing beyond the one index probe per
//! step entry, and no un-binding on backtrack (compile-time op ordering
//! guarantees every slot write precedes any read of it — see
//! [`Op`](crate::compile)).
//!
//! Three structural facts from compilation shape the control flow:
//!
//! - a step's candidates depend only on slots bound by the head or by
//!   *earlier* steps, so re-entering a depth recomputes exactly one probe;
//! - the first step of each connected component is a *barrier*: its
//!   exhaustion refutes the clause without trying other bindings of earlier
//!   components, which share no variables with it;
//! - within a component, a step that runs dry backjumps (graph-based
//!   backjumping, Dechter 1990): each depth keeps a conflict set, seeded at
//!   entry with the steps whose slots it reads (`Step::deps`) and grown by
//!   the dead ends that jumped back to it, and a dead end resumes at the
//!   latest step of its set, passing on the rest. The steps jumped over
//!   bind nothing the dead end depends on, so retrying them could only
//!   repeat it: a run of private-variable steps `r(v_i, h)` in front of a
//!   failing literal costs one retreat, not every combination of its
//!   candidates. An empty set refutes the clause.

use crate::compile::{Access, CompiledClause, Key, Op, Step, Variant};
use crate::stats::ClauseTally;
use relstore::{Const, Database, TupleId};

/// Execution observer. The executor is generic over this so the untallied
/// path monomorphizes every hook to nothing — [`NoTally`] keeps the hot
/// loop byte-for-byte the code it was before stats existed, while
/// [`ClauseTally`] pays plain register increments (no atomics; the batch
/// flushes once into [`crate::stats::PlanStats`]).
pub(crate) trait Tally {
    /// One `covers` call began.
    fn eval(&mut self) {}
    /// The runtime selector chose variant `vi` for this evaluation.
    fn selected(&mut self, _vi: usize) {}
    /// Step `si` of variant `vi` computed a candidate set of `n` rows.
    fn entered(&mut self, _vi: usize, _si: usize, _n: usize) {}
    /// A candidate passed every residual op.
    fn emitted(&mut self, _vi: usize, _si: usize) {}
    /// A candidate failed a residual check op.
    fn rejected(&mut self, _vi: usize, _si: usize) {}
    /// A step ran dry and the walk retreated to an earlier step.
    fn backtrack(&mut self) {}
    /// The node budget refuted the evaluation.
    fn node_limit_hit(&mut self) {}
    /// The evaluation answered `true`.
    fn matched(&mut self) {}
}

/// The no-op observer (stats off).
pub(crate) struct NoTally;

impl Tally for NoTally {}

impl Tally for ClauseTally {
    #[inline]
    fn eval(&mut self) {
        self.evals += 1;
    }
    #[inline]
    fn selected(&mut self, vi: usize) {
        self.variants[vi].selected += 1;
    }
    #[inline]
    fn entered(&mut self, vi: usize, si: usize, n: usize) {
        let s = &mut self.variants[vi].steps[si];
        s.entries += 1;
        s.candidates += n as u64;
    }
    #[inline]
    fn emitted(&mut self, vi: usize, si: usize) {
        self.variants[vi].steps[si].emitted += 1;
    }
    #[inline]
    fn rejected(&mut self, vi: usize, si: usize) {
        self.variants[vi].steps[si].rejected += 1;
    }
    #[inline]
    fn backtrack(&mut self) {
        self.backtracks += 1;
    }
    #[inline]
    fn node_limit_hit(&mut self) {
        self.node_limit_hits += 1;
    }
    #[inline]
    fn matched(&mut self) {
        self.matches += 1;
    }
}

/// Per-depth candidate cursor. `Copy` (the slice is a shared borrow), so
/// the buffer grows by copying a constant.
#[derive(Clone, Copy)]
struct StepState<'a> {
    cands: &'a [TupleId],
    cursor: usize,
    scan: bool,
    scan_end: usize,
}

impl<'a> StepState<'a> {
    const EMPTY: StepState<'a> = StepState {
        cands: &[],
        cursor: 0,
        scan: false,
        scan_end: 0,
    };

    /// Candidate-set size at entry (posting-list length or scan range) —
    /// the observed counterpart of the compile-time `est_cost`.
    fn len(&self) -> usize {
        if self.scan {
            self.scan_end
        } else {
            self.cands.len()
        }
    }
}

/// Reusable execution state: the slot bindings, per-depth cursors and
/// per-depth conflict sets for one evaluation, each grown on first use to
/// the plan's size and never shrunk. Batch callers allocate one scratch and
/// reuse it across every tuple and every plan of the batch. Reuse is sound
/// without clearing: compile-time op ordering guarantees each call writes
/// every slot, and entering a depth writes its cursor and conflict set,
/// before reading them, so stale values from a previous tuple are never
/// observed.
///
/// The lifetime ties borrowed posting-list slices to the database being
/// queried; one scratch serves any number of plans compiled against it.
#[derive(Default)]
pub struct ExecScratch<'a> {
    slots: Vec<Const>,
    states: Vec<StepState<'a>>,
    /// Conflict sets, one bitset of `Step::deps`' width per depth.
    conflicts: Vec<u64>,
}

impl CompiledClause {
    /// Whether this clause covers the head tuple `args` against `db` —
    /// exactly [`autobias::query::clause_covers`] semantics
    /// (`I ∧ C ⊨ e`, Definition 2.4), including answering `false` past the
    /// node budget.
    ///
    /// `db` must be the database the plan was compiled against: access
    /// paths assume its cardinalities.
    pub fn covers(&self, db: &Database, args: &[Const]) -> bool {
        self.covers_with(db, args, &mut ExecScratch::default())
    }

    /// [`covers`](Self::covers) with state buffers reused from `scratch` —
    /// the batch form. One scratch serves any number of tuples and plans;
    /// nothing carries over between calls (every slot and cursor is written
    /// before it is read).
    pub fn covers_with<'a>(
        &self,
        db: &'a Database,
        args: &[Const],
        scratch: &mut ExecScratch<'a>,
    ) -> bool {
        self.covers_inner(db, args, scratch, &mut NoTally)
    }

    /// [`covers_with`](Self::covers_with) with per-operator counters
    /// accumulated into `tally` (shaped by
    /// [`BatchTally::for_definition`](crate::stats::BatchTally)) — the
    /// EXPLAIN ANALYZE form. Identical verdicts to the untallied path; the
    /// differential suites hold both to byte-identity.
    pub fn covers_with_tally<'a>(
        &self,
        db: &'a Database,
        args: &[Const],
        scratch: &mut ExecScratch<'a>,
        tally: &mut ClauseTally,
    ) -> bool {
        self.covers_inner(db, args, scratch, tally)
    }

    fn covers_inner<'a, T: Tally>(
        &self,
        db: &'a Database,
        args: &[Const],
        scratch: &mut ExecScratch<'a>,
        tally: &mut T,
    ) -> bool {
        // Same counter the interpreter bumps in `clause_covers_args`: a
        // coverage query is a coverage query, whichever engine answers it.
        autobias::instrument::COVERAGE_QUERIES.bump();
        tally.eval();
        if args.len() != self.head_arity {
            return false;
        }
        if scratch.slots.len() < self.num_slots {
            scratch.slots.resize(self.num_slots, Const(0));
        }
        let slots = &mut scratch.slots[..];
        for op in self.head_ops.iter() {
            match *op {
                Op::CheckConst { pos, val } => {
                    if args[pos] != val {
                        return false;
                    }
                }
                Op::CheckSlot { pos, slot } => {
                    if args[pos] != slots[slot as usize] {
                        return false;
                    }
                }
                Op::Bind { pos, slot } => slots[slot as usize] = args[pos],
            }
        }
        // Variant selection: with several equivalent orderings compiled
        // (symmetric joins the estimator could not break), probe frequencies
        // are now concrete — walk the ordering whose opening posting list is
        // shortest. Two O(1) freq reads here routinely save walking a
        // posting list orders of magnitude longer.
        let (vi, variant) = match self.variants.split_first() {
            Some((single, [])) => (0, single),
            _ => self
                .variants
                .iter()
                .enumerate()
                .min_by_key(|(_, v)| v.entry_cost(db, slots))
                .expect("compiled clause has at least one variant"),
        };
        tally.selected(vi);
        let steps = &variant.steps;
        if steps.is_empty() {
            tally.matched();
            return true;
        }

        if scratch.states.len() < steps.len() {
            scratch.states.resize(steps.len(), StepState::EMPTY);
        }
        let states = &mut scratch.states[..];
        // Every step's `deps` has the variant's bitset width.
        let words = steps[0].deps.len();
        if scratch.conflicts.len() < steps.len() * words {
            scratch.conflicts.resize(steps.len() * words, 0);
        }
        let conflicts = &mut scratch.conflicts[..];
        let mut nodes = 0usize;
        let mut depth = 0usize;
        states[0] = enter(db, &steps[0], slots);
        tally.entered(vi, 0, states[0].len());
        loop {
            if advance(
                db,
                &steps[depth],
                &mut states[depth],
                slots,
                &mut nodes,
                self.node_limit,
                tally,
                vi,
                depth,
            ) {
                depth += 1;
                if depth == steps.len() {
                    tally.matched();
                    return true;
                }
                states[depth] = enter(db, &steps[depth], slots);
                let own = &mut conflicts[depth * words..(depth + 1) * words];
                for (c, &d) in own.iter_mut().zip(steps[depth].deps.iter()) {
                    *c = d;
                }
                tally.entered(vi, depth, states[depth].len());
            } else {
                // Budget exhausted, or a barrier step ran dry: both refute.
                if nodes > self.node_limit {
                    tally.node_limit_hit();
                    return false;
                }
                if steps[depth].barrier {
                    return false;
                }
                let (before, rest) = conflicts.split_at_mut(depth * words);
                let own = &rest[..words];
                // Nothing this step depends on can be retried: refute.
                let Some(p) = latest(own) else {
                    return false;
                };
                let target = &mut before[p * words..(p + 1) * words];
                for (t, &c) in target.iter_mut().zip(own) {
                    *t |= c;
                }
                target[p / 64] &= !(1 << (p % 64));
                depth = p;
                tally.backtrack();
            }
        }
    }
}

/// The highest step index in a conflict bitset, or `None` when it is empty.
fn latest(set: &[u64]) -> Option<usize> {
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| i * 64 + 63 - w.leading_zeros() as usize)
}

impl Variant {
    /// Candidate count of the opening step under the head bindings —
    /// the runtime analogue of the compile-time estimate, exact because
    /// probe keys are now concrete values.
    fn entry_cost(&self, db: &Database, slots: &[Const]) -> usize {
        let Some(step) = self.steps.first() else {
            return 0;
        };
        let rel = db.relation(step.rel);
        match step.access {
            Access::Probe { pos, key } => {
                let k = match key {
                    Key::Const(c) => c,
                    Key::Slot(s) => slots[s as usize],
                };
                rel.index(pos).freq(k)
            }
            Access::Scan => rel.len(),
        }
    }
}

/// Computes the candidate set for `step` under the current bindings.
fn enter<'a>(db: &'a Database, step: &Step, slots: &[Const]) -> StepState<'a> {
    let rel = db.relation(step.rel);
    match step.access {
        Access::Probe { pos, key } => {
            let k = match key {
                Key::Const(c) => c,
                Key::Slot(s) => slots[s as usize],
            };
            StepState {
                cands: rel.index(pos).lookup(k),
                cursor: 0,
                scan: false,
                scan_end: 0,
            }
        }
        Access::Scan => StepState {
            cands: &[],
            cursor: 0,
            scan: true,
            scan_end: rel.len(),
        },
    }
}

/// Advances `step` to its next matching candidate, binding fresh slots
/// as a side effect. `false` when candidates (or the node budget) ran
/// out.
#[allow(clippy::too_many_arguments)] // internal hot path; `(vi, depth)` locate the tally slot
fn advance<T: Tally>(
    db: &Database,
    step: &Step,
    st: &mut StepState<'_>,
    slots: &mut [Const],
    nodes: &mut usize,
    node_limit: usize,
    tally: &mut T,
    vi: usize,
    depth: usize,
) -> bool {
    let rel = db.relation(step.rel);
    loop {
        let id = if st.scan {
            if st.cursor >= st.scan_end {
                return false;
            }
            let id = st.cursor as TupleId;
            st.cursor += 1;
            id
        } else {
            match st.cands.get(st.cursor) {
                Some(&id) => {
                    st.cursor += 1;
                    id
                }
                None => return false,
            }
        };
        *nodes += 1;
        if *nodes > node_limit {
            return false;
        }
        let tuple = rel.tuple(id);
        let mut ok = true;
        for op in step.ops.iter() {
            match *op {
                Op::CheckConst { pos, val } => {
                    if tuple[pos] != val {
                        ok = false;
                        break;
                    }
                }
                Op::CheckSlot { pos, slot } => {
                    if tuple[pos] != slots[slot as usize] {
                        ok = false;
                        break;
                    }
                }
                Op::Bind { pos, slot } => slots[slot as usize] = tuple[pos],
            }
        }
        if ok {
            tally.emitted(vi, depth);
            return true;
        }
        tally.rejected(vi, depth);
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::{compile_clause, CompileConfig, Declined};
    use autobias::clause::{Clause, Literal, Term, VarId};
    use autobias::example::Example;
    use autobias::query::{clause_covers, QueryConfig};
    use relstore::{Const, Database, RelId};

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn setup() -> (Database, RelId) {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        (db, target)
    }

    fn assert_agrees(db: &Database, clause: &Clause, examples: &[Example]) {
        let plan = compile_clause(db, clause, &CompileConfig::default()).expect("compiles");
        let qcfg = QueryConfig::default();
        for e in examples {
            assert_eq!(
                plan.covers(db, &e.args),
                clause_covers(db, clause, e, &qcfg),
                "engines disagree on {}",
                e.render(db)
            );
        }
    }

    #[test]
    fn coauthorship_plan_matches_interpreter() {
        let (db, target) = setup();
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let mary = db.lookup("mary").unwrap();
        let examples = vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![juan, mary]),
            Example::new(target, vec![sarita, juan]),
            Example::new(target, vec![juan, juan]),
        ];
        assert_agrees(&db, &clause, &examples);
    }

    #[test]
    fn constants_repeated_vars_and_empty_bodies() {
        let (db, target) = setup();
        let in_phase = db.rel_id("inPhase").unwrap();
        let post_quals = db.lookup("post_quals").unwrap();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let examples = vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![sarita, juan]),
            Example::new(target, vec![juan, juan]),
        ];
        // Constant in the body.
        assert_agrees(
            &db,
            &Clause::new(
                Literal::new(target, vec![v(0), v(1)]),
                vec![Literal::new(in_phase, vec![v(0), Term::Const(post_quals)])],
            ),
            &examples,
        );
        // Repeated head variable (head op CheckSlot path).
        assert_agrees(
            &db,
            &Clause::new(Literal::new(target, vec![v(0), v(0)]), vec![]),
            &examples,
        );
        // Head constant.
        assert_agrees(
            &db,
            &Clause::new(Literal::new(target, vec![Term::Const(juan), v(1)]), vec![]),
            &examples,
        );
        // Empty body covers everything with a matching head.
        assert_agrees(
            &db,
            &Clause::new(Literal::new(target, vec![v(0), v(1)]), vec![]),
            &examples,
        );
    }

    #[test]
    fn independent_components_refute_without_cross_backtracking() {
        let (db, target) = setup();
        let student = db.rel_id("student").unwrap();
        let professor = db.rel_id("professor").unwrap();
        let publ = db.rel_id("publication").unwrap();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        // Body splits into two components: {publication(z,x),
        // publication(z,y)} (linked by z) and the free-variable pair
        // {student(w)} / {professor(u)} — each its own component.
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
                Literal::new(student, vec![v(3)]),
                Literal::new(professor, vec![v(4)]),
            ],
        );
        let plan = compile_clause(&db, &clause, &CompileConfig::default()).unwrap();
        for variant in plan.variants.iter() {
            let barriers: Vec<bool> = variant.steps.iter().map(|s| s.barrier).collect();
            assert_eq!(barriers.iter().filter(|&&b| b).count(), 3, "{barriers:?}");
        }
        let examples = vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![sarita, juan]),
        ];
        assert_agrees(&db, &clause, &examples);
    }

    #[test]
    fn unknown_constants_probe_to_empty() {
        let (db, target) = setup();
        // An ephemeral id beyond the dictionary behaves like any absent
        // value: the probe finds an empty posting list.
        let ghost = Const(999_999);
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![Literal::new(publ, vec![v(2), v(0)])],
        );
        let plan = compile_clause(&db, &clause, &CompileConfig::default()).unwrap();
        assert!(!plan.covers(&db, &[ghost, ghost]));
    }

    #[test]
    fn compiles_oversized_and_declines_mismatched_clauses() {
        let (db, target) = setup();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let examples = vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![sarita, juan]),
            Example::new(target, vec![juan, juan]),
        ];
        // Longer than any fixed depth buffer the executor could carry.
        let student = db.rel_id("student").unwrap();
        let long_body: Vec<Literal> = (0..40).map(|_| Literal::new(student, vec![v(2)])).collect();
        let too_long = Clause::new(Literal::new(target, vec![v(0), v(1)]), long_body);
        assert_agrees(&db, &too_long, &examples);

        // 70 variables: a star of private variables on a head variable.
        let publ = db.rel_id("publication").unwrap();
        let star: Vec<Literal> = (2..70)
            .map(|i| Literal::new(publ, vec![v(i), v(0)]))
            .collect();
        let many_vars = Clause::new(Literal::new(target, vec![v(0), v(1)]), star);
        let plan = compile_clause(&db, &many_vars, &CompileConfig::default()).unwrap();
        assert_eq!(plan.num_slots, 70);
        assert_agrees(&db, &many_vars, &examples);

        let bad_arity = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![Literal::new(student, vec![v(0), v(1)])],
        );
        assert!(matches!(
            compile_clause(&db, &bad_arity, &CompileConfig::default()),
            Err(Declined::ArityMismatch { .. })
        ));
    }

    #[test]
    fn node_budget_refuses_like_the_interpreter() {
        let (db, target) = setup();
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        let starved = CompileConfig { node_limit: 0 };
        let plan = compile_clause(&db, &clause, &starved).unwrap();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        assert!(
            !plan.covers(&db, &[juan, sarita]),
            "budget exhaustion answers false"
        );
    }

    #[test]
    fn ordering_prefers_selective_probes() {
        let (db, target) = setup();
        let publ = db.rel_id("publication").unwrap();
        let clause = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        let def = autobias::clause::Definition {
            clauses: vec![clause],
        };
        let compiled = crate::compile_definition(&db, &def, &CompileConfig::default());
        let text = crate::explain_text(&db, &[], &def, &compiled, None);
        let steps: Vec<&str> = text.lines().filter(|l| l.contains(" step ")).collect();
        // Every step probes an index on a bound slot (a head variable, then
        // the shared variable), never scans.
        assert!(
            !steps.is_empty() && steps.iter().all(|l| l.contains("probe publication")),
            "expected index probes, got:\n{text}"
        );
    }
}

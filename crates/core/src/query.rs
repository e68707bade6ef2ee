//! Direct clause evaluation over the database — the Select-Project-Join
//! alternative to θ-subsumption that the paper's §5 argues is too slow for
//! coverage testing during learning ("queries with hundreds of joins").
//!
//! It still matters for two things:
//!
//! 1. it is the *exact* semantics (Definition 2.4, `I ∧ C ⊨ e`) against
//!    which sampled-ground-BC coverage is an approximation, so tests and the
//!    `coverage` bench use it as an oracle;
//! 2. applying a *learned* definition to new entities at prediction time —
//!    learned clauses are short, so direct evaluation is cheap there.

use crate::clause::{Clause, Definition, Literal, Term, VarId};
use crate::example::Example;
use relstore::{Const, Database, RelId, TupleId};

/// Search budget for one direct evaluation.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Backtracking nodes before giving up (answering `false`). Learned
    /// clauses have a handful of joins, so the default is generous.
    pub node_limit: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self {
            node_limit: 1_000_000,
        }
    }
}

/// Reusable evaluation buffers. One direct query needs a binding vector and
/// an assigned-literal bitmap; batch callers (the serve predict path checks
/// thousands of tuples per request) reuse one `EvalScratch` across tuples
/// instead of allocating both per tuple.
#[derive(Debug, Default)]
pub struct EvalScratch {
    binding: Vec<Option<Const>>,
    assigned: Vec<bool>,
}

/// Whether `clause` covers `example` relative to the full database:
/// binds the head to the example's constants and searches for body tuples
/// witnessing all joins (`I ∧ C ⊨ e`).
pub fn clause_covers(db: &Database, clause: &Clause, example: &Example, cfg: &QueryConfig) -> bool {
    let mut scratch = EvalScratch::default();
    clause_covers_args(db, clause, example.rel, &example.args, cfg, &mut scratch)
}

/// [`clause_covers`] with the head tuple given as `(rel, args)` and buffers
/// reused from `scratch` — the batch-friendly form.
pub fn clause_covers_args(
    db: &Database,
    clause: &Clause,
    rel: RelId,
    args: &[Const],
    cfg: &QueryConfig,
    scratch: &mut EvalScratch,
) -> bool {
    crate::instrument::COVERAGE_QUERIES.bump();
    if clause.head.rel != rel || clause.head.args.len() != args.len() {
        return false;
    }
    let num_vars = clause.num_vars() as usize;
    scratch.binding.clear();
    scratch.binding.resize(num_vars, None);
    scratch.assigned.clear();
    scratch.assigned.resize(clause.body.len(), false);
    let binding = &mut scratch.binding;
    for (t, &c) in clause.head.args.iter().zip(args.iter()) {
        match *t {
            Term::Var(v) => match binding[v.index()] {
                None => binding[v.index()] = Some(c),
                Some(b) if b == c => {}
                Some(_) => return false,
            },
            Term::Const(k) => {
                if k != c {
                    return false;
                }
            }
        }
    }
    let mut eval = Eval {
        db,
        clause,
        cfg,
        nodes: 0,
    };
    eval.solve(binding, &mut scratch.assigned)
}

/// Whether any clause of `definition` covers `example` (Horn-definition
/// coverage, Definition 2.2).
pub fn definition_covers(
    db: &Database,
    definition: &Definition,
    example: &Example,
    cfg: &QueryConfig,
) -> bool {
    let mut sp = obs::span!("coverage.spj");
    let mut scratch = EvalScratch::default();
    let covered = definition
        .clauses
        .iter()
        .any(|c| clause_covers_args(db, c, example.rel, &example.args, cfg, &mut scratch));
    sp.note("clauses", definition.clauses.len() as u64);
    covered
}

/// Span-free [`definition_covers`] over `(rel, args)` with reused scratch
/// buffers: the per-tuple form for batch callers that wrap the whole batch
/// in one span of their own.
pub fn definition_covers_args(
    db: &Database,
    definition: &Definition,
    rel: RelId,
    args: &[Const],
    cfg: &QueryConfig,
    scratch: &mut EvalScratch,
) -> bool {
    definition
        .clauses
        .iter()
        .any(|c| clause_covers_args(db, c, rel, args, cfg, scratch))
}

struct Eval<'a> {
    db: &'a Database,
    clause: &'a Clause,
    cfg: &'a QueryConfig,
    nodes: usize,
}

impl Eval<'_> {
    /// The ids of the tuples of `lit`'s relation that agree with its
    /// constants and bound variables: the posting list of the most
    /// selective bound position (every tuple when none is bound), filtered.
    fn candidates(&self, lit: &Literal, binding: &[Option<Const>]) -> Vec<TupleId> {
        let rel = self.db.relation(lit.rel);
        let mut best: Option<&[TupleId]> = None;
        for (pos, t) in lit.args.iter().enumerate() {
            let val = match *t {
                Term::Const(c) => Some(c),
                Term::Var(v) => binding[v.index()],
            };
            if let Some(val) = val {
                let postings = rel.index(pos).lookup(val);
                if best.is_none_or(|b| postings.len() < b.len()) {
                    best = Some(postings);
                }
            }
        }
        let matches = |&id: &TupleId| {
            let tuple = rel.tuple(id);
            lit.args.iter().zip(tuple.iter()).all(|(t, &tv)| match *t {
                Term::Const(c) => c == tv,
                Term::Var(v) => binding[v.index()].is_none_or(|b| b == tv),
            })
        };
        match best {
            Some(postings) => postings.iter().copied().filter(matches).collect(),
            None => (0..rel.len() as TupleId).filter(matches).collect(),
        }
    }

    fn solve(&mut self, binding: &mut [Option<Const>], assigned: &mut [bool]) -> bool {
        self.nodes += 1;
        if self.nodes > self.cfg.node_limit {
            return false;
        }
        // Pick the unassigned literal with the fewest candidates (computing
        // lists lazily and keeping the smallest).
        let mut best: Option<(usize, Vec<TupleId>)> = None;
        for (li, done) in assigned.iter().enumerate() {
            if *done {
                continue;
            }
            let cands = self.candidates(&self.clause.body[li], binding);
            if cands.is_empty() {
                return false;
            }
            let take = best.as_ref().is_none_or(|(_, b)| cands.len() < b.len());
            if take {
                let single = cands.len() == 1;
                best = Some((li, cands));
                if single {
                    break;
                }
            }
        }
        let Some((li, cands)) = best else {
            return true; // every literal witnessed
        };
        assigned[li] = true;
        let lit = &self.clause.body[li];
        let rel = self.db.relation(lit.rel);
        for id in cands {
            let tuple = rel.tuple(id);
            let mut trail: Vec<VarId> = Vec::new();
            let mut ok = true;
            for (t, &tv) in lit.args.iter().zip(tuple.iter()) {
                if let Term::Var(v) = *t {
                    match binding[v.index()] {
                        None => {
                            binding[v.index()] = Some(tv);
                            trail.push(v);
                        }
                        Some(b) if b == tv => {}
                        Some(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok && self.solve(binding, assigned) {
                return true;
            }
            for v in trail {
                binding[v.index()] = None;
            }
            if self.nodes > self.cfg.node_limit {
                break;
            }
        }
        assigned[li] = false;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::fixtures::uw_fragment;
    use relstore::RelId;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn setup() -> (Database, RelId) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        (db, target)
    }

    #[test]
    fn coauthorship_query_separates_examples() {
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
        let cfg = QueryConfig::default();
        assert!(clause_covers(
            &db,
            &clause,
            &Example::new(target, vec![juan, sarita]),
            &cfg
        ));
        assert!(!clause_covers(
            &db,
            &clause,
            &Example::new(target, vec![juan, mary]),
            &cfg
        ));
    }

    #[test]
    fn constants_in_body_are_respected() {
        let (db, target) = setup();
        let in_phase = db.rel_id("inPhase").unwrap();
        let post_quals = db.lookup("post_quals").unwrap();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let good = Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![Literal::new(in_phase, vec![v(0), Term::Const(post_quals)])],
        );
        let cfg = QueryConfig::default();
        assert!(clause_covers(
            &db,
            &good,
            &Example::new(target, vec![juan, sarita]),
            &cfg
        ));
        // sarita is not in any phase (professors aren't students).
        assert!(!clause_covers(
            &db,
            &good,
            &Example::new(target, vec![sarita, juan]),
            &cfg
        ));
    }

    #[test]
    fn empty_body_covers_anything_with_matching_head() {
        let (db, target) = setup();
        let juan = db.lookup("juan").unwrap();
        let clause = Clause::new(Literal::new(target, vec![v(0), v(1)]), vec![]);
        assert!(clause_covers(
            &db,
            &clause,
            &Example::new(target, vec![juan, juan]),
            &QueryConfig::default()
        ));
    }

    #[test]
    fn repeated_head_variable_constrains() {
        let (db, target) = setup();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let clause = Clause::new(Literal::new(target, vec![v(0), v(0)]), vec![]);
        let cfg = QueryConfig::default();
        assert!(clause_covers(
            &db,
            &clause,
            &Example::new(target, vec![juan, juan]),
            &cfg
        ));
        assert!(!clause_covers(
            &db,
            &clause,
            &Example::new(target, vec![juan, sarita]),
            &cfg
        ));
    }

    #[test]
    fn definition_covers_is_disjunction() {
        let (db, target) = setup();
        let student = db.rel_id("student").unwrap();
        let professor = db.rel_id("professor").unwrap();
        let juan = db.lookup("juan").unwrap();
        let sarita = db.lookup("sarita").unwrap();
        let def = Definition {
            clauses: vec![
                // head covers student-firsts
                Clause::new(
                    Literal::new(target, vec![v(0), v(1)]),
                    vec![Literal::new(student, vec![v(0)])],
                ),
                // or professor-firsts
                Clause::new(
                    Literal::new(target, vec![v(0), v(1)]),
                    vec![Literal::new(professor, vec![v(0)])],
                ),
            ],
        };
        let cfg = QueryConfig::default();
        assert!(definition_covers(
            &db,
            &def,
            &Example::new(target, vec![juan, juan]),
            &cfg
        ));
        assert!(definition_covers(
            &db,
            &def,
            &Example::new(target, vec![sarita, juan]),
            &cfg
        ));
        let p1 = db.lookup("p1").unwrap();
        assert!(!definition_covers(
            &db,
            &def,
            &Example::new(target, vec![p1, juan]),
            &cfg
        ));
    }

    /// Direct evaluation agrees with subsumption against a *full* (unsampled)
    /// ground BC whenever the clause only uses relations reachable within the
    /// BC depth — the §5 equivalence.
    #[test]
    fn agrees_with_full_ground_bc_subsumption() {
        use crate::bias::parse::parse_bias;
        use crate::bottom::{build_bottom_clause, BcConfig, SamplingStrategy};
        use crate::subsume::{theta_subsumes, SubsumeConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (db, target) = setup();
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred professor(T3)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode professor(+)
mode publication(-, +)
",
        )
        .unwrap();
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
        let mut rng = StdRng::seed_from_u64(1);
        for (s, p) in [(juan, sarita), (juan, mary)] {
            let e = Example::new(target, vec![s, p]);
            let bc = build_bottom_clause(
                &db,
                &bias,
                &e,
                &BcConfig {
                    depth: 2,
                    strategy: SamplingStrategy::Full,
                    max_tuples: 10_000,
                    max_body_literals: 100_000,
                },
                &mut rng,
            );
            let by_subsumption = theta_subsumes(&clause, &bc.ground, &SubsumeConfig::default());
            let by_query = clause_covers(&db, &clause, &e, &QueryConfig::default());
            assert_eq!(by_subsumption, by_query, "disagree on {}", e.render(&db));
        }
    }
}

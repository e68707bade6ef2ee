//! # foil — top-down relational learner (the paper's Aleph baseline)
//!
//! The paper compares AutoBias against Aleph configured to emulate FOIL
//! (Quinlan 1990): a sequential-covering learner whose `LearnClause` step
//! grows a clause **top-down**, greedily appending the literal with the best
//! FOIL information gain, instead of generalizing a bottom clause. Like
//! Aleph, it consumes the same predicate and mode definitions as the
//! bottom-up learner and is "generally biased toward learning relatively
//! short clauses" (paper §6.2).
//!
//! Coverage testing reuses the `autobias` machinery: ground bottom clauses
//! are built once per example and candidate clauses are checked by
//! θ-subsumption.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

use autobias::bias::{ArgMode, LanguageBias, ModeDef};
use autobias::bottom::BcConfig;
use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use autobias::coverage::CoverageEngine;
use autobias::example::TrainingSet;
use autobias::subsume::SubsumeConfig;
use constraints::TypeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::{AttrRef, Const, Database, RelId};
use std::time::{Duration, Instant};

/// Configuration of the FOIL learner.
#[derive(Debug, Clone, Copy)]
pub struct FoilConfig {
    /// Maximum body literals per clause (FOIL's short-clause bias).
    pub max_clause_len: usize,
    /// Candidate literals evaluated per refinement step (a uniform random
    /// subsample is taken above this cap).
    pub max_candidates: usize,
    /// Constants enumerated per `#` position.
    pub max_constants: usize,
    /// Minimum FOIL gain to keep refining.
    pub min_gain: f64,
    /// Consecutive zero-gain literals tolerated when they introduce new
    /// variables (FOIL's determinate-literal lookahead: `publication(z, x)`
    /// alone has zero gain, but enables `publication(z, y)` next).
    pub lookahead: usize,
    /// Minimum training precision for a clause to enter the definition.
    pub min_precision: f64,
    /// Maximum clauses in the learned definition.
    pub max_clauses: usize,
    /// Ground-BC construction settings (shared with the bottom-up learner so
    /// comparisons are apples-to-apples).
    pub bc: BcConfig,
    /// Subsumption budget.
    pub subsume: SubsumeConfig,
    /// RNG seed.
    pub seed: u64,
    /// Optional wall-clock budget for one `learn` call; when exceeded the
    /// covering loop returns the partial theory.
    pub time_budget: Option<Duration>,
}

impl Default for FoilConfig {
    fn default() -> Self {
        Self {
            max_clause_len: 5,
            max_candidates: 300,
            max_constants: 20,
            min_gain: 1e-6,
            lookahead: 2,
            min_precision: 0.6,
            max_clauses: 20,
            bc: BcConfig::default(),
            subsume: SubsumeConfig::default(),
            seed: 0xF01,
            time_budget: None,
        }
    }
}

/// Statistics of one FOIL run.
#[derive(Debug, Clone, Default)]
pub struct FoilStats {
    /// Wall-clock time building ground BCs.
    pub bc_time: Duration,
    /// Wall-clock time of the covering loop.
    pub search_time: Duration,
    /// Candidate literals scored across all refinements.
    pub candidates_scored: usize,
    /// Positives left uncovered.
    pub uncovered_pos: usize,
    /// Whether the time budget expired before the loop finished.
    pub timed_out: bool,
}

/// The top-down learner.
#[derive(Debug, Clone, Default)]
pub struct FoilLearner {
    /// Configuration used by [`FoilLearner::learn`].
    pub cfg: FoilConfig,
}

/// Tracks the inferred type set of every clause variable (from the attribute
/// where it was introduced), used to respect predicate definitions when
/// binding `+` arguments.
struct VarTypes {
    types: Vec<Vec<TypeId>>,
}

impl VarTypes {
    fn of(&self, v: VarId) -> &[TypeId] {
        &self.types[v.index()]
    }

    fn fresh(&mut self, types: &[TypeId]) -> VarId {
        self.types.push(types.to_vec());
        VarId((self.types.len() - 1) as u32)
    }
}

impl FoilLearner {
    /// Creates a learner with the given configuration.
    pub fn new(cfg: FoilConfig) -> Self {
        Self { cfg }
    }

    /// Learns a definition by sequential covering with top-down clause search.
    pub fn learn(
        &self,
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
    ) -> (Definition, FoilStats) {
        let mut stats = FoilStats::default();
        let mut sp = obs::span!("learn", "foil");
        let t0 = Instant::now();
        let engine = {
            let _bc_sp = obs::span!("learn.bc_build");
            CoverageEngine::build(
                db,
                bias,
                train,
                &self.cfg.bc,
                self.cfg.subsume,
                self.cfg.seed,
            )
        };
        stats.bc_time = t0.elapsed();

        let t1 = Instant::now();
        let deadline = self.cfg.time_budget.map(|b| t0 + b);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut uncovered: Vec<usize> = (0..train.pos.len()).collect();
        let mut definition = Definition::new();

        while !uncovered.is_empty() && definition.len() < self.cfg.max_clauses {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stats.timed_out = true;
                    break;
                }
            }
            let clause = self.learn_clause(db, bias, &engine, &uncovered, &mut rng, &mut stats);
            let covered = engine.covered_pos_subset(&clause, &uncovered);
            let neg = engine.count_neg(&clause);
            let precision = if covered.is_empty() {
                0.0
            } else {
                covered.len() as f64 / (covered.len() + neg) as f64
            };
            if covered.is_empty() || precision < self.cfg.min_precision {
                // FOIL cannot improve on this seed set; stop (Aleph's
                // behaviour of returning partial theories).
                break;
            }
            let covered: relstore::FxHashSet<usize> = covered.into_iter().collect();
            uncovered.retain(|i| !covered.contains(i));
            definition.clauses.push(clause);
        }

        stats.search_time = t1.elapsed();
        stats.uncovered_pos = uncovered.len();
        if sp.is_active() {
            sp.note("clauses", definition.len() as u64);
            sp.note("uncovered_pos", stats.uncovered_pos as u64);
        }
        (definition, stats)
    }

    /// Grows one clause top-down by greedy FOIL gain.
    fn learn_clause(
        &self,
        db: &Database,
        bias: &LanguageBias,
        engine: &CoverageEngine,
        uncovered: &[usize],
        rng: &mut StdRng,
        stats: &mut FoilStats,
    ) -> Clause {
        let target = bias.target;
        let arity = db.catalog().schema(target).arity();
        let mut var_types = VarTypes { types: Vec::new() };
        let head_args: Vec<Term> = (0..arity)
            .map(|pos| Term::Var(var_types.fresh(bias.types_of(AttrRef::new(target, pos)))))
            .collect();
        let mut clause = Clause::new(Literal::new(target, head_args), Vec::new());

        // Current coverage state: positives among `uncovered`, all negatives.
        let mut pos_cov: Vec<usize> = uncovered.to_vec();
        let mut neg_cov: Vec<usize> = (0..engine.neg.len()).collect();

        let deadline = self.cfg.time_budget.map(|b| Instant::now() + b);
        let mut zero_gain_run = 0usize;
        while !neg_cov.is_empty() && clause.len() < self.cfg.max_clause_len {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let p0 = pos_cov.len() as f64;
            let n0 = neg_cov.len() as f64;
            if p0 == 0.0 {
                break;
            }
            let existing: relstore::FxHashSet<VarId> = clause
                .head
                .vars()
                .chain(clause.body.iter().flat_map(Literal::vars))
                .collect();
            let mut candidates = self.candidate_literals(db, bias, &clause, &mut var_types);
            if candidates.len() > self.cfg.max_candidates {
                candidates.shuffle(rng);
                candidates.truncate(self.cfg.max_candidates);
            }

            // Best by gain, plus the best zero-gain fallback that introduces
            // a fresh variable (ranked by precision, then positives kept).
            type Scored = (f64, Literal, Vec<usize>, Vec<usize>);
            type Fallback = (f64, usize, Literal, Vec<usize>, Vec<usize>);
            let mut best: Option<Scored> = None;
            let mut fallback: Option<Fallback> = None;
            for lit in candidates {
                stats.candidates_scored += 1;
                let mut refined = clause.clone();
                refined.body.push(lit.clone());
                let new_pos: Vec<usize> = pos_cov
                    .iter()
                    .copied()
                    .filter(|&i| engine.covers_pos(&refined, i))
                    .collect();
                if new_pos.is_empty() {
                    continue;
                }
                let new_neg: Vec<usize> = neg_cov
                    .iter()
                    .copied()
                    .filter(|&i| engine.covers_neg(&refined, i))
                    .collect();
                let p1 = new_pos.len() as f64;
                let n1 = new_neg.len() as f64;
                let gain = p1 * ((p1 / (p1 + n1)).log2() - (p0 / (p0 + n0)).log2());
                if best.as_ref().is_none_or(|(g, ..)| gain > *g) {
                    best = Some((gain, lit.clone(), new_pos.clone(), new_neg.clone()));
                }
                if lit.vars().any(|v| !existing.contains(&v)) {
                    let prec = p1 / (p1 + n1);
                    let better = fallback.as_ref().is_none_or(|(fp, fc, ..)| {
                        prec > *fp || (prec == *fp && new_pos.len() > *fc)
                    });
                    if better {
                        fallback = Some((prec, new_pos.len(), lit, new_pos, new_neg));
                    }
                }
            }

            match best {
                Some((gain, lit, new_pos, new_neg)) if gain > self.cfg.min_gain => {
                    clause.body.push(lit);
                    pos_cov = new_pos;
                    neg_cov = new_neg;
                    zero_gain_run = 0;
                }
                _ => {
                    // Zero-gain plateau: admit a variable-introducing literal
                    // (determinate-literal lookahead), boundedly.
                    match fallback {
                        Some((_, _, lit, new_pos, new_neg))
                            if zero_gain_run < self.cfg.lookahead =>
                        {
                            clause.body.push(lit);
                            pos_cov = new_pos;
                            neg_cov = new_neg;
                            zero_gain_run += 1;
                        }
                        _ => break,
                    }
                }
            }
        }
        clause
    }

    /// Mode-guided candidate literals: each mode contributes literals with
    /// every type-compatible binding of its `+` positions to existing
    /// variables, fresh variables on `-` positions, and enumerated constants
    /// on `#` positions.
    fn candidate_literals(
        &self,
        db: &Database,
        bias: &LanguageBias,
        clause: &Clause,
        var_types: &mut VarTypes,
    ) -> Vec<Literal> {
        let existing_vars: Vec<VarId> = clause
            .head
            .vars()
            .chain(clause.body.iter().flat_map(Literal::vars))
            .collect();
        let mut out = Vec::new();
        let mut rels: Vec<RelId> = bias.body_rels().collect();
        rels.sort_unstable();
        for rel in rels {
            for mode in bias.modes_for(rel) {
                self.expand_mode(db, bias, mode, &existing_vars, var_types, &mut out);
            }
        }
        // Drop literals already in the body (no information gain, loops).
        out.retain(|l| !clause.body.contains(l));
        out
    }

    fn expand_mode(
        &self,
        db: &Database,
        bias: &LanguageBias,
        mode: &ModeDef,
        existing: &[VarId],
        var_types: &mut VarTypes,
        out: &mut Vec<Literal>,
    ) {
        /// Per-position argument choices.
        enum Choice {
            Vars(Vec<VarId>),
            Consts(Vec<Const>),
        }
        let arity = mode.args.len();
        let mut choices: Vec<Choice> = Vec::with_capacity(arity);
        for (pos, am) in mode.args.iter().enumerate() {
            let attr = AttrRef::new(mode.rel, pos);
            let attr_types = bias.types_of(attr);
            let compatible = |existing: &[VarId], var_types: &VarTypes| -> Vec<VarId> {
                existing
                    .iter()
                    .copied()
                    .filter(|v| var_types.of(*v).iter().any(|t| attr_types.contains(t)))
                    .collect()
            };
            match am {
                ArgMode::Plus => {
                    let vars = compatible(existing, var_types);
                    if vars.is_empty() {
                        return; // mode unusable: no bindable input var
                    }
                    choices.push(Choice::Vars(vars));
                }
                ArgMode::Hash => {
                    let mut consts = db.distinct(attr);
                    consts.sort_unstable();
                    consts.truncate(self.cfg.max_constants);
                    if consts.is_empty() {
                        return;
                    }
                    choices.push(Choice::Consts(consts));
                }
                ArgMode::Minus => {
                    // `-` admits an existing variable *or* a new one
                    // (paper §2.2.2): offer every compatible existing var
                    // plus one fresh var typed by this attribute.
                    let mut vars = compatible(existing, var_types);
                    vars.push(var_types.fresh(attr_types));
                    choices.push(Choice::Vars(vars));
                }
            }
        }

        // Cartesian product over the per-position choices.
        let mut stack: Vec<(usize, Vec<Term>)> = vec![(0, Vec::new())];
        while let Some((pos, acc)) = stack.pop() {
            if pos == arity {
                out.push(Literal::new(mode.rel, acc));
                continue;
            }
            match &choices[pos] {
                Choice::Vars(vs) => {
                    for &v in vs {
                        let mut next = acc.clone();
                        next.push(Term::Var(v));
                        stack.push((pos + 1, next));
                    }
                }
                Choice::Consts(cs) => {
                    for &c in cs {
                        let mut next = acc.clone();
                        next.push(Term::Const(c));
                        stack.push((pos + 1, next));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobias::bias::parse::parse_bias;
    use autobias::bottom::SamplingStrategy;
    use autobias::example::Example;

    /// Co-authorship world (same as the core crate's generalize tests).
    fn world() -> (Database, TrainingSet, LanguageBias) {
        let mut db = Database::new();
        let student = db.add_relation("student", &["stud"]);
        let professor = db.add_relation("professor", &["prof"]);
        let publ = db.add_relation("publication", &["title", "person"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..6 {
            let s = format!("s{i}");
            let p = format!("f{i}");
            let t = format!("paper{i}");
            db.insert(student, &[&s]);
            db.insert(professor, &[&p]);
            db.insert(publ, &[&t, &s]);
            db.insert(publ, &[&t, &p]);
        }
        for i in 0..6 {
            let s = db.lookup(&format!("s{i}")).unwrap();
            let p = db.lookup(&format!("f{i}")).unwrap();
            let p2 = db.lookup(&format!("f{}", (i + 2) % 6)).unwrap();
            pos.push(Example::new(target, vec![s, p]));
            neg.push(Example::new(target, vec![s, p2]));
        }
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
mode publication(+, -)
",
        )
        .unwrap();
        (db, TrainingSet::new(pos, neg), bias)
    }

    fn config() -> FoilConfig {
        FoilConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            ..FoilConfig::default()
        }
    }

    #[test]
    fn foil_learns_coauthorship() {
        let (db, train, bias) = world();
        let (def, stats) = FoilLearner::new(config()).learn(&db, &bias, &train);
        assert!(!def.is_empty(), "FOIL should learn something");
        assert!(stats.candidates_scored > 0);
        // The definition must separate train positives from negatives well.
        let engine = CoverageEngine::build(
            &db,
            &bias,
            &train,
            &config().bc,
            SubsumeConfig::default(),
            1,
        );
        let tp = (0..train.pos.len())
            .filter(|&i| def.clauses.iter().any(|c| engine.covers_pos(c, i)))
            .count();
        let fp = (0..train.neg.len())
            .filter(|&i| def.clauses.iter().any(|c| engine.covers_neg(c, i)))
            .count();
        assert_eq!(tp, 6, "definition: {}", def.render(&db));
        assert_eq!(fp, 0, "definition: {}", def.render(&db));
    }

    #[test]
    fn clauses_are_short() {
        let (db, train, bias) = world();
        let cfg = FoilConfig {
            max_clause_len: 3,
            ..config()
        };
        let (def, _) = FoilLearner::new(cfg).learn(&db, &bias, &train);
        for c in &def.clauses {
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn empty_training_set_is_handled() {
        let (db, _, bias) = world();
        let (def, stats) = FoilLearner::new(config()).learn(&db, &bias, &TrainingSet::default());
        assert!(def.is_empty());
        assert_eq!(stats.uncovered_pos, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (db, train, bias) = world();
        let (d1, _) = FoilLearner::new(config()).learn(&db, &bias, &train);
        let (d2, _) = FoilLearner::new(config()).learn(&db, &bias, &train);
        assert_eq!(d1, d2);
    }
}

#[cfg(test)]
mod constant_tests {
    use super::*;
    use autobias::bias::parse::parse_bias;
    use autobias::bottom::SamplingStrategy;
    use autobias::example::Example;

    /// FOIL with `#` modes learns a definition requiring a constant:
    /// dramaDirector(x) ← directedBy(m, x), genre(m, drama).
    #[test]
    fn foil_learns_genre_constant() {
        let mut db = Database::new();
        let directed = db.add_relation("directedBy", &["mid", "did"]);
        let genre = db.add_relation("genre", &["mid", "g"]);
        let target = db.add_relation("dramaDirector", &["did"]);
        let genres = ["drama", "comedy", "action"];
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..12 {
            let m = format!("m{i}");
            let d = format!("d{i}");
            db.insert(directed, &[&m, &d]);
            db.insert(genre, &[&m, genres[i % 3]]);
            let dc = db.lookup(&d).unwrap();
            if i % 3 == 0 {
                pos.push(Example::new(target, vec![dc]));
            } else {
                neg.push(Example::new(target, vec![dc]));
            }
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred directedBy(TM, TD)
pred genre(TM, TG)
pred dramaDirector(TD)
mode directedBy(-, +)
mode directedBy(+, -)
mode genre(+, #)
",
        )
        .unwrap();
        let cfg = FoilConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_tuples: 1000,
                max_body_literals: 10_000,
            },
            ..FoilConfig::default()
        };
        let train = TrainingSet::new(pos, neg);
        let (def, _) = FoilLearner::new(cfg).learn(&db, &bias, &train);
        assert!(!def.is_empty(), "FOIL should learn the drama rule");
        let rendered = def.render(&db);
        assert!(
            rendered.contains("drama"),
            "definition must use the constant:\n{rendered}"
        );
        // Verify perfect separation on train.
        let engine = CoverageEngine::build(&db, &bias, &train, &cfg.bc, cfg.subsume, 1);
        let tp = (0..train.pos.len())
            .filter(|&i| def.clauses.iter().any(|c| engine.covers_pos(c, i)))
            .count();
        let fp = (0..train.neg.len())
            .filter(|&i| def.clauses.iter().any(|c| engine.covers_neg(c, i)))
            .count();
        assert_eq!((tp, fp), (train.pos.len(), 0), "{rendered}");
    }

    /// The time budget interrupts the covering loop and reports it.
    #[test]
    fn time_budget_is_honoured() {
        let mut db = Database::new();
        let r = db.add_relation("r", &["a", "b"]);
        let target = db.add_relation("t", &["a"]);
        let mut pos = Vec::new();
        for i in 0..30 {
            db.insert(r, &[&format!("x{i}"), &format!("x{}", (i + 1) % 30)]);
            let c = db.lookup(&format!("x{i}")).unwrap();
            pos.push(Example::new(target, vec![c]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred r(TA, TA)
pred t(TA)
mode r(+, -)
mode r(-, +)
",
        )
        .unwrap();
        let cfg = FoilConfig {
            time_budget: Some(Duration::from_nanos(1)),
            ..FoilConfig::default()
        };
        let (_, stats) = FoilLearner::new(cfg).learn(&db, &bias, &TrainingSet::new(pos, vec![]));
        assert!(stats.timed_out);
    }
}

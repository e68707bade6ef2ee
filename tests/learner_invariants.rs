//! Cross-cutting learner invariants that hold regardless of data:
//!
//! - prefix coverage is antitone (the blocking-atom binary search's premise);
//! - armg output is a syntactic subset of its input, and equals the
//!   operator computed from scratch over materialized prefix clauses;
//! - learned clauses respect the language bias (only body relations with
//!   modes, constants only on `#`-able attributes);
//! - sampled learning never reports coverage that exact query evaluation
//!   contradicts on the *training* set (one-sided approximation).

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_repro::autobias::generalize::blocking_atom;
use autobias_repro::autobias::prelude::*;
use autobias_repro::datasets::uw;
use autobias_repro::relstore::{AttrRef, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn coauthor_world(n: usize) -> (Database, relstore::RelId, TrainingSet, LanguageBias) {
    let mut db = Database::new();
    let student = db.add_relation("student", &["stud"]);
    let professor = db.add_relation("professor", &["prof"]);
    let publ = db.add_relation("publication", &["title", "person"]);
    let in_phase = db.add_relation("inPhase", &["stud", "phase"]);
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    let phases = ["a", "b", "c"];
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..n {
        let s = format!("s{i}");
        let p = format!("f{i}");
        let t = format!("t{i}");
        db.insert(student, &[&s]);
        db.insert(professor, &[&p]);
        db.insert(publ, &[&t, &s]);
        db.insert(publ, &[&t, &p]);
        db.insert(in_phase, &[&s, phases[i % 3]]);
        db.insert(target, &[&s, &p]);
    }
    for i in 0..n {
        let s = db.lookup(&format!("s{i}")).unwrap();
        let p = db.lookup(&format!("f{i}")).unwrap();
        let p2 = db.lookup(&format!("f{}", (i + 1) % n)).unwrap();
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
pred inPhase(T1, T2)
pred advisedBy(T1, T3)
mode student(+)
mode professor(+)
mode publication(-, +)
mode inPhase(+, #)
mode inPhase(+, -)
",
    )
    .unwrap();
    (db, target, TrainingSet::new(pos, neg), bias)
}

/// The body-literal cap of [`engine`], which its seed clauses share.
const ENGINE_MAX_BODY_LITERALS: usize = 50_000;

fn engine(db: &Database, train: &TrainingSet, bias: &LanguageBias) -> CoverageEngine {
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_tuples: 5_000,
        max_body_literals: ENGINE_MAX_BODY_LITERALS,
    };
    CoverageEngine::build(db, bias, train, &cfg, SubsumeConfig::default(), 17)
}

/// Prefix coverage is antitone in the prefix length for every (clause,
/// example) pair: once a prefix fails, every extension fails.
#[test]
fn prefix_coverage_is_antitone() {
    let (db, _, train, bias) = coauthor_world(8);
    let eng = engine(&db, &train, &bias);
    for seed in 0..3 {
        let clause = variablize(&eng.pos[seed], &bias, ENGINE_MAX_BODY_LITERALS);
        for ex in 0..train.pos.len() {
            let mut failed_at: Option<usize> = None;
            for len in 0..=clause.len() {
                let prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
                let covers = eng.covers_pos(&prefix, ex);
                if let Some(f) = failed_at {
                    assert!(
                        !covers,
                        "prefix {len} covers example {ex} after prefix {f} failed"
                    );
                } else if !covers {
                    failed_at = Some(len);
                }
            }
            // blocking_atom must agree with the linear scan.
            let expected = failed_at.map(|f| f - 1);
            assert_eq!(blocking_atom(&clause, &eng, ex), expected);
        }
    }
}

/// armg's result uses only literals present in its input (it only removes).
#[test]
fn armg_removes_never_adds() {
    let (db, _, train, bias) = coauthor_world(8);
    let eng = engine(&db, &train, &bias);
    let bc = variablize(&eng.pos[0], &bias, ENGINE_MAX_BODY_LITERALS);
    for ex in 1..train.pos.len() {
        if eng.covers_pos(&bc, ex) {
            continue;
        }
        if let Some(g) = armg(&bc, &eng, ex) {
            for lit in &g.body {
                assert!(
                    bc.body.contains(lit),
                    "armg invented literal {}",
                    lit.render(&db)
                );
            }
            assert!(g.len() < bc.len());
        }
    }
}

/// Learned clauses stay inside the language bias: every body literal's
/// relation has a mode, and constants appear only on `#`-able attributes.
#[test]
fn learned_clauses_respect_bias() {
    let (db, _, train, bias) = coauthor_world(10);
    let cfg = LearnerConfig {
        bc: BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_tuples: 5_000,
            max_body_literals: 50_000,
        },
        ..LearnerConfig::default()
    };
    let (def, _) = Learner::new(cfg).learn(&db, &bias, &train);
    assert!(!def.is_empty());
    for clause in &def.clauses {
        assert_eq!(clause.head.rel, bias.target);
        for lit in &clause.body {
            assert!(
                bias.modes_for(lit.rel).next().is_some(),
                "literal of relation without a mode: {}",
                lit.render(&db)
            );
            for (pos, term) in lit.args.iter().enumerate() {
                if matches!(term, Term::Const(_)) {
                    assert!(
                        bias.can_be_const(AttrRef::new(lit.rel, pos)),
                        "constant on a non-# attribute in {}",
                        lit.render(&db)
                    );
                }
            }
        }
    }
}

/// Sampled coverage is one-sided w.r.t. exact query evaluation: if the
/// sampled engine says a clause covers a training example, the exact SPJ
/// evaluation agrees (sampling can only *miss* coverage).
#[test]
fn sampled_coverage_is_one_sided_vs_query() {
    let (db, _, train, bias) = coauthor_world(10);
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Naive { per_selection: 3 },
        max_tuples: 100,
        max_body_literals: 1_000,
    };
    let eng = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 5);
    let mut rng = StdRng::seed_from_u64(2);
    let bc = build_bottom_clause(&db, &bias, &train.pos[0], &cfg, &mut rng);
    // Candidate: the generalized co-authorship clause.
    let candidate = armg(&bc.clause, &eng, 1).unwrap_or(bc.clause);
    let qcfg = QueryConfig::default();
    for (i, e) in train.pos.iter().enumerate() {
        if eng.covers_pos(&candidate, i) {
            assert!(
                clause_covers(&db, &candidate, e, &qcfg),
                "sampled engine claims coverage the exact semantics denies: {}",
                e.render(&db)
            );
        }
    }
    for (i, e) in train.neg.iter().enumerate() {
        if eng.covers_neg(&candidate, i) {
            assert!(clause_covers(&db, &candidate, e, &qcfg));
        }
    }
}

/// Reference armg (paper §2.3.2) with nothing shared between tests: every
/// probe of the blocking-atom binary search materializes its prefix clause
/// and tests it from scratch with `theta_subsumes`.
fn reference_armg(clause: &Clause, ground: &GroundClause, cfg: &SubsumeConfig) -> Option<Clause> {
    let mut current = clause.clone();
    loop {
        let covers = |len: usize| {
            let prefix = Clause::new(current.head.clone(), current.body[..len].to_vec());
            theta_subsumes(&prefix, ground, cfg)
        };
        if covers(current.body.len()) {
            return Some(current);
        }
        let (mut lo, mut hi) = (0, current.body.len());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if covers(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        current.body.remove(hi - 1);
        current.prune_unconnected();
        if current.body.is_empty() {
            return None;
        }
    }
}

/// armg, which reuses each step's proven prefix and one candidate table per
/// blocking-atom search, equals the from-scratch reference for every
/// (seed bottom clause, positive it does not cover) pair among the first
/// eight positives of the default UW world, under the benchmark's
/// AutoBias bias and naive sampling (bottom clauses capped at 200 literals
/// to keep the from-scratch reference fast).
#[test]
fn armg_matches_from_scratch_reference_on_uw() {
    let ds = uw::generate(&uw::UwConfig::default(), 3);
    let auto = AutoBiasConfig {
        constant_threshold: ConstantThreshold::Absolute(50),
        ..AutoBiasConfig::default()
    };
    let (bias, _, _) = induce_bias(&ds.db, ds.target, &auto).unwrap();
    let train = TrainingSet::new(ds.pos[..8].to_vec(), Vec::new());
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Naive { per_selection: 20 },
        max_tuples: 3_000,
        max_body_literals: 200,
    };
    let eng = CoverageEngine::build(&ds.db, &bias, &train, &cfg, SubsumeConfig::default(), 7);
    let scfg = eng.subsume_config();
    let mut pairs = 0;
    for seed in 0..eng.pos.len() {
        let bc = &variablize(&eng.pos[seed], &bias, cfg.max_body_literals);
        for ex in 0..eng.pos.len() {
            if eng.covers_pos(bc, ex) {
                continue;
            }
            pairs += 1;
            assert_eq!(
                armg(bc, &eng, ex),
                reference_armg(bc, &eng.pos[ex], scfg),
                "armg of seed {seed}'s bottom clause towards positive {ex}"
            );
        }
    }
    assert!(pairs > 40, "only {pairs} uncovered pairs exercised");
}

/// Directed: the blocking atom is the only link between an earlier literal
/// and the head, so pruning drops a literal of the proven prefix and the
/// proven length must shrink with it. With
/// `t(x, y) ← q(z), r(x, z), u(x)` against an example whose neighbourhood
/// has `q` but neither `r(x, _)` nor `u(x)`: the first step proves `q(z)`
/// and blocks at `r(x, z)`; removing it strands `q(z)`, leaving
/// `t(x, y) ← u(x)`, whose only prefix (`u(x)`, not covered) must be
/// tested — a proven length left at 1 would wrongly accept it.
#[test]
fn armg_shrinks_the_proven_prefix_when_pruning_drops_part_of_it() {
    let mut db = Database::new();
    let s = db.add_relation("s", &["a", "b"]);
    let q = db.add_relation("q", &["b"]);
    let r = db.add_relation("r", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    db.insert(s, &["x", "m"]);
    db.insert(q, &["m"]);
    db.insert(r, &["w", "m"]);
    db.insert(u, &["w"]);
    db.intern("y");
    let bias = parse_bias(
        &db,
        t,
        "
pred s(T1, T2)
pred q(T2)
pred r(T1, T2)
pred u(T1)
pred t(T1, T1)
mode s(+, -)
mode q(+)
mode r(+, -)
mode u(+)
",
    )
    .unwrap();
    let c = |name: &str| db.lookup(name).unwrap();
    let train = TrainingSet::new(
        vec![
            Example::new(t, vec![c("w"), c("w")]),
            Example::new(t, vec![c("x"), c("y")]),
        ],
        vec![],
    );
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_tuples: 1_000,
        max_body_literals: 1_000,
    };
    let eng = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 1);
    let v = |n| Term::Var(VarId(n));
    let clause = Clause::new(
        Literal::new(t, vec![v(0), v(1)]),
        vec![
            Literal::new(q, vec![v(2)]),
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(u, vec![v(0)]),
        ],
    );
    let ground = &eng.pos[1];
    assert_eq!(blocking_atom(&clause, &eng, 1), Some(1));
    assert_eq!(reference_armg(&clause, ground, eng.subsume_config()), None);
    assert_eq!(armg(&clause, &eng, 1), None);
    // Towards the first example, whose neighbourhood has `r(w, m)`, `q(m)`
    // and `u(w)`, the clause is covered and comes back unchanged.
    assert_eq!(armg(&clause, &eng, 0), Some(clause.clone()));
}

/// Directed: pruning strands a literal whose candidate list the carried
/// table already holds. With `t(x, y) ← q(z), r(x, z), s(x, w), u(w)`
/// against an example whose neighbourhood has `q(m)`, `r(a, n)`,
/// `s(a, k)` and `u(k)`, the first probe (the whole clause) fills all four
/// lists; `q(z)` and `r(x, z)` disagree on `z`, so the blocking atom is
/// `r(x, z)`. Removing it strands `q(z)`, and the table must drop both
/// lists so that `s(x, w)` and `u(w)`, now leading the body, read their own
/// lists: the result `t(x, y) ← s(x, w), u(w)` covers the example.
#[test]
fn armg_drops_a_stranded_literal_the_carried_table_holds() {
    let mut db = Database::new();
    let l = db.add_relation("l", &["a", "b"]);
    let q = db.add_relation("q", &["b"]);
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "c"]);
    let u = db.add_relation("u", &["c"]);
    let t = db.add_relation("t", &["a", "a"]);
    db.insert(l, &["a", "m"]);
    db.insert(q, &["m"]);
    db.insert(r, &["a", "n"]);
    db.insert(s, &["a", "k"]);
    db.insert(u, &["k"]);
    db.intern("y");
    let bias = parse_bias(
        &db,
        t,
        "
pred l(T1, T2)
pred q(T2)
pred r(T1, T2)
pred s(T1, T3)
pred u(T3)
pred t(T1, T1)
mode l(+, -)
mode q(+)
mode r(+, -)
mode s(+, -)
mode u(+)
",
    )
    .unwrap();
    let c = |name: &str| db.lookup(name).unwrap();
    let train = TrainingSet::new(vec![Example::new(t, vec![c("a"), c("y")])], vec![]);
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_tuples: 1_000,
        max_body_literals: 1_000,
    };
    let eng = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 1);
    let v = |n| Term::Var(VarId(n));
    let head = Literal::new(t, vec![v(0), v(1)]);
    let clause = Clause::new(
        head.clone(),
        vec![
            Literal::new(q, vec![v(2)]),
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(s, vec![v(0), v(3)]),
            Literal::new(u, vec![v(3)]),
        ],
    );
    let ground = &eng.pos[0];
    assert_eq!(ground.len(), 5, "l, q, r, s and u facts");
    assert_eq!(blocking_atom(&clause, &eng, 0), Some(1));
    let expected = Clause::new(
        head,
        vec![
            Literal::new(s, vec![v(0), v(3)]),
            Literal::new(u, vec![v(3)]),
        ],
    );
    assert_eq!(
        reference_armg(&clause, ground, eng.subsume_config()),
        Some(expected.clone())
    );
    assert_eq!(armg(&clause, &eng, 0), Some(expected));
}

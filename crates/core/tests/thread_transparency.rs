//! The worker-thread count is *transparent*: with the same seed and data,
//! learning with any `LearnerConfig::threads` value must produce the same
//! definition. Coverage RNG streams are per-example, and the monotone
//! negative cutoff counts in fixed chunks and only skips candidates that
//! could never enter the beam (see DESIGN.md §10). Evaluation, which
//! streams its test bottom clauses across the workers, must count what a
//! coverage engine built over the whole test set counts.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::learn::{definition_covers_neg, definition_covers_pos};
use autobias::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::Database;

const BIAS_TEXT: &str = "
pred r(T1, T1)
pred s(T1, T1)
pred u(T1)
pred t(T1, T1)
mode r(+, -)
mode s(+, -)
mode s(-, +)
mode u(+)
";

/// A learnable world: positives follow the chain `r(a, m), s(m, b), u(m)`,
/// negatives break it, plus seed-dependent noise tuples so different cases
/// stress different beam shapes.
fn build_world(seed: u64, n_chains: usize, n_noise: usize) -> (Database, TrainingSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    for i in 0..n_chains {
        db.insert(r, &[&format!("a{i}"), &format!("m{i}")]);
        db.insert(s, &[&format!("m{i}"), &format!("b{i}")]);
        db.insert(u, &[&format!("m{i}")]);
        db.insert(t, &[&format!("a{i}"), &format!("b{i}")]);
    }
    for _ in 0..n_noise {
        let (i, j) = (rng.random_range(0..n_chains), rng.random_range(0..n_chains));
        match rng.random_range(0..3u32) {
            0 => db.insert(r, &[&format!("a{i}"), &format!("m{j}")]),
            1 => db.insert(s, &[&format!("m{i}"), &format!("b{j}")]),
            _ => db.insert(u, &[&format!("b{i}")]),
        };
    }

    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..n_chains {
        let a = db.lookup(&format!("a{i}")).unwrap();
        let b = db.lookup(&format!("b{i}")).unwrap();
        let b_other = db.lookup(&format!("b{}", (i + 1) % n_chains)).unwrap();
        pos.push(Example::new(t, vec![a, b]));
        neg.push(Example::new(t, vec![a, b_other]));
    }
    (db, TrainingSet::new(pos, neg))
}

/// Runs one full learning pass with `cfg` (the seed is filled in).
fn learn(cfg: LearnerConfig, seed: u64, db: &Database, train: &TrainingSet) -> Definition {
    let t = db.rel_id("t").unwrap();
    let bias = parse_bias(db, t, BIAS_TEXT).unwrap();
    let learner = Learner::new(LearnerConfig { seed, ..cfg });
    learner.learn(db, &bias, train).0
}

fn with_threads(threads: usize) -> LearnerConfig {
    LearnerConfig {
        threads,
        ..LearnerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One worker thread vs eight: byte-identical definitions. Coverage RNG
    /// streams are per-example and negative counting advances in fixed
    /// chunks, so the thread count must never leak into results.
    #[test]
    fn thread_count_learns_identical_definition(
        seed in 0u64..u64::MAX / 2,
        n_chains in 3usize..6,
        n_noise in 0usize..8,
    ) {
        let (db, train) = build_world(seed, n_chains, n_noise);
        let one = learn(with_threads(1), seed, &db, &train);
        let eight = learn(with_threads(8), seed, &db, &train);
        prop_assert_eq!(
            &one,
            &eight,
            "seed {}: 1 thread learned {:?}, 8 threads learned {:?}",
            seed,
            one.render(&db),
            eight.render(&db)
        );
        prop_assert!(!one.is_empty(), "seed {}: nothing learned", seed);
    }
}

/// The reference evaluation: a [`CoverageEngine`] over the whole test set,
/// with evaluation's full bottom-clause settings, asked example by example.
fn engine_metrics(
    db: &Database,
    bias: &LanguageBias,
    def: &Definition,
    test: &TrainingSet,
    seed: u64,
) -> Metrics {
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 100_000,
    };
    let engine = CoverageEngine::build(db, bias, test, &cfg, SubsumeConfig::default(), seed);
    let tp = (0..test.pos.len())
        .filter(|&i| definition_covers_pos(def, &engine, i))
        .count();
    let fp = (0..test.neg.len())
        .filter(|&i| definition_covers_neg(def, &engine, i))
        .count();
    Metrics {
        tp,
        fp,
        fn_: test.pos.len() - tp,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `evaluate_definition` builds each test example's full bottom clause
    /// on some worker and drops it after testing; its counts equal the
    /// engine reference for a learned definition, the empty definition
    /// (covers nothing) and a definition holding an empty-body clause
    /// (covers everything). The held-out fold has at least 16 positives
    /// and 16 negatives, so the pass spreads over every worker.
    #[test]
    fn streamed_evaluation_matches_the_engine(
        seed in 0u64..u64::MAX / 2,
        n_chains in 32usize..40,
        n_noise in 0usize..12,
    ) {
        let (db, all) = build_world(seed, n_chains, n_noise);
        let (train, test) = kfold_splits(&all.pos, &all.neg, 2, seed).swap_remove(0);
        let t = db.rel_id("t").unwrap();
        let bias = parse_bias(&db, t, BIAS_TEXT).unwrap();
        let learned = learn(LearnerConfig::default(), seed, &db, &train);
        prop_assert!(!learned.is_empty(), "seed {}: nothing learned", seed);
        let head = Literal::new(t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let everything = Definition {
            clauses: vec![Clause::new(head, Vec::new())],
        };
        let (p, n) = (test.pos.len(), test.neg.len());
        for (def, expected) in [
            (&learned, None),
            (&Definition::new(), Some((0, 0))),
            (&everything, Some((p, n))),
        ] {
            let streamed = evaluate_definition(&db, &bias, def, &test, 2, seed);
            prop_assert_eq!(
                streamed,
                engine_metrics(&db, &bias, def, &test, seed),
                "seed {}: {:?}",
                seed,
                def.render(&db)
            );
            if let Some((tp, fp)) = expected {
                prop_assert_eq!((streamed.tp, streamed.fp), (tp, fp));
            }
        }
    }
}

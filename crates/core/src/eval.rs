//! Evaluation: precision / recall / F-measure and k-fold cross-validation
//! splits (paper §6.1, "Measure").
//!
//! ```
//! use autobias::eval::Metrics;
//! let m = Metrics { tp: 8, fp: 2, fn_: 2 };
//! assert_eq!(m.precision(), 0.8);
//! assert_eq!(m.recall(), 0.8);
//! assert!((m.f_measure() - 0.8).abs() < 1e-12);
//! ```

use crate::bias::LanguageBias;
use crate::bottom::{build_ground_clause_in, BcConfig, BcScratch, SamplingStrategy};
use crate::clause::Definition;
use crate::coverage::{example_rng, parallel_map_in, worker_threads};
use crate::example::{Example, TrainingSet};
use crate::learn::prepare_definition;
use crate::subsume::{SubsumeConfig, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::Database;

/// Confusion counts and derived measures for one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Positive test examples covered by the definition.
    pub tp: usize,
    /// Negative test examples covered by the definition.
    pub fp: usize,
    /// Positive test examples not covered.
    pub fn_: usize,
}

impl Metrics {
    /// Precision: `tp / (tp + fp)`; 0 when nothing is covered (matching the
    /// paper's convention for definitions that cover no examples).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: `tp / (tp + fn)`; 0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F-measure: harmonic mean of precision and recall.
    pub fn f_measure(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Evaluates a learned definition on test examples.
///
/// Test coverage is computed against **unsampled** ground bottom clauses
/// (depth `depth`), so sampling during learning cannot silently inflate the
/// measured quality: a clause covers a test example iff it θ-subsumes the
/// example's full neighbourhood.
///
/// The pass streams: each worker builds one test example's full ground
/// clause, tests the definition against it clause by clause until one
/// covers, and drops it before the next, so a worker holds at most one test
/// clause at a time. The clauses, seeds and subsumption budget are those of
/// a [`crate::coverage::CoverageEngine`] built over `test`, so the answers
/// are the engine's.
pub fn evaluate_definition(
    db: &Database,
    bias: &LanguageBias,
    def: &Definition,
    test: &TrainingSet,
    depth: usize,
    seed: u64,
) -> Metrics {
    evaluate_in(db, bias, def, test, depth, seed, worker_threads())
}

/// [`evaluate_definition`] on `threads` workers (at least one).
fn evaluate_in(
    db: &Database,
    bias: &LanguageBias,
    def: &Definition,
    test: &TrainingSet,
    depth: usize,
    seed: u64,
    threads: usize,
) -> Metrics {
    let cfg = BcConfig {
        depth,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 100_000,
    };
    let scfg = SubsumeConfig::default();
    // Each clause is prepared once for every test; each worker owns one
    // construction scratch and one subsumption workspace.
    let prepared = prepare_definition(def);
    let mut workers: Vec<(BcScratch, Workspace)> = std::iter::repeat_with(Default::default)
        .take(threads.max(1))
        .collect();
    let mut covered = |examples: &[Example], negative: bool| {
        parallel_map_in(&mut workers, examples, |(scratch, ws), i, e| {
            let mut rng = example_rng(seed, negative, i);
            let ground = build_ground_clause_in(scratch, db, bias, e, &cfg, &mut rng);
            prepared
                .iter()
                .any(|c| ws.theta_subsumes_prepared(c, &ground, &scfg))
        })
        .into_iter()
        .filter(|&hit| hit)
        .count()
    };
    let tp = covered(&test.pos, false);
    let fp = covered(&test.neg, true);
    Metrics {
        tp,
        fp,
        fn_: test.pos.len() - tp,
    }
}

/// Splits positives and negatives into `k` stratified folds and yields
/// `(train, test)` pairs. Examples are shuffled with `seed` first.
pub fn kfold_splits(
    pos: &[Example],
    neg: &[Example],
    k: usize,
    seed: u64,
) -> Vec<(TrainingSet, TrainingSet)> {
    assert!(k >= 2, "cross validation needs k >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos = pos.to_vec();
    let mut neg = neg.to_vec();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);

    let fold_of = |i: usize| i % k;
    (0..k)
        .map(|fold| {
            let split = |items: &[Example]| -> (Vec<Example>, Vec<Example>) {
                let mut train = Vec::new();
                let mut test = Vec::new();
                for (i, e) in items.iter().enumerate() {
                    if fold_of(i) == fold {
                        test.push(e.clone());
                    } else {
                        train.push(e.clone());
                    }
                }
                (train, test)
            };
            let (pos_train, pos_test) = split(&pos);
            let (neg_train, neg_test) = split(&neg);
            (
                TrainingSet::new(pos_train, neg_train),
                TrainingSet::new(pos_test, neg_test),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::RelId;

    #[test]
    fn metrics_math() {
        let m = Metrics {
            tp: 8,
            fp: 2,
            fn_: 2,
        };
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 0.8).abs() < 1e-12);
        assert!((m.f_measure() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_coverage_is_all_zero() {
        let m = Metrics {
            tp: 0,
            fp: 0,
            fn_: 5,
        };
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f_measure(), 0.0);
    }

    #[test]
    fn perfect_definition_scores_one() {
        let m = Metrics {
            tp: 10,
            fp: 0,
            fn_: 0,
        };
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f_measure(), 1.0);
    }

    fn fake_examples(n: usize) -> Vec<Example> {
        (0..n)
            .map(|i| Example::new(RelId(0), vec![relstore::Const(i as u32)]))
            .collect()
    }

    #[test]
    fn kfold_partitions_every_example_exactly_once() {
        let pos = fake_examples(23);
        let neg = fake_examples(41);
        let splits = kfold_splits(&pos, &neg, 5, 7);
        assert_eq!(splits.len(), 5);
        let mut test_pos_total = 0;
        let mut test_neg_total = 0;
        for (train, test) in &splits {
            assert_eq!(train.pos.len() + test.pos.len(), 23);
            assert_eq!(train.neg.len() + test.neg.len(), 41);
            test_pos_total += test.pos.len();
            test_neg_total += test.neg.len();
            // No overlap between train and test.
            for e in &test.pos {
                assert!(!train.pos.contains(e));
            }
        }
        assert_eq!(test_pos_total, 23);
        assert_eq!(test_neg_total, 41);
    }

    #[test]
    fn kfold_is_seeded() {
        let pos = fake_examples(10);
        let neg = fake_examples(10);
        let a = kfold_splits(&pos, &neg, 5, 1);
        let b = kfold_splits(&pos, &neg, 5, 1);
        let c = kfold_splits(&pos, &neg, 5, 2);
        assert_eq!(a[0].1.pos, b[0].1.pos);
        assert_ne!(a[0].1.pos, c[0].1.pos);
    }

    /// A world of `n` chains `r(a, m), s(m, b)` with crossed negatives and
    /// the definition `t(x, y) ← r(x, z), s(z, y)`, which covers exactly
    /// the positives.
    fn chain_world(n: usize) -> (Database, LanguageBias, TrainingSet, Definition) {
        use crate::clause::{Clause, Literal, Term, VarId};
        let mut db = Database::new();
        let r = db.add_relation("r", &["a", "b"]);
        let s = db.add_relation("s", &["a", "b"]);
        let t = db.add_relation("t", &["a", "b"]);
        for i in 0..n {
            db.insert(r, &[&format!("a{i}"), &format!("m{i}")]);
            db.insert(s, &[&format!("m{i}"), &format!("b{i}")]);
        }
        let pair = |a: usize, b: usize| {
            let id = |name: String| db.lookup(&name).expect("interned");
            Example::new(t, vec![id(format!("a{a}")), id(format!("b{b}"))])
        };
        let pos = (0..n).map(|i| pair(i, i)).collect();
        let neg = (0..n).map(|i| pair(i, (i + 1) % n)).collect();
        let bias = crate::bias::parse::parse_bias(
            &db,
            t,
            "pred r(T1, T1)\npred s(T1, T1)\npred t(T1, T1)\nmode r(+, -)\nmode s(+, -)\n",
        )
        .expect("bias parses");
        let v = |n| Term::Var(VarId(n));
        let def = Definition {
            clauses: vec![Clause::new(
                Literal::new(t, vec![v(0), v(1)]),
                vec![
                    Literal::new(r, vec![v(0), v(2)]),
                    Literal::new(s, vec![v(2), v(1)]),
                ],
            )],
        };
        (db, bias, TrainingSet::new(pos, neg), def)
    }

    /// The streaming pass answers alike on one worker and on several: each
    /// example's clause comes from its own seed, whichever worker builds it.
    #[test]
    fn evaluation_is_worker_count_independent() {
        let (db, bias, test, def) = chain_world(40);
        let one = evaluate_in(&db, &bias, &def, &test, 2, 7, 1);
        assert_eq!(
            one,
            Metrics {
                tp: 40,
                fp: 0,
                fn_: 0
            }
        );
        for threads in [3, 8] {
            assert_eq!(evaluate_in(&db, &bias, &def, &test, 2, 7, threads), one);
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn kfold_rejects_k_one() {
        let pos = fake_examples(4);
        kfold_splits(&pos, &pos, 1, 0);
    }
}

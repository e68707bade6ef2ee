//! Evaluation: precision / recall / F-measure and k-fold cross validation
//! (paper §6.1, "Measure").
//!
//! ```
//! use autobias::eval::Metrics;
//! let m = Metrics { tp: 8, fp: 2, fn_: 2 };
//! assert_eq!(m.precision(), 0.8);
//! assert_eq!(m.recall(), 0.8);
//! assert!((m.f_measure() - 0.8).abs() < 1e-12);
//! ```

use crate::bias::LanguageBias;
use crate::bottom::{BcConfig, SamplingStrategy};
use crate::clause::Definition;
use crate::coverage::CoverageEngine;
use crate::example::{Example, TrainingSet};
use crate::learn::{
    definition_covers_neg_in, definition_covers_pos_in, prepare_definition, Learner,
};
use crate::subsume::{SubsumeConfig, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::Database;
use std::time::{Duration, Instant};

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
pub fn evaluate_definition(
    db: &Database,
    bias: &LanguageBias,
    def: &Definition,
    test: &TrainingSet,
    depth: usize,
    seed: u64,
) -> Metrics {
    let cfg = BcConfig {
        depth,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 100_000,
    };
    let engine = CoverageEngine::build(db, bias, test, &cfg, SubsumeConfig::default(), seed);
    // One subsumption workspace serves every test of the pass, and each
    // clause is prepared once for all of them.
    let mut ws = Workspace::default();
    let prepared = prepare_definition(def);
    let tp = (0..test.pos.len())
        .filter(|&i| definition_covers_pos_in(&mut ws, &prepared, &engine, i))
        .count();
    let fp = (0..test.neg.len())
        .filter(|&i| definition_covers_neg_in(&mut ws, &prepared, &engine, i))
        .count();
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

/// Result of one cross-validation fold.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// Test-set metrics.
    pub metrics: Metrics,
    /// Learning wall-clock time (excludes evaluation).
    pub learn_time: Duration,
    /// Clauses learned.
    pub clauses: usize,
}

/// Aggregated cross-validation result.
#[derive(Debug, Clone, Default)]
pub struct CvResult {
    /// Per-fold results.
    pub folds: Vec<FoldResult>,
}

impl CvResult {
    /// Mean precision over folds.
    pub fn precision(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.metrics.precision()))
    }

    /// Mean recall over folds.
    pub fn recall(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.metrics.recall()))
    }

    /// Mean F-measure over folds.
    pub fn f_measure(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.metrics.f_measure()))
    }

    /// Mean learning time over folds.
    pub fn learn_time(&self) -> Duration {
        let total: Duration = self.folds.iter().map(|f| f.learn_time).sum();
        total
            .checked_div(self.folds.len().max(1) as u32)
            .unwrap_or_default()
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs k-fold cross validation for one learner/bias pair.
pub fn cross_validate(
    db: &Database,
    bias: &LanguageBias,
    learner: &Learner,
    pos: &[Example],
    neg: &[Example],
    k: usize,
    seed: u64,
) -> CvResult {
    let mut folds = Vec::with_capacity(k);
    for (train, test) in kfold_splits(pos, neg, k, seed) {
        let t0 = Instant::now();
        let (def, _) = learner.learn(db, bias, &train);
        let learn_time = t0.elapsed();
        let metrics = evaluate_definition(db, bias, &def, &test, learner.cfg.bc.depth, seed);
        folds.push(FoldResult {
            metrics,
            learn_time,
            clauses: def.len(),
        });
    }
    CvResult { folds }
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

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn kfold_rejects_k_one() {
        let pos = fake_examples(4);
        kfold_splits(&pos, &pos, 1, 0);
    }
}

#[cfg(test)]
mod cv_tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use crate::bottom::{BcConfig, SamplingStrategy};
    use crate::learn::LearnerConfig;

    /// cross_validate runs k folds end to end and aggregates sane metrics on
    /// a clean co-authorship world.
    #[test]
    fn cross_validate_end_to_end() {
        let mut db = Database::new();
        let student = db.add_relation("student", &["stud"]);
        let professor = db.add_relation("professor", &["prof"]);
        let publ = db.add_relation("publication", &["title", "person"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..12 {
            let s = format!("s{i}");
            let p = format!("f{i}");
            let t = format!("t{i}");
            db.insert(student, &[&s]);
            db.insert(professor, &[&p]);
            db.insert(publ, &[&t, &s]);
            db.insert(publ, &[&t, &p]);
            db.insert(target, &[&s, &p]);
        }
        for i in 0..12 {
            let s = db.lookup(&format!("s{i}")).unwrap();
            let p = db.lookup(&format!("f{i}")).unwrap();
            let p2 = db.lookup(&format!("f{}", (i + 3) % 12)).unwrap();
            pos.push(Example::new(target, vec![s, p]));
            neg.push(Example::new(target, vec![s, p2]));
        }
        db.build_indexes();
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
        let learner = Learner::new(LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_tuples: 2000,
                max_body_literals: 20_000,
            },
            ..LearnerConfig::default()
        });
        let cv = cross_validate(&db, &bias, &learner, &pos, &neg, 3, 9);
        assert_eq!(cv.folds.len(), 3);
        assert!(cv.f_measure() > 0.9, "CV FM {}", cv.f_measure());
        assert!(cv.precision() > 0.9);
        assert!(cv.recall() > 0.9);
        assert!(cv.learn_time() > Duration::ZERO);
        for f in &cv.folds {
            assert!(f.clauses >= 1);
        }
    }
}

//! Output transparency of the learner's accelerations on the generated
//! UW-CSE dataset: learning `advisedBy` must produce a byte-identical
//! definition across the full matrix of `LearnerConfig::constraint_pruning`
//! × `LearnerConfig::threads` (1 | 8). The constraint-driven beam pruner and
//! the parallel coverage path are pure accelerations — if either changes
//! what gets learned, these tests name the exact configuration that
//! diverged.
//!
//! The synthetic-world version of the thread property lives in
//! `crates/core/tests/thread_transparency.rs`; this one runs the real schema
//! (9 relations, ternary predicates, constants in modes) where ARMG produces
//! far more α-equivalent duplicates, so the constraint store works for its
//! living. Vacuity guards read each run's own `LearnStats`, never
//! process-wide counters, so the tests can run in parallel.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::prelude::*;
use datasets::uw::{self, UwConfig};

fn small_uw(seed: u64) -> datasets::Dataset {
    uw::generate(
        &UwConfig {
            students: 25,
            professors: 10,
            courses: 12,
            advised_pairs: 14,
            negatives: 28,
            evidence_prob: 1.0,
            ..UwConfig::default()
        },
        seed,
    )
}

fn learn(cfg: LearnerConfig, ds: &datasets::Dataset) -> (Definition, LearnStats) {
    let bias = ds.manual_bias().expect("manual bias parses");
    let learner = Learner::new(LearnerConfig { seed: 42, ..cfg });
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    learner.learn(&ds.db, &bias, &train)
}

/// Every cell of the 2×2 matrix must learn the same bytes as the default
/// configuration (pruning on, default threads). The default run must
/// actually prune candidates, and the switched-off cells must not —
/// otherwise the matrix is transparent only vacuously.
fn matrix_learns_identical_definition(data_seed: u64) {
    let ds = small_uw(data_seed);
    let (reference, ref_stats) = learn(LearnerConfig::default(), &ds);
    assert!(
        !reference.is_empty(),
        "uw seed {data_seed}: nothing learned — transparency matrix is vacuous"
    );
    assert!(
        ref_stats.pruned_by_constraint > 0,
        "uw seed {data_seed}: constraint store never pruned a candidate"
    );
    for constraint_pruning in [true, false] {
        for threads in [1, 8] {
            let cfg = LearnerConfig {
                constraint_pruning,
                threads,
                ..LearnerConfig::default()
            };
            let (got, stats) = learn(cfg, &ds);
            let cell = format!("uw seed {data_seed} prune={constraint_pruning} threads={threads}");
            assert_eq!(
                got,
                reference,
                "{cell} learned {:?}, default learned {:?}",
                got.render(&ds.db),
                reference.render(&ds.db)
            );
            if !constraint_pruning {
                assert_eq!(
                    stats.pruned_by_constraint, 0,
                    "{cell}: disabled store pruned candidates"
                );
            }
        }
    }
}

#[test]
fn uw_seed_11_matrix_learns_identical_definition() {
    matrix_learns_identical_definition(11);
}

#[test]
fn uw_seed_23_matrix_learns_identical_definition() {
    matrix_learns_identical_definition(23);
}

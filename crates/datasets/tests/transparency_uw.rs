//! Thread transparency of the learner on the generated UW-CSE dataset:
//! learning `advisedBy` must produce a byte-identical definition at
//! `LearnerConfig::threads` 1 and 8. The parallel coverage path is a pure
//! acceleration — if it changes what gets learned, these tests name the
//! thread count that diverged.
//!
//! The synthetic-world version of this property lives in
//! `crates/core/tests/thread_transparency.rs`; this one runs the real schema
//! (9 relations, ternary predicates, constants in modes) where ARMG produces
//! far more α-equivalent duplicates.

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

fn learn(cfg: LearnerConfig, ds: &datasets::Dataset) -> Definition {
    let bias = ds.manual_bias().expect("manual bias parses");
    let learner = Learner::new(LearnerConfig { seed: 42, ..cfg });
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    learner.learn(&ds.db, &bias, &train).0
}

/// Every thread count must learn the same bytes as the default
/// configuration, and the default run must learn something — otherwise the
/// matrix is transparent only vacuously.
fn matrix_learns_identical_definition(data_seed: u64) {
    let ds = small_uw(data_seed);
    let reference = learn(LearnerConfig::default(), &ds);
    assert!(
        !reference.is_empty(),
        "uw seed {data_seed}: nothing learned — transparency matrix is vacuous"
    );
    for threads in [1, 8] {
        let cfg = LearnerConfig {
            threads,
            ..LearnerConfig::default()
        };
        let got = learn(cfg, &ds);
        assert_eq!(
            got,
            reference,
            "uw seed {data_seed} threads={threads} learned {:?}, default learned {:?}",
            got.render(&ds.db),
            reference.render(&ds.db)
        );
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

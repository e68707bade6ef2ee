//! Only clause-search seeds are variable-ized. A learn run turns one ground
//! bottom clause into a clause per covering iteration, and evaluation, which
//! only θ-tests ground clauses, variable-izes none.
//!
//! This file holds a single test because it reads the process-wide
//! `autobias_core_bc_variablized_total` counter: no other test in the same
//! process may bump it.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::instrument::BC_VARIABLIZED;
use autobias::prelude::*;
use obs::progress::{ProgressEvent, ProgressSink};
use relstore::fixtures::uw_fragment;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const UW_TABLE3_BIAS: &str = "
pred student(T1)
pred inPhase(T1, T2)
pred professor(T3)
pred hasPosition(T3, T4)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode inPhase(+, -)
mode inPhase(+, #)
mode professor(+)
mode hasPosition(+, -)
mode publication(-, +)
";

/// Counts `IterationStarted` events.
#[derive(Default)]
struct Iterations(AtomicUsize);

impl ProgressSink for Iterations {
    fn on_event(&self, ev: &ProgressEvent) {
        if matches!(ev, ProgressEvent::IterationStarted { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn learning_variablizes_once_per_iteration_and_evaluation_never() {
    let mut db = uw_fragment();
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    let [juan, sarita, john, mary] = ["juan", "sarita", "john", "mary"].map(|n| db.intern(n));
    let bias = parse_bias(&db, target, UW_TABLE3_BIAS).unwrap();
    let train = TrainingSet::new(
        vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![john, mary]),
        ],
        vec![
            Example::new(target, vec![juan, mary]),
            Example::new(target, vec![john, sarita]),
        ],
    );
    let learner = Learner::new(LearnerConfig {
        bc: BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        },
        ..LearnerConfig::default()
    });

    let iterations = Iterations::default();
    let before = BC_VARIABLIZED.get();
    let (def, _) =
        learner.learn_with_progress(&db, &bias, &train, &AtomicBool::new(false), &iterations);
    let started = iterations.0.load(Ordering::Relaxed);
    assert!(started >= 1 && !def.is_empty());
    assert_eq!(BC_VARIABLIZED.get() - before, started as u64);

    let before = BC_VARIABLIZED.get();
    let m = evaluate_definition(&db, &bias, &def, &train, 2, 7);
    assert_eq!(m.tp, 2);
    assert_eq!(
        BC_VARIABLIZED.get(),
        before,
        "evaluation variable-ized a clause"
    );
}

//! Quickstart: build a small database, let AutoBias induce the language bias
//! from the data, and learn a Horn definition — no hand-written bias at all.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

#![allow(clippy::unwrap_used)] // example code favours brevity

use autobias_repro::autobias::prelude::*;
use autobias_repro::relstore::Database;

fn main() {
    // 1. Build a tiny university database: students co-author papers with
    //    their advisors.
    let mut db = Database::new();
    let student = db.add_relation("student", &["stud"]);
    let professor = db.add_relation("professor", &["prof"]);
    let publication = db.add_relation("publication", &["title", "person"]);
    let advised_by = db.add_relation("advisedBy", &["stud", "prof"]);

    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..10 {
        let s = format!("student_{i}");
        let p = format!("prof_{}", i % 5);
        db.insert(student, &[&s]);
        db.insert(professor, &[&p]);
        // Two joint papers per advising pair.
        for k in 0..2 {
            let t = format!("paper_{i}_{k}");
            db.insert(publication, &[&t, &s]);
            db.insert(publication, &[&t, &p]);
        }
        // Positive examples go into the database too, so IND discovery can
        // type the target attributes.
        db.insert(advised_by, &[&s, &p]);
        let s_c = db.lookup(&s).unwrap();
        let p_c = db.lookup(&p).unwrap();
        let other = db.lookup(&format!("prof_{}", (i + 2) % 5));
        pos.push(Example::new(advised_by, vec![s_c, p_c]));
        if let Some(other) = other {
            neg.push(Example::new(advised_by, vec![s_c, other]));
        }
    }

    // 2. Induce the language bias automatically (paper §3): exact and
    //    approximate INDs → type graph → predicate definitions; attribute
    //    cardinalities → mode definitions.
    let (bias, _type_graph, stats) =
        induce_bias(&db, advised_by, &AutoBiasConfig::default()).expect("bias induction");
    println!(
        "induced bias: {} predicate defs, {} mode defs ({} exact / {} approximate INDs, {:?})",
        stats.num_preds, stats.num_modes, stats.exact_inds, stats.approx_inds, stats.ind_time
    );

    // 3. Learn with the bottom-up sequential covering learner (Algorithm 1).
    //    `reduce_clauses` post-processes each clause into its readable core.
    let learner = Learner::new(LearnerConfig {
        reduce_clauses: true,
        ..LearnerConfig::default()
    });
    let train = TrainingSet::new(pos, neg);
    let (definition, learn_stats) = learner.learn(&db, &bias, &train);

    println!("\nlearned definition:");
    println!("{}", definition.render(&db));
    println!(
        "\n({} clause(s); {} positives left uncovered; BC time {:?}, search time {:?})",
        definition.len(),
        learn_stats.uncovered_pos,
        learn_stats.bc_time,
        learn_stats.search_time
    );

    assert!(
        !definition.is_empty(),
        "expected to learn the co-authorship rule"
    );
}

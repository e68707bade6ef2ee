//! Schema-independence check (the design goal of Castor, the learner
//! AutoBias builds on — Picado et al. SIGMOD'17): storing the same
//! information normalized or denormalized should not change what is
//! learnable, and AutoBias's IND-driven bias induction should adapt to the
//! new schema *automatically* — the surrogate keys introduced by vertical
//! partitioning participate in exact INDs, so the type graph re-links the
//! fragments without any human intervention.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_repro::autobias::prelude::*;
use autobias_repro::relstore::transform::vertical_partition;
use autobias_repro::relstore::Database;

/// Movie world where dramaDirector(d) ⇔ d directed a drama movie.
fn movie_world() -> (Database, relstore::RelId, Vec<Example>, Vec<Example>) {
    let mut db = Database::new();
    let directed = db.add_relation("directedBy", &["mid", "did"]);
    let genre = db.add_relation("genre", &["mid", "g"]);
    let target = db.add_relation("dramaDirector", &["did"]);
    let genres = ["drama", "comedy", "action"];
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..18 {
        let m = format!("m{i}");
        let d = format!("d{i}");
        db.insert(directed, &[&m, &d]);
        db.insert(genre, &[&m, genres[i % 3]]);
        let dc = db.lookup(&d).unwrap();
        if i % 3 == 0 {
            db.insert(target, &[&d]);
            pos.push(Example::new(target, vec![dc]));
        } else {
            neg.push(Example::new(target, vec![dc]));
        }
    }
    (db, target, pos, neg)
}

fn learn_fm(
    db: &Database,
    target: relstore::RelId,
    pos: &[Example],
    neg: &[Example],
    depth: usize,
) -> f64 {
    let (bias, _, _) = induce_bias(
        db,
        target,
        &AutoBiasConfig {
            constant_threshold: ConstantThreshold::Absolute(10),
            ..AutoBiasConfig::default()
        },
    )
    .expect("bias induction");
    let cfg = LearnerConfig {
        bc: BcConfig {
            depth,
            strategy: SamplingStrategy::Full,
            max_tuples: 5_000,
            max_body_literals: 20_000,
        },
        reduce_clauses: true,
        ..LearnerConfig::default()
    };
    let train = TrainingSet::new(pos.to_vec(), neg.to_vec());
    let (def, _) = Learner::new(cfg).learn(db, &bias, &train);
    // Evaluate on the training set with exact query semantics — the point is
    // expressibility across schemas, not generalization.
    let qcfg = QueryConfig::default();
    let tp = pos
        .iter()
        .filter(|e| definition_covers(db, &def, e, &qcfg))
        .count();
    let fp = neg
        .iter()
        .filter(|e| definition_covers(db, &def, e, &qcfg))
        .count();
    let m = Metrics {
        tp,
        fp,
        fn_: pos.len() - tp,
    };
    m.f_measure()
}

#[test]
fn autobias_learns_equally_well_on_partitioned_schema() {
    let (db, target, pos, neg) = movie_world();
    let fm_original = learn_fm(&db, target, &pos, &neg, 2);
    assert!(fm_original > 0.95, "original schema FM {fm_original}");

    // Partition genre(mid, g) into genre_mid(genre_id, mid) and
    // genre_g(genre_id, g). The drama rule now needs one extra hop:
    // dramaDirector(x) ← directedBy(m, x), genre_mid(t, m), genre_g(t, drama)
    let genre = db.rel_id("genre").unwrap();
    let parts = vertical_partition(&db, genre).expect("partition");
    let mut new_db = parts.db;
    let new_target = new_db.rel_id("dramaDirector").unwrap();
    // Re-intern the example constants against the new database's dictionary
    // (ids differ across databases; names are stable).
    let new_pos: Vec<Example> = pos
        .iter()
        .map(|e| {
            let name = db.const_name(e.args[0]).to_string();
            let c = new_db.intern(&name);
            Example::new(new_target, vec![c])
        })
        .collect();
    let new_neg: Vec<Example> = neg
        .iter()
        .map(|e| {
            let name = db.const_name(e.args[0]).to_string();
            let c = new_db.intern(&name);
            Example::new(new_target, vec![c])
        })
        .collect();

    // One extra hop in the join path → depth 3.
    let fm_partitioned = learn_fm(&new_db, new_target, &new_pos, &new_neg, 3);
    assert!(
        fm_partitioned > 0.95,
        "partitioned schema FM {fm_partitioned} (original {fm_original})"
    );
}

//! Bringing your own data: load relations from CSV, write (or induce) a
//! bias, learn, and inspect every intermediate artifact — the INDs, the type
//! graph, the induced bias, one bottom clause, and the final definition.
//!
//! ```text
//! cargo run --example custom_dataset --release
//! ```

#![allow(clippy::unwrap_used)] // example code favours brevity

use autobias_repro::autobias::prelude::*;
use autobias_repro::constraints::{build_type_graph, discover_inds, IndConfig};
use autobias_repro::relstore::{csv::load_csv, Database};

fn main() {
    // 1. Define the schema and load CSV data (here from in-memory strings;
    //    in a real application, from files).
    let mut db = Database::new();
    let person = db.add_relation("person", &["name"]);
    let parent = db.add_relation("parent", &["parent", "child"]);
    let grandparent = db.add_relation("grandparent", &["gp", "gc"]);

    load_csv(
        &mut db,
        person,
        "ann\nbob\ncal\ndee\neve\nfay\ngil\nhal\n".as_bytes(),
    )
    .expect("person CSV");
    load_csv(
        &mut db,
        parent,
        "ann,cal\nbob,cal\ncal,eve\ndee,eve\neve,gil\nfay,gil\ngil,hal\n".as_bytes(),
    )
    .expect("parent CSV");

    // 2. Positive/negative examples for grandparent(gp, gc).
    let mut ex = |a: &str, b: &str| {
        let a = db.intern(a);
        let b = db.intern(b);
        Example::new(grandparent, vec![a, b])
    };
    let pos = vec![
        ex("ann", "eve"),
        ex("bob", "eve"),
        ex("cal", "gil"),
        ex("dee", "gil"),
        ex("eve", "hal"),
        ex("fay", "hal"),
    ];
    let neg = vec![
        ex("ann", "gil"),
        ex("cal", "hal"),
        ex("ann", "bob"),
        ex("eve", "cal"),
        ex("hal", "ann"),
        ex("gil", "eve"),
    ];
    for e in &pos {
        db.insert_consts(grandparent, &e.args);
    }

    // 3. Look at what the constraint-discovery layer sees.
    let inds = discover_inds(&db, &IndConfig::default());
    println!("discovered INDs:");
    for ind in &inds {
        println!("  {}", ind.render(&db));
    }
    let graph = build_type_graph(&db, &inds);
    println!("\ntype graph:\n{}", graph.render(&db));

    // 4. Induce the bias and show it — this is what an expert would have had
    //    to write by hand.
    let (bias, _, _) = induce_bias(&db, grandparent, &AutoBiasConfig::default()).expect("bias");
    println!("induced bias:\n{}", bias.render(&db));

    // 5. Peek at one bottom clause (the most specific clause for the first
    //    positive example).
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    use rand::SeedableRng;
    let bc = build_bottom_clause(&db, &bias, &pos[0], &BcConfig::default(), &mut rng);
    println!(
        "bottom clause for {}:\n  {}",
        pos[0].render(&db),
        bc.clause.render(&db)
    );

    // 6. Learn and print the definition: grandparent(x,y) ← parent(x,z), parent(z,y).
    let learner = Learner::new(LearnerConfig {
        reduce_clauses: true,
        ..LearnerConfig::default()
    });
    let (definition, _) = learner.learn(&db, &bias, &TrainingSet::new(pos.clone(), neg));
    println!("\nlearned definition:\n{}", definition.render(&db));
    assert!(!definition.is_empty());
}

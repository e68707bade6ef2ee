//! Public-API property suite for the plan soundness verifier: on random
//! worlds, every definition compiled through [`plan::compile_definition`]
//! carries a clean verification report, the offline re-run
//! ([`plan::verify_definition`]) agrees, and the compiled evaluation
//! matches the interpreter. The randomized mutation-kill half of the suite lives in
//! `src/verify.rs` unit tests, where plan internals are reachable.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use autobias::example::Example;
use autobias::query::{definition_covers, QueryConfig};
use plan::{compile_definition, CompileConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Const, Database};

fn build_world(
    seed: u64,
    n_consts: usize,
    n_r: usize,
    n_s: usize,
) -> (Database, Definition, Vec<Example>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);

    let names: Vec<String> = (0..n_consts).map(|i| format!("c{i}")).collect();
    for name in &names {
        db.insert(t, &[name, name]);
    }
    let pick = |rng: &mut StdRng| rng.random_range(0..n_consts);
    for _ in 0..n_r {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        db.insert(r, &[&names[a], &names[b]]);
    }
    for _ in 0..n_s {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        db.insert(s, &[&names[a], &names[b]]);
    }
    for name in &names {
        if rng.random_range(0..2u32) == 0 {
            db.insert(u, &[name]);
        }
    }

    let consts: Vec<Const> = names.iter().map(|n| db.lookup(n).unwrap()).collect();
    let examples: Vec<Example> = (0..6)
        .map(|_| {
            let (a, b) = (rng.random_range(0..n_consts), rng.random_range(0..n_consts));
            Example::new(t, vec![consts[a], consts[b]])
        })
        .collect();
    let term = |rng: &mut StdRng| {
        if rng.random_range(0..5u32) == 0 {
            Term::Const(consts[rng.random_range(0..consts.len())])
        } else {
            Term::Var(VarId(rng.random_range(0..5u32)))
        }
    };
    let clause = |rng: &mut StdRng| {
        let mut body = Vec::new();
        for _ in 0..rng.random_range(0..=4usize) {
            let lit = match rng.random_range(0..3u32) {
                0 => Literal::new(r, vec![term(rng), term(rng)]),
                1 => Literal::new(s, vec![term(rng), term(rng)]),
                _ => Literal::new(u, vec![term(rng)]),
            };
            body.push(lit);
        }
        Clause::new(
            Literal::new(t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
            body,
        )
    };
    let definition = Definition {
        clauses: (0..6).map(|_| clause(&mut rng)).collect(),
    };
    (db, definition, examples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiler output always verifies clean — at the compile boundary
    /// (the report carried on the `CompiledDefinition`), on the offline
    /// re-run, and with no verification-declined clauses — and the served
    /// verdicts still match the interpreter.
    #[test]
    fn compiled_definitions_verify_clean_and_serve_correctly(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_r in 0usize..16,
        n_s in 0usize..16,
    ) {
        let (db, definition, examples) = build_world(seed, n_consts, n_r, n_s);
        let compiled = compile_definition(&db, &definition, &CompileConfig::default());
        let report = compiled.verify_report();
        prop_assert!(
            !report.has_errors(),
            "seed {seed}: compile-time verification flagged compiler output:\n{}",
            report.render_text()
        );
        prop_assert!(
            !compiled
                .declined()
                .iter()
                .any(|(_, why)| matches!(why, plan::Declined::FailedVerification(_))),
            "seed {seed}: a compiler-produced plan was rejected"
        );
        let offline = plan::verify_definition(&db, &definition, &compiled);
        prop_assert!(
            offline.is_clean(),
            "seed {seed}: offline verification disagrees:\n{}",
            offline.render_text()
        );
        let qcfg = QueryConfig::default();
        for example in &examples {
            prop_assert_eq!(
                compiled.covers_compiled(&db, &example.args),
                definition_covers(&db, &definition, example, &qcfg),
                "seed {seed}: verified plans disagree with the interpreter on {}",
                example.render(&db)
            );
        }
    }
}

/// Directed companion so the property can't pass vacuously: a fixed
/// multi-component, multi-variant definition verifies clean through every
/// public entry point.
#[test]
fn known_world_verifies_clean() {
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    db.insert(r, &["x", "m"]);
    db.insert(s, &["m", "y"]);
    db.insert(u, &["m"]);
    db.insert(t, &["x", "y"]);

    let v = |n| Term::Var(VarId(n));
    let definition = Definition {
        clauses: vec![
            // Chain with a free-variable component: two barriers.
            Clause::new(
                Literal::new(t, vec![v(0), v(1)]),
                vec![
                    Literal::new(r, vec![v(0), v(2)]),
                    Literal::new(s, vec![v(2), v(1)]),
                    Literal::new(u, vec![v(3)]),
                ],
            ),
            // Symmetric self-join: compiles to multiple variants.
            Clause::new(
                Literal::new(t, vec![v(0), v(1)]),
                vec![
                    Literal::new(r, vec![v(2), v(0)]),
                    Literal::new(r, vec![v(2), v(1)]),
                ],
            ),
        ],
    };
    let compiled = compile_definition(&db, &definition, &CompileConfig::default());
    assert!(compiled.is_fully_compiled());
    let report = compiled.verify_report();
    assert!(report.is_clean(), "{}", report.render_text());
    let report = plan::verify_definition(&db, &definition, &compiled);
    assert!(report.is_clean(), "{}", report.render_text());
}

//! Differential oracle for the plan compiler: on randomly generated
//! databases, a compiled clause's [`plan::CompiledClause::covers`] must
//! agree with the interpreter (`autobias::query::clause_covers`) on every
//! example — and at the definition level, the compiled disjunction plus
//! interpreter fallback for declined clauses must agree with
//! `definition_covers`. The clause generator deliberately produces shapes
//! the unit tests don't: disconnected bodies, repeated variables, body
//! constants, unbound ("free") variables, and self-joins.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use autobias::example::Example;
use autobias::query::{
    clause_covers, clause_covers_args, definition_covers, EvalScratch, QueryConfig,
};
use plan::{compile_clause, compile_definition, CompileConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Const, Database, RelId};

struct World {
    db: Database,
    examples: Vec<Example>,
    clauses: Vec<Clause>,
    seed: u64,
}

#[derive(Clone, Copy)]
struct Rels {
    r: RelId,
    s: RelId,
    u: RelId,
    t: RelId,
}

fn build_world(seed: u64, n_consts: usize, n_r: usize, n_s: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    let rels = Rels { r, s, u, t };

    let names: Vec<String> = (0..n_consts).map(|i| format!("c{i}")).collect();
    // Intern every constant so examples and body constants can name it.
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
    let clauses: Vec<Clause> = (0..6)
        .map(|_| random_clause(&mut rng, rels, &consts))
        .collect();
    World {
        db,
        examples,
        clauses,
        seed,
    }
}

/// A random clause with *no* language-bias discipline: any term of any body
/// literal is a variable drawn from a small pool (head vars included, so
/// some bodies connect to the head and some don't) or, occasionally, a
/// constant. This exercises disconnected components, free variables,
/// self-joins, and constant probes — everything the compiler's component
/// decomposition and op classification must get right.
fn random_clause(rng: &mut StdRng, rels: Rels, consts: &[Const]) -> Clause {
    let term = |rng: &mut StdRng| {
        if rng.random_range(0..5u32) == 0 {
            Term::Const(consts[rng.random_range(0..consts.len())])
        } else {
            // A pool of 5 variables over ≤4 body literals: collisions
            // (joins) are common, as are variables used exactly once.
            Term::Var(VarId(rng.random_range(0..5u32)))
        }
    };
    let mut body = Vec::new();
    for _ in 0..rng.random_range(0..=4usize) {
        match rng.random_range(0..3u32) {
            0 => {
                let (a, b) = (term(rng), term(rng));
                body.push(Literal::new(rels.r, vec![a, b]));
            }
            1 => {
                let (a, b) = (term(rng), term(rng));
                body.push(Literal::new(rels.s, vec![a, b]));
            }
            _ => {
                let a = term(rng);
                body.push(Literal::new(rels.u, vec![a]));
            }
        }
    }
    // Head is always t(V0, V1); body variables 2..5 are non-head.
    Clause::new(
        Literal::new(rels.t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
        body,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-clause equivalence: every compilable random clause answers
    /// exactly like the interpreter on every example.
    #[test]
    fn compiled_clause_agrees_with_interpreter(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_r in 0usize..16,
        n_s in 0usize..16,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let qcfg = QueryConfig::default();
        let mut compiled = 0usize;
        for clause in &world.clauses {
            let Ok(p) = compile_clause(&world.db, clause, &CompileConfig::default()) else {
                // These worlds are small; nothing here should decline.
                panic!("seed {}: unexpectedly declined {}", world.seed, clause.render(&world.db));
            };
            compiled += 1;
            for example in &world.examples {
                prop_assert_eq!(
                    p.covers(&world.db, &example.args),
                    clause_covers(&world.db, clause, example, &qcfg),
                    "seed {} disagrees on {} for {}",
                    world.seed,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
            }
        }
        prop_assert!(compiled > 0 || world.clauses.is_empty());
    }

    /// Definition-level equivalence, the exact /predict evaluation recipe:
    /// compiled disjunction first, interpreter for declined clauses on the
    /// tuples no compiled clause covered.
    #[test]
    fn compiled_definition_agrees_with_interpreter(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_r in 0usize..16,
        n_s in 0usize..16,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let definition = Definition {
            clauses: world.clauses.clone(),
        };
        // Tight limits force some clauses to decline, exercising the
        // mixed compiled-plus-interpreted path.
        let tight = CompileConfig {
            max_slots: 4,
            ..CompileConfig::default()
        };
        let qcfg = QueryConfig::default();
        for cfg in [CompileConfig::default(), tight] {
            let plans = compile_definition(&world.db, &definition, &cfg);
            let mut scratch = EvalScratch::default();
            for example in &world.examples {
                let mut covered = plans.covers_compiled(&world.db, &example.args);
                if !covered && !plans.is_fully_compiled() {
                    covered = plans.declined().iter().any(|&(i, _)| {
                        clause_covers_args(
                            &world.db,
                            &definition.clauses[i],
                            example.rel,
                            &example.args,
                            &qcfg,
                            &mut scratch,
                        )
                    });
                }
                prop_assert_eq!(
                    covered,
                    definition_covers(&world.db, &definition, example, &qcfg),
                    "seed {} disagrees on {} (declined {}/{})",
                    world.seed,
                    example.render(&world.db),
                    plans.num_declined(),
                    definition.len()
                );
            }
        }
    }
}

/// Directed companion so the property can't pass vacuously: a fixed world
/// where coverage is known by construction, checked through the compiled
/// engine.
#[test]
fn compiled_engine_agrees_on_known_world() {
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    db.insert(r, &["x", "m"]);
    db.insert(s, &["m", "y"]);
    db.insert(u, &["m"]);
    db.insert(r, &["x2", "m2"]); // chain with no u(m2)
    db.insert(s, &["m2", "y2"]);
    db.insert(t, &["x", "y"]); // intern example constants
    db.insert(t, &["x2", "y2"]);

    let v = |n| Term::Var(VarId(n));
    // t(a, b) ← r(a, z), s(z, b), u(z)
    let clause = Clause::new(
        Literal::new(t, vec![v(0), v(1)]),
        vec![
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(s, vec![v(2), v(1)]),
            Literal::new(u, vec![v(2)]),
        ],
    );
    let plan = compile_clause(&db, &clause, &CompileConfig::default()).unwrap();
    let x = db.lookup("x").unwrap();
    let y = db.lookup("y").unwrap();
    let x2 = db.lookup("x2").unwrap();
    let y2 = db.lookup("y2").unwrap();
    let cases = [
        ([x, y], true),    // full chain with u
        ([x2, y2], false), // chain but no u(m2)
        ([x, y2], false),  // chains don't cross
    ];
    for (args, expected) in &cases {
        assert_eq!(plan.covers(&db, args), *expected, "wrong on {args:?}");
    }
}

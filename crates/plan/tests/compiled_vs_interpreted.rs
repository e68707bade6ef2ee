//! Differential oracle for the plan compiler: on randomly generated
//! databases, a compiled clause's [`plan::CompiledClause::covers`] must
//! agree with the interpreter (`autobias::query::clause_covers`) on every
//! example — and at the definition level, the compiled disjunction (the
//! whole `/predict` recipe) must agree with `definition_covers`. The clause
//! generator deliberately produces shapes the unit tests don't: disconnected
//! bodies, repeated variables, body constants, unbound ("free") variables,
//! and self-joins. A second generator builds the long clauses the learner
//! emits without reduction: 33–120 literals, more than 64 variables, and
//! star runs of private variables on one hub.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use autobias::example::Example;
use autobias::query::{clause_covers, definition_covers, QueryConfig};
use plan::{compile_clause, compile_definition, verify_clause, CompileConfig, ExecScratch};
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
    /// every clause compiles, and the compiled disjunction is the verdict.
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
        let qcfg = QueryConfig::default();
        let plans = compile_definition(&world.db, &definition, &CompileConfig::default());
        prop_assert!(plans.is_fully_compiled(), "seed {}: {:?}", world.seed, plans.declined());
        let mut scratch = ExecScratch::default();
        for example in &world.examples {
            prop_assert_eq!(
                plans.covers_compiled_with(&world.db, &example.args, &mut scratch),
                definition_covers(&world.db, &definition, example, &qcfg),
                "seed {} disagrees on {}",
                world.seed,
                example.render(&world.db)
            );
        }
    }

    /// Long clauses compile, verify clean, and answer like the interpreter:
    /// 33–120 body literals, one clause per world with more than 64
    /// variables, and symmetric star runs of private variables that a
    /// budgeted step→literal matching search could not certify.
    #[test]
    fn long_clauses_compile_verify_and_agree(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..10,
    ) {
        let world = build_long_world(seed, n_consts);
        let qcfg = QueryConfig::default();
        let definition = Definition {
            clauses: world.clauses.clone(),
        };
        let plans = compile_definition(&world.db, &definition, &CompileConfig::default());
        prop_assert!(plans.is_fully_compiled(), "seed {}: {:?}", world.seed, plans.declined());
        prop_assert!(plans.verify_report().is_clean(), "{}", plans.verify_report().render_text());
        prop_assert!(world.clauses.iter().any(|c| c.num_vars() > 64));
        // One scratch across every plan: buffers grow to the largest.
        let mut scratch = ExecScratch::default();
        for (ci, (clause, plan)) in world.clauses.iter().zip(plans.plans()).enumerate() {
            prop_assert!((33..=120).contains(&clause.body.len()));
            let report = verify_clause(&world.db, clause, plan, ci);
            prop_assert!(report.is_clean(), "seed {}: {}", world.seed, report.render_text());
            for example in &world.examples {
                prop_assert_eq!(
                    plan.covers_with(&world.db, &example.args, &mut scratch),
                    clause_covers(&world.db, clause, example, &qcfg),
                    "seed {} disagrees on {} for {}",
                    world.seed,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
            }
        }
        for example in &world.examples {
            prop_assert_eq!(
                plans.covers_compiled_with(&world.db, &example.args, &mut scratch),
                definition_covers(&world.db, &definition, example, &qcfg)
            );
        }
    }
}

/// A world for long clauses. `f` is a permutation of the constants, so a
/// chain `f(a, b)` from a bound variable has exactly one candidate; `g`
/// gives every constant two or more `g(_, c)` tuples, so a star literal
/// `g(v, h)` on a bound hub always has candidates, all interchangeable
/// because `v` is private. The only choice points are therefore private,
/// and the verdict rests on the checks (`u`, joins, constants). A plan
/// backjumps over private runs and the interpreter's candidate pass
/// refutes through them, so neither engine's search comes near its node
/// budget and verdicts are compared exactly. The budget regime, where a
/// plain backtracking walk would run out, has its own directed case:
/// `private_star_backjumps_to_its_hub_within_the_budget`.
fn build_long_world(seed: u64, n_consts: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let f = db.add_relation("f", &["a", "b"]);
    let g = db.add_relation("g", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    let names: Vec<String> = (0..n_consts).map(|i| format!("c{i}")).collect();
    for name in &names {
        db.insert(t, &[name, name]);
    }
    let mut perm: Vec<usize> = (0..n_consts).collect();
    for i in (1..n_consts).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    for (a, &b) in perm.iter().enumerate() {
        db.insert(f, &[&names[a], &names[b]]);
    }
    for b in &names {
        for _ in 0..rng.random_range(2..4usize) {
            db.insert(g, &[&names[rng.random_range(0..n_consts)], b]);
        }
    }
    for name in &names {
        if rng.random_range(0..4u32) != 0 {
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
    let rels = [f, g, u, t];
    let clauses = vec![
        long_clause(&mut rng, rels, &consts, 33..=120, 0),
        // At most 56 literals before padding to 65 variables with a star
        // run, so the clause stays within 120 literals.
        long_clause(&mut rng, rels, &consts, 33..=56, 65),
        long_clause(&mut rng, rels, &consts, 80..=120, 0),
    ];
    World {
        db,
        examples,
        clauses,
        seed,
    }
}

/// A head-connected clause with a body length drawn from `len`, then
/// padded with a star run on `x` until it has at least `min_vars` variables:
/// chains `f(a, b)` binding a fresh variable from a bound one, star runs
/// `g(v_i, h)` of private variables on a bound hub, and checks — `u(a)`,
/// `f(a, b)` between bound variables, `f(a, c)` against a constant — that
/// decide the verdict.
fn long_clause(
    rng: &mut StdRng,
    [f, g, u, t]: [RelId; 4],
    consts: &[Const],
    len: std::ops::RangeInclusive<usize>,
    min_vars: u32,
) -> Clause {
    let var = |i: u32| Term::Var(VarId(i));
    // Variables a literal may read: the head's and the chains'.
    let mut bound: Vec<u32> = vec![0, 1];
    let mut next = 2u32;
    let mut body = Vec::new();
    let target_len = rng.random_range(len);
    while body.len() < target_len {
        let hub = var(bound[rng.random_range(0..bound.len())]);
        match rng.random_range(0..8u32) {
            0..=2 => {
                body.push(Literal::new(f, vec![hub, var(next)]));
                bound.push(next);
                next += 1;
            }
            3..=5 => {
                for _ in 0..rng.random_range(2..=8usize).min(target_len - body.len()) {
                    body.push(Literal::new(g, vec![var(next), hub]));
                    next += 1;
                }
            }
            6 => body.push(Literal::new(u, vec![hub])),
            _ => {
                let other = if rng.random_range(0..3u32) == 0 {
                    Term::Const(consts[rng.random_range(0..consts.len())])
                } else {
                    var(bound[rng.random_range(0..bound.len())])
                };
                body.push(Literal::new(f, vec![hub, other]));
            }
        }
    }
    while next < min_vars {
        body.push(Literal::new(g, vec![var(next), var(0)]));
        next += 1;
    }
    Clause::new(Literal::new(t, vec![var(0), var(1)]), body)
}

/// The budget regime the long-world generator steers clear of: a hub with
/// two candidates, a star of sixteen private variables on it, then a
/// fresh-variable literal that fails for the first hub and holds for the
/// second. Each star literal has three interchangeable candidates, so
/// retrying the star for the first hub before moving on would take 3^16
/// nodes, far past the budget, and answer a wrong `false`. The plan must
/// backjump from the failing literal straight to the hub, as the
/// interpreter's candidate pass refutes the first hub at once, and both
/// engines must find the witness behind the second.
#[test]
fn private_star_backjumps_to_its_hub_within_the_budget() {
    let mut db = Database::new();
    let a = db.add_relation("a", &["x", "h"]);
    let g = db.add_relation("g", &["v", "h"]);
    let k = db.add_relation("k", &["h", "w"]);
    let t = db.add_relation("t", &["x", "y"]);
    db.insert(t, &["x0", "y0"]);
    db.insert(a, &["x0", "h1"]);
    db.insert(a, &["x0", "h2"]);
    for h in ["h1", "h2"] {
        for v in ["v0", "v1", "v2"] {
            db.insert(g, &[v, h]);
        }
    }
    // Many `k` tuples per hub, so the compiler orders `k` after the star.
    for w in 0..10 {
        db.insert(k, &["h2", &format!("w{w}")]);
    }

    let var = |n: u32| Term::Var(VarId(n));
    let mut body = vec![Literal::new(a, vec![var(0), var(2)])];
    body.extend((3..19).map(|i| Literal::new(g, vec![var(i), var(2)])));
    body.push(Literal::new(k, vec![var(2), var(19)]));
    let clause = Clause::new(Literal::new(t, vec![var(0), var(1)]), body);
    let definition = Definition {
        clauses: vec![clause.clone()],
    };

    let plans = compile_definition(&db, &definition, &CompileConfig::default());
    assert!(plans.is_fully_compiled());
    let explained = plan::explain_text(&db, &[], &definition, &plans, None);
    let order: Vec<&str> = explained.lines().filter(|l| l.contains(" step ")).collect();
    assert!(
        order.first().unwrap().contains("probe a") && order.last().unwrap().contains("probe k"),
        "the hub opens the plan and the failing literal closes it:\n{explained}"
    );

    let example = Example::new(t, vec![db.lookup("x0").unwrap(), db.lookup("y0").unwrap()]);
    assert!(
        clause_covers(&db, &clause, &example, &QueryConfig::default()),
        "the interpreter finds the witness behind the second hub"
    );
    let mut tally = plan::BatchTally::for_definition(&plans);
    let covered =
        plans.covers_compiled_tallied(&db, &example.args, &mut ExecScratch::default(), &mut tally);
    assert!(covered, "compiled verdict equals the interpreter's");
    let totals = tally.totals();
    assert_eq!(totals.node_limit_hits, 0);
    assert_eq!(totals.backtracks, 1, "one dead end, one jump to the hub");
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

//! Property suite for the plan-observability layer: on randomized worlds,
//! (1) the EXPLAIN / EXPLAIN ANALYZE JSON document round-trips through
//! `obs::json` byte-identically (parse, re-render, compare), and (2) the
//! per-operator runtime tallies satisfy their flow-conservation
//! invariants — what one step emits is exactly what the next step enters,
//! and per-variant match counts sum to the clause's match count.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::clause::{Clause, Definition, Literal, Term, VarId};
use obs::json::Json;
use plan::{compile_definition, Analyzed, BatchTally, CompileConfig, ExecScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Const, Database, RelId};

struct World {
    db: Database,
    tuples: Vec<[Const; 2]>,
    definition: Definition,
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
    let tuples: Vec<[Const; 2]> = (0..8)
        .map(|_| {
            let (a, b) = (rng.random_range(0..n_consts), rng.random_range(0..n_consts));
            [consts[a], consts[b]]
        })
        .collect();
    let clauses: Vec<Clause> = (0..5)
        .map(|_| random_clause(&mut rng, rels, &consts))
        .collect();
    World {
        db,
        tuples,
        definition: Definition { clauses },
        seed,
    }
}

/// Same undisciplined clause generator as `compiled_vs_interpreted`:
/// disconnected components, repeated variables, body constants, and free
/// variables all stress the rendering and the tallies.
fn random_clause(rng: &mut StdRng, rels: Rels, consts: &[Const]) -> Clause {
    let term = |rng: &mut StdRng| {
        if rng.random_range(0..5u32) == 0 {
            Term::Const(consts[rng.random_range(0..consts.len())])
        } else {
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
    Clause::new(
        Literal::new(rels.t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
        body,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// EXPLAIN and EXPLAIN ANALYZE emit canonical JSON: parsing with
    /// `obs::json` and re-rendering reproduces the exact bytes. Runs on the
    /// world's definition and on a copy with an arity-mismatched clause
    /// spliced in — the decline the compiler can still produce — so the
    /// document mixes compiled and declined clauses.
    #[test]
    fn explain_json_round_trips_byte_identically(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_r in 0usize..16,
        n_s in 0usize..16,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let (u, t) = (world.db.rel_id("u").unwrap(), world.db.rel_id("t").unwrap());
        let head = Literal::new(t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let unary_used_binary = Literal::new(u, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let mut mixed = world.definition.clone();
        mixed.clauses.insert(
            mixed.clauses.len() / 2,
            Clause::new(head, vec![unary_used_binary]),
        );
        for definition in [&world.definition, &mixed] {
            let plans = compile_definition(&world.db, definition, &CompileConfig::default());
            prop_assert_eq!(
                plans.num_declined(),
                definition.clauses.len() - world.definition.clauses.len()
            );
            let mut tally = BatchTally::for_definition(&plans);
            let mut scratch = ExecScratch::default();
            for args in &world.tuples {
                let _ = plans.covers_compiled_tallied(&world.db, args, &mut scratch, &mut tally);
            }
            for analyzed in [None, Some(Analyzed { tally: &tally, batches: 1 })] {
                let json = plan::explain(
                    &world.db, Some("w"), &[], definition, &plans, analyzed,
                ).to_string();
                let parsed = Json::parse(&json)
                    .unwrap_or_else(|e| panic!("seed {}: invalid JSON: {e}", world.seed));
                prop_assert_eq!(
                    parsed.to_string(), json.clone(),
                    "seed {} does not round-trip", world.seed
                );
                let clauses = parsed.get("clauses").unwrap().as_arr().unwrap();
                prop_assert_eq!(clauses.len(), definition.clauses.len());
            }
        }
    }

    /// Flow conservation of the runtime tallies: variant selections enter
    /// step 0, each step's emissions are the next step's entries, final-step
    /// emissions across variants sum to the clause's matches, and no step
    /// classifies more candidates than it saw.
    #[test]
    fn tallies_sum_consistently_across_variants(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_r in 0usize..16,
        n_s in 0usize..16,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let plans = compile_definition(&world.db, &world.definition, &CompileConfig::default());
        let mut tally = BatchTally::for_definition(&plans);
        let mut scratch = ExecScratch::default();
        for args in &world.tuples {
            let _ = plans.covers_compiled_tallied(&world.db, args, &mut scratch, &mut tally);
        }
        for (plan, ct) in plans.plans().iter().zip(&tally.clauses) {
            let selected: u64 = ct.variants.iter().map(|v| v.selected).sum();
            prop_assert!(
                selected <= ct.evals,
                "seed {}: selected {selected} > evals {}", world.seed, ct.evals
            );
            let all_nonempty = (0..plan.num_variants()).all(|vi| plan.variant_len(vi) > 0);
            let mut last_emitted = 0u64;
            for vt in &ct.variants {
                if let Some(first) = vt.steps.first() {
                    prop_assert_eq!(
                        first.entries, vt.selected,
                        "seed {}: step 0 entries != selections", world.seed
                    );
                }
                for w in vt.steps.windows(2) {
                    prop_assert_eq!(
                        w[1].entries, w[0].emitted,
                        "seed {}: step entries != upstream emissions", world.seed
                    );
                }
                for st in &vt.steps {
                    prop_assert!(
                        st.emitted + st.rejected <= st.candidates,
                        "seed {}: emitted+rejected > candidates", world.seed
                    );
                }
                if let Some(last) = vt.steps.last() {
                    last_emitted += last.emitted;
                }
            }
            if all_nonempty {
                prop_assert_eq!(
                    last_emitted, ct.matches,
                    "seed {}: final emissions != matches", world.seed
                );
            }
        }
    }
}

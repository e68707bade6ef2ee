//! Differential test oracle for coverage testing: on randomly generated
//! databases, θ-subsumption against a *full* (unsampled) depth-2 ground
//! bottom clause with an unbounded search budget must agree with exact
//! SPJ evaluation (`autobias::query::clause_covers`) on every example —
//! the paper's §5 equivalence, checked as a property instead of on one
//! hand-picked instance.
//!
//! The equivalence only holds for clauses *within the language bias*: every
//! body literal must conform to a mode and introduce variables within the
//! BC depth. The clause generator therefore chains literals mode-by-mode,
//! tracking each variable's introduction depth, exactly the shape armg
//! candidates have during learning.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Const, Database, RelId};

/// Schema: `r(a, b)` joined forward, `s(a, b)` joined either way, unary
/// `u(a)`, and the target `t(a, b)`. Single type so everything can join.
const BIAS_TEXT: &str = "
pred r(T1, T1)
pred s(T1, T1)
pred u(T1)
pred t(T1, T1)
mode r(+, -)
mode s(+, -)
mode s(-, +)
mode u(+)
";

struct World {
    db: Database,
    bias: LanguageBias,
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
    // Intern every constant so examples can name it; the target relation's
    // contents are never probed (no mode on `t`), so this is inert.
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

    let consts: Vec<_> = names.iter().map(|n| db.lookup(n).unwrap()).collect();
    let examples: Vec<Example> = (0..5)
        .map(|_| {
            let (a, b) = (rng.random_range(0..n_consts), rng.random_range(0..n_consts));
            Example::new(t, vec![consts[a], consts[b]])
        })
        .collect();
    let clauses: Vec<Clause> = (0..6).map(|_| random_clause(&mut rng, rels)).collect();
    let bias = parse_bias(&db, t, BIAS_TEXT).unwrap();
    World {
        db,
        bias,
        examples,
        clauses,
        seed,
    }
}

/// A random clause inside the depth-2 mode language: each literal's `+`
/// argument is an existing variable of introduction depth ≤ 1 (so the tuples
/// witnessing it are collected within two BC expansion rounds), and output
/// positions either introduce a fresh variable or rejoin an existing one.
fn random_clause(rng: &mut StdRng, rels: Rels) -> Clause {
    // depth[v] = introduction depth of variable v; 0 and 1 are the head vars.
    let mut depth: Vec<usize> = vec![0, 0];
    let mut body = Vec::new();
    for _ in 0..rng.random_range(0..=3usize) {
        let eligible: Vec<u32> = (0..depth.len() as u32)
            .filter(|&v| depth[v as usize] <= 1)
            .collect();
        let input = VarId(eligible[rng.random_range(0..eligible.len())]);
        let out_depth = depth[input.0 as usize] + 1;
        match rng.random_range(0..4u32) {
            0 => {
                let out = out_term(rng, &mut depth, out_depth);
                body.push(Literal::new(rels.r, vec![Term::Var(input), out]));
            }
            1 => {
                let out = out_term(rng, &mut depth, out_depth);
                body.push(Literal::new(rels.s, vec![Term::Var(input), out]));
            }
            2 => {
                let out = out_term(rng, &mut depth, out_depth);
                body.push(Literal::new(rels.s, vec![out, Term::Var(input)]));
            }
            _ => body.push(Literal::new(rels.u, vec![Term::Var(input)])),
        }
    }
    Clause::new(
        Literal::new(rels.t, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
        body,
    )
}

/// An output (`-`) position: half the time a fresh variable at `out_depth`,
/// half the time a rejoin of any existing variable (output positions never
/// feed BC probes, so rejoining even a depth-2 variable stays in-language).
fn out_term(rng: &mut StdRng, depth: &mut Vec<usize>, out_depth: usize) -> Term {
    if depth.len() > 2 && rng.random_range(0..2u32) == 0 {
        Term::Var(VarId(rng.random_range(0..depth.len() as u32)))
    } else {
        let v = VarId(depth.len() as u32);
        depth.push(out_depth);
        Term::Var(v)
    }
}

fn full_bc(world: &World, example: &Example, rng: &mut StdRng) -> GroundClause {
    build_bottom_clause(
        &world.db,
        &world.bias,
        example,
        &BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_tuples: 1_000_000,
            max_body_literals: 1_000_000,
        },
        rng,
    )
    .ground
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core differential property: for every (clause, example) pair,
    /// unbounded θ-subsumption against the full ground BC and exact SPJ
    /// evaluation return the same answer.
    #[test]
    fn subsumption_against_full_bc_agrees_with_spj(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bac_1e55);
        let qcfg = QueryConfig::default();
        let scfg = SubsumeConfig::unbounded();
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                let by_subsumption = theta_subsumes(clause, &bc, &scfg);
                let by_query = clause_covers(&world.db, clause, example, &qcfg);
                prop_assert_eq!(
                    by_subsumption,
                    by_query,
                    "seed {} disagrees on {} for {}",
                    world.seed,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
            }
        }
    }

    /// Canonicalization preserves coverage: a clause and its canonical form
    /// are α-equivalent up to body reordering, so both oracles must give the
    /// canonical form the same answer as the original. This is the semantic
    /// justification for scoring canonical forms in place of candidates.
    #[test]
    fn canonical_form_preserves_both_oracles(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca90_11ca);
        let qcfg = QueryConfig::default();
        let scfg = SubsumeConfig::unbounded();
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                let canon = canonical_form(clause);
                prop_assert_eq!(
                    theta_subsumes(clause, &bc, &scfg),
                    theta_subsumes(&canon, &bc, &scfg),
                    "seed {}: subsumption changed under canonicalization of {}",
                    world.seed,
                    clause.render(&world.db)
                );
                prop_assert_eq!(
                    clause_covers(&world.db, clause, example, &qcfg),
                    clause_covers(&world.db, &canon, example, &qcfg),
                    "seed {}: SPJ answer changed under canonicalization of {}",
                    world.seed,
                    clause.render(&world.db)
                );
            }
        }
    }

    /// Canonicalization renames only and is idempotent when complete: every
    /// canonical form is an α-variant of its input, and a complete form
    /// ([`canonical_form_status`]) is its own canonical form — over clauses
    /// with gapped variable ids, symmetric same-relation siblings, large
    /// tied sibling groups, and bodies over `CANON_MAX_LITERALS`. An
    /// incomplete form (individualization cut off by its trial cap) need not
    /// be a fixpoint, but canonicalizing it again still only renames. The
    /// coverage engine's rewrite is `canonical_form` up to
    /// `CANON_MAX_LITERALS` and passes larger bodies through unchanged, so
    /// it is a fixpoint on those. This is what the scoring entry points
    /// rely on when they trust a `Canonical` clause.
    #[test]
    fn canonical_form_renames_only_and_is_idempotent_when_complete(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let rels = Rels {
            r: world.db.rel_id("r").unwrap(),
            s: world.db.rel_id("s").unwrap(),
            u: world.db.rel_id("u").unwrap(),
            t: world.db.rel_id("t").unwrap(),
        };
        let train = TrainingSet::new(world.examples.clone(), Vec::new());
        let bc_cfg = BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_tuples: 1_000,
            max_body_literals: 1_000,
        };
        let engine = CoverageEngine::build(
            &world.db, &world.bias, &train, &bc_cfg, SubsumeConfig::default(), seed,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1de4_907e);
        for clause in &world.clauses {
            for input in canonical_inputs(&mut rng, &world, clause, rels) {
                let (canon, complete) = canonical_form_status(&input);
                prop_assert!(
                    alpha_variant(&input, &canon),
                    "seed {}: canonical form {} is not an α-variant of {}",
                    world.seed,
                    canon.render(&world.db),
                    input.render(&world.db)
                );
                let again = canonical_form(&canon);
                if complete {
                    prop_assert_eq!(
                        &again,
                        &canon,
                        "seed {}: complete canonical form is not a fixpoint for {}",
                        world.seed,
                        input.render(&world.db)
                    );
                } else {
                    prop_assert!(alpha_variant(&canon, &again));
                }
                let once = engine.canonical(&input);
                if input.body.len() > CANON_MAX_LITERALS {
                    prop_assert_eq!(&*once, &input);
                    prop_assert_eq!(&engine.canonical(&once), &once);
                } else {
                    prop_assert_eq!(&*once, &canon);
                }
            }
        }
    }
}

/// The inputs the canonical-form property checks, derived from `clause`:
/// the clause itself; a copy with gapped variable ids (every id `v` becomes
/// `3v + 5`, head included); a copy with symmetric same-relation siblings
/// (random literals repeated with each body-only variable replaced by a
/// fresh one, so the copies tie under color refinement); a copy with one to
/// three groups of 2 to 15 symmetric sibling gadgets `rel(z_i, a)`, each
/// optionally joined by `rel(z_i, c)` or `u(z_i)` (large tied classes,
/// enough to exhaust the individualization trial cap); and a star of
/// `CANON_MAX_LITERALS + 1` siblings `r(x, v_i)` appended to the clause,
/// the size at which the coverage engine passes clauses through unchanged.
/// Every copy's body is shuffled.
fn canonical_inputs(rng: &mut StdRng, world: &World, clause: &Clause, rels: Rels) -> Vec<Clause> {
    let gap = |t: &Term| match *t {
        Term::Var(v) => Term::Var(VarId(3 * v.0 + 5)),
        c => c,
    };
    let regap = |l: &Literal| Literal::new(l.rel, l.args.iter().map(gap).collect::<Vec<_>>());
    let gapped = Clause::new(regap(&clause.head), clause.body.iter().map(regap).collect());

    let head_vars: Vec<VarId> = clause.head.vars().collect();
    let mut next = clause.num_vars();
    let mut siblings = clause.clone();
    for _ in 0..rng.random_range(1..=3usize) {
        let Some(lit) = clause
            .body
            .get(rng.random_range(0..clause.body.len().max(1)))
        else {
            break;
        };
        let args: Vec<Term> = lit
            .args
            .iter()
            .map(|&t| match t {
                Term::Var(v) if !head_vars.contains(&v) => {
                    next += 1;
                    Term::Var(VarId(next - 1))
                }
                t => t,
            })
            .collect();
        siblings.body.push(Literal::new(lit.rel, args));
    }

    let mut groups = clause.clone();
    let mut next = groups.num_vars();
    let constants: Vec<Const> = (0..3)
        .map(|i| world.db.lookup(&format!("c{i}")).unwrap())
        .collect();
    for _ in 0..rng.random_range(1..=3usize) {
        let anchor = Term::Var(VarId(rng.random_range(0..next)));
        let rel = [rels.r, rels.s][rng.random_range(0..2usize)];
        let extra = rng.random_range(0..3u32);
        let c = Term::Const(constants[rng.random_range(0..constants.len())]);
        for _ in 0..rng.random_range(2..16usize) {
            let z = Term::Var(VarId(next));
            next += 1;
            groups.body.push(Literal::new(rel, vec![z, anchor]));
            match extra {
                0 => groups.body.push(Literal::new(rel, vec![z, c])),
                1 => groups.body.push(Literal::new(rels.u, vec![z])),
                _ => {}
            }
        }
    }

    let mut oversized = clause.clone();
    let start = oversized.num_vars();
    for i in 0..=CANON_MAX_LITERALS as u32 {
        oversized.body.push(Literal::new(
            rels.r,
            vec![Term::Var(VarId(0)), Term::Var(VarId(start + i))],
        ));
    }
    let mut inputs = vec![clause.clone(), gapped, siblings, groups, oversized];
    for input in &mut inputs {
        for i in (1..input.body.len()).rev() {
            input.body.swap(i, rng.random_range(0..=i));
        }
    }
    inputs
}

/// Body-size threshold above which `CoverageEngine::canonical` passes a
/// clause through unchanged (mirrors the engine's private constant).
const CANON_MAX_LITERALS: usize = 512;

/// Per-variable structural signatures after `rounds` rounds of refinement:
/// head positions first, then each round hashes the sorted occurrences
/// (relation, position, and the previous signatures or constants beside
/// it). Renaming variables and reordering the body permute the signatures
/// along, so α-variants agree on them.
fn var_signatures(c: &Clause, rounds: usize) -> Vec<u64> {
    use std::hash::{Hash, Hasher};
    let hash = |x: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x(&mut h);
        h.finish()
    };
    let mut sig = vec![0u64; c.num_vars() as usize];
    for (p, t) in c.head.args.iter().enumerate() {
        if let Term::Var(v) = t {
            sig[v.index()] = hash(&|h| (sig[v.index()], p).hash(h));
        }
    }
    for _ in 0..rounds {
        let mut occ: Vec<Vec<u64>> = vec![Vec::new(); sig.len()];
        for l in &c.body {
            let ctx: Vec<u64> = l
                .args
                .iter()
                .map(|t| match *t {
                    Term::Const(k) => hash(&|h| (1u8, k.0).hash(h)),
                    Term::Var(w) => sig[w.index()],
                })
                .collect();
            for (p, t) in l.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    occ[v.index()].push(hash(&|h| (l.rel.0, p, &ctx).hash(h)));
                }
            }
        }
        sig = occ
            .iter_mut()
            .zip(&sig)
            .map(|(o, &s)| {
                o.sort_unstable();
                hash(&|h| (s, &*o).hash(h))
            })
            .collect();
    }
    sig
}

/// Whether `b` is an α-variant of `a`: some injective variable renaming maps
/// `a`'s head onto `b`'s and `a`'s body onto a permutation of `b`'s. A
/// backtracking match that always extends the literal of `a` with the most
/// already-renamed variables, so a literal joined to a matched one is
/// checked right away, and that only renames a variable to one with the
/// same structural signature ([`var_signatures`]), so a wrong pairing fails
/// at once instead of deep in the search.
fn alpha_variant(a: &Clause, b: &Clause) -> bool {
    struct Matcher<'c> {
        a: &'c [Literal],
        b: &'c [Literal],
        sig_a: Vec<u64>,
        sig_b: Vec<u64>,
        ab: Vec<Option<VarId>>,
        ba: Vec<Option<VarId>>,
        a_done: Vec<bool>,
        b_used: Vec<bool>,
        trail: Vec<VarId>,
    }
    impl Matcher<'_> {
        /// Extends the renaming so that `l` maps onto `m`; on failure the
        /// renaming is left as it was.
        fn bind(&mut self, l: &Literal, m: &Literal) -> bool {
            let mark = self.trail.len();
            let ok = l.rel == m.rel
                && l.args.len() == m.args.len()
                && l.args
                    .iter()
                    .zip(m.args.iter())
                    .all(|(s, t)| match (*s, *t) {
                        (Term::Const(x), Term::Const(y)) => x == y,
                        (Term::Var(x), Term::Var(y)) => {
                            match (self.ab[x.index()], self.ba[y.index()]) {
                                (None, None) if self.sig_a[x.index()] == self.sig_b[y.index()] => {
                                    self.ab[x.index()] = Some(y);
                                    self.ba[y.index()] = Some(x);
                                    self.trail.push(x);
                                    true
                                }
                                (Some(y2), Some(x2)) => y2 == y && x2 == x,
                                _ => false,
                            }
                        }
                        _ => false,
                    });
            if !ok {
                self.undo(mark);
            }
            ok
        }

        fn undo(&mut self, mark: usize) {
            for x in self.trail.drain(mark..) {
                let y = self.ab[x.index()].take().expect("bound on the trail");
                self.ba[y.index()] = None;
            }
        }

        fn search(&mut self) -> bool {
            let renamed = |l: &Literal, ab: &[Option<VarId>]| {
                l.vars().filter(|v| ab[v.index()].is_some()).count()
            };
            let Some(i) = (0..self.a.len())
                .filter(|&i| !self.a_done[i])
                .max_by_key(|&i| (renamed(&self.a[i], &self.ab), std::cmp::Reverse(i)))
            else {
                return true;
            };
            self.a_done[i] = true;
            for j in 0..self.b.len() {
                if self.b_used[j] {
                    continue;
                }
                let mark = self.trail.len();
                if self.bind(&self.a[i], &self.b[j]) {
                    self.b_used[j] = true;
                    if self.search() {
                        return true;
                    }
                    self.b_used[j] = false;
                    self.undo(mark);
                }
            }
            self.a_done[i] = false;
            false
        }
    }
    if a.body.len() != b.body.len() {
        return false;
    }
    let mut m = Matcher {
        a: &a.body,
        b: &b.body,
        sig_a: var_signatures(a, 2),
        sig_b: var_signatures(b, 2),
        ab: vec![None; a.num_vars() as usize],
        ba: vec![None; b.num_vars() as usize],
        a_done: vec![false; a.body.len()],
        b_used: vec![false; b.body.len()],
        trail: Vec::new(),
    };
    m.bind(&a.head, &b.head) && m.search()
}

/// Directed companion to the property: on a fixed world where coverage is
/// known by construction, both oracles answer exactly as expected — guards
/// against the property passing vacuously (e.g. everything uncovered).
#[test]
fn oracles_agree_on_known_world() {
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
    let bias = parse_bias(&db, t, BIAS_TEXT).unwrap();

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
    let x = db.lookup("x").unwrap();
    let y = db.lookup("y").unwrap();
    let x2 = db.lookup("x2").unwrap();
    let y2 = db.lookup("y2").unwrap();
    let cases = [
        (Example::new(t, vec![x, y]), true),    // full chain with u
        (Example::new(t, vec![x2, y2]), false), // chain but no u(m2)
        (Example::new(t, vec![x, y2]), false),  // chains don't cross
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let scfg = SubsumeConfig::unbounded();
    let qcfg = QueryConfig::default();
    for (example, expected) in &cases {
        let bc = build_bottom_clause(
            &db,
            &bias,
            example,
            &BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_tuples: 1_000_000,
                max_body_literals: 1_000_000,
            },
            &mut rng,
        )
        .ground;
        assert_eq!(
            theta_subsumes(&clause, &bc, &scfg),
            *expected,
            "subsumption wrong on {}",
            example.render(&db)
        );
        assert_eq!(
            clause_covers(&db, &clause, example, &qcfg),
            *expected,
            "SPJ wrong on {}",
            example.render(&db)
        );
    }
}

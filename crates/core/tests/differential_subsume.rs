//! Differential test oracle for θ-subsumption: on randomly generated
//! databases, the bitset forward-checking CSP with an unbounded budget must
//! agree with exact SPJ evaluation against full depth-2 ground bottom
//! clauses, and a budgeted search may only ever lose "covered" answers,
//! never invent them (paper §5).
//!
//! The clause generator chains literals mode-by-mode (as in
//! `differential_coverage.rs`), which also produces bodies that split into
//! several connected components over unbound variables — literals touching
//! only head variables detach from each other once the head binds — so the
//! component-decomposition path is exercised by the property itself and by
//! a directed multi-component test below. A second, star-heavy generator
//! (`star_clause`) builds the bodies armg leaves behind — hubs carrying runs
//! of private-leaf literals, duplicates, repeated private variables and
//! constants — so the private-variable fold is held to the same oracle.
//! A clause prepared once ([`PreparedClause`]) and shared by several
//! workers must answer every example of a batch as a fresh test does.
//! Probes from a [`Witness`] (armg's blocking-atom search) may only gain
//! "covered" answers the exact relation grants, and answer exactly under
//! an unbounded budget.

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

/// A random clause inside the depth-2 mode language (see
/// `differential_coverage.rs` for the depth-tracking rationale).
fn random_clause(rng: &mut StdRng, rels: Rels) -> Clause {
    let mut depth: Vec<usize> = vec![0, 0];
    let mut body = Vec::new();
    for _ in 0..rng.random_range(0..=4usize) {
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

    /// The differential property: for every (clause, example) pair, the
    /// unbounded subsumption search and exact SPJ evaluation agree.
    #[test]
    fn subsumption_agrees_with_spj(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005b_5e17);
        let qcfg = QueryConfig::default();
        let scfg = SubsumeConfig::unbounded();
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                prop_assert_eq!(
                    theta_subsumes(clause, &bc, &scfg),
                    clause_covers(&world.db, clause, example, &qcfg),
                    "seed {}: subsumption vs SPJ on {} for {}",
                    world.seed,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
            }
        }
    }

    /// Budgeted searches stay one-sided: any "covered" from a tightly
    /// budgeted run is confirmed by exact SPJ evaluation.
    #[test]
    fn budgets_are_one_sided(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
        node_limit in 1usize..40,
    ) {
        let world = build_world(seed, n_consts, n_r, n_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b1d);
        let qcfg = QueryConfig::default();
        let tight = SubsumeConfig { node_limit };
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                if theta_subsumes(clause, &bc, &tight) {
                    prop_assert!(
                        clause_covers(&world.db, clause, example, &qcfg),
                        "seed {}: false \"covered\" under budget {} on {} for {}",
                        world.seed,
                        node_limit,
                        example.render(&world.db),
                        clause.render(&world.db)
                    );
                }
            }
        }
    }
}

/// Directed decomposition test: a body that splits into three independent
/// components once the head binds — two satisfiable, one not — must be
/// rejected, and becomes accepted when the failing component is dropped.
/// Guards the per-component conjunction: solving components independently
/// must still require *every* component.
#[test]
fn decomposition_preserves_the_conjunction() {
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    db.insert(r, &["x", "m"]); // component 1: r(V0, F1) — satisfiable
    db.insert(s, &["y", "k"]); // component 2: s(V1, F2) — satisfiable
    db.insert(u, &["z"]); // component 3: u(V0) — x is NOT in u
    let x = db.lookup("x").unwrap();
    let y = db.lookup("y").unwrap();

    let ground = GroundClause::new(
        Example::new(t, vec![x, y]),
        vec![
            GroundLiteral {
                rel: r,
                vals: vec![x, db.lookup("m").unwrap()].into(),
            },
            GroundLiteral {
                rel: s,
                vals: vec![y, db.lookup("k").unwrap()].into(),
            },
            GroundLiteral {
                rel: u,
                vals: vec![db.lookup("z").unwrap()].into(),
            },
        ],
    );

    let v = |n| Term::Var(VarId(n));
    // Three components over unbound vars: {F2}, {F3}, and the var-free u(V0).
    let failing = Clause::new(
        Literal::new(t, vec![v(0), v(1)]),
        vec![
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(s, vec![v(1), v(3)]),
            Literal::new(u, vec![v(0)]), // u(x) does not hold
        ],
    );
    let passing = Clause::new(
        Literal::new(t, vec![v(0), v(1)]),
        vec![
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(s, vec![v(1), v(3)]),
        ],
    );
    let cfg = SubsumeConfig::unbounded();
    assert!(
        !theta_subsumes(&failing, &ground, &cfg),
        "accepted a clause whose third component fails"
    );
    assert!(
        theta_subsumes(&passing, &ground, &cfg),
        "rejected a clause with two satisfiable components"
    );
}

/// Integration-level seed stability: the answer for a (clause, ground BC)
/// pair does not depend on how many other subsumption tests ran before it.
/// Runs the whole differential workload twice — once fresh, once after a
/// burn-in pass over shuffled pairs — and demands identical answer vectors.
#[test]
fn answers_do_not_depend_on_test_history() {
    let world = build_world(0xfeed_5eed, 7, 12, 12);
    let mut rng = StdRng::seed_from_u64(1);
    let bcs: Vec<GroundClause> = world
        .examples
        .iter()
        .map(|e| full_bc(&world, e, &mut rng))
        .collect();
    let cfg = SubsumeConfig { node_limit: 50 };
    let run = || -> Vec<bool> {
        let mut out = Vec::new();
        for bc in &bcs {
            for clause in &world.clauses {
                out.push(theta_subsumes(clause, bc, &cfg));
            }
        }
        out
    };
    let fresh = run();
    // Burn-in: interleave unrelated tests, then re-ask in reverse order.
    for clause in world.clauses.iter().rev() {
        for bc in bcs.iter().rev() {
            theta_subsumes(clause, bc, &cfg);
        }
    }
    let again = run();
    assert_eq!(fresh, again, "history-dependent answers under a budget");
}

/// Every prefix length of `clause` probed through one shared [`PrefixProbe`]
/// answers exactly what `theta_subsumes` answers on the materialized prefix
/// clause, under `cfg`. Lengths are probed longest-first and then again
/// shortest-first, so each answer is checked both before and after the
/// probe's candidate table has been filled past it.
fn assert_prefix_probe_matches(clause: &Clause, bc: &GroundClause, cfg: &SubsumeConfig) {
    let n = clause.body.len();
    let expected: Vec<bool> = (0..=n)
        .map(|len| {
            let prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
            theta_subsumes(&prefix, bc, cfg)
        })
        .collect();
    let mut probe = PrefixProbe::new(clause, bc);
    let lengths = (0..=n).rev().chain(0..=n);
    for len in lengths {
        assert_eq!(
            probe.covers(len, cfg),
            expected[len],
            "prefix {len} of a {n}-literal clause under {cfg:?}"
        );
    }
}

/// The probe given a proven length `k` — taken only where `body[..k]`
/// truly covers (unbounded `theta_subsumes`) — skips the components inside
/// `body[..k]` and stays between the two materialized answers for every
/// longer prefix: it keeps every "covered" the materialized prefix gets
/// under `cfg` and claims none that the exact answer denies. Under the
/// unbounded budget the two coincide, so the probe answers exactly. Lengths
/// are probed longest-first and then shortest-first, as in
/// [`assert_prefix_probe_matches`].
fn assert_proven_probe_matches(clause: &Clause, bc: &GroundClause, cfg: &SubsumeConfig) {
    let n = clause.body.len();
    let answers = |cfg: &SubsumeConfig| -> Vec<bool> {
        (0..=n)
            .map(|len| {
                let prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
                theta_subsumes(&prefix, bc, cfg)
            })
            .collect()
    };
    let exact = answers(&SubsumeConfig::unbounded());
    let budgeted = answers(cfg);
    for k in (0..=n).filter(|&k| exact[k]) {
        let mut probe = PrefixProbe::new(clause, bc);
        for len in (k..=n).rev().chain(k..=n) {
            let got = probe.covers_given(len, k, cfg);
            assert!(
                budgeted[len] <= got && got <= exact[len],
                "prefix {len} of a {n}-literal clause given {k} proven under {cfg:?}: \
                 got {got}, budgeted {}, exact {}",
                budgeted[len],
                exact[len]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The prefix probe is `theta_subsumes` on the materialized prefix, for
    /// every prefix length of every generated clause (each extended with an
    /// `r`-literal on a constant no ground literal carries, so the longest
    /// prefixes also take the empty-candidate-list path), under the default
    /// and the unbounded budget, and under a tight budget that cuts some
    /// searches off. Given any truly covering prefix as proven, the probe
    /// that skips its components answers exactly under the unbounded budget
    /// and one-sidedly under the others.
    #[test]
    fn prefix_probe_matches_materialized_prefixes(
        seed in 0u64..u64::MAX / 2,
        n_consts in 4usize..9,
        n_r in 0usize..14,
        n_s in 0usize..14,
    ) {
        let mut world = build_world(seed, n_consts, n_r, n_s);
        let r = world.db.rel_id("r").unwrap();
        let absent = world.db.intern("absent");
        for clause in &mut world.clauses {
            clause.body.push(Literal::new(r, vec![Term::Var(VarId(0)), Term::Const(absent)]));
            clause.body.push(Literal::new(r, vec![Term::Var(VarId(1)), Term::Var(VarId(0))]));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_4ef1);
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                for cfg in [
                    SubsumeConfig::default(),
                    SubsumeConfig::unbounded(),
                    SubsumeConfig { node_limit: 12 },
                ] {
                    assert_prefix_probe_matches(clause, &bc, &cfg);
                    assert_proven_probe_matches(clause, &bc, &cfg);
                }
            }
        }
    }
}

/// Directed prefix-probe cases: a head that cannot match the example (every
/// prefix refuted, the empty one included), an empty body (only the empty
/// prefix, covered), and a literal whose candidate list is empty in the
/// middle of the body (prefixes up to it covered, every longer one refuted
/// without a search — even with no node budget).
#[test]
fn prefix_probe_directed_cases() {
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    for (a, b) in [("x", "m"), ("m", "y")] {
        db.insert(r, &[a, b]);
    }
    db.insert(u, &["m"]);
    let c = |name: &str| db.lookup(name).unwrap();
    let ground = GroundClause::new(
        Example::new(t, vec![c("x"), c("y")]),
        vec![
            GroundLiteral {
                rel: r,
                vals: vec![c("x"), c("m")].into(),
            },
            GroundLiteral {
                rel: r,
                vals: vec![c("m"), c("y")].into(),
            },
            GroundLiteral {
                rel: u,
                vals: vec![c("m")].into(),
            },
        ],
    );
    let v = |n| Term::Var(VarId(n));
    let budgets = [
        SubsumeConfig::default(),
        SubsumeConfig::unbounded(),
        SubsumeConfig { node_limit: 0 },
    ];

    // t(V0, V0) cannot bind the example t(x, y): every prefix is refuted.
    let mismatch = Clause::new(
        Literal::new(t, vec![v(0), v(0)]),
        vec![Literal::new(r, vec![v(0), v(2)])],
    );
    for cfg in &budgets {
        assert_prefix_probe_matches(&mismatch, &ground, cfg);
        let mut probe = PrefixProbe::new(&mismatch, &ground);
        assert!(!probe.covers(0, cfg) && !probe.covers(1, cfg));
    }

    // Empty body: the only prefix is covered.
    let empty = Clause::new(Literal::new(t, vec![v(0), v(1)]), vec![]);
    for cfg in &budgets {
        assert_prefix_probe_matches(&empty, &ground, cfg);
        assert!(PrefixProbe::new(&empty, &ground).covers(0, cfg));
    }

    // t(V0, V1) ← r(V0, V2), u(V2), r(V1, V3), r(V2, V1): the third literal
    // needs an r-tuple starting at y, which the ground BC lacks.
    let blocked = Clause::new(
        Literal::new(t, vec![v(0), v(1)]),
        vec![
            Literal::new(r, vec![v(0), v(2)]),
            Literal::new(u, vec![v(2)]),
            Literal::new(r, vec![v(1), v(3)]),
            Literal::new(r, vec![v(2), v(1)]),
        ],
    );
    for cfg in &budgets[..2] {
        assert_prefix_probe_matches(&blocked, &ground, cfg);
        let mut probe = PrefixProbe::new(&blocked, &ground);
        let answers: Vec<bool> = (0..=4).map(|len| probe.covers(len, cfg)).collect();
        assert_eq!(answers, [true, true, true, false, false]);
    }
    let mut probe = PrefixProbe::new(&blocked, &ground);
    assert!(!probe.covers(3, &budgets[2]) && !probe.covers(4, &budgets[2]));
}

/// Hard instances for the workspace-reuse stream: random bipartite graphs
/// `r` (edges only between even and odd nodes) with unary marks `u`, each
/// ground clause headed `t(0, n)`, and clauses asking for a cycle of length
/// 4 to 9 through `r` (odd cycles do not exist in a bipartite graph, and
/// refuting one takes more than the forward-checking pass's slice, so arc
/// consistency runs), some with a `u` side literal, plus chains from `x`
/// to `y`.
fn graph_instances(rng: &mut StdRng) -> (Vec<Clause>, Vec<GroundClause>) {
    let (r, u, t) = (RelId(0), RelId(1), RelId(9));
    let k = relstore::Const;
    let grounds = (0..3)
        .map(|_| {
            let n = rng.random_range(16..40u32);
            let mut body = Vec::new();
            for _ in 0..3 * n {
                let a = rng.random_range(0..n);
                let b = 2 * rng.random_range(0..n / 2) + (a + 1) % 2;
                body.push(GroundLiteral {
                    rel: r,
                    vals: vec![k(a), k(b)].into(),
                });
            }
            for i in 0..n {
                if rng.random_range(0..3u32) == 0 {
                    body.push(GroundLiteral {
                        rel: u,
                        vals: vec![k(i)].into(),
                    });
                }
            }
            GroundClause::new(Example::new(t, vec![k(0), k(n - 1)]), body)
        })
        .collect();
    let v = |n| Term::Var(VarId(n));
    let clauses = (0..6)
        .map(|i| {
            let len = rng.random_range(4..10u32);
            // Cycle v2 → v3 → … → v(len+1) → v2, or a chain x → … → y.
            let mut body: Vec<Literal> = (0..len)
                .map(|j| {
                    if i % 3 == 2 {
                        let from = if j == 0 { 0 } else { j + 1 };
                        let to = if j + 1 == len { 1 } else { j + 2 };
                        Literal::new(r, vec![v(from), v(to)])
                    } else {
                        let to = if j + 1 == len { 2 } else { j + 3 };
                        Literal::new(r, vec![v(j + 2), v(to)])
                    }
                })
                .collect();
            if rng.random_range(0..2u32) == 0 {
                body.push(Literal::new(u, vec![v(rng.random_range(2..len + 1))]));
            }
            Clause::new(Literal::new(t, vec![v(0), v(1)]), body)
        })
        .collect();
    (clauses, grounds)
}

/// One reused [`Workspace`] answers a shuffled stream of full-clause tests
/// and armg-style prefix probes (the blocking-atom binary search, each ask
/// given the prefix proven so far) over many clauses, ground clauses and
/// budgets, some small enough to cut searches off midway. Every answer must
/// equal the one a fresh test gives: `theta_subsumes` for a full clause or
/// an unproven prefix, and a fresh probe for a prefix with a proven part.
/// A stamp, generation counter, queue flag, undo entry or candidate list
/// leaking from one test into the next would show as a difference.
#[test]
fn reused_workspace_matches_fresh_tests() {
    let budgets = [
        SubsumeConfig { node_limit: 1 },
        SubsumeConfig { node_limit: 3 },
        SubsumeConfig { node_limit: 12 },
        SubsumeConfig { node_limit: 300 },
        SubsumeConfig { node_limit: 2_000 },
        SubsumeConfig::default(),
        SubsumeConfig::unbounded(),
    ];
    let mut ws = Workspace::default();
    let (mut asks, mut lost_to_budget) = (0usize, 0usize);
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed_5a0e ^ seed);
        let world = build_world(seed, 6, 12, 12);
        let mut clauses = world.clauses.clone();
        let mut grounds: Vec<GroundClause> = world
            .examples
            .iter()
            .map(|e| full_bc(&world, e, &mut rng))
            .collect();
        let (hard_clauses, hard_grounds) = graph_instances(&mut rng);
        let first_hard = (clauses.len(), grounds.len());
        clauses.extend(hard_clauses);
        grounds.extend(hard_grounds);
        // Pairs within one family: world clauses on world grounds, chain
        // clauses on graphs. Each pair as a full test and as a probe.
        let mut stream = Vec::new();
        for c in 0..clauses.len() {
            for g in 0..grounds.len() {
                if (c < first_hard.0) != (g < first_hard.1) {
                    continue;
                }
                for b in 0..budgets.len() {
                    stream.push((c, g, b, false));
                    stream.push((c, g, b, true));
                }
            }
        }
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.random_range(0..=i));
        }
        for (c, g, b, as_probe) in stream {
            let (clause, ground, cfg) = (&clauses[c], &grounds[g], &budgets[b]);
            let what = format!("seed {seed}, clause {c}, ground {g}, {cfg:?}");
            if !as_probe {
                let fresh = theta_subsumes(clause, ground, cfg);
                assert_eq!(ws.theta_subsumes(clause, ground, cfg), fresh, "{what}");
                asks += 1;
                if !fresh && theta_subsumes(clause, ground, &SubsumeConfig::unbounded()) {
                    lost_to_budget += 1;
                }
                continue;
            }
            let n = clause.body.len();
            let mut probe = PrefixProbe::with_workspace(clause, ground, &mut ws);
            let mut ask = |len: usize, proven: usize| {
                let got = probe.covers_given(len, proven, cfg);
                let fresh = if proven == 0 {
                    let prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
                    theta_subsumes(&prefix, ground, cfg)
                } else {
                    PrefixProbe::new(clause, ground).covers_given(len, proven, cfg)
                };
                assert_eq!(got, fresh, "{what}: prefix {len} given {proven}");
                asks += 1;
                got
            };
            if ask(n, 0) {
                continue;
            }
            let (mut lo, mut hi) = (0, n);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if ask(mid, lo) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
    }
    assert!(asks > 8_000, "only {asks} asks");
    assert!(
        lost_to_budget > 100,
        "only {lost_to_budget} budget cut-offs were visible in the stream"
    );
}

/// The answers of one prepared clause for every ground clause of a batch,
/// split across `workers` threads that each own a workspace and all read
/// the one [`PreparedClause`], the way evaluation's streaming workers do.
fn prepared_batch(
    clause: &Clause,
    grounds: &[GroundClause],
    cfg: &SubsumeConfig,
    workers: usize,
) -> Vec<bool> {
    let prepared = PreparedClause::new(clause);
    let chunk = grounds.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = grounds
            .chunks(chunk)
            .map(|part| {
                let prepared = &prepared;
                s.spawn(move || {
                    let mut ws = Workspace::default();
                    part.iter()
                        .map(|g| ws.theta_subsumes_prepared(prepared, g, cfg))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One prepared clause, shared by one or four workers, answers every
    /// example of a batch exactly as a fresh `theta_subsumes` does, under
    /// a tight and the unbounded budget. The batches are the differential
    /// worlds, the star-heavy worlds (where most literals fold) and the
    /// bipartite cycle instances (where searches escalate to arc
    /// consistency, so workers build and share the lazy neighbour index).
    #[test]
    fn prepared_clause_answers_a_batch_as_fresh_tests_do(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..9,
        n_edges in 0usize..16,
        node_limit in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e9a);
        let plain = build_world(seed, n_consts, n_edges, n_edges);
        let star = build_star_world(seed, n_consts, n_edges);
        let mut families = Vec::new();
        for world in [&plain, &star] {
            let grounds: Vec<GroundClause> = world
                .examples
                .iter()
                .map(|e| full_bc(world, e, &mut rng))
                .collect();
            families.push((world.clauses.clone(), grounds));
        }
        families.push(graph_instances(&mut rng));
        for (clauses, grounds) in &families {
            for clause in clauses {
                for cfg in [SubsumeConfig { node_limit }, SubsumeConfig::unbounded()] {
                    let fresh: Vec<bool> =
                        grounds.iter().map(|g| theta_subsumes(clause, g, &cfg)).collect();
                    for workers in [1, 4] {
                        prop_assert_eq!(
                            prepared_batch(clause, grounds, &cfg, workers),
                            fresh.clone(),
                            "seed {}, {} workers, {:?}: {:?}",
                            seed,
                            workers,
                            cfg,
                            clause
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Star-heavy clauses: the private-variable fold.
// ---------------------------------------------------------------------------

/// The differential schema plus a ternary `w(a, b, c)`, whose two output
/// positions let a clause repeat one private variable (`w(h, z, z)`)
/// inside the mode language.
const STAR_BIAS_TEXT: &str = "
pred r(T1, T1)
pred s(T1, T1)
pred u(T1)
pred w(T1, T1, T1)
pred t(T1, T1)
mode r(+, -)
mode s(+, -)
mode s(-, +)
mode u(+)
mode w(+, -, -)
";

/// A random database over the star schema with examples and star-heavy
/// clauses (see [`star_clause`]).
fn build_star_world(seed: u64, n_consts: usize, n_edges: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    let s = db.add_relation("s", &["a", "b"]);
    let u = db.add_relation("u", &["a"]);
    let w = db.add_relation("w", &["a", "b", "c"]);
    let t = db.add_relation("t", &["a", "b"]);
    let names: Vec<String> = (0..n_consts).map(|i| format!("c{i}")).collect();
    for name in &names {
        db.insert(t, &[name, name]);
    }
    let pick = |rng: &mut StdRng| rng.random_range(0..n_consts);
    for _ in 0..n_edges {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        db.insert(r, &[&names[a], &names[b]]);
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        db.insert(s, &[&names[a], &names[b]]);
    }
    for _ in 0..n_edges / 2 {
        // A third of the w-tuples repeat their last two values.
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        let c = if rng.random_range(0..3u32) == 0 {
            b
        } else {
            pick(&mut rng)
        };
        db.insert(w, &[&names[a], &names[b], &names[c]]);
    }
    for name in &names {
        if rng.random_range(0..2u32) == 0 {
            db.insert(u, &[name]);
        }
    }
    let consts: Vec<_> = names.iter().map(|n| db.lookup(n).unwrap()).collect();
    let examples: Vec<Example> = (0..4)
        .map(|_| Example::new(t, vec![consts[pick(&mut rng)], consts[pick(&mut rng)]]))
        .collect();
    let clauses = (0..6)
        .map(|_| star_clause(&mut rng, [r, s, u, w, t], &consts))
        .collect();
    let bias = parse_bias(&db, t, STAR_BIAS_TEXT).unwrap();
    World {
        db,
        bias,
        examples,
        clauses,
        seed,
    }
}

/// A 5- to 20-literal clause `t(V0, V1) ← …` inside the depth-2 star mode
/// language, built the way armg leaves its candidates: hub variables (the
/// head's, and depth-1 ones hung off them) carrying runs of private-leaf
/// literals, mixed with leaves shared with an earlier variable, exact
/// duplicates of earlier literals, `w`-literals with a repeated private
/// variable or two distinct ones, constant leaves, and unary `u` checks.
fn star_clause(rng: &mut StdRng, [r, s, u, w, t]: [RelId; 5], consts: &[Const]) -> Clause {
    let v = |n: u32| Term::Var(VarId(n));
    let len = rng.random_range(5..=20usize);
    let mut hubs = vec![0u32, 1];
    let mut next = 2u32;
    let mut body: Vec<Literal> = Vec::new();
    while body.len() < len {
        let hub = v(hubs[rng.random_range(0..hubs.len())]);
        match rng.random_range(0..10u32) {
            0 => {
                let rel = if rng.random_range(0..2u32) == 0 { r } else { s };
                body.push(Literal::new(rel, vec![v(rng.random_range(0..2)), v(next)]));
                hubs.push(next);
                next += 1;
            }
            1..=4 => {
                let kind = rng.random_range(0..3u32);
                for _ in 0..rng.random_range(1..=6u32) {
                    let args = match kind {
                        0 | 1 => vec![hub, v(next)],
                        _ => vec![v(next), hub],
                    };
                    body.push(Literal::new(if kind == 0 { r } else { s }, args));
                    next += 1;
                }
            }
            5 => body.push(Literal::new(r, vec![hub, v(rng.random_range(0..next))])),
            6 if !body.is_empty() => {
                let copy = body[rng.random_range(0..body.len())].clone();
                body.push(copy);
            }
            7 => {
                for _ in 0..rng.random_range(1..=3u32) {
                    let last = if rng.random_range(0..2u32) == 0 {
                        next
                    } else {
                        next + 1
                    };
                    body.push(Literal::new(w, vec![hub, v(next), v(last)]));
                    next = last + 1;
                }
            }
            8 => {
                let k = Term::Const(consts[rng.random_range(0..consts.len())]);
                if rng.random_range(0..2u32) == 0 {
                    body.push(Literal::new(r, vec![hub, k]));
                } else {
                    body.push(Literal::new(w, vec![hub, k, v(next)]));
                    next += 1;
                }
            }
            _ => body.push(Literal::new(u, vec![hub])),
        }
    }
    body.truncate(len);
    Clause::new(Literal::new(t, vec![v(0), v(1)]), body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On star-heavy clauses, where most literals fold, the unbounded
    /// search answers exactly what SPJ evaluation answers; small budgets
    /// only lose "covered" answers; and prefix probes, with and without a
    /// proven part, answer as the materialized prefixes do.
    #[test]
    fn star_clauses_fold_soundly(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..7,
        n_edges in 0usize..16,
        node_limit in 1usize..40,
    ) {
        let world = build_star_world(seed, n_consts, n_edges);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57a2);
        let qcfg = QueryConfig::default();
        let tight = SubsumeConfig { node_limit };
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                let truth = clause_covers(&world.db, clause, example, &qcfg);
                prop_assert_eq!(
                    theta_subsumes(clause, &bc, &SubsumeConfig::unbounded()),
                    truth,
                    "seed {}: subsumption vs SPJ on {} for {}",
                    world.seed,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
                prop_assert!(
                    truth || !theta_subsumes(clause, &bc, &tight),
                    "seed {}: false \"covered\" under budget {} on {} for {}",
                    world.seed,
                    node_limit,
                    example.render(&world.db),
                    clause.render(&world.db)
                );
                for cfg in [tight, SubsumeConfig::unbounded()] {
                    assert_prefix_probe_matches(clause, &bc, &cfg);
                }
                assert_proven_probe_matches(clause, &bc, &tight);
            }
        }
    }
}

/// The star generator gives the fold work to do: its clauses fold
/// literals out of the searches the property above runs.
#[test]
fn star_clauses_fold_literals() {
    let world = build_star_world(0x57a2_f01d, 5, 12);
    let mut rng = StdRng::seed_from_u64(3);
    let before = autobias::instrument::SUBSUME_LITERALS_FOLDED.get();
    for example in &world.examples {
        let bc = full_bc(&world, example, &mut rng);
        for clause in &world.clauses {
            theta_subsumes(clause, &bc, &SubsumeConfig::unbounded());
        }
    }
    assert!(autobias::instrument::SUBSUME_LITERALS_FOLDED.get() > before);
}

// ---------------------------------------------------------------------------
// Probes from a witness: armg's blocking-atom search.
// ---------------------------------------------------------------------------

/// What one stream of witness probes saw: probes the witness extension
/// answered, and probes the component search answered "covered".
#[derive(Default)]
struct WitnessTally {
    extended: u64,
    searched_covered: u64,
}

/// Asks `clause`'s prefixes of `bc` through one probe and one [`Witness`],
/// in a random order of lengths (`rng`), as armg does within a step. Each
/// answer lies between the materialized prefix's answer under `cfg` and the
/// exact one, and one the witness extension gave is exactly covered. Under
/// the unbounded budget each answer equals `covers_given`'s with nothing
/// proven. A covered answer makes the witness prove the prefix; a refuted
/// one leaves it alone.
fn assert_witness_probes(
    clause: &Clause,
    bc: &GroundClause,
    cfg: &SubsumeConfig,
    rng: &mut StdRng,
    tally: &mut WitnessTally,
) {
    let n = clause.body.len();
    let answers = |cfg: &SubsumeConfig| -> Vec<bool> {
        (0..=n)
            .map(|len| {
                let prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
                theta_subsumes(&prefix, bc, cfg)
            })
            .collect()
    };
    let exact = answers(&SubsumeConfig::unbounded());
    let budgeted = answers(cfg);
    let mut probe = PrefixProbe::new(clause, bc);
    let mut witness = Witness::default();
    for _ in 0..2 * n + 2 {
        let len = rng.random_range(0..=n);
        let (from, extended) = (witness.len(), probe.witness_extensions());
        let searched = probe.full_searches();
        let got = probe.covers_from(len, &mut witness, cfg);
        let what = format!("prefix {len} of {n} from a witness of {from} under {cfg:?}");
        assert!(
            budgeted[len] <= got && got <= exact[len],
            "{what}: got {got}"
        );
        if probe.witness_extensions() > extended {
            assert!(
                got && exact[len],
                "{what}: extension claimed a refuted prefix"
            );
            tally.extended += 1;
        } else if got && probe.full_searches() > searched {
            tally.searched_covered += 1;
        }
        if cfg.node_limit == usize::MAX {
            let fresh = PrefixProbe::new(clause, bc).covers_given(len, 0, cfg);
            assert_eq!(got, fresh, "{what}");
        }
        let expect_len = if got { from.max(len) } else { from };
        assert_eq!(witness.len(), expect_len, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On the plain and star families, every probe from a witness answers
    /// one-sidedly under tight and default budgets, every covered answer
    /// the witness extension gives is exactly covered, and the unbounded
    /// answers equal `covers_given`'s.
    #[test]
    fn witness_probes_are_one_sided_and_exact_unbounded(
        seed in 0u64..u64::MAX / 2,
        n_consts in 3usize..8,
        n_edges in 0usize..16,
        node_limit in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a17);
        let plain = build_world(seed, n_consts, n_edges, n_edges);
        let star = build_star_world(seed, n_consts, n_edges);
        let mut tally = WitnessTally::default();
        for world in [&plain, &star] {
            for example in &world.examples {
                let bc = full_bc(world, example, &mut rng);
                for clause in &world.clauses {
                    for cfg in [
                        SubsumeConfig { node_limit },
                        SubsumeConfig::default(),
                        SubsumeConfig::unbounded(),
                    ] {
                        assert_witness_probes(clause, &bc, &cfg, &mut rng, &mut tally);
                    }
                }
            }
        }
    }
}

/// The property above is not vacuous: on star worlds both answer paths
/// run, the witness extension and a component search that covers.
#[test]
fn witness_probes_take_both_paths() {
    let mut tally = WitnessTally::default();
    let mut rng = StdRng::seed_from_u64(0x3a17);
    for seed in 0..6 {
        let world = build_star_world(seed, 5, 12);
        for example in &world.examples {
            let bc = full_bc(&world, example, &mut rng);
            for clause in &world.clauses {
                let cfg = SubsumeConfig::unbounded();
                assert_witness_probes(clause, &bc, &cfg, &mut rng, &mut tally);
            }
        }
    }
    assert!(tally.extended > 0, "no probe was answered by extension");
    assert!(tally.searched_covered > 0, "no searched probe covered");
}

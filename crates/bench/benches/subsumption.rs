//! Bench: θ-subsumption cost vs clause length and ground-BC size (paper §5
//! — coverage testing dominates learning), and vs the number of private
//! leaves per hub variable on a UW ground bottom clause, the shape armg's
//! candidates take and the fold removes before the search.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::bottom::{
    build_bottom_clause, BcConfig, GroundClause, GroundLiteral, SamplingStrategy,
};
use autobias::clause::{Clause, Literal, Term, VarId};
use autobias::example::Example;
use autobias::subsume::{theta_subsumes, SubsumeConfig, Workspace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::uw::{generate, UwConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, RelId};
use std::hint::black_box;

/// Builds a chain-structured ground BC: head t(0, n); body r(i, i+1) edges of
/// a random graph over `n` nodes with `edges` edges, guaranteeing a path
/// 0 → 1 → … → n.
fn chain_ground(n: u32, extra_edges: usize, seed: u64) -> GroundClause {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = Vec::new();
    for i in 0..n {
        body.push(GroundLiteral {
            rel: RelId(0),
            vals: vec![Const(i), Const(i + 1)].into(),
        });
    }
    for _ in 0..extra_edges {
        let a = rng.random_range(0..=n);
        let b = rng.random_range(0..=n);
        body.push(GroundLiteral {
            rel: RelId(0),
            vals: vec![Const(a), Const(b)].into(),
        });
    }
    GroundClause::new(Example::new(RelId(9), vec![Const(0), Const(n)]), body)
}

/// A clause asking for a length-`k` chain from the head's first argument.
fn chain_clause(k: u32) -> Clause {
    let head = Literal::new(RelId(9), vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
    let mut body = Vec::new();
    let mut prev = VarId(0);
    for i in 0..k {
        let next = VarId(i + 2);
        body.push(Literal::new(
            RelId(0),
            vec![Term::Var(prev), Term::Var(next)],
        ));
        prev = next;
    }
    Clause::new(head, body)
}

fn bench_clause_length(c: &mut Criterion) {
    let ground = chain_ground(64, 128, 7);
    let mut group = c.benchmark_group("subsumption/clause_len");
    for k in [2u32, 8, 16, 32] {
        let clause = chain_clause(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &clause, |b, clause| {
            b.iter(|| {
                black_box(theta_subsumes(
                    black_box(clause),
                    &ground,
                    &SubsumeConfig::default(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_ground_size(c: &mut Criterion) {
    let clause = chain_clause(8);
    let mut group = c.benchmark_group("subsumption/ground_size");
    for n in [32u32, 128, 512] {
        let ground = chain_ground(n, (n * 2) as usize, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(ground.len()),
            &ground,
            |b, ground| {
                b.iter(|| black_box(theta_subsumes(&clause, ground, &SubsumeConfig::default())))
            },
        );
    }
    group.finish();
}

/// A UW-shaped star candidate `advisedBy(S, P) ← …` with `leaves`
/// private-leaf literals on each of four hubs: the head's `S` and `P`
/// (`publication(Xi, S)`, other titles of each) and the titles `T` of `S`
/// and `U` of `P` (`publication(T, Zi)`, other authors of each), after the
/// two literals that introduce `T` and `U`.
fn uw_star_clause(advised_by: RelId, publication: RelId, leaves: u32) -> Clause {
    let v = |n: u32| Term::Var(VarId(n));
    let (s, p, t, u) = (0, 1, 2, 3);
    let mut next = 4;
    let mut body = vec![
        Literal::new(publication, vec![v(t), v(s)]),
        Literal::new(publication, vec![v(u), v(p)]),
    ];
    for hub in [s, p, t, u] {
        for _ in 0..leaves {
            let args = if hub == t || hub == u {
                vec![v(hub), v(next)]
            } else {
                vec![v(next), v(hub)]
            };
            body.push(Literal::new(publication, args));
            next += 1;
        }
    }
    Clause::new(Literal::new(advised_by, vec![v(s), v(p)]), body)
}

fn bench_uw_star(c: &mut Criterion) {
    let ds = generate(&UwConfig::default(), 42);
    let bias = ds.manual_bias().expect("bias");
    let (advised_by, publication) = (
        ds.db.rel_id("advisedBy").unwrap(),
        ds.db.rel_id("publication").unwrap(),
    );
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 10_000,
    };
    let mut rng = StdRng::seed_from_u64(1);
    // The first positive example whose ground clause the star covers, so
    // the search has to find a θ rather than refute one.
    let probe = uw_star_clause(advised_by, publication, 1);
    let ground = ds
        .pos
        .iter()
        .map(|e| build_bottom_clause(&ds.db, &bias, e, &cfg, &mut rng).ground)
        .find(|g| theta_subsumes(&probe, g, &SubsumeConfig::default()))
        .expect("a UW positive whose authors both publish");
    let mut group = c.benchmark_group("subsumption/uw_star_leaves");
    for leaves in [1u32, 12, 24] {
        let clause = uw_star_clause(advised_by, publication, leaves);
        assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &clause, |b, clause| {
            let mut ws = Workspace::default();
            b.iter(|| {
                black_box(ws.theta_subsumes(black_box(clause), &ground, &SubsumeConfig::default()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clause_length,
    bench_ground_size,
    bench_uw_star
);
criterion_main!(benches);

//! Bench: θ-subsumption cost vs clause length and ground-BC size (paper §5
//! — coverage testing dominates learning).

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::bottom::{GroundClause, GroundLiteral};
use autobias::clause::{Clause, Literal, Term, VarId};
use autobias::example::Example;
use autobias::subsume::{theta_subsumes, SubsumeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

criterion_group!(benches, bench_clause_length, bench_ground_size);
criterion_main!(benches);

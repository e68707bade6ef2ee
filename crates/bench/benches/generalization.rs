//! Bench: the armg operator (paper §2.3.2) — the galloping blocking-atom
//! search and armg cost vs bottom-clause size.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::bias::parse::parse_bias;
use autobias::bottom::{variablize, BcConfig, SamplingStrategy};
use autobias::clause::Clause;
use autobias::coverage::CoverageEngine;
use autobias::example::TrainingSet;
use autobias::generalize::{armg, blocking_atom};
use autobias::subsume::SubsumeConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::uw::{generate, UwConfig};
use std::hint::black_box;

/// The engine, positive 0's bottom clause, and a positive that clause does
/// not cover.
fn engine_with(per_selection: usize) -> (CoverageEngine, Clause, usize) {
    let ds = generate(
        &UwConfig {
            evidence_prob: 1.0,
            noise_coauthor_pairs: 0,
            ..UwConfig::default()
        },
        42,
    );
    let bias = parse_bias(&ds.db, ds.target, &ds.manual_bias_text).expect("bias");
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Naive { per_selection },
        max_tuples: 3_000,
        max_body_literals: 100_000,
    };
    let engine = CoverageEngine::build(&ds.db, &bias, &train, &cfg, SubsumeConfig::default(), 1);
    // Find a positive the seed BC does not cover (armg has work to do).
    let seed_clause = variablize(&engine.pos[0], &bias, cfg.max_body_literals);
    let target = (1..engine.pos.len())
        .find(|&i| !engine.covers_pos(&seed_clause, i))
        .unwrap_or(1);
    (engine, seed_clause, target)
}

fn bench_blocking_atom(c: &mut Criterion) {
    let (engine, clause, target) = engine_with(20);
    let mut group = c.benchmark_group("generalization/blocking_atom");
    group.sample_size(20);
    group.bench_function("gallop", |b| {
        b.iter(|| black_box(blocking_atom(black_box(&clause), &engine, target)))
    });
    group.finish();
}

fn bench_armg_vs_bc_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("generalization/armg_bc_size");
    group.sample_size(10);
    for per_selection in [5usize, 20, 60] {
        let (engine, clause, target) = engine_with(per_selection);
        group.bench_with_input(
            BenchmarkId::new(format!("bc_{}_lits", clause.len()), per_selection),
            &clause,
            |b, clause| b.iter(|| black_box(armg(black_box(clause), &engine, target))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_blocking_atom, bench_armg_vs_bc_size);
criterion_main!(benches);

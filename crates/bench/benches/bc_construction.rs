//! Bench: bottom-clause construction time under the four sampling strategies
//! (paper §4 — the motivation for sampling is that full BC construction is
//! linear in the database and too slow on large data).
//!
//! Every benchmark builds through one reused [`BcScratch`], as the coverage
//! engine's workers do, so it times construction rather than the scratch's
//! first allocation.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::bias::auto::{induce_bias, AutoBiasConfig, ConstantThreshold};
use autobias::bottom::{build_ground_clause_in, BcConfig, BcScratch, SamplingStrategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::uw::{generate, UwConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let ds = generate(&UwConfig::default(), 42);
    let bias = ds.manual_bias().expect("bias");
    let example = ds.pos[0].clone();

    let mut group = c.benchmark_group("bc_construction/strategy");
    let strategies = [
        ("full", SamplingStrategy::Full),
        ("naive", SamplingStrategy::Naive { per_selection: 20 }),
        (
            "random",
            SamplingStrategy::Random {
                per_selection: 20,
                oversample: 10,
            },
        ),
        (
            "stratified",
            SamplingStrategy::Stratified { per_stratum: 2 },
        ),
    ];
    for (name, strategy) in strategies {
        let cfg = BcConfig {
            depth: 2,
            strategy,
            max_body_literals: 100_000,
            max_tuples: 10_000,
        };
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut scratch = BcScratch::default();
            b.iter(|| {
                black_box(build_ground_clause_in(
                    &mut scratch,
                    &ds.db,
                    &bias,
                    black_box(&example),
                    &cfg,
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // How full vs naive construction scales with database size.
    let mut group = c.benchmark_group("bc_construction/db_size");
    group.sample_size(20);
    for scale in [1usize, 4, 16] {
        let cfg_ds = UwConfig {
            students: 150 * scale,
            professors: 45 * scale,
            courses: 60 * scale,
            advised_pairs: 102,
            noise_publications: 60 * scale,
            ..UwConfig::default()
        };
        let ds = generate(&cfg_ds, 42);
        let bias = ds.manual_bias().expect("bias");
        let example = ds.pos[0].clone();
        for (name, strategy) in [
            ("full", SamplingStrategy::Full),
            ("naive", SamplingStrategy::Naive { per_selection: 20 }),
        ] {
            let cfg = BcConfig {
                depth: 2,
                strategy,
                max_body_literals: 100_000,
                max_tuples: 100_000,
            };
            group.bench_with_input(
                BenchmarkId::new(name, ds.db.total_tuples()),
                &ds,
                |b, ds| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut scratch = BcScratch::default();
                    b.iter(|| {
                        black_box(build_ground_clause_in(
                            &mut scratch,
                            &ds.db,
                            &bias,
                            &example,
                            &cfg,
                            &mut rng,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

/// The evaluation shape: a Full, depth-2 ground clause on generated HIV
/// under the AutoBias bias, whose induced modes probe element and bond-type
/// constants at depth 2 and so collect most of the atom and bond tables
/// (about 17K tuples per clause).
fn bench_hiv_evaluation(c: &mut Criterion) {
    let ds = datasets::hiv::generate(&Default::default(), 7);
    let auto = AutoBiasConfig {
        constant_threshold: ConstantThreshold::Absolute(50),
        ..AutoBiasConfig::default()
    };
    let (bias, _, _) = induce_bias(&ds.db, ds.target, &auto).unwrap();
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 100_000,
    };
    let mut group = c.benchmark_group("bc_construction/hiv_eval");
    group.sample_size(20);
    group.bench_function("full", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = BcScratch::default();
        b.iter(|| {
            black_box(build_ground_clause_in(
                &mut scratch,
                &ds.db,
                &bias,
                black_box(&ds.pos[0]),
                &cfg,
                &mut rng,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_scaling,
    bench_hiv_evaluation
);
criterion_main!(benches);

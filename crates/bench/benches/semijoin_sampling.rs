//! Bench: the §4.2.3 question — sampling a semi-join by materialize-then-
//! sample vs Olken-style accept–reject using the index statistics.
//!
//! On skewed data the accept–reject sampler touches O(k · M/m̄) tuples
//! instead of the whole semi-join result, which is the paper's argument for
//! not materializing `I_e`.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{algebra, AttrRef, Const, Database, FxHashSet, TupleId};
use std::hint::black_box;

/// Builds a skewed binary relation: `n` tuples over `values` distinct join
/// keys with a Zipf-ish distribution (a few very hot keys).
fn skewed_db(n: usize, values: usize, seed: u64) -> (Database, Vec<Const>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.add_relation("edges", &["key", "payload"]);
    for i in 0..n {
        // Quadratic skew: low keys are much more frequent.
        let u: f64 = rng.random_range(0.0..1.0);
        let key = ((u * u) * values as f64) as usize;
        db.insert(r, &[&format!("k{key}"), &format!("p{i}")]);
    }
    let keys: Vec<Const> = (0..values)
        .filter_map(|k| db.lookup(&format!("k{k}")))
        .collect();
    (db, keys)
}

fn materialize_then_sample(
    db: &Database,
    attr: AttrRef,
    left: &FxHashSet<Const>,
    k: usize,
    rng: &mut StdRng,
) -> Vec<TupleId> {
    let mut all = algebra::select_in(db, attr, left);
    // Partial Fisher–Yates for the first k.
    let take = k.min(all.len());
    for i in 0..take {
        let j = rng.random_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(take);
    all
}

fn olken_sample(
    db: &Database,
    attr: AttrRef,
    left: &[Const],
    k: usize,
    rng: &mut StdRng,
) -> Vec<TupleId> {
    let idx = db.relation(attr.rel).index(attr.pos as usize);
    let max = idx.max_freq();
    let mut out = Vec::with_capacity(k);
    let mut seen = FxHashSet::default();
    let budget = k * 20;
    for _ in 0..budget {
        if out.len() >= k {
            break;
        }
        let a = left[rng.random_range(0..left.len())];
        let ts = idx.lookup(a);
        if ts.is_empty() {
            continue;
        }
        let t = ts[rng.random_range(0..ts.len())];
        if rng.random_range(0.0..1.0) < ts.len() as f64 / max as f64 && seen.insert(t) {
            out.push(t);
        }
    }
    out
}

fn bench_semijoin(c: &mut Criterion) {
    let mut group = c.benchmark_group("semijoin_sampling");
    group.sample_size(30);
    for n in [10_000usize, 100_000] {
        let (db, keys) = skewed_db(n, 500, 9);
        let attr = AttrRef::new(db.rel_id("edges").unwrap(), 0);
        let left_set: FxHashSet<Const> = keys.iter().copied().collect();
        group.bench_with_input(
            BenchmarkId::new("materialize_then_sample", n),
            &db,
            |b, db| {
                let mut rng = StdRng::seed_from_u64(2);
                b.iter(|| black_box(materialize_then_sample(db, attr, &left_set, 20, &mut rng)))
            },
        );
        group.bench_with_input(BenchmarkId::new("olken_accept_reject", n), &db, |b, db| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(olken_sample(db, attr, &keys, 20, &mut rng)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_semijoin);
criterion_main!(benches);

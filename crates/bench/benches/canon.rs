//! Bench: canonical clause forms (`core::canon`) on stars of private
//! leaves, `t(x, y) ← p(x, h), r(h, z1), …, r(h, zn)`. The leaves form one
//! tied color class whose members are all swap-symmetric twins, the shape
//! armg's candidates are full of; individualization runs one trial for the
//! first leaf and skips the rest.

use autobias::canon::canonical_form;
use autobias::clause::{Clause, Literal, Term, VarId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relstore::RelId;
use std::hint::black_box;

/// A star of `leaves` private leaves on one hub.
fn star(leaves: u32) -> Clause {
    let v = |n| Term::Var(VarId(n));
    let mut body = vec![Literal::new(RelId(1), vec![v(0), v(2)])];
    body.extend((0..leaves).map(|i| Literal::new(RelId(0), vec![v(2), v(3 + i)])));
    Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), body)
}

fn bench_star_leaves(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon/star_leaves");
    group.sample_size(2_000);
    for leaves in [4u32, 12, 24] {
        let clause = star(leaves);
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &clause, |b, clause| {
            b.iter(|| black_box(canonical_form(black_box(clause))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_star_leaves);
criterion_main!(benches);

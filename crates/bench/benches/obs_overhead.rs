//! Bench: span-recording overhead across recorder modes.
//!
//! The obs layer's budget is "Off mode costs one relaxed atomic load per
//! span event" — instrumentation must be free when nobody is looking. This
//! bench runs the same small learn untraced under `Mode::Off` and
//! `Mode::Summary`, and traced (`Mode::Off` with a run's trace context
//! installed, as `autobias learn` and server jobs run), so the three
//! wall-clocks can be compared directly; they should agree within
//! measurement noise.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::example::TrainingSet;
use autobias::learn::Learner;
use autobias_bench::harness::{learner_config, HarnessConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::uw::{generate, UwConfig};
use std::hint::black_box;
use std::time::Duration;

fn bench_modes(c: &mut Criterion) {
    let ds = generate(
        &UwConfig {
            students: 30,
            professors: 10,
            courses: 12,
            advised_pairs: 18,
            negatives: 36,
            evidence_prob: 1.0,
            noise_coauthor_pairs: 0,
            ..UwConfig::default()
        },
        3,
    );
    let bias = ds.manual_bias().expect("bias");
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    let h = HarnessConfig {
        depth: 1,
        ..HarnessConfig::default()
    };
    let learner = Learner::new(learner_config(&h, Duration::from_secs(30)));

    let mut group = c.benchmark_group("obs/span_overhead");
    group.sample_size(10);
    for (label, mode, traced) in [
        ("learn_off", obs::Mode::Off, false),
        ("learn_summary", obs::Mode::Summary, false),
        ("learn_traced", obs::Mode::Off, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                obs::set_mode(mode);
                obs::reset();
                let run = obs::ReportBuilder::new(ds.name, vec![]);
                let _traced = traced.then(|| run.trace().install());
                let (def, _stats) = learner.learn(black_box(&ds.db), &bias, &train);
                black_box(def)
            })
        });
    }
    obs::set_mode(obs::Mode::Off);
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);

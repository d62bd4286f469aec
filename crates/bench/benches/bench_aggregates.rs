//! Criterion benches for the composite aggregates: average, variance,
//! decayed sampling, and quantiles.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use td_aggregates::{DecayedAverage, DecayedQuantile, DecayedSampler, DecayedVariance};
use td_decay::{Polynomial, StreamAggregate};

fn bench_aggregates(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregates");

    group.bench_function("average_observe_10k", |b| {
        b.iter_batched(
            || DecayedAverage::ceh(Polynomial::new(1.0), 0.1),
            |mut a| {
                for t in 1..=10_000u64 {
                    a.observe(t, t % 100);
                }
                a
            },
            criterion::BatchSize::SmallInput,
        );
    });

    group.bench_function("variance_observe_10k", |b| {
        b.iter_batched(
            || DecayedVariance::ceh(Polynomial::new(1.0), 0.1),
            |mut v| {
                for t in 1..=10_000u64 {
                    v.observe(t, t % 100);
                }
                v
            },
            criterion::BatchSize::SmallInput,
        );
    });

    // Sampler: build once, bench the draw.
    let mut sampler: DecayedSampler<_, u64> = DecayedSampler::new(Polynomial::new(1.0), 0.1, 3);
    for t in 1..=100_000u64 {
        sampler.observe(t, t);
    }
    group.bench_function("sampler_draw_100k_items", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(sampler.sample(100_001, &mut rng)));
    });

    // Quantile query at R = 75.
    let mut q: DecayedQuantile<_, u64> = DecayedQuantile::new(Polynomial::new(1.0), 0.1, 75, 5);
    for t in 1..=10_000u64 {
        q.observe(t, t % 1000);
    }
    group.bench_function("quantile_query_r75", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(q.query(10_001, 0.5, &mut rng)));
    });

    group.finish();
}

criterion_group!(benches, bench_aggregates);
criterion_main!(benches);

//! Criterion benches for the Exponential Histogram substrate: insertion
//! throughput and window-query latency across ε and N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_decay::StreamAggregate;
use td_eh::{ClassicEh, DominationEh, WindowSketch};

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("eh_observe_10k");
    for eps in [0.1, 0.01] {
        group.bench_with_input(BenchmarkId::new("classic", eps), &eps, |b, &eps| {
            b.iter_batched(
                || ClassicEh::new(eps, None),
                |mut eh| {
                    for t in 1..=10_000u64 {
                        eh.observe(t, 1);
                    }
                    eh
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("domination", eps), &eps, |b, &eps| {
            b.iter_batched(
                || DominationEh::new(eps, None),
                |mut eh| {
                    for t in 1..=10_000u64 {
                        eh.observe(t, 1 + t % 5);
                    }
                    eh
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("eh_query_window");
    for n in [10_000u64, 1_000_000] {
        let mut eh = ClassicEh::new(0.05, None);
        for t in 1..=n {
            eh.observe(t, 1);
        }
        group.bench_with_input(BenchmarkId::new("classic", n), &n, |b, &n| {
            b.iter(|| black_box(eh.query_window(n + 1, black_box(n / 3))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_observe, bench_query);
criterion_main!(benches);

//! Criterion micro-benchmarks of the skeleton backends and the
//! hand-ported streamcluster kernel they modernize.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skeletons::ExecPlan;

fn bench_skeletons(c: &mut Criterion) {
    let input: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
    let mut group = c.benchmark_group("skeleton-map-reduce");
    for plan in [
        ExecPlan::Sequential,
        ExecPlan::CpuThreads(2),
        ExecPlan::cpu_auto(),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(plan), &plan, |b, &plan| {
            b.iter(|| skeletons::map_reduce(plan, &input, |x| x * x, 0.0, |a, b| a + b))
        });
    }
    group.finish();
}

fn bench_native_streamcluster(c: &mut Criterion) {
    let pts = starbench::native::Points::synthetic(50_000, 32, 3);
    let weights: Vec<f64> = (0..pts.len()).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("streamcluster-hiz");
    group.bench_function("sequential", |b| {
        b.iter(|| starbench::native::hiz_sequential(&pts, &weights))
    });
    group.bench_function("legacy-pthreads", |b| {
        b.iter(|| starbench::native::hiz_pthreads(&pts, &weights, cores))
    });
    group.bench_function("modernized-skeleton", |b| {
        b.iter(|| starbench::native::hiz_modernized(&pts, &weights, ExecPlan::CpuThreads(cores)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_skeletons, bench_native_streamcluster
}
criterion_main!(benches);

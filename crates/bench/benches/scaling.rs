//! Scaling benchmark: runtime of model checking and synthesis versus the
//! number of agents (FloodSet, t = 1), the quantity behind the paper's
//! discussion of the blow-up threshold in Sections 10 and 13.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epimc::prelude::*;
use epimc_bench::full_grids_requested;

fn bench_scaling(c: &mut Criterion) {
    let max_n = if full_grids_requested() { 6 } else { 5 };
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for n in 2..=max_n {
        let experiment = Experiment::crash(ProtocolKind::FloodSet, n, 1);
        group.bench_with_input(BenchmarkId::new("model-check", n), &experiment, |b, e| {
            b.iter(|| e.model_check())
        });
        group.bench_with_input(BenchmarkId::new("synthesis", n), &experiment, |b, e| {
            b.iter(|| e.synthesize())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);

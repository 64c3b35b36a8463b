//! Criterion benchmark regenerating Table 1 of the paper: model checking and
//! synthesis times for the FloodSet and Count FloodSet information exchanges
//! under crash failures, over the (n, t) grid.
//!
//! Set `EPIMC_BENCH_FULL=1` to use the paper-sized grid (n up to 6); the
//! default grid is trimmed so the suite completes quickly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epimc::prelude::*;
use epimc_bench::{full_grids_requested, table1_grid};

fn bench_table1(c: &mut Criterion) {
    let full = full_grids_requested();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (n, t) in table1_grid(full) {
        let flood = Experiment::crash(ProtocolKind::FloodSet, n, t);
        group.bench_with_input(
            BenchmarkId::new("floodset/model-check", format!("n{n}_t{t}")),
            &flood,
            |b, experiment| b.iter(|| experiment.model_check()),
        );
        group.bench_with_input(
            BenchmarkId::new("floodset/synthesis", format!("n{n}_t{t}")),
            &flood,
            |b, experiment| b.iter(|| experiment.synthesize()),
        );
        // The count exchange blows up earlier (as in the paper); keep its
        // grid one agent smaller in the quick configuration.
        if !full && n > 3 {
            continue;
        }
        let count = Experiment::crash(ProtocolKind::CountFloodSet, n, t);
        group.bench_with_input(
            BenchmarkId::new("count/model-check", format!("n{n}_t{t}")),
            &count,
            |b, experiment| b.iter(|| experiment.model_check()),
        );
        group.bench_with_input(
            BenchmarkId::new("count/synthesis", format!("n{n}_t{t}")),
            &count,
            |b, experiment| b.iter(|| experiment.synthesize()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);

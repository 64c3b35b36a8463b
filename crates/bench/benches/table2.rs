//! Criterion benchmark regenerating Table 2 of the paper: model checking
//! times for the Differential (count + previous count) exchange and the
//! Dwork–Moses protocol, as a function of the number of rounds explored.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epimc::prelude::*;
use epimc_bench::{full_grids_requested, table2_grid};

fn bench_table2(c: &mut Criterion) {
    let full = full_grids_requested();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (n, t, rounds) in table2_grid(full) {
        let diff = Experiment {
            horizon: Some(rounds),
            ..Experiment::crash(ProtocolKind::DiffFloodSet, n, t)
        };
        let dwork = Experiment { protocol: ProtocolKind::DworkMoses, ..diff };
        group.bench_with_input(
            BenchmarkId::new("diff/model-check", format!("n{n}_t{t}_r{rounds}")),
            &diff,
            |b, experiment| b.iter(|| experiment.model_check()),
        );
        group.bench_with_input(
            BenchmarkId::new("dwork-moses/model-check", format!("n{n}_t{t}_r{rounds}")),
            &dwork,
            |b, experiment| b.iter(|| experiment.model_check()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);

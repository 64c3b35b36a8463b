//! Criterion benchmark regenerating Table 3 of the paper: synthesis of the
//! EBA knowledge-based program `P0` for the exchanges `E_min` and `E_basic`,
//! under crash and sending-omission failures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epimc::prelude::*;
use epimc_bench::{full_grids_requested, table3_grid};

fn bench_table3(c: &mut Criterion) {
    let full = full_grids_requested();
    let mut group = c.benchmark_group("table3");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (n, t) in table3_grid(full) {
        for protocol in [ProtocolKind::EMin, ProtocolKind::EBasic] {
            for failure in [FailureKind::Crash, FailureKind::SendOmission] {
                let experiment = Experiment::new(protocol, n, t, failure);
                let label = format!(
                    "{}/{}",
                    protocol.paper_name(),
                    match failure {
                        FailureKind::Crash => "crash",
                        _ => "omissions",
                    }
                );
                group.bench_with_input(
                    BenchmarkId::new(label, format!("n{n}_t{t}")),
                    &experiment,
                    |b, experiment| b.iter(|| experiment.synthesize()),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);

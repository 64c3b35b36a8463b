//! Engine ablation: explicit-state versus symbolic (OBDD) evaluation of the
//! SBA knowledge condition on the same instances (the symbolic side builds
//! its model relationally inside the timed loop). MCK is OBDD-based; the paper
//! attributes the blow-up at small agent counts to BDD growth, and this
//! benchmark lets the two strategies be compared directly in this
//! reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epimc::prelude::*;
use epimc_bench::full_grids_requested;

fn bench_ablation(c: &mut Criterion) {
    let max_n = if full_grids_requested() { 5 } else { 4 };
    let mut group = c.benchmark_group("ablation_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for n in 2..=max_n {
        let params = Experiment::crash(ProtocolKind::FloodSet, n, 1).params();
        let condition = epimc::optimality::sba_knowledge_condition(AgentId::new(0), n, 2);
        with_protocol!(ProtocolKind::FloodSet, |exchange, rule| {
            let model = ConsensusModel::explore(exchange, params, rule);
            group.bench_with_input(BenchmarkId::new("explicit", n), &n, |b, _| {
                b.iter(|| Checker::new(&model).holds_everywhere(&condition))
            });
            group.bench_with_input(BenchmarkId::new("symbolic", n), &n, |b, _| {
                b.iter(|| {
                    SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default())
                        .holds_everywhere(&condition)
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

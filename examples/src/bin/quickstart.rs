//! Quickstart: model a consensus protocol, check its specification, and ask
//! whether it makes optimal use of the information it exchanges.
//!
//! Run with `cargo run -p epimc-examples --bin quickstart`.

use epimc::prelude::*;

/// The full pipeline over one information exchange and its literature
/// decision rule — generic, so it runs on any protocol of the registry.
fn analyse<E, R>(exchange: E, rule: R, params: ModelParams)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    // Explore the reachable state space of the textbook protocol
    // ("broadcast everything you have seen, decide the least value at t+1").
    let model = ConsensusModel::explore(exchange.clone(), params, rule);
    println!(
        "reachable states: {} across {} rounds",
        model.space().total_states(),
        model.space().num_layers()
    );

    // 1. Does it satisfy Simultaneous Byzantine Agreement?
    let spec = epimc::spec::check_sba(&model);
    println!("\nSBA specification:\n{spec}");

    // 2. Does it decide as early as the exchanged information allows?
    let optimality = epimc::optimality::analyze_sba(&model);
    println!("\noptimality: {optimality}");

    // 3. Synthesize the optimal implementation of the knowledge-based program
    //    for the same information exchange, and print the knowledge predicates.
    let outcome =
        Synthesizer::new(exchange.clone(), params).synthesize(&KnowledgeBasedProgram::sba(2));
    println!("\n{outcome}");

    // 4. The synthesized protocol is directly executable.
    let table = outcome.rule;
    let spec_synth = epimc::spec::check_sba(&ConsensusModel::explore(exchange, params, table));
    println!("\nsynthesized protocol satisfies SBA: {}", spec_synth.all_hold());
}

fn main() {
    // FloodSet over 3 agents, at most one crash failure, binary decisions.
    let params = ModelParams::builder()
        .agents(3)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::Crash)
        .build();
    println!("model instance: {params}");

    // The protocol registry pairs the exchange with its literature rule.
    with_protocol!(ProtocolKind::FloodSet, |exchange, rule| analyse(exchange, rule, params));
}

//! Demonstrates the Dwork–Moses protocol (Section 7.4): the `waste` variable
//! lets agents decide earlier than `t + 1` when several failures are
//! discovered in the same round, while still deciding simultaneously.
//!
//! The example simulates hand-picked adversaries and then model-checks the
//! protocol on a small instance.
//!
//! Run with `cargo run -p epimc-examples --bin dwork_moses_waste`.

use epimc::prelude::*;
use epimc::run::{simulate_run, Adversary, RoundFailures};

fn adversary_with_two_silent_crashes() -> Adversary {
    // Agents 2 and 3 crash in round 0 without delivering anything.
    let faulty: AgentSet = [AgentId::new(2), AgentId::new(3)].into_iter().collect();
    let mut dropped = std::collections::BTreeSet::new();
    for sender in [AgentId::new(2), AgentId::new(3)] {
        for receiver in (0..4).map(AgentId::new) {
            if receiver != sender {
                dropped.insert((sender, receiver));
            }
        }
    }
    Adversary { faulty, rounds: vec![RoundFailures { crashing: faulty, dropped }] }
}

/// Simulates the hand-picked adversaries and model-checks a small instance,
/// for an exchange whose agents observe a `current_waste` variable (of the
/// registry's protocols, Dwork–Moses).
fn demonstrate<E, R>(exchange: E, rule: R)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let params = ModelParams::builder()
        .agents(4)
        .max_faulty(2)
        .values(2)
        .failure(FailureKind::Crash)
        .build();
    let waste_var = exchange
        .observable_layout(&params)
        .iter()
        .position(|var| var.name == "current_waste")
        .expect("the exchange observes its waste estimate");

    println!("--- failure-free run (waste stays 0, decide at t + 1 = 3) ---");
    let inits = vec![Value::ONE, Value::ZERO, Value::ONE, Value::ONE];
    let run = simulate_run(&exchange, &params, &rule, &inits, &Adversary::failure_free());
    for agent in AgentId::all(4) {
        println!("  {agent}: {:?}", run.decision(agent));
    }

    println!("--- two crashes discovered in round 1 (waste = 1, decide at time 2) ---");
    let run = simulate_run(&exchange, &params, &rule, &inits, &adversary_with_two_silent_crashes());
    for agent in AgentId::all(4) {
        let state = run.state(1).local(agent);
        if !run.state(1).env.has_crashed(agent) {
            println!(
                "  {agent}: waste after round 1 = {}, decision {:?}",
                exchange.observation(&params, agent, state).value(waste_var),
                run.decision(agent)
            );
        }
    }

    println!("--- model checking the protocol on n = 3, t = 2 ---");
    let params = ModelParams::builder()
        .agents(3)
        .max_faulty(2)
        .values(2)
        .failure(FailureKind::Crash)
        .build();
    let model = ConsensusModel::explore(exchange, params, rule);
    let spec = epimc::spec::check_sba(&model);
    println!("{spec}");
    let optimality = epimc::optimality::analyze_sba(&model);
    println!("optimality with respect to the Dwork-Moses information exchange: {optimality}");
}

fn main() {
    with_protocol!(ProtocolKind::DworkMoses, |exchange, rule| demonstrate(exchange, rule));
}

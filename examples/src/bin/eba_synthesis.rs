//! Reproduces the Eventual Byzantine Agreement experiments of Section 9: the
//! implementations of the knowledge-based program `P0` synthesized for the
//! exchanges `E_min` and `E_basic`, under crash and sending-omission
//! failures, and a comparison with the hand-written implementations from the
//! literature.
//!
//! Run with `cargo run -p epimc-examples --bin eba_synthesis [n] [t]`. Exits
//! with status 1 when a synthesized implementation violates the EBA
//! specification.

use epimc::prelude::*;

/// Synthesizes and checks one instance; returns whether the synthesized
/// implementation satisfies EBA.
fn run(protocol: ProtocolKind, n: usize, t: usize, failure: FailureKind) -> bool {
    let experiment = Experiment::new(protocol, n, t, failure);
    let params = experiment.params();
    let name = protocol.paper_name();
    println!("=== {name}, {params} ===");
    // The exchange and its hand-written rule come from the protocol
    // registry; the body below is the same for both EBA exchanges.
    let holds = with_protocol!(protocol, |exchange, handwritten_rule| {
        let outcome = Synthesizer::new(exchange, params).synthesize(&experiment.program());
        println!("{outcome}");
        let model = ConsensusModel::explore(exchange, params, outcome.rule.clone());
        let holds = epimc::spec::check_eba(&model).all_hold();
        println!("EBA spec holds: {holds}");
        let handwritten = ConsensusModel::explore(exchange, params, handwritten_rule);
        println!(
            "hand-written {name} implementation also satisfies EBA: {}",
            epimc::spec::check_eba(&handwritten).all_hold()
        );
        holds
    });
    println!();
    holds
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let t: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    let mut all_hold = true;
    for failure in [FailureKind::Crash, FailureKind::SendOmission] {
        all_hold &= run(ProtocolKind::EMin, n, t, failure);
        all_hold &= run(ProtocolKind::EBasic, n, t, failure);
    }
    println!("Note how the E_basic predicates include the early decision on 1 when");
    println!("`num1 > n - time`: the counter of (init, 1) messages lets an agent rule");
    println!("out any chain of just-decided-0 messages reaching it in the future.");
    if !all_hold {
        std::process::exit(1);
    }
}

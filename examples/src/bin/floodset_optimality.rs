//! Reproduces the qualitative finding of Section 7.1 of the paper: the
//! FloodSet protocol's textbook stopping rule ("decide at time t + 1") is not
//! optimal with respect to the information it exchanges when `t >= n - 1`,
//! and the earliest decision times follow condition (2).
//!
//! Run with `cargo run -p epimc-examples --bin floodset_optimality`. Exits
//! with status 1 when the optimised rule violates the SBA specification.

use epimc::prelude::*;

fn main() {
    println!("FloodSet optimality analysis (crash failures, |V| = 2)\n");
    println!(
        "{:<8} {:<8} {:<12} {:<12} {:<10} condition (2) verified?",
        "n", "t", "knowledge", "decision", "optimal?"
    );

    for (n, t) in [(2usize, 1usize), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)] {
        let params = ModelParams::builder()
            .agents(n)
            .max_faulty(t)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        // The textbook protocol: the registry's FloodSet exchange and rule.
        let (optimality, hypothesis) = with_protocol!(ProtocolKind::FloodSet, |exchange, rule| {
            let model = ConsensusModel::explore(exchange, params, rule);
            (
                epimc::optimality::analyze_sba(&model),
                epimc::hypotheses::verify_sba_hypothesis(&model, condition2(&params)),
            )
        });
        println!(
            "{:<8} {:<8} {:<12} {:<12} {:<10} {}",
            n,
            t,
            optimality
                .earliest_knowledge_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
            optimality
                .earliest_decision_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
            if optimality.is_optimal() { "yes" } else { "NO" },
            if hypothesis.is_equivalent() { "yes" } else { "no" },
        );
    }

    println!();
    println!("The rows with t >= n - 1 show the optimisation opportunity the paper");
    println!("identifies automatically: the knowledge condition already holds at time");
    println!("n - 1, one round before the textbook rule decides. The optimised rule");
    println!("(OptimalFloodSetRule, condition (2)) closes the gap:");
    println!();

    let mut all_hold = true;
    for (n, t) in [(3usize, 2usize), (3, 3), (2, 2)] {
        let params = ModelParams::builder()
            .agents(n)
            .max_faulty(t)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        let model = ConsensusModel::explore(FloodSet, params, OptimalFloodSetRule);
        let holds = epimc::spec::check_sba(&model).all_hold();
        all_hold &= holds;
        let optimality = epimc::optimality::analyze_sba(&model);
        println!(
            "  n={n} t={t}: optimised rule decides at time {:?}, SBA spec holds: {holds}, \
             optimal: {}",
            optimality.earliest_decision_time.unwrap(),
            optimality.is_optimal()
        );
    }
    if !all_hold {
        std::process::exit(1);
    }
}

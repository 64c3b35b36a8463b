//! Temporal operators at the sizes the tables report: the global and the
//! local engine must give the same verdicts, layer by layer, on the
//! temporal formulas of the service's cold batch.
//!
//! These sizes became affordable when the pre-image started going through
//! the per-round reachable relation: FloodSet n=10 t=3 took 9.7 s of
//! release time before (0.4 s after), and n=12 t=4 did not finish
//! `EF decided[0]` in 300 s. The larger instance is `#[ignore]`d for the
//! default (debug) run; CI runs it with
//! `cargo test --release -- --ignored`.

use epimc::prelude::*;

type F = Formula<ConsensusAtom>;

fn global_and_local_agree_on_floodset(agents: usize, max_faulty: usize) {
    let params = ModelParams::builder().agents(agents).max_faulty(max_faulty).values(2).build();
    let global =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let local = LocalChecker::new(FloodSet, params, FloodSetRule);
    let decided = F::atom(ConsensusAtom::Decided(AgentId::new(0)));
    let formulas = [F::exists_finally(decided.clone()), F::all_next(F::all_next(decided.clone()))];
    for formula in &formulas {
        assert_eq!(
            global.holds_everywhere(formula),
            local.holds_everywhere(formula),
            "n={agents} t={max_faulty}: engines disagree on {formula}"
        );
        let global_by_layer: Vec<bool> = (0..global.num_layers())
            .map(|layer| {
                let at_layer = F::atom(ConsensusAtom::TimeIs(layer as Round));
                global.holds_everywhere(&F::implies(at_layer, formula.clone()))
            })
            .collect();
        let local_by_layer: Vec<bool> =
            (0..global.num_layers()).map(|layer| local.holds_in_layer(formula, layer)).collect();
        assert_eq!(
            global_by_layer, local_by_layer,
            "n={agents} t={max_faulty}: per-layer verdicts differ on {formula}"
        );
    }
    // A run in which agent 0 never crashes reaches its decision from every
    // initial state, and nobody has decided two rounds in.
    assert!(local.holds_in_layer(&formulas[0], 0));
    assert!(!local.holds_in_layer(&formulas[1], 0));
    let stats = global.stats();
    assert!(stats.preimage_calls > 0 && stats.reachable_relations_built > 0);
}

#[test]
fn temporal_verdicts_agree_on_floodset_n10_t3() {
    global_and_local_agree_on_floodset(10, 3);
}

#[test]
#[ignore = "release-sized: run with `cargo test --release -- --ignored`"]
fn temporal_verdicts_agree_on_floodset_n12_t4() {
    global_and_local_agree_on_floodset(12, 4);
}

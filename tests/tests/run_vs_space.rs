//! Cross-validation of the run simulator against the state-space explorer.
//!
//! Two properties:
//!
//! 1. Every trace produced by `run::simulate_run` under a random
//!    `Adversary` appears as a *path* in the explored `StateSpace`: each
//!    state of the trace is present in the layer of its time, and each
//!    consecutive pair is connected by a successor edge.
//! 2. Under deciding rules, every explored layer is in canonical form: its
//!    states strictly ascending and each successor list strictly ascending
//!    and in range of the next layer.

use epimc::prelude::*;
use epimc::run::{simulate_run, Adversary};
use epimc_system::{GlobalState, StateSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RUNS_PER_MODEL: usize = 60;

/// Finds the index of `state` in the (sorted) layer, if present.
fn position_in_layer<E: InformationExchange>(
    space: &StateSpace<E>,
    time: usize,
    state: &GlobalState<E>,
) -> Option<usize> {
    space.layers()[time].states.binary_search_by(|candidate| candidate.as_ref().cmp(state)).ok()
}

/// Property 1 for one protocol: simulated traces are paths of the explored
/// space.
fn traces_are_paths<E, R>(family: &str, exchange: E, rule: R, params: ModelParams, seed: u64)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let space = StateSpace::explore(exchange.clone(), params, &rule);
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..RUNS_PER_MODEL {
        let inits: Vec<Value> = (0..params.num_agents())
            .map(|_| Value::new(rng.gen_range(0..params.num_values())))
            .collect();
        let adversary = Adversary::random(&params, &mut rng);
        let run = simulate_run(&exchange, &params, &rule, &inits, &adversary);
        assert_eq!(run.states.len(), space.num_layers(), "{family} case {case}");

        let mut previous_index: Option<usize> = None;
        for (time, state) in run.states.iter().enumerate() {
            let index = position_in_layer(&space, time, state).unwrap_or_else(|| {
                panic!(
                    "{family} case {case}: simulated state at time {time} missing from the \
                     state space\n  inits: {inits:?}\n  adversary: {adversary:?}\n  state: {state}"
                )
            });
            if let Some(source) = previous_index {
                assert!(
                    space.layers()[time - 1].successors[source].contains(&index),
                    "{family} case {case}: no successor edge {source} -> {index} into layer \
                     {time}\n  inits: {inits:?}\n  adversary: {adversary:?}"
                );
            }
            previous_index = Some(index);
        }
    }
}

#[test]
fn floodset_traces_are_paths_of_the_state_space() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    traces_are_paths("floodset", FloodSet, FloodSetRule, params, 0x90AD_0001);
}

#[test]
fn count_traces_are_paths_of_the_state_space() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    traces_are_paths("count", CountFloodSet, TextbookRule, params, 0x90AD_0002);
}

#[test]
fn emin_traces_are_paths_of_the_state_space_under_omissions() {
    let params = ModelParams::builder()
        .agents(3)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    traces_are_paths("emin", EMin, EMinRule, params, 0x90AD_0003);
}

#[test]
fn ebasic_traces_are_paths_of_the_state_space_under_general_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::GeneralOmission)
        .build();
    traces_are_paths("ebasic", EBasic, EBasicRule, params, 0x90AD_0004);
}

/// Property 2: every layer is in canonical form.
fn assert_canonical<E, R>(family: &str, exchange: E, rule: R, params: ModelParams)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let space = StateSpace::explore(exchange, params, &rule);
    for (time, layer) in space.layers().iter().enumerate() {
        assert!(
            layer.states.windows(2).all(|pair| pair[0] < pair[1]),
            "{family}: layer {time} states are not strictly ascending"
        );
        let next_len = space.layers().get(time + 1).map_or(0, |next| next.len());
        for targets in &layer.successors {
            assert!(
                targets.windows(2).all(|pair| pair[0] < pair[1])
                    && targets.iter().all(|&target| target < next_len),
                "{family}: layer {time} has a successor list out of canonical form"
            );
        }
    }
}

#[test]
fn exploration_is_canonical_for_deciding_protocols() {
    let params = ModelParams::builder().agents(3).max_faulty(2).values(2).build();
    assert_canonical("count", CountFloodSet, TextbookRule, params);
    assert_canonical("diff", DiffFloodSet, TextbookRule, params);
    let omission = ModelParams::builder()
        .agents(3)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    assert_canonical("emin", EMin, EMinRule, omission);
}

//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; each file corresponds to one
//! experiment row of `DESIGN.md` (Q1–Q7).
#![forbid(unsafe_code)]

use epimc::prelude::*;

/// Crash-failure model parameters with binary decisions.
pub fn crash_params(n: usize, t: usize) -> ModelParams {
    ModelParams::builder().agents(n).max_faulty(t).values(2).failure(FailureKind::Crash).build()
}

/// Sending-omission model parameters with binary decisions.
pub fn omission_params(n: usize, t: usize) -> ModelParams {
    ModelParams::builder()
        .agents(n)
        .max_faulty(t)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build()
}

/// Per layer, the number of distinct *states* among the explored points of
/// `model`. A point is keyed by what a state consists of under the clock
/// semantics — per agent its observation, nonfaulty flag, initial
/// preference and decision value — because the explorer can keep points
/// that differ only in adversary bookkeeping (EMin under omissions does).
/// This is what a relational layer's state count must equal.
pub fn distinct_layer_states<E, R>(model: &ConsensusModel<E, R>) -> Vec<u128>
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    (0..model.num_layers() as Round)
        .map(|time| {
            let states: std::collections::HashSet<Vec<u32>> = (0..model.layer_size(time))
                .map(|index| {
                    let point = PointId::new(time, index);
                    let state = model.state(point);
                    let nonfaulty = state.nonfaulty();
                    AgentId::all(model.num_agents())
                        .flat_map(|agent| {
                            let decision =
                                state.decision(agent).map_or(0, |d| d.value.index() as u32 + 1);
                            model.observation(agent, point).values().iter().copied().chain([
                                u32::from(nonfaulty.contains(agent)),
                                state.init(agent).index() as u32,
                                decision,
                            ])
                        })
                        .collect()
                })
                .collect();
            states.len() as u128
        })
        .collect()
}

//! The state-variable layout of the symbolic encoding — the one owner of
//! it: the relation and atom builders of this crate read their variables
//! off a [`SlotLayout`], and `epimc_check::SymbolicChecker` builds its
//! atoms through them.
//!
//! One *slot* holds one state bit; slot `s` owns the BDD variable pair
//! `Var(2s)` (current) / `Var(2s + 1)` (next), so a state variable and its
//! primed copy are adjacent in the order. Slots are interleaved across
//! agents via [`epimc_bdd::interleaved_slot`], so corresponding bits of all
//! agents sit next to each other.

use epimc_bdd::{interleaved_slot, Var};
use epimc_system::{InformationExchange, ModelParams, ObservableVar};

/// Number of bits needed to encode `0 .. domain` (at least one).
pub fn bits_for(domain: u32) -> usize {
    let mut bits = 0usize;
    while (1u64 << bits) < u64::from(domain) {
        bits += 1;
    }
    bits.max(1)
}

/// The BDD variable holding the current-state copy of `slot`.
pub fn cur(slot: usize) -> Var {
    Var::new((slot as u32) * 2)
}

/// The BDD variable holding the next-state copy of `slot`.
pub fn nxt(slot: usize) -> Var {
    Var::new((slot as u32) * 2 + 1)
}

/// The slots of one agent's state variables.
#[derive(Clone, Debug)]
pub struct AgentSlots {
    /// Per observable field, the slots of its bits (low bit first).
    pub obs_bits: Vec<Vec<usize>>,
    /// The nonfaulty flag (crash models: not yet crashed; omission models:
    /// not faulty).
    pub nonfaulty: usize,
    /// The agent's initial preference (low bit first).
    pub init_bits: Vec<usize>,
    /// Whether the agent has decided.
    pub decided: usize,
    /// The decided value, zero while undecided (low bit first).
    pub decision_bits: Vec<usize>,
    /// Every slot of this agent, sorted.
    pub all_slots: Vec<usize>,
}

/// The full slot layout of a model instance: per-agent slots plus the
/// observable-variable layout they encode.
#[derive(Clone, Debug)]
pub struct SlotLayout {
    /// The observable-variable layout of the exchange.
    pub obs_layout: Vec<ObservableVar>,
    /// Per-agent slots.
    pub agents: Vec<AgentSlots>,
    /// Total number of slots (`num_agents * slots_per_agent`).
    pub num_slots: usize,
    /// Bits per initial preference / decision value.
    pub value_bits: usize,
}

impl SlotLayout {
    /// Computes the layout for `exchange` under `params`: per agent, the
    /// observable fields (low bit first), then nonfaulty, the initial
    /// value, the decided flag, and the decision value, interleaved across
    /// agents.
    pub fn new<E: InformationExchange>(exchange: &E, params: &ModelParams) -> Self {
        let n = params.num_agents();
        let obs_layout = exchange.observable_layout(params);
        let value_bits = bits_for(params.num_values() as u32);
        let obs_field_bits: Vec<usize> =
            obs_layout.iter().map(|var| bits_for(var.domain)).collect();
        let slots_per_agent =
            obs_field_bits.iter().sum::<usize>() + 1 + value_bits + 1 + value_bits;
        let mut agents = Vec::with_capacity(n);
        for agent in 0..n {
            let mut offset = 0;
            let mut fresh = |count: usize| -> Vec<usize> {
                let slots = (0..count)
                    .map(|k| interleaved_slot(n, agent, offset + k) as usize)
                    .collect::<Vec<_>>();
                offset += count;
                slots
            };
            let obs_bits: Vec<Vec<usize>> =
                obs_field_bits.iter().map(|&bits| fresh(bits)).collect();
            let nonfaulty = fresh(1)[0];
            let init_bits = fresh(value_bits);
            let decided = fresh(1)[0];
            let decision_bits = fresh(value_bits);
            let mut all_slots: Vec<usize> = obs_bits.iter().flatten().copied().collect::<Vec<_>>();
            all_slots.push(nonfaulty);
            all_slots.extend(&init_bits);
            all_slots.push(decided);
            all_slots.extend(&decision_bits);
            all_slots.sort_unstable();
            debug_assert_eq!(all_slots.len(), slots_per_agent);
            agents.push(AgentSlots {
                obs_bits,
                nonfaulty,
                init_bits,
                decided,
                decision_bits,
                all_slots,
            });
        }
        SlotLayout { obs_layout, agents, num_slots: n * slots_per_agent, value_bits }
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_domains() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
    }

    #[test]
    fn cur_nxt_are_adjacent() {
        assert_eq!(cur(3).index(), 6);
        assert_eq!(nxt(3).index(), 7);
    }
}

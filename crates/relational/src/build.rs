//! Builders for the relational model: the initial-state cube and one
//! round's partitioned transition relation.
//!
//! Nothing here garbage-collects the manager: the [`Ref`]s produced during
//! a build are unrooted until the caller stores them (the checker roots the
//! partitions in its relation store and runs a safe-point collection
//! between rounds).

use epimc_bdd::{Bdd, Ref};
use epimc_logic::AgentId;
use epimc_system::{ConsensusAtom, FailureKind, InformationExchange, ModelParams, Round, Value};

use crate::choice::ChoiceVars;
use crate::enc::{count_at_most, cube_eq, Enc};
use crate::layout::{cur, SlotLayout};
use crate::{SymbolicEncode, SymbolicRule};

/// One round's transition relation, partitioned per receiver, plus the
/// guarded decides-now conditions the round was built under.
pub struct RoundRelation {
    /// One conjunct per receiving agent, constraining exactly that agent's
    /// next-state variables (crash models: the fault-budget constraint over
    /// the crash-choice variables is conjoined into partition 0).
    pub partitions: Vec<Ref>,
    /// `dnow[agent * num_values + v]` — the guarded condition "`agent`
    /// performs `decide(v)` this round", over current-state variables.
    pub dnow: Vec<Ref>,
}

/// The initial layer of the relational model as a single BDD over the
/// current-state variables: every assignment of initial preferences, the
/// observations fixed by [`InformationExchange::initial_local_state`], no
/// decisions, and the failure model's initial fault state (crash: everyone
/// alive; omission: any faulty set within the bound, recorded in the
/// nonfaulty flags).
///
/// The result is satisfied by exactly the encodings ([`encode_state`]) of
/// the initial states an exploration enumerates.
pub fn initial_cube<E: InformationExchange>(
    bdd: &mut Bdd,
    layout: &SlotLayout,
    exchange: &E,
    params: &ModelParams,
) -> Ref {
    let n = params.num_agents();
    let num_values = params.num_values();
    let crash = params.failure().kind() == FailureKind::Crash;
    let mut acc = Ref::TRUE;
    for agent in 0..n {
        let slots = &layout.agents[agent];
        let mut per_value = Vec::with_capacity(num_values);
        for v in 0..num_values {
            let state = exchange.initial_local_state(params, AgentId::new(agent), Value::new(v));
            let observation = exchange.observation(params, AgentId::new(agent), &state);
            let mut literals: Vec<_> = Vec::with_capacity(slots.all_slots.len());
            for (field, field_slots) in slots.obs_bits.iter().enumerate() {
                let value = observation.value(field);
                for (bit, &slot) in field_slots.iter().enumerate() {
                    literals.push((cur(slot), (value >> bit) & 1 == 1));
                }
            }
            for (bit, &slot) in slots.init_bits.iter().enumerate() {
                literals.push((cur(slot), (v >> bit) & 1 == 1));
            }
            literals.push((cur(slots.decided), false));
            for &slot in &slots.decision_bits {
                literals.push((cur(slot), false));
            }
            if crash {
                literals.push((cur(slots.nonfaulty), true));
            }
            per_value.push(bdd.cube_literals(literals));
        }
        let agent_cube = bdd.or_all(per_value);
        acc = bdd.and(acc, agent_cube);
    }
    if !crash {
        // Omission models fix the faulty set at time 0: any set within the
        // bound, recorded as the complement of the nonfaulty flags.
        let faulty: Vec<Ref> = (0..n)
            .map(|agent| {
                let nf = bdd.var(cur(layout.agents[agent].nonfaulty));
                bdd.not(nf)
            })
            .collect();
        let within_bound = count_at_most(bdd, &faulty, params.max_faulty());
        acc = bdd.and(acc, within_bound);
    }
    acc
}

/// Builds the transition relation for the round mapping layer `time` to
/// layer `time + 1`, partitioned per receiver, under `rule`.
///
/// Each receiver's partition constrains that agent's next-state variables
/// (and mentions only current-state variables, that receiver's delivery
/// choices, and — in crash models — the crash choices): the protocol's
/// observable-field update from [`SymbolicEncode::encode_update`], plus the
/// housekeeping equations for the fault flag, the frozen initial
/// preference, and the decision bookkeeping driven by the rule's guarded
/// decides-now conditions. In crash models the whole update is multiplexed
/// on the agent being alive at the start of the round (a crashed agent's
/// state is frozen), and the adversary's crash choices are constrained to
/// the fault budget in partition 0.
pub fn round_relation<E, R>(
    bdd: &mut Bdd,
    layout: &SlotLayout,
    choice: &ChoiceVars,
    exchange: &E,
    rule: &R,
    params: &ModelParams,
    time: Round,
) -> RoundRelation
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    let n = params.num_agents();
    let num_values = params.num_values();
    let crash = params.failure().kind() == FailureKind::Crash;
    let mut enc = Enc::new(bdd, layout, choice, *params, time);
    let dnow = populate_dnow(&mut enc, rule);

    let mut partitions = Vec::with_capacity(n);
    for receiver in 0..n {
        let agent = AgentId::new(receiver);
        let slots = &layout.agents[receiver];
        let mut update = exchange.encode_update(&mut enc, agent);

        // Fault flag: in crash models the adversary may crash the agent
        // this round; in omission models the faulty set never changes.
        let nf = enc.nonfaulty(agent);
        let nf_next = if crash {
            let crashing = enc.bdd().var(choice.crash_var(receiver));
            let surviving = enc.bdd().not(crashing);
            enc.bdd().and(nf, surviving)
        } else {
            nf
        };
        let eq = enc.next_slot_iff(slots.nonfaulty, nf_next);
        update = enc.bdd().and(update, eq);

        // The initial preference never changes.
        for &slot in &slots.init_bits {
            let bit = enc.bdd().var(cur(slot));
            let eq = enc.next_slot_iff(slot, bit);
            update = enc.bdd().and(update, eq);
        }

        // Decision bookkeeping: a decision this round sets the flag and
        // records the value; afterwards both are frozen (the guarded
        // decides-now conditions already exclude decided agents).
        let decided = enc.decided(agent);
        let decides = enc.dnow_any(agent);
        let decided_next = enc.bdd().or(decided, decides);
        let eq = enc.next_slot_iff(slots.decided, decided_next);
        update = enc.bdd().and(update, eq);
        for (bit, &slot) in slots.decision_bits.iter().enumerate() {
            let recorded = enc.bdd().var(cur(slot));
            let mut cond = enc.bdd().and(decided, recorded);
            for v in 0..num_values as u32 {
                if (v >> bit) & 1 == 1 {
                    let d = enc.dnow(agent, v);
                    cond = enc.bdd().or(cond, d);
                }
            }
            let eq = enc.next_slot_iff(slot, cond);
            update = enc.bdd().and(update, eq);
        }

        let partition = if crash {
            let freeze = freeze_agent(&mut enc, receiver);
            enc.bdd().ite(nf, update, freeze)
        } else {
            update
        };
        partitions.push(partition);
    }

    if crash {
        // Fault budget: agents crashed so far plus agents crashing this
        // round stay within `t`. A crash choice on an already-crashed agent
        // is absorbed (its flag is already down), so leaving those choices
        // unconstrained is harmless.
        let bad: Vec<Ref> = (0..n)
            .map(|j| {
                let nf = enc.nonfaulty(AgentId::new(j));
                let down = enc.bdd().not(nf);
                let crashing = enc.bdd().var(choice.crash_var(j));
                enc.bdd().or(down, crashing)
            })
            .collect();
        let budget = count_at_most(enc.bdd(), &bad, params.max_faulty());
        partitions[0] = enc.bdd().and(partitions[0], budget);
    }

    RoundRelation { partitions, dnow }
}

/// The guarded decides-now conditions of `rule` at layer `time`, without
/// building a transition relation — the checker uses this for the final
/// layer, which has no outgoing round but still answers `DecidesNow`
/// queries.
pub fn decides_now_table<E, R>(
    bdd: &mut Bdd,
    layout: &SlotLayout,
    choice: &ChoiceVars,
    rule: &R,
    params: &ModelParams,
    time: Round,
) -> Vec<Ref>
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    let mut enc = Enc::new(bdd, layout, choice, *params, time);
    populate_dnow(&mut enc, rule)
}

fn populate_dnow<E, R>(enc: &mut Enc<'_>, rule: &R) -> Vec<Ref>
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    let n = enc.num_agents();
    let num_values = enc.params().num_values();
    let crash = enc.kind() == FailureKind::Crash;
    let mut flat = Vec::with_capacity(n * num_values);
    for agent in 0..n {
        let a = AgentId::new(agent);
        for v in 0..num_values {
            let raw = rule.decides(enc, a, Value::new(v));
            let decided = enc.decided(a);
            let undecided = enc.bdd().not(decided);
            let mut guarded = enc.bdd().and(raw, undecided);
            if crash {
                let nf = enc.nonfaulty(a);
                guarded = enc.bdd().and(guarded, nf);
            }
            enc.set_dnow(a, v as u32, guarded);
            flat.push(guarded);
        }
    }
    flat
}

fn freeze_agent(enc: &mut Enc<'_>, receiver: usize) -> Ref {
    let slots = enc.layout().agents[receiver].all_slots.clone();
    let mut acc = Ref::TRUE;
    for slot in slots {
        let bit = enc.bdd().var(cur(slot));
        let eq = enc.next_slot_iff(slot, bit);
        acc = enc.bdd().and(acc, eq);
    }
    acc
}

/// Encodes one explicit global state over the current-state variables of
/// `layout`, exactly as the symbolic checker encodes explored points: the
/// observation bits, the nonfaulty flag, the initial preference, and the
/// decision (the decision *round* is dropped — it is not part of the
/// clock-semantics state). The differential suites use this to check
/// explicit states against relational layer BDDs.
pub fn encode_state<E: InformationExchange>(
    exchange: &E,
    params: &ModelParams,
    layout: &SlotLayout,
    state: &epimc_system::GlobalState<E>,
) -> Vec<bool> {
    let mut bits = vec![false; layout.num_slots];
    let nonfaulty = state.nonfaulty();
    for agent in 0..params.num_agents() {
        let a = AgentId::new(agent);
        let slots = &layout.agents[agent];
        let observation = exchange.observation(params, a, state.local(a));
        for (field, field_slots) in slots.obs_bits.iter().enumerate() {
            let value = observation.value(field);
            for (bit, &slot) in field_slots.iter().enumerate() {
                bits[slot] = (value >> bit) & 1 == 1;
            }
        }
        bits[slots.nonfaulty] = nonfaulty.contains(a);
        let init = state.init(a).index() as u32;
        for (bit, &slot) in slots.init_bits.iter().enumerate() {
            bits[slot] = (init >> bit) & 1 == 1;
        }
        let decision = state.decision(a);
        bits[slots.decided] = decision.is_some();
        let value = decision.map_or(0, |d| d.value.index() as u32);
        for (bit, &slot) in slots.decision_bits.iter().enumerate() {
            bits[slot] = (value >> bit) & 1 == 1;
        }
    }
    bits
}

/// The constraint `atom` denotes over the current-state variables of
/// `layout`, the same at every layer. An observable index the layout does
/// not have, or a value its bits cannot hold, is `⊥`. `None` for the two
/// atoms whose denotation depends on the layer: `TimeIs`, and
/// `DecidesNow`, which is the layer's decides-now table
/// ([`decides_now_table`]).
pub fn atom_constraint(bdd: &mut Bdd, layout: &SlotLayout, atom: &ConsensusAtom) -> Option<Ref> {
    let slots = |agent: &AgentId| &layout.agents[agent.index()];
    Some(match atom {
        ConsensusAtom::InitIs(agent, value) => {
            cube_eq(bdd, &slots(agent).init_bits, value.index() as u32)
        }
        ConsensusAtom::ExistsInit(value) => {
            let per_agent: Vec<Ref> = layout
                .agents
                .iter()
                .map(|agent| cube_eq(bdd, &agent.init_bits, value.index() as u32))
                .collect();
            bdd.or_all(per_agent)
        }
        ConsensusAtom::Nonfaulty(agent) => bdd.var(cur(slots(agent).nonfaulty)),
        ConsensusAtom::Decided(agent) => bdd.var(cur(slots(agent).decided)),
        ConsensusAtom::DecidedValue(agent, value) => {
            let decided = bdd.var(cur(slots(agent).decided));
            let matches = cube_eq(bdd, &slots(agent).decision_bits, value.index() as u32);
            bdd.and(decided, matches)
        }
        ConsensusAtom::ObsEquals(agent, field, value) => match slots(agent).obs_bits.get(*field) {
            Some(bits) => cube_eq(bdd, bits, *value),
            None => Ref::FALSE,
        },
        ConsensusAtom::ObsAtMost(agent, field, value) => match slots(agent).obs_bits.get(*field) {
            Some(bits) => cube_le(bdd, bits, *value),
            None => Ref::FALSE,
        },
        ConsensusAtom::CollisionProbe(true) => Ref::TRUE,
        ConsensusAtom::CollisionProbe(false) => Ref::FALSE,
        ConsensusAtom::TimeIs(_) | ConsensusAtom::DecidesNow(_, _) => return None,
    })
}

/// `bits(slots) ≤ value` over current-state variables (`slots` low bit
/// first).
fn cube_le(bdd: &mut Bdd, slots: &[usize], value: u32) -> Ref {
    if slots.len() < 32 && u64::from(value) >= (1u64 << slots.len()) - 1 {
        return Ref::TRUE;
    }
    let mut acc = Ref::TRUE;
    for (bit, &slot) in slots.iter().enumerate() {
        let x = bdd.var(cur(slot));
        acc = if (value >> bit) & 1 == 1 {
            // This bit of the bound is 1: smaller here wins outright.
            bdd.ite(x, acc, Ref::TRUE)
        } else {
            // This bit of the bound is 0: larger here loses outright.
            bdd.ite(x, Ref::FALSE, acc)
        };
    }
    acc
}

/// Reference forward image, with no conjunction scheduling or early
/// quantification: conjoin the layer with every partition, quantify the
/// current-state and choice variables, rename next-state back to current.
/// `rename` must be a registered `next → current` substitution over all
/// slots. The checker has a scheduled version of this on its hot path; this
/// one exists for the differential suites and small instances.
pub fn naive_image(
    bdd: &mut Bdd,
    layout: &SlotLayout,
    choice: &ChoiceVars,
    reach: Ref,
    partitions: &[Ref],
    rename: epimc_bdd::SubstId,
) -> Ref {
    let mut acc = reach;
    for &partition in partitions {
        acc = bdd.and(acc, partition);
    }
    let mut quant: Vec<epimc_bdd::Var> = (0..layout.num_slots).map(cur).collect();
    quant.extend(choice.all_vars());
    let cube = bdd.cube_of_vars(quant);
    let primed = bdd.exists(acc, cube);
    bdd.replace(primed, rename)
}

#[cfg(test)]
mod tests {
    use epimc_bdd::Var;
    use epimc_system::{
        Action, FailureKind, ModelParams, NeverDecide, ObservableVar, Observation, Received,
        StateSpace, TableRule,
    };

    use super::*;
    use crate::layout::nxt;

    /// A miniature flooding exchange: each agent's state is the bitmask of
    /// initial values it has seen, everyone broadcasts their whole state
    /// every round, and the observation is the bitmask itself.
    #[derive(Clone)]
    struct ToyFlood;

    impl InformationExchange for ToyFlood {
        type LocalState = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "toy-flood"
        }

        fn initial_local_state(&self, _p: &ModelParams, _agent: AgentId, init: Value) -> u32 {
            1 << init.index()
        }

        fn message(
            &self,
            _p: &ModelParams,
            _agent: AgentId,
            state: &u32,
            _action: Action,
        ) -> Option<u32> {
            Some(*state)
        }

        fn update(
            &self,
            _p: &ModelParams,
            _agent: AgentId,
            state: &u32,
            _action: Action,
            received: &Received<u32>,
        ) -> u32 {
            received.iter().fold(*state, |acc, (_, m)| acc | m)
        }

        fn observation(&self, _p: &ModelParams, _agent: AgentId, state: &u32) -> Observation {
            Observation::new(vec![*state])
        }

        fn observable_layout(&self, _p: &ModelParams) -> Vec<ObservableVar> {
            vec![ObservableVar::ranged("seen", 4)]
        }
    }

    impl SymbolicEncode for ToyFlood {
        fn encode_update(&self, enc: &mut Enc<'_>, receiver: AgentId) -> Ref {
            let n = enc.num_agents();
            let mut acc = Ref::TRUE;
            for bit in 0..2 {
                let mut cond = enc.obs_bit(receiver, 0, bit);
                for sender in 0..n {
                    let j = AgentId::new(sender);
                    if j == receiver {
                        continue;
                    }
                    let delivered = enc.chan(j, receiver);
                    let seen = enc.obs_bit(j, 0, bit);
                    let through = enc.bdd().and(delivered, seen);
                    cond = enc.bdd().or(cond, through);
                }
                let eq = enc.next_obs_bit_iff(receiver, 0, bit, cond);
                acc = enc.bdd().and(acc, eq);
            }
            acc
        }
    }

    fn params(n: usize, t: usize, kind: FailureKind) -> ModelParams {
        ModelParams::builder().agents(n).max_faulty(t).values(2).failure(kind).build()
    }

    fn assert_layers_match<R>(kind: FailureKind, rule: &R)
    where
        R: SymbolicRule<ToyFlood> + Clone,
    {
        let exchange = ToyFlood;
        let params = params(3, 1, kind);
        let space = StateSpace::explore(exchange.clone(), params, rule);

        let mut bdd = Bdd::new();
        let layout = SlotLayout::new(&exchange, &params);
        let choice = ChoiceVars::new(kind, params.num_agents(), layout.num_slots);
        let mut reach = initial_cube(&mut bdd, &layout, &exchange, &params);
        let cur_vars: Vec<Var> = (0..layout.num_slots).map(cur).collect();
        let rename =
            bdd.register_substitution((0..layout.num_slots).map(|s| (nxt(s), cur(s))).collect());

        for time in 0..space.num_layers() as Round {
            let layer = &space.layers()[time as usize];
            let mut encodings: Vec<Vec<bool>> = layer
                .states
                .iter()
                .map(|state| encode_state(&exchange, &params, &layout, state))
                .collect();
            encodings.sort_unstable();
            encodings.dedup();
            for encoding in &encodings {
                let mut assignment = vec![false; layout.num_slots * 2];
                for (slot, &bit) in encoding.iter().enumerate() {
                    assignment[slot * 2] = bit;
                }
                assert!(
                    bdd.eval_bits(reach, &assignment),
                    "{kind:?}: explicit state missing from relational layer {time}"
                );
            }
            assert_eq!(
                bdd.sat_count_over(reach, &cur_vars),
                encodings.len() as u128,
                "{kind:?}: relational layer {time} has extra states"
            );
            if (time as usize) < space.num_layers() - 1 {
                let round =
                    round_relation(&mut bdd, &layout, &choice, &exchange, rule, &params, time);
                reach = naive_image(&mut bdd, &layout, &choice, reach, &round.partitions, rename);
            }
        }
    }

    #[test]
    #[should_panic(expected = "decide value 2 out of range")]
    fn dnow_rejects_out_of_range_value() {
        // The decides-now table is flat `agent × num_values + v`: before the
        // bounds check, `dnow(agent 0, v = 2)` with two values read agent
        // 1's slot for value 0 and silently built a wrong relation.
        let exchange = ToyFlood;
        let params = params(3, 1, FailureKind::Crash);
        let mut bdd = Bdd::new();
        let layout = SlotLayout::new(&exchange, &params);
        let choice = ChoiceVars::new(FailureKind::Crash, params.num_agents(), layout.num_slots);
        let mut enc = Enc::new(&mut bdd, &layout, &choice, params, 0);
        enc.set_dnow(AgentId::new(0), 0, Ref::TRUE);
        enc.set_dnow(AgentId::new(1), 0, Ref::TRUE);
        enc.dnow(AgentId::new(0), 2);
    }

    #[test]
    fn equalities_with_values_beyond_their_bits_are_false() {
        // `seen` has two bits and the initial preference one: a value they
        // cannot hold matches no state instead of wrapping onto its low bits.
        let exchange = ToyFlood;
        let params = params(3, 1, FailureKind::Crash);
        let mut bdd = Bdd::new();
        let layout = SlotLayout::new(&exchange, &params);
        let choice = ChoiceVars::new(FailureKind::Crash, params.num_agents(), layout.num_slots);
        let agent = AgentId::new(0);
        let mut enc = Enc::new(&mut bdd, &layout, &choice, params, 0);
        assert_eq!(enc.field_eq(agent, 0, 4), Ref::FALSE);
        assert_eq!(enc.init_eq(agent, 2), Ref::FALSE);
        assert_ne!(enc.field_eq(agent, 0, 3), Ref::FALSE);
        for (atom, want) in [
            (ConsensusAtom::ObsEquals(agent, 0, 4), Ref::FALSE),
            (ConsensusAtom::ObsEquals(agent, 1, 0), Ref::FALSE),
            (ConsensusAtom::InitIs(agent, Value::new(2)), Ref::FALSE),
            (ConsensusAtom::ObsAtMost(agent, 0, 3), Ref::TRUE),
            (ConsensusAtom::ObsAtMost(agent, 0, 1 << 20), Ref::TRUE),
        ] {
            assert_eq!(atom_constraint(&mut bdd, &layout, &atom), Some(want), "{atom:?}");
        }
        assert_eq!(atom_constraint(&mut bdd, &layout, &ConsensusAtom::TimeIs(0)), None);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 agents")]
    fn chan_rejects_out_of_range_agent() {
        let exchange = ToyFlood;
        let params = params(3, 1, FailureKind::Crash);
        let mut bdd = Bdd::new();
        let layout = SlotLayout::new(&exchange, &params);
        let choice = ChoiceVars::new(FailureKind::Crash, params.num_agents(), layout.num_slots);
        let mut enc = Enc::new(&mut bdd, &layout, &choice, params, 0);
        enc.chan(AgentId::new(3), AgentId::new(0));
    }

    #[test]
    fn relational_layers_match_explicit_crash() {
        assert_layers_match(FailureKind::Crash, &NeverDecide);
    }

    #[test]
    fn relational_layers_match_explicit_send_omission() {
        assert_layers_match(FailureKind::SendOmission, &NeverDecide);
    }

    #[test]
    fn relational_layers_match_explicit_general_omission() {
        assert_layers_match(FailureKind::GeneralOmission, &NeverDecide);
    }

    #[test]
    fn relational_layers_match_explicit_with_decisions() {
        // Decide 0 at time 1 whenever value 0 has been seen: exercises the
        // decides-now guards, the decision bookkeeping and the frozen
        // decision of crashed agents.
        let mut rule = TableRule::new("toy-decide");
        for agent in 0..3 {
            for seen in [1u32, 3] {
                rule.set(
                    AgentId::new(agent),
                    1,
                    Observation::new(vec![seen]),
                    Action::Decide(Value::ZERO),
                );
            }
        }
        assert_layers_match(FailureKind::Crash, &rule);
        assert_layers_match(FailureKind::GeneralOmission, &rule);
    }
}

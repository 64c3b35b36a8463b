//! Layered exploration of the reachable state space.
//!
//! The state space of a synchronous protocol model is organised as one layer
//! per time point (`0 ..= horizon`). Layer `m + 1` is produced from layer
//! `m` by applying the decision rule, broadcasting messages, and enumerating
//! every choice the failure model allows the adversary: which agents fail
//! (crash failures), and which individual messages are dropped. States are
//! de-duplicated within each layer, which is what keeps the exploration
//! tractable: many distinct adversary choices lead to the same global state.
//!
//! # Canonical layers
//!
//! Each new layer is built in one pass over the frontier with one interner,
//! then sorted into the total order on [`GlobalState`]; the successor edges
//! are remapped to the sorted positions and sorted too. A state's index in
//! its layer (its `PointId`) therefore depends only on the model, not on
//! the order in which the frontier was expanded.
//!
//! Successor states intern their `inits` (never change after time 0) and
//! `decisions` (shared until an agent decides) behind reference-counted
//! slices, so the per-successor cost is one local-state vector plus
//! reference-count bumps — see [`GlobalState`].
//!
//! Exploration records an [`ExploreStats`]: per-layer state counts,
//! generated-successor counts, de-duplication hits and wall-clock times,
//! consumed by the `tables` binary's `explore` table.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epimc_logic::{AgentId, AgentSet};

use crate::action::{Action, Decision};
use crate::decision::DecisionRule;
use crate::exchange::{InformationExchange, Received};
use crate::failure::{subsets, subsets_up_to, EnvState, FailureKind};
use crate::params::ModelParams;
use crate::state::GlobalState;
use crate::value::{Round, Value};

/// One layer of the state space: the de-duplicated global states at a given
/// time, together with the successor edges into the next layer.
///
/// States are stored behind `Arc` so that layers and the de-duplication
/// interner share them without copying.
pub struct Layer<E: InformationExchange> {
    /// The states of the layer, in a deterministic (sorted) order.
    pub states: Vec<Arc<GlobalState<E>>>,
    /// `successors[i]` lists the indices (in the next layer) of the
    /// successors of `states[i]`. Empty for the final layer.
    pub successors: Vec<Vec<usize>>,
}

impl<E: InformationExchange> Layer<E> {
    /// Number of states in the layer.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` when the layer contains no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Per-layer exploration statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    /// Number of distinct states in the layer after de-duplication.
    pub states: usize,
    /// Number of successor states generated before de-duplication (for the
    /// initial layer: the number of enumerated initial states).
    pub generated: u64,
    /// `generated` minus the number of distinct states: how many generated
    /// states were de-duplicated away.
    pub dedup_hits: u64,
    /// Wall-clock time spent building the layer.
    pub wall: Duration,
}

/// Statistics of a state-space exploration, recorded layer by layer.
///
/// Exposed through [`StateSpace::stats`] and consumed by the `tables`
/// binary to report where exploration time goes.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// One entry per layer, in time order.
    pub layers: Vec<LayerStats>,
}

impl ExploreStats {
    /// Total number of states across all layers.
    pub fn total_states(&self) -> usize {
        self.layers.iter().map(|l| l.states).sum()
    }

    /// Total number of generated (pre-deduplication) states.
    pub fn total_generated(&self) -> u64 {
        self.layers.iter().map(|l| l.generated).sum()
    }

    /// Total number of de-duplication hits.
    pub fn total_dedup_hits(&self) -> u64 {
        self.layers.iter().map(|l| l.dedup_hits).sum()
    }

    /// Total wall-clock time spent exploring.
    pub fn total_wall(&self) -> Duration {
        self.layers.iter().map(|l| l.wall).sum()
    }
}

/// The layered reachable state space of a model instance
/// `(E, F, P, n, t, |V|)`.
pub struct StateSpace<E: InformationExchange> {
    exchange: E,
    params: ModelParams,
    layers: Vec<Layer<E>>,
    stats: ExploreStats,
}

impl<E: InformationExchange> StateSpace<E> {
    /// Builds the initial layer (time 0): every combination of initial
    /// preferences, and — for the omission failure models — every choice of
    /// faulty set of size at most `t`.
    pub fn initial(exchange: E, params: ModelParams) -> Self {
        let start = Instant::now();
        let n = params.num_agents();
        let mut states: Vec<GlobalState<E>> = Vec::new();
        let envs: Vec<EnvState> = match params.failure().kind() {
            FailureKind::Crash => vec![EnvState::pristine()],
            _ => subsets_up_to(AgentSet::full(n), params.max_faulty())
                .map(EnvState::with_faulty)
                .collect(),
        };
        let no_decisions: Arc<[Option<Decision>]> = vec![None; n].into();
        for assignment in value_assignments(n, params.num_values()) {
            let inits: Arc<[Value]> = assignment.into();
            for env in &envs {
                let locals = AgentId::all(n)
                    .map(|agent| exchange.initial_local_state(&params, agent, inits[agent.index()]))
                    .collect();
                states.push(GlobalState {
                    env: *env,
                    inits: Arc::clone(&inits),
                    locals,
                    decisions: Arc::clone(&no_decisions),
                });
            }
        }
        let generated = states.len() as u64;
        states.sort();
        states.dedup();
        let states: Vec<Arc<GlobalState<E>>> = states.into_iter().map(Arc::new).collect();
        let successors = vec![Vec::new(); states.len()];
        let stats = ExploreStats {
            layers: vec![LayerStats {
                states: states.len(),
                generated,
                dedup_hits: generated - states.len() as u64,
                wall: start.elapsed(),
            }],
        };
        StateSpace { exchange, params, layers: vec![Layer { states, successors }], stats }
    }

    /// Builds the full state space up to the horizon of `params`, using the
    /// given decision rule throughout.
    pub fn explore<R: DecisionRule<E>>(exchange: E, params: ModelParams, rule: &R) -> Self {
        let mut space = StateSpace::initial(exchange, params);
        while space.num_layers() <= params.horizon() as usize {
            space.extend(rule);
        }
        space
    }

    /// Extends the state space by one more layer, applying `rule` to the
    /// current final layer. This is the entry point used by the synthesis
    /// engine, which fixes the decision rule layer by layer.
    pub fn extend<R: DecisionRule<E>>(&mut self, rule: &R) {
        let start = Instant::now();
        let time = (self.layers.len() - 1) as Round;
        let source = &self.layers[time as usize];
        let expander = Expander { exchange: &self.exchange, params: &self.params, rule, time };

        // Expand the frontier, interning each successor into the new layer
        // in first-seen order. `Arc<GlobalState>` borrows as `GlobalState`,
        // so a candidate is only allocated into an `Arc` when it is new.
        let mut index_of: HashMap<Arc<GlobalState<E>>, usize> = HashMap::new();
        let mut next_states: Vec<Arc<GlobalState<E>>> = Vec::new();
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(source.len());
        let mut generated = 0u64;
        for state in &source.states {
            let mut targets = Vec::new();
            expander.expand(state, |successor| {
                generated += 1;
                let id = match index_of.get(&successor) {
                    Some(&id) => id,
                    None => {
                        let shared = Arc::new(successor);
                        index_of.insert(Arc::clone(&shared), next_states.len());
                        next_states.push(shared);
                        next_states.len() - 1
                    }
                };
                if !targets.contains(&id) {
                    targets.push(id);
                }
            });
            edges.push(targets);
        }

        // Sort the new layer into the canonical order and remap the edges, so
        // a state's index depends only on the model.
        let mut order: Vec<usize> = (0..next_states.len()).collect();
        order.sort_by(|&a, &b| next_states[a].cmp(&next_states[b]));
        let mut remap = vec![0usize; next_states.len()];
        for (new_pos, &old_pos) in order.iter().enumerate() {
            remap[old_pos] = new_pos;
        }
        let states: Vec<Arc<GlobalState<E>>> =
            order.iter().map(|&old| Arc::clone(&next_states[old])).collect();
        for targets in &mut edges {
            for target in targets.iter_mut() {
                *target = remap[*target];
            }
            targets.sort_unstable();
        }
        self.layers[time as usize].successors = edges;

        let successors = vec![Vec::new(); states.len()];
        self.stats.layers.push(LayerStats {
            states: states.len(),
            generated,
            dedup_hits: generated - states.len() as u64,
            wall: start.elapsed(),
        });
        self.layers.push(Layer { states, successors });
    }

    /// The layers of the state space, indexed by time.
    pub fn layers(&self) -> &[Layer<E>] {
        &self.layers
    }

    /// Number of layers built so far (the final layer has index
    /// `num_layers() - 1`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of states across all layers.
    pub fn total_states(&self) -> usize {
        self.layers.iter().map(Layer::len).sum()
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The information exchange.
    pub fn exchange(&self) -> &E {
        &self.exchange
    }

    /// The per-layer exploration statistics recorded so far.
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }
}

/// Borrowed context for expanding the states of one layer.
struct Expander<'a, E: InformationExchange, R> {
    exchange: &'a E,
    params: &'a ModelParams,
    rule: &'a R,
    time: Round,
}

impl<E: InformationExchange, R: DecisionRule<E>> Expander<'_, E, R> {
    /// Generates every successor of `state`, one adversary choice at a
    /// time, passing each to `emit` (duplicates included).
    fn expand(&self, state: &GlobalState<E>, mut emit: impl FnMut(GlobalState<E>)) {
        let n = self.params.num_agents();
        let kind = self.params.failure().kind();
        let t = self.params.max_faulty();

        // 1. Decision-layer actions and the resulting decision records.
        // The decision slice is interned: successors share the source's
        // slice unless some agent decides this round, and the copy is
        // made at most once per source state even when several agents
        // decide simultaneously (the common case at the deadline round).
        let mut actions = vec![Action::Noop; n];
        let mut updated_decisions: Option<Vec<Option<Decision>>> = None;
        for agent in AgentId::all(n) {
            if state.has_decided(agent) || state.env.has_crashed(agent) {
                continue;
            }
            let action =
                self.rule.action(self.exchange, self.params, agent, self.time, state.local(agent));
            actions[agent.index()] = action;
            if let Action::Decide(value) = action {
                updated_decisions.get_or_insert_with(|| state.decisions.to_vec())[agent.index()] =
                    Some(Decision { value, round: self.time });
            }
        }
        let decisions: Arc<[Option<Decision>]> = match updated_decisions {
            Some(updated) => updated.into(),
            None => Arc::clone(&state.decisions),
        };

        // 2. Messages each (non-crashed) agent broadcasts this round.
        let messages: Vec<Option<E::Message>> = AgentId::all(n)
            .map(|agent| {
                if state.env.has_crashed(agent) {
                    None
                } else {
                    self.exchange.message(
                        self.params,
                        agent,
                        state.local(agent),
                        actions[agent.index()],
                    )
                }
            })
            .collect();

        // 3. Adversary choices for this round.
        let crash_choices: Vec<AgentSet> = match kind {
            FailureKind::Crash => {
                let alive = AgentSet::full(n).difference(state.env.crashed);
                let budget = t.saturating_sub(state.env.crashed.len());
                subsets_up_to(alive, budget).collect()
            }
            // Omission failures: the faulty set is fixed in the initial
            // state and no agent ever crashes.
            _ => vec![AgentSet::EMPTY],
        };

        for crashing in crash_choices {
            let mut env = state.env;
            if kind == FailureKind::Crash {
                env.crash(crashing);
            }

            // 4. Per-receiver possibilities, then their product.
            let per_receiver: Vec<Vec<E::LocalState>> = AgentId::all(n)
                .map(|receiver| {
                    self.receiver_options(state, receiver, &actions, &messages, crashing, kind)
                })
                .collect();

            for combination in CartesianProduct::new(&per_receiver) {
                let locals: Vec<E::LocalState> = combination.into_iter().cloned().collect();
                let successor = GlobalState {
                    env,
                    inits: Arc::clone(&state.inits),
                    locals,
                    decisions: Arc::clone(&decisions),
                };
                emit(successor);
            }
        }
    }

    /// The distinct local states `receiver` can end the round with, given the
    /// adversary's crash choice and the failure kind. The choices of which
    /// individual messages are dropped are independent per (sender, receiver)
    /// pair, so the global successor states are exactly the product of the
    /// per-receiver possibilities.
    fn receiver_options(
        &self,
        state: &GlobalState<E>,
        receiver: AgentId,
        actions: &[Action],
        messages: &[Option<E::Message>],
        crashing: AgentSet,
        kind: FailureKind,
    ) -> Vec<E::LocalState> {
        let n = self.params.num_agents();
        // Agents that were already crashed at the start of the round keep
        // their local state frozen: they send nothing, their knowledge is
        // never consulted (they are outside `N`), and freezing them avoids
        // an irrelevant blow-up of the state space.
        if state.env.has_crashed(receiver) {
            return vec![state.local(receiver).clone()];
        }

        let mut always = AgentSet::EMPTY;
        let mut maybe = AgentSet::EMPTY;
        let receiver_faulty = state.env.is_faulty(receiver);
        for sender in AgentId::all(n) {
            if messages[sender.index()].is_none() {
                continue;
            }
            if sender == receiver {
                // Self-delivery is local and never fails.
                always.insert(sender);
                continue;
            }
            match kind {
                FailureKind::Crash => {
                    if state.env.has_crashed(sender) {
                        // Sends nothing (already excluded: message is None).
                    } else if crashing.contains(sender) {
                        maybe.insert(sender);
                    } else {
                        always.insert(sender);
                    }
                }
                FailureKind::SendOmission => {
                    if state.env.is_faulty(sender) {
                        maybe.insert(sender);
                    } else {
                        always.insert(sender);
                    }
                }
                FailureKind::ReceiveOmission => {
                    if receiver_faulty {
                        maybe.insert(sender);
                    } else {
                        always.insert(sender);
                    }
                }
                FailureKind::GeneralOmission => {
                    if receiver_faulty || state.env.is_faulty(sender) {
                        maybe.insert(sender);
                    } else {
                        always.insert(sender);
                    }
                }
            }
        }

        let mut options = Vec::new();
        for extra in subsets(maybe) {
            let heard = always.union(extra);
            let received = Received::new(
                AgentId::all(n)
                    .map(|sender| {
                        if heard.contains(sender) {
                            messages[sender.index()].clone()
                        } else {
                            None
                        }
                    })
                    .collect(),
            );
            let updated = self.exchange.update(
                self.params,
                receiver,
                state.local(receiver),
                actions[receiver.index()],
                &received,
            );
            if !options.contains(&updated) {
                options.push(updated);
            }
        }
        options
    }
}

/// All assignments of initial preferences to `n` agents over a domain of
/// `num_values` values.
pub(crate) fn value_assignments(n: usize, num_values: usize) -> Vec<Vec<Value>> {
    let mut result = vec![Vec::new()];
    for _ in 0..n {
        let mut extended = Vec::with_capacity(result.len() * num_values);
        for prefix in &result {
            for value in Value::all(num_values) {
                let mut assignment = prefix.clone();
                assignment.push(value);
                extended.push(assignment);
            }
        }
        result = extended;
    }
    result
}

/// Iterator over the cartesian product of a slice of option vectors,
/// yielding one reference per slot.
struct CartesianProduct<'a, T> {
    slots: &'a [Vec<T>],
    indices: Vec<usize>,
    done: bool,
}

impl<'a, T> CartesianProduct<'a, T> {
    fn new(slots: &'a [Vec<T>]) -> Self {
        let done = slots.iter().any(Vec::is_empty);
        CartesianProduct { slots, indices: vec![0; slots.len()], done }
    }
}

impl<'a, T> Iterator for CartesianProduct<'a, T> {
    type Item = Vec<&'a T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.slots.iter().zip(&self.indices).map(|(slot, &idx)| &slot[idx]).collect();
        // Advance the mixed-radix counter.
        let mut position = self.slots.len();
        loop {
            if position == 0 {
                self.done = true;
                break;
            }
            position -= 1;
            self.indices[position] += 1;
            if self.indices[position] < self.slots[position].len() {
                break;
            }
            self.indices[position] = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::NeverDecide;
    use crate::exchange::{ObservableVar, Observation};

    /// A minimal information exchange for testing the generator: each agent
    /// remembers the set of initial values it has seen (a bitmask), i.e. a
    /// bare-bones FloodSet.
    #[derive(Clone, Debug, PartialEq, Eq)]
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

    fn params(n: usize, t: usize, kind: FailureKind) -> ModelParams {
        ModelParams::builder().agents(n).max_faulty(t).values(2).failure(kind).build()
    }

    #[test]
    fn value_assignments_enumerates_all_combinations() {
        let assignments = value_assignments(3, 2);
        assert_eq!(assignments.len(), 8);
        let assignments = value_assignments(2, 3);
        assert_eq!(assignments.len(), 9);
        assert!(assignments.iter().all(|a| a.len() == 2));
    }

    #[test]
    fn cartesian_product_matches_expected_size() {
        let slots = vec![vec![1, 2], vec![10], vec![100, 200, 300]];
        let combos: Vec<Vec<&i32>> = CartesianProduct::new(&slots).collect();
        assert_eq!(combos.len(), 6);
        let empty_slot: Vec<Vec<i32>> = vec![vec![1], vec![]];
        assert_eq!(CartesianProduct::new(&empty_slot).count(), 0);
    }

    #[test]
    fn initial_layer_crash_model() {
        let space = StateSpace::initial(ToyFlood, params(3, 1, FailureKind::Crash));
        // 2^3 initial value assignments, single pristine environment.
        assert_eq!(space.layers()[0].len(), 8);
        assert!(space.layers()[0].states.iter().all(|s| s.env == EnvState::pristine()));
    }

    #[test]
    fn initial_layer_omission_model_enumerates_faulty_sets() {
        let space = StateSpace::initial(ToyFlood, params(3, 1, FailureKind::SendOmission));
        // 8 value assignments × (1 + 3) faulty sets of size ≤ 1.
        assert_eq!(space.layers()[0].len(), 32);
    }

    #[test]
    fn crash_exploration_reaches_horizon_and_connects_layers() {
        let p = params(3, 1, FailureKind::Crash);
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        assert_eq!(space.num_layers() as u32, p.horizon() + 1);
        assert!(space.total_states() > space.layers()[0].len());
        // Under every failure kind the layers are in canonical form: states
        // strictly ascending, and every non-final state has a non-empty,
        // strictly ascending successor list into the next layer.
        for kind in FailureKind::ALL {
            let space = StateSpace::explore(ToyFlood, params(3, 2, kind), &NeverDecide);
            for (layer_idx, layer) in space.layers().iter().enumerate() {
                assert!(layer.states.windows(2).all(|w| w[0] < w[1]), "{kind:?} layer {layer_idx}");
                if layer_idx + 1 == space.num_layers() {
                    assert!(layer.successors.iter().all(Vec::is_empty));
                    continue;
                }
                let next_len = space.layers()[layer_idx + 1].len();
                for succ in &layer.successors {
                    assert!(
                        !succ.is_empty(),
                        "{kind:?}: state without successors at layer {layer_idx}"
                    );
                    assert!(succ.windows(2).all(|w| w[0] < w[1]), "{kind:?} layer {layer_idx}");
                    assert!(succ.iter().all(|&target| target < next_len));
                }
            }
        }
    }

    #[test]
    fn crash_bound_limits_number_of_crashed_agents() {
        let p = params(3, 2, FailureKind::Crash);
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        for layer in space.layers() {
            for state in &layer.states {
                assert!(state.env.crashed.len() <= 2);
                assert_eq!(state.env.crashed, state.env.faulty);
            }
        }
        // With t = 2, states with exactly two crashed agents are reachable.
        assert!(space.layers().last().unwrap().states.iter().any(|s| s.env.crashed.len() == 2));
    }

    #[test]
    fn omission_model_keeps_faulty_set_constant() {
        let p = params(2, 1, FailureKind::SendOmission);
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        for layer in space.layers() {
            for state in &layer.states {
                assert!(state.env.crashed.is_empty());
                assert!(state.env.faulty.len() <= 1);
            }
        }
    }

    #[test]
    fn failure_free_runs_reach_full_information() {
        // With no failures allowed, after one round every agent has seen every
        // initial value.
        let p = ModelParams::builder()
            .agents(3)
            .max_faulty(0)
            .values(2)
            .failure(FailureKind::Crash)
            .horizon(2)
            .build();
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        for state in &space.layers()[1].states {
            let expected: u32 = state.inits.iter().fold(0, |acc, v| acc | (1 << v.index()));
            for agent in AgentId::all(3) {
                assert_eq!(*state.local(agent), expected);
            }
        }
    }

    #[test]
    fn send_omission_faulty_sender_may_be_unheard() {
        let p = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .horizon(1)
            .build();
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        // There is a reachable state at time 1 where agent 1 (faulty agent 0
        // omitted its message) has seen only its own value even though the
        // initial values differ.
        let found = space.layers()[1].states.iter().any(|s| {
            s.env.faulty.contains(AgentId::new(0))
                && s.inits[0] != s.inits[1]
                && *s.local(AgentId::new(1)) == (1 << s.inits[1].index())
        });
        assert!(found);
    }

    #[test]
    fn stats_record_layers_and_dedup() {
        let p = params(3, 1, FailureKind::Crash);
        let space = StateSpace::explore(ToyFlood, p, &NeverDecide);
        let stats = space.stats();
        assert_eq!(stats.layers.len(), space.num_layers());
        assert_eq!(stats.total_states(), space.total_states());
        for (layer, layer_stats) in space.layers().iter().zip(&stats.layers) {
            assert_eq!(layer.len(), layer_stats.states);
            assert!(layer_stats.generated >= layer_stats.states as u64);
            assert_eq!(layer_stats.dedup_hits, layer_stats.generated - layer_stats.states as u64);
        }
        // The exploration enumerates strictly more candidates than states
        // (adversary choices collide), so dedup hits are visible.
        assert!(stats.total_dedup_hits() > 0);
    }
}

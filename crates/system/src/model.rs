//! The Kripke-style view of an explored state space, as consumed by the
//! model checking and synthesis engines.

use std::fmt;
use std::hash::Hash;

use epimc_logic::{AgentId, AgentSet};

use crate::action::Action;
use crate::atom::ConsensusAtom;
use crate::decision::DecisionRule;
use crate::exchange::{InformationExchange, Observation};
use crate::explore::StateSpace;
use crate::params::ModelParams;
use crate::state::GlobalState;
use crate::value::Round;

/// Identifier of a point of the system: a layer (time) and the index of a
/// state within that layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PointId {
    /// The time of the point.
    pub time: Round,
    /// The index of the state within its layer.
    pub index: usize,
}

impl PointId {
    /// Creates a point identifier.
    pub fn new(time: Round, index: usize) -> Self {
        PointId { time, index }
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, #{})", self.time, self.index)
    }
}

/// The interface between an explored protocol model and the epistemic model
/// checker.
///
/// A `PointModel` exposes the layered structure of the reachable points of an
/// interpreted system under the *clock semantics* of knowledge: points are
/// grouped into layers by time, each point carries one observation per agent,
/// an indexical nonfaulty set, and an interpretation of the atomic
/// propositions.
pub trait PointModel {
    /// The atomic propositions interpreted by the model.
    type Atom: Clone + Eq + Hash + fmt::Debug;

    /// Number of agents.
    fn num_agents(&self) -> usize;

    /// Number of layers (the horizon plus one).
    fn num_layers(&self) -> usize;

    /// Number of points in the given layer.
    fn layer_size(&self, time: Round) -> usize;

    /// The successors (indices in layer `time + 1`) of a point. Empty for
    /// the final layer.
    fn successors(&self, point: PointId) -> &[usize];

    /// The observation `agent` makes at `point` (the clock-semantics local
    /// state is the pair of `point.time` and this observation).
    fn observation(&self, agent: AgentId, point: PointId) -> &Observation;

    /// The indexical nonfaulty set `N` at `point`.
    fn nonfaulty(&self, point: PointId) -> AgentSet;

    /// Truth value of an atomic proposition at `point`.
    fn eval_atom(&self, atom: &Self::Atom, point: PointId) -> bool;

    /// Iterates over every point of the model.
    fn points(&self) -> Vec<PointId> {
        let mut result = Vec::new();
        for time in 0..self.num_layers() as Round {
            for index in 0..self.layer_size(time) {
                result.push(PointId::new(time, index));
            }
        }
        result
    }
}

/// A consensus protocol model: an explored state space together with the
/// decision rule that produced it, packaged as a [`PointModel`] over
/// [`ConsensusAtom`].
///
/// Observations are precomputed for every `(agent, point)` pair so that the
/// model checker's observation-grouping (the knowledge relation of the clock
/// semantics) does not repeatedly re-encode local states.
pub struct ConsensusModel<E: InformationExchange, R> {
    space: StateSpace<E>,
    rule: R,
    observations: Vec<Vec<Vec<Observation>>>,
}

/// Computes one layer's observation cache (`[point][agent]`). Shared by the
/// full precompute of [`ConsensusModel::new`] and the incremental
/// [`ConsensusModel::extend_layer`].
fn layer_observations<E: InformationExchange>(
    space: &StateSpace<E>,
    layer: &crate::explore::Layer<E>,
) -> Vec<Vec<Observation>> {
    let params = *space.params();
    let n = params.num_agents();
    layer
        .states
        .iter()
        .map(|state| {
            AgentId::all(n)
                .map(|agent| space.exchange().observation(&params, agent, state.local(agent)))
                .collect()
        })
        .collect()
}

impl<E: InformationExchange, R: DecisionRule<E>> ConsensusModel<E, R> {
    /// Wraps an explored state space and its decision rule, precomputing
    /// the per-point observations.
    pub fn new(space: StateSpace<E>, rule: R) -> Self {
        let observations =
            space.layers().iter().map(|layer| layer_observations(&space, layer)).collect();
        ConsensusModel { space, rule, observations }
    }

    /// Convenience constructor: explores the state space for `params` and
    /// wraps it.
    pub fn explore(exchange: E, params: ModelParams, rule: R) -> Self {
        let space = StateSpace::explore(exchange, params, &rule);
        ConsensusModel::new(space, rule)
    }

    /// The underlying state space.
    pub fn space(&self) -> &StateSpace<E> {
        &self.space
    }

    /// Replaces the decision rule without touching the explored layers or
    /// the observation cache.
    ///
    /// The synthesis engines fix the rule entry by entry as the forward
    /// induction proceeds; swapping the rule in place lets them reuse one
    /// model (and its precomputed observations) across branches and rounds
    /// instead of rebuilding it. Layers already explored are *not*
    /// re-derived: the caller must only change entries that do not affect
    /// the rounds already taken (which is exactly the discipline of forward
    /// synthesis, where entries for earlier times are final).
    pub fn set_rule(&mut self, rule: R) {
        self.rule = rule;
    }

    /// Extends the underlying state space by one layer under the current
    /// rule and appends the observation cache for the new layer only.
    ///
    /// This is the incremental entry point used by the synthesis engines:
    /// together with [`ConsensusModel::set_rule`] it grows the model one
    /// round at a time under the partial rule synthesized so far, without
    /// recomputing the observations of the existing layers.
    pub fn extend_layer(&mut self) {
        let ConsensusModel { space, rule, observations } = self;
        space.extend(&*rule);
        let layer = space.layers().last().expect("extend produced a layer");
        observations.push(layer_observations(space, layer));
    }

    /// Returns `true` when every agent has either decided or crashed in
    /// every state of the final layer — no agent can perform any further
    /// action, so extending the space cannot change any decision. The
    /// synthesis engines use this to exit the forward induction early.
    pub fn final_layer_settled(&self) -> bool {
        let n = self.space.params().num_agents();
        let last = self.space.layers().last().expect("state space has a layer");
        last.states.iter().all(|state| {
            AgentId::all(n).all(|agent| state.has_decided(agent) || state.env.has_crashed(agent))
        })
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        self.space.params()
    }

    /// The decision rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The global state at a point.
    pub fn state(&self, point: PointId) -> &GlobalState<E> {
        self.space.layers()[point.time as usize].states[point.index].as_ref()
    }

    /// The action the decision rule takes for `agent` at `point` (taking the
    /// Unique-Decision requirement and crashes into account, exactly as the
    /// state-space generator does).
    pub fn action_at(&self, agent: AgentId, point: PointId) -> Action {
        let state = self.state(point);
        if state.has_decided(agent) || state.env.has_crashed(agent) {
            return Action::Noop;
        }
        self.rule.action(
            self.space.exchange(),
            self.space.params(),
            agent,
            point.time,
            state.local(agent),
        )
    }
}

impl<E: InformationExchange, R: DecisionRule<E>> PointModel for ConsensusModel<E, R> {
    type Atom = ConsensusAtom;

    fn num_agents(&self) -> usize {
        self.space.params().num_agents()
    }

    fn num_layers(&self) -> usize {
        self.space.num_layers()
    }

    fn layer_size(&self, time: Round) -> usize {
        self.space.layers()[time as usize].len()
    }

    fn successors(&self, point: PointId) -> &[usize] {
        &self.space.layers()[point.time as usize].successors[point.index]
    }

    fn observation(&self, agent: AgentId, point: PointId) -> &Observation {
        &self.observations[point.time as usize][point.index][agent.index()]
    }

    fn nonfaulty(&self, point: PointId) -> AgentSet {
        self.state(point).nonfaulty()
    }

    fn eval_atom(&self, atom: &ConsensusAtom, point: PointId) -> bool {
        let state = self.state(point);
        match *atom {
            ConsensusAtom::InitIs(agent, value) => state.init(agent) == value,
            ConsensusAtom::ExistsInit(value) => state.exists_init(value),
            ConsensusAtom::Nonfaulty(agent) => state.nonfaulty().contains(agent),
            ConsensusAtom::Decided(agent) => state.has_decided(agent),
            ConsensusAtom::DecidedValue(agent, value) => {
                state.decision(agent).map(|d| d.value) == Some(value)
            }
            ConsensusAtom::DecidesNow(agent, value) => {
                self.action_at(agent, point) == Action::Decide(value)
            }
            ConsensusAtom::TimeIs(round) => point.time == round,
            ConsensusAtom::ObsEquals(agent, var, value) => {
                self.observation(agent, point).value(var) == value
            }
            ConsensusAtom::ObsAtMost(agent, var, value) => {
                self.observation(agent, point).value(var) <= value
            }
            ConsensusAtom::CollisionProbe(truth) => truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::NeverDecide;
    use crate::exchange::{ObservableVar, Received};
    use crate::failure::FailureKind;
    use crate::value::Value;

    #[derive(Clone, Debug)]
    struct Silent;

    impl InformationExchange for Silent {
        type LocalState = Value;
        type Message = ();

        fn name(&self) -> &'static str {
            "silent"
        }

        fn initial_local_state(&self, _p: &ModelParams, _a: AgentId, init: Value) -> Value {
            init
        }

        fn message(
            &self,
            _p: &ModelParams,
            _a: AgentId,
            _s: &Value,
            _action: Action,
        ) -> Option<()> {
            None
        }

        fn update(
            &self,
            _p: &ModelParams,
            _a: AgentId,
            state: &Value,
            _action: Action,
            _received: &Received<()>,
        ) -> Value {
            *state
        }

        fn observation(&self, _p: &ModelParams, _a: AgentId, state: &Value) -> Observation {
            Observation::new(vec![state.index() as u32])
        }

        fn observable_layout(&self, _p: &ModelParams) -> Vec<ObservableVar> {
            vec![ObservableVar::ranged("init", 2)]
        }
    }

    fn model() -> ConsensusModel<Silent, NeverDecide> {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .horizon(1)
            .build();
        ConsensusModel::explore(Silent, params, NeverDecide)
    }

    #[test]
    fn points_enumeration_covers_all_layers() {
        let m = model();
        let points = m.points();
        let expected: usize = (0..m.num_layers() as Round).map(|t| m.layer_size(t)).sum();
        assert_eq!(points.len(), expected);
        assert!(points.contains(&PointId::new(0, 0)));
    }

    #[test]
    fn atoms_reflect_global_state() {
        let m = model();
        // Find the initial point where both agents prefer 1.
        let point = m
            .points()
            .into_iter()
            .find(|p| {
                p.time == 0
                    && m.eval_atom(&ConsensusAtom::InitIs(AgentId::new(0), Value::ONE), *p)
                    && m.eval_atom(&ConsensusAtom::InitIs(AgentId::new(1), Value::ONE), *p)
            })
            .expect("initial point with both preferring 1");
        assert!(m.eval_atom(&ConsensusAtom::ExistsInit(Value::ONE), point));
        assert!(!m.eval_atom(&ConsensusAtom::ExistsInit(Value::ZERO), point));
        assert!(m.eval_atom(&ConsensusAtom::Nonfaulty(AgentId::new(0)), point));
        assert!(!m.eval_atom(&ConsensusAtom::Decided(AgentId::new(0)), point));
        assert!(m.eval_atom(&ConsensusAtom::TimeIs(0), point));
        assert!(!m.eval_atom(&ConsensusAtom::TimeIs(1), point));
        assert!(m.eval_atom(&ConsensusAtom::ObsEquals(AgentId::new(0), 0, 1), point));
        assert!(m.eval_atom(&ConsensusAtom::ObsAtMost(AgentId::new(0), 0, 1), point));
        assert!(!m.eval_atom(&ConsensusAtom::ObsAtMost(AgentId::new(0), 0, 0), point));
        // NeverDecide never decides.
        assert!(!m.eval_atom(&ConsensusAtom::DecidesNow(AgentId::new(0), Value::ONE), point));
    }

    #[test]
    fn extend_layer_matches_whole_space_exploration() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .horizon(2)
            .build();
        let full = ConsensusModel::explore(Silent, params, NeverDecide);
        let mut incremental =
            ConsensusModel::new(crate::explore::StateSpace::initial(Silent, params), NeverDecide);
        while incremental.num_layers() < full.num_layers() {
            incremental.extend_layer();
        }
        assert_eq!(incremental.num_layers(), full.num_layers());
        for time in 0..full.num_layers() as Round {
            assert_eq!(incremental.layer_size(time), full.layer_size(time));
            for index in 0..full.layer_size(time) {
                let point = PointId::new(time, index);
                assert_eq!(incremental.state(point), full.state(point));
                assert_eq!(incremental.successors(point), full.successors(point));
                for agent in AgentId::all(2) {
                    assert_eq!(
                        incremental.observation(agent, point),
                        full.observation(agent, point)
                    );
                }
            }
        }
    }

    #[test]
    fn final_layer_settled_tracks_decisions() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .horizon(2)
            .build();
        // Nobody ever decides: never settled.
        let idle = ConsensusModel::explore(Silent, params, NeverDecide);
        assert!(!idle.final_layer_settled());

        // Every agent decides its own value in round 0: settled from layer 1.
        let mut table = crate::decision::TableRule::new("decide-immediately");
        for agent in AgentId::all(2) {
            for value in 0..2u32 {
                table.set(
                    agent,
                    0,
                    Observation::new(vec![value]),
                    Action::Decide(Value::new(value as usize)),
                );
            }
        }
        let mut eager =
            ConsensusModel::new(crate::explore::StateSpace::initial(Silent, params), table);
        assert!(!eager.final_layer_settled(), "initial layer has no decisions");
        eager.extend_layer();
        assert!(eager.final_layer_settled());
        // Replacing the rule does not disturb the explored layers.
        eager.set_rule(crate::decision::TableRule::new("noop"));
        assert_eq!(eager.num_layers(), 2);
        assert!(eager.final_layer_settled());
    }

    #[test]
    fn observations_are_cached_consistently() {
        let m = model();
        for point in m.points() {
            for agent in AgentId::all(2) {
                let direct = Silent.observation(m.params(), agent, m.state(point).local(agent));
                assert_eq!(m.observation(agent, point), &direct);
            }
        }
    }
}

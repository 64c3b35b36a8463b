//! The explicit-state epistemic model checking engine.

use std::collections::HashMap;

use epimc_logic::{AgentId, Formula, TemporalKind};
use epimc_system::{Observation, PointId, PointModel, Round};

use crate::pointset::PointSet;

/// The explicit-state model checker.
///
/// Evaluation is by structural recursion on the formula; every subformula
/// denotes a [`PointSet`]. Knowledge under the clock semantics is computed by
/// grouping the points of each layer by the agent's observation (the groups
/// are precomputed once per checker); common belief is the greatest fixpoint
/// of the "everyone in `N` believes" operator, computed by iteration from the
/// full set of points.
pub struct Checker<'m, M: PointModel> {
    model: &'m M,
    /// `groups[time][agent]` maps an observation to the indices of the layer's
    /// points at which the agent makes that observation.
    groups: Vec<Vec<HashMap<Observation, Vec<usize>>>>,
}

impl<'m, M: PointModel> Checker<'m, M> {
    /// Creates a checker for the given model, precomputing the
    /// observation-equivalence groups that realise the clock-semantics
    /// knowledge accessibility relation. Points are visited in index order,
    /// so each group's index list is sorted ascending.
    pub fn new(model: &'m M) -> Self {
        let n = model.num_agents();
        let mut groups = Vec::with_capacity(model.num_layers());
        for time in 0..model.num_layers() as Round {
            let mut per_agent: Vec<HashMap<Observation, Vec<usize>>> = vec![HashMap::new(); n];
            for index in 0..model.layer_size(time) {
                let point = PointId::new(time, index);
                for agent in AgentId::all(n) {
                    per_agent[agent.index()]
                        .entry(model.observation(agent, point).clone())
                        .or_default()
                        .push(index);
                }
            }
            groups.push(per_agent);
        }
        Checker { model, groups }
    }

    /// The model being checked.
    pub fn model(&self) -> &M {
        self.model
    }

    /// Evaluates `formula`, returning the set of points at which it holds.
    ///
    /// # Panics
    ///
    /// Panics if the formula contains a free fixpoint variable.
    pub fn check(&self, formula: &Formula<M::Atom>) -> PointSet {
        let mut env = HashMap::new();
        self.eval(formula, &mut env)
    }

    /// Returns `true` when `formula` holds at `point`.
    pub fn holds_at(&self, formula: &Formula<M::Atom>, point: PointId) -> bool {
        self.check(formula).contains(point)
    }

    /// Returns `true` when `formula` holds at every point of the model.
    pub fn holds_everywhere(&self, formula: &Formula<M::Atom>) -> bool {
        self.check(formula) == PointSet::full(self.model)
    }

    /// Returns `true` when `formula` holds at every initial point (layer 0).
    pub fn holds_initially(&self, formula: &Formula<M::Atom>) -> bool {
        let result = self.check(formula);
        (0..self.model.layer_size(0)).all(|index| result.contains(PointId::new(0, index)))
    }

    /// The set of points of layer `time` at which `formula` holds.
    pub fn holds_in_layer(&self, formula: &Formula<M::Atom>, time: Round) -> PointSet {
        self.check(formula).restrict_to_layer(time)
    }

    /// A point at which `formula` fails, if any — used to report
    /// counterexamples.
    pub fn find_counterexample(&self, formula: &Formula<M::Atom>) -> Option<PointId> {
        let holds = self.check(formula);
        self.model.points().into_iter().find(|&p| !holds.contains(p))
    }

    fn eval(&self, formula: &Formula<M::Atom>, env: &mut HashMap<u32, PointSet>) -> PointSet {
        match formula {
            Formula::True => PointSet::full(self.model),
            Formula::False => PointSet::empty(self.model),
            Formula::Atom(atom) => {
                let mut set = PointSet::empty(self.model);
                for point in self.model.points() {
                    if self.model.eval_atom(atom, point) {
                        set.insert(point);
                    }
                }
                set
            }
            Formula::Var(v) => {
                env.get(v).unwrap_or_else(|| panic!("free fixpoint variable _X{v}")).clone()
            }
            Formula::Not(inner) => self.eval(inner, env).complement(),
            Formula::And(items) => {
                let mut acc = PointSet::full(self.model);
                for item in items {
                    acc.intersect_with(&self.eval(item, env));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Formula::Or(items) => {
                let mut acc = PointSet::empty(self.model);
                for item in items {
                    acc.union_with(&self.eval(item, env));
                }
                acc
            }
            Formula::Implies(lhs, rhs) => {
                let mut not_lhs = self.eval(lhs, env).complement();
                not_lhs.union_with(&self.eval(rhs, env));
                not_lhs
            }
            Formula::Iff(lhs, rhs) => {
                let l = self.eval(lhs, env);
                let r = self.eval(rhs, env);
                let both = l.intersection(&r);
                let neither = l.complement().intersection(&r.complement());
                both.union(&neither)
            }
            Formula::Knows(agent, inner) => {
                let target = self.eval(inner, env);
                self.knowledge(*agent, &target, false)
            }
            Formula::BelievesNonfaulty(agent, inner) => {
                let target = self.eval(inner, env);
                self.knowledge(*agent, &target, true)
            }
            Formula::EveryoneBelieves(inner) => {
                let target = self.eval(inner, env);
                self.everyone_believes(&target)
            }
            Formula::CommonBelief(inner) => {
                let target = self.eval(inner, env);
                self.common_belief(&target)
            }
            Formula::Gfp(var, body) => self.fixpoint(*var, body, env, true),
            Formula::Lfp(var, body) => self.fixpoint(*var, body, env, false),
            Formula::Temporal(kind, inner) => {
                let target = self.eval(inner, env);
                self.temporal(*kind, &target)
            }
        }
    }

    /// `K_i target` (when `guarded` is false) or `B^N_i target = K_i (i ∈ N ⇒
    /// target)` (when `guarded` is true), under the clock semantics.
    fn knowledge(&self, agent: AgentId, target: &PointSet, guarded: bool) -> PointSet {
        let mut result = PointSet::empty(self.model);
        for (time, per_agent) in self.groups.iter().enumerate() {
            let time = time as Round;
            for indices in per_agent[agent.index()].values() {
                let all_hold = indices.iter().all(|&index| {
                    let point = PointId::new(time, index);
                    if guarded && !self.model.nonfaulty(point).contains(agent) {
                        // Points where the agent is faulty are vacuously fine.
                        true
                    } else {
                        target.contains(point)
                    }
                });
                if all_hold {
                    for &index in indices {
                        result.insert(PointId::new(time, index));
                    }
                }
            }
        }
        result
    }

    /// `E_B_N target`: at a point `p`, every agent in `N(p)` believes
    /// `target` (relative to `N`).
    fn everyone_believes(&self, target: &PointSet) -> PointSet {
        let n = self.model.num_agents();
        let beliefs: Vec<PointSet> =
            AgentId::all(n).map(|agent| self.knowledge(agent, target, true)).collect();
        let mut result = PointSet::empty(self.model);
        for point in self.model.points() {
            let nonfaulty = self.model.nonfaulty(point);
            let all = nonfaulty.iter().all(|agent| beliefs[agent.index()].contains(point));
            if all {
                result.insert(point);
            }
        }
        result
    }

    /// `C_B_N target = νX. E_B_N (X ∧ target)`, by fixpoint iteration from
    /// the full set of points.
    fn common_belief(&self, target: &PointSet) -> PointSet {
        let mut current = PointSet::full(self.model);
        loop {
            let mut body = current.clone();
            body.intersect_with(target);
            let next = self.everyone_believes(&body);
            if next == current {
                return current;
            }
            current = next;
        }
    }

    fn fixpoint(
        &self,
        var: u32,
        body: &Formula<M::Atom>,
        env: &mut HashMap<u32, PointSet>,
        greatest: bool,
    ) -> PointSet {
        let mut current =
            if greatest { PointSet::full(self.model) } else { PointSet::empty(self.model) };
        loop {
            let saved = env.insert(var, current.clone());
            let next = self.eval(body, env);
            match saved {
                Some(value) => {
                    env.insert(var, value);
                }
                None => {
                    env.remove(&var);
                }
            }
            if next == current {
                return current;
            }
            current = next;
        }
    }

    fn temporal(&self, kind: TemporalKind, target: &PointSet) -> PointSet {
        match kind {
            TemporalKind::AllNext => self.next(target, true),
            TemporalKind::ExistsNext => self.next(target, false),
            TemporalKind::AllGlobally => self.globally_finally(target, true, true),
            TemporalKind::ExistsGlobally => self.globally_finally(target, true, false),
            TemporalKind::AllFinally => self.globally_finally(target, false, true),
            TemporalKind::ExistsFinally => self.globally_finally(target, false, false),
        }
    }

    /// `AX` (universal = true) or `EX` (universal = false). Points of the
    /// final layer have no successors: `AX` holds vacuously, `EX` fails.
    fn next(&self, target: &PointSet, universal: bool) -> PointSet {
        let mut result = PointSet::empty(self.model);
        for point in self.model.points() {
            let successors = self.model.successors(point);
            let holds = if point.time as usize + 1 == self.model.num_layers() {
                universal
            } else if universal {
                successors.iter().all(|&next| target.contains(PointId::new(point.time + 1, next)))
            } else {
                successors.iter().any(|&next| target.contains(PointId::new(point.time + 1, next)))
            };
            if holds {
                result.insert(point);
            }
        }
        result
    }

    /// Bounded `AG`/`EG` (`globally` = true) and `AF`/`EF` (`globally` =
    /// false), computed backwards from the final layer over the finite
    /// unrolling.
    fn globally_finally(&self, target: &PointSet, globally: bool, universal: bool) -> PointSet {
        let mut result = PointSet::empty(self.model);
        for time in (0..self.model.num_layers() as Round).rev() {
            for index in 0..self.model.layer_size(time) {
                let point = PointId::new(time, index);
                let here = target.contains(point);
                let is_last = time as usize + 1 == self.model.num_layers();
                let successors = self.model.successors(point);
                let next_holds =
                    |succ_index: &&usize| result.contains(PointId::new(time + 1, **succ_index));
                let future = if is_last {
                    // On the bounded unrolling the path ends here.
                    globally
                } else if universal {
                    successors.iter().all(|s| next_holds(&s))
                } else {
                    successors.iter().any(|s| next_holds(&s))
                };
                let holds = if globally { here && future } else { here || future };
                if holds {
                    result.insert(point);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epimc_protocols::{FloodSet, FloodSetRule};
    use epimc_system::{
        ConsensusAtom, ConsensusModel, FailureKind, ModelParams, NeverDecide, Value,
    };

    type F = Formula<ConsensusAtom>;

    fn flood_model(n: usize, t: usize) -> ConsensusModel<FloodSet, FloodSetRule> {
        let params = ModelParams::builder()
            .agents(n)
            .max_faulty(t)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        ConsensusModel::explore(FloodSet, params, FloodSetRule)
    }

    fn exists(v: usize) -> F {
        F::atom(ConsensusAtom::ExistsInit(Value::new(v)))
    }

    #[test]
    fn propositional_evaluation() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        // ∃0 ∨ ∃1 holds everywhere (every agent has some initial value).
        assert!(checker.holds_everywhere(&F::or([exists(0), exists(1)])));
        // ∃0 ∧ ∃1 holds only where initial values differ.
        let both = checker.check(&F::and([exists(0), exists(1)]));
        assert!(!both.is_empty());
        assert!(both.len() < PointSet::full(&model).len());
        // Tautologies and contradictions.
        assert!(checker.holds_everywhere(&F::implies(exists(0), exists(0))));
        assert!(checker.check(&F::and([exists(0), F::not(exists(0))])).is_empty());
        assert!(checker.holds_everywhere(&F::iff(exists(0), F::not(F::not(exists(0))))));
    }

    #[test]
    fn knowledge_requires_information() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        let agent0_knows = F::knows(AgentId::new(0), exists(0));
        let result = checker.check(&agent0_knows);
        // At time 0 agent 0 knows ∃0 exactly when its own value is 0.
        for index in 0..model.layer_size(0) {
            let point = PointId::new(0, index);
            let own_zero =
                model.eval_atom(&ConsensusAtom::InitIs(AgentId::new(0), Value::ZERO), point);
            assert_eq!(result.contains(point), own_zero, "point {point}");
        }
        // Knowledge is veridical: K_0 ∃0 ⇒ ∃0 everywhere.
        assert!(checker.holds_everywhere(&F::implies(agent0_knows, exists(0))));
    }

    #[test]
    fn knowledge_spreads_after_a_failure_free_round() {
        let model = flood_model(2, 0); // no failures possible
        let checker = Checker::new(&model);
        let k = F::knows(AgentId::new(1), exists(0));
        let result = checker.check(&k);
        // After one failure-free round, agent 1 knows ∃0 whenever it holds.
        for index in 0..model.layer_size(1) {
            let point = PointId::new(1, index);
            assert_eq!(
                result.contains(point),
                model.eval_atom(&ConsensusAtom::ExistsInit(Value::ZERO), point)
            );
        }
    }

    #[test]
    fn common_belief_is_stronger_than_belief() {
        let model = flood_model(3, 1);
        let checker = Checker::new(&model);
        let cb = checker.check(&F::common_belief(exists(0)));
        // CB φ ⇒ B_i φ at every point where agent i is nonfaulty.
        assert!(checker.holds_everywhere(&F::implies(
            F::and([
                F::common_belief(exists(0)),
                F::atom(ConsensusAtom::Nonfaulty(AgentId::new(0))),
            ]),
            F::believes_nonfaulty(AgentId::new(0), exists(0)),
        )));
        // Fixpoint form agrees with the dedicated operator: CB φ ⇔ EB(φ ∧ CB φ).
        let unfolded =
            checker.check(&F::everyone_believes(F::and([exists(0), F::common_belief(exists(0))])));
        assert_eq!(cb, unfolded);
    }

    #[test]
    fn gfp_expansion_matches_common_belief_operator() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        let direct = checker.check(&F::common_belief(exists(0)));
        let expanded = F::common_belief(exists(0)).expand_derived(
            2,
            &|agent| ConsensusAtom::Nonfaulty(agent),
            0,
        );
        let via_gfp = checker.check(&expanded);
        assert_eq!(direct, via_gfp);
    }

    #[test]
    fn temporal_operators_on_the_layered_graph() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        // Initial preferences never change: AG ∃0 ⇔ ∃0.
        assert!(checker.holds_everywhere(&F::iff(F::all_globally(exists(0)), exists(0))));
        assert!(checker.holds_everywhere(&F::iff(F::exists_finally(exists(0)), exists(0))));
        // AX true holds everywhere, EX true fails exactly on the last layer.
        assert!(checker.holds_everywhere(&F::all_next(F::True)));
        let ex_true = checker.check(&F::exists_next(F::True));
        let last = model.num_layers() as Round - 1;
        for point in model.points() {
            assert_eq!(ex_true.contains(point), point.time != last);
        }
        // Time progresses: at time 0, AX (time == 1).
        let ax_time1 = checker.check(&F::all_next(F::atom(ConsensusAtom::TimeIs(1))));
        for index in 0..model.layer_size(0) {
            assert!(ax_time1.contains(PointId::new(0, index)));
        }
    }

    #[test]
    fn decision_atoms_follow_the_rule() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        // With the textbook rule nobody decides before time t + 1 = 2, and
        // every non-crashed agent has decided by the final layer.
        let decided0 = F::atom(ConsensusAtom::Decided(AgentId::new(0)));
        let too_early = checker.check(&F::and([
            F::or([
                F::atom(ConsensusAtom::TimeIs(0)),
                F::atom(ConsensusAtom::TimeIs(1)),
                F::atom(ConsensusAtom::TimeIs(2)),
            ]),
            decided0.clone(),
        ]));
        assert!(too_early.is_empty());
        let alive_undecided_at_end = checker.check(&F::and([
            F::atom(ConsensusAtom::TimeIs(3)),
            F::atom(ConsensusAtom::Nonfaulty(AgentId::new(0))),
            F::not(decided0),
        ]));
        assert!(alive_undecided_at_end.is_empty());
    }

    #[test]
    fn never_decide_model_has_no_decisions() {
        let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
        let model = ConsensusModel::explore(FloodSet, params, NeverDecide);
        let checker = Checker::new(&model);
        let someone_decides =
            F::or((0..2).map(|i| F::atom(ConsensusAtom::Decided(AgentId::new(i)))));
        assert!(checker.check(&someone_decides).is_empty());
        assert!(checker.find_counterexample(&F::not(someone_decides)).is_none());
    }

    #[test]
    fn counterexample_reporting() {
        let model = flood_model(2, 1);
        let checker = Checker::new(&model);
        let bogus = F::atom(ConsensusAtom::InitIs(AgentId::new(0), Value::ZERO));
        let counterexample = checker.find_counterexample(&bogus).expect("not valid");
        assert!(!checker.holds_at(&bogus, counterexample));
    }
}

//! The forward clock-semantics synthesis algorithm (explicit-state engine).

use std::collections::BTreeMap;
use std::fmt;

use epimc_check::{Checker, ObservationValues};
use epimc_logic::AgentId;
use epimc_system::{
    Action, ConsensusModel, InformationExchange, ModelParams, ObservableVar, Observation, PointId,
    PointModel, Round, StateSpace, TableRule,
};

use crate::kbp::{KbpBranch, KnowledgeBasedProgram};
use crate::predicate::{simplify_observations, PredicateReport};

/// The value of one template variable of the knowledge-based program: for a
/// given agent, time and branch, the predicate over the agent's observable
/// variables that is equivalent to the branch's knowledge condition.
#[derive(Clone, Debug)]
pub struct TemplateValuation {
    /// The agent the template belongs to.
    pub agent: AgentId,
    /// The time at which the template is used.
    pub time: Round,
    /// The label of the knowledge-based program branch.
    pub branch_label: String,
    /// The action the branch performs.
    pub action: Action,
    /// The synthesized predicate over the agent's observable variables.
    pub predicate: PredicateReport,
}

impl fmt::Display for TemplateValuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} time={} {}] {} when {}",
            self.agent, self.time, self.branch_label, self.action, self.predicate
        )
    }
}

/// An observation class on which a branch condition was *not* constant.
///
/// MCK's template requirements (conditions built from knowledge formulas and
/// the agent's own observables) guarantee uniformity, so any entry here
/// indicates a malformed knowledge-based program. The synthesis engines take
/// the conservative conjunction as the class value and report the offending
/// class instead of failing silently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonUniformClass {
    /// The agent whose observation class was non-uniform.
    pub agent: AgentId,
    /// The time of the layer.
    pub time: Round,
    /// The label of the branch whose condition varied across the class.
    pub branch_label: String,
    /// The observation identifying the class.
    pub observation: Observation,
}

impl fmt::Display for NonUniformClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "branch {} is not constant on ({}, time={}, {})",
            self.branch_label, self.agent, self.time, self.observation
        )
    }
}

/// Statistics about a synthesis run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SynthesisStats {
    /// Total number of states explored across all layers.
    pub total_states: usize,
    /// Total number of (agent, time, observation) classes considered.
    pub observation_classes: usize,
    /// Classes on which a branch condition was not constant. This should be
    /// zero whenever the knowledge-based program satisfies MCK's template
    /// requirements (conditions built from knowledge formulas and the agent's
    /// own observables); a non-zero value indicates a malformed program — see
    /// [`SynthesisOutcome::non_uniform`] for the offending classes.
    pub non_uniform_classes: usize,
    /// Number of trailing rounds the forward induction skipped because every
    /// agent had already decided (or crashed) in every reachable state of
    /// the final explored layer. Zero when the induction ran to the horizon
    /// or early exit was disabled.
    pub skipped_rounds: usize,
}

/// The result of synthesis: an executable protocol plus a report of the
/// synthesized knowledge predicates.
#[derive(Debug)]
pub struct SynthesisOutcome {
    /// Name of the synthesized program.
    pub program_name: String,
    /// The unique clock-semantics implementation, as an executable decision
    /// table.
    pub rule: TableRule,
    /// The synthesized predicates, one per (agent, time, branch) — up to the
    /// last round the forward induction processed (see
    /// [`SynthesisStats::skipped_rounds`]).
    pub templates: Vec<TemplateValuation>,
    /// Diagnostics for every observation class on which a branch condition
    /// was not constant. Empty for well-formed knowledge-based programs.
    pub non_uniform: Vec<NonUniformClass>,
    /// Statistics about the run.
    pub stats: SynthesisStats,
}

impl SynthesisOutcome {
    /// The template valuation for a given agent, time and branch label.
    pub fn template(&self, agent: AgentId, time: Round, label: &str) -> Option<&TemplateValuation> {
        self.templates
            .iter()
            .find(|t| t.agent == agent && t.time == time && t.branch_label == label)
    }

    /// The earliest time at which the synthesized protocol has any deciding
    /// entry for `agent`.
    pub fn earliest_decision_time(&self, agent: AgentId) -> Option<Round> {
        self.rule.earliest_decision_time(agent)
    }
}

impl fmt::Display for SynthesisOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "synthesized implementation of {}", self.program_name)?;
        for template in &self.templates {
            if !template.predicate.is_false() {
                writeln!(f, "  {template}")?;
            }
        }
        write!(
            f,
            "  ({} states, {} observation classes)",
            self.stats.total_states, self.stats.observation_classes
        )
    }
}

/// The accumulating state of a forward induction, shared by the explicit
/// and symbolic engines so the bookkeeping — first-branch-wins rule
/// entries, template simplification, class statistics, non-uniformity
/// diagnostics and the early exit — is identical by construction. The
/// engines differ only in how they produce each (branch, agent, time)'s
/// [`ObservationValues`].
pub(crate) struct Induction {
    pub(crate) rule: TableRule,
    templates: Vec<TemplateValuation>,
    non_uniform: Vec<NonUniformClass>,
    stats: SynthesisStats,
}

impl Induction {
    pub(crate) fn new(program_name: &str) -> Self {
        Induction {
            rule: TableRule::new(format!("synthesized-{program_name}")),
            templates: Vec::new(),
            non_uniform: Vec::new(),
            stats: SynthesisStats::default(),
        }
    }

    /// Records one branch condition's class values for one agent at one
    /// time: statistics, diagnostics for the non-uniform classes, rule
    /// entries for the holding classes the rule does not yet decide (the
    /// first branch whose condition holds fires), and the simplified
    /// template predicate.
    pub(crate) fn record(
        &mut self,
        layout: &[ObservableVar],
        agent: AgentId,
        time: Round,
        branch: &KbpBranch,
        values: &ObservationValues,
    ) {
        self.stats.observation_classes += values.reachable.len();
        self.stats.non_uniform_classes += values.non_uniform.len();
        for observation in &values.non_uniform {
            self.non_uniform.push(NonUniformClass {
                agent,
                time,
                branch_label: branch.label.clone(),
                observation: observation.clone(),
            });
        }
        for observation in &values.holding {
            if self.rule.get(agent, time, observation) == Action::Noop {
                self.rule.set(agent, time, observation.clone(), branch.action);
            }
        }
        self.templates.push(TemplateValuation {
            agent,
            time,
            branch_label: branch.label.clone(),
            action: branch.action,
            predicate: simplify_observations(layout, &values.reachable, &values.holding),
        });
    }

    /// Extends the model by one layer under the rule fixed so far and
    /// returns `true` when the induction can stop: decisions taken at
    /// `time` surface in the layer just built, and once every agent has
    /// decided (or crashed) everywhere, the remaining rounds cannot add a
    /// single firing entry.
    pub(crate) fn advance<E: InformationExchange>(
        &mut self,
        model: &mut ConsensusModel<E, TableRule>,
        early_exit: bool,
        time: Round,
        horizon: Round,
    ) -> bool {
        model.set_rule(self.rule.clone());
        model.extend_layer();
        if early_exit && model.final_layer_settled() {
            self.stats.skipped_rounds = (horizon - time) as usize;
            return true;
        }
        false
    }

    /// The early-exit bookkeeping of [`Induction::advance`] for engines that
    /// grow the model themselves (the symbolic synthesizer): records how
    /// many trailing rounds the induction skipped after the layer built for
    /// `time + 1` came out settled.
    pub(crate) fn note_skipped_rounds(&mut self, time: Round, horizon: Round) {
        self.stats.skipped_rounds = (horizon - time) as usize;
    }

    pub(crate) fn finish(mut self, program_name: &str, total_states: usize) -> SynthesisOutcome {
        self.stats.total_states = total_states;
        SynthesisOutcome {
            program_name: program_name.to_string(),
            rule: self.rule,
            templates: self.templates,
            non_uniform: self.non_uniform,
            stats: self.stats,
        }
    }
}

/// The synthesis engine: computes the unique clock-semantics implementation
/// of a knowledge-based program with respect to an information exchange and
/// failure model, by explicit-state model checking of the branch conditions.
///
/// For the symbolic (BDD) counterpart — which scales to model sizes this
/// engine cannot touch — see [`SymbolicSynthesizer`](crate::SymbolicSynthesizer).
pub struct Synthesizer<E: InformationExchange> {
    exchange: E,
    params: ModelParams,
    early_exit: bool,
}

impl<E: InformationExchange> Synthesizer<E> {
    /// Creates a synthesizer for the given exchange and model parameters.
    /// Early exit (skipping rounds after every agent has decided in every
    /// reachable state) is enabled by default.
    pub fn new(exchange: E, params: ModelParams) -> Self {
        Synthesizer { exchange, params, early_exit: true }
    }

    /// Enables or disables the early exit of the forward induction.
    pub fn with_early_exit(mut self, enabled: bool) -> Self {
        self.early_exit = enabled;
        self
    }

    /// Runs the forward synthesis algorithm for `program`.
    pub fn synthesize(&self, program: &KnowledgeBasedProgram) -> SynthesisOutcome {
        let mut induction = Induction::new(&program.name);
        let mut model = ConsensusModel::new(
            StateSpace::initial(self.exchange.clone(), self.params),
            induction.rule.clone(),
        );
        let layout = self.exchange.observable_layout(&self.params);
        let horizon = self.params.horizon();

        for time in 0..=horizon {
            for branch in &program.branches {
                // Refresh the rule before model-checking the branch
                // condition: entries fixed by earlier branches (and earlier
                // rounds) give the correct meaning to propositions about
                // decisions already taken and decisions being taken in the
                // current round.
                model.set_rule(induction.rule.clone());
                let checker = Checker::new(&model);

                for agent in AgentId::all(self.params.num_agents()) {
                    let condition = branch.condition_for(agent, &self.params);
                    let holds = checker.check(&condition);

                    // Group the states of the current layer by the agent's
                    // observation, folding each class to whether the
                    // condition holds on all / any of its states (for
                    // malformed non-uniform classes the class value is the
                    // conservative conjunction).
                    let mut classes: BTreeMap<Observation, (bool, bool)> = BTreeMap::new();
                    for index in 0..model.layer_size(time) {
                        let point = PointId::new(time, index);
                        let value = holds.contains(point);
                        let (all, any) = classes
                            .entry(model.observation(agent, point).clone())
                            .or_insert((true, false));
                        *all &= value;
                        *any |= value;
                    }
                    let values = ObservationValues {
                        reachable: classes.keys().cloned().collect(),
                        holding: classes
                            .iter()
                            .filter(|(_, &(all, _))| all)
                            .map(|(observation, _)| observation.clone())
                            .collect(),
                        non_uniform: classes
                            .iter()
                            .filter(|(_, &(all, any))| any && !all)
                            .map(|(observation, _)| observation.clone())
                            .collect(),
                    };
                    induction.record(&layout, agent, time, branch, &values);
                }
            }
            if time < horizon && induction.advance(&mut model, self.early_exit, time, horizon) {
                break;
            }
        }

        let total_states = model.space().total_states();
        induction.finish(&program.name, total_states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbp::{KbpBranch, KnowledgeBasedProgram};
    use epimc_logic::Formula;
    use epimc_protocols::{EMin, FloodSet};
    use epimc_system::run::{simulate_run, Adversary};
    use epimc_system::{ConsensusAtom, FailureKind, Value};

    fn crash_params(n: usize, t: usize) -> ModelParams {
        ModelParams::builder().agents(n).max_faulty(t).values(2).failure(FailureKind::Crash).build()
    }

    #[test]
    fn appendix_example_floodset_n3_t1() {
        // The paper's appendix synthesizes, for FloodSet with n = 3, t = 1,
        // |V| = 2: no decision is possible at time 1, and at time 2 the
        // knowledge condition for deciding v is exactly values_received[v].
        let params = crash_params(3, 1);
        let outcome = Synthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
        assert_eq!(outcome.stats.non_uniform_classes, 0);
        assert!(outcome.non_uniform.is_empty());
        for agent in AgentId::all(3) {
            let t1 = outcome.template(agent, 1, "sba-decide-0").unwrap();
            assert!(t1.predicate.is_false(), "no common belief at time 1: {}", t1.predicate);
            let t2_zero = outcome.template(agent, 2, "sba-decide-0").unwrap();
            assert_eq!(format!("{}", t2_zero.predicate), "values_received[0]");
            let t2_one = outcome.template(agent, 2, "sba-decide-1").unwrap();
            assert_eq!(format!("{}", t2_one.predicate), "values_received[1]");
            assert_eq!(outcome.earliest_decision_time(agent), Some(2));
        }
    }

    #[test]
    fn synthesized_floodset_rule_executes_and_agrees() {
        let params = crash_params(3, 1);
        let outcome = Synthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
        let inits = vec![Value::ONE, Value::ZERO, Value::ONE];
        let run =
            simulate_run(&FloodSet, &params, &outcome.rule, &inits, &Adversary::failure_free());
        for agent in AgentId::all(3) {
            let decision = run.decision(agent).expect("synthesized protocol decides");
            assert_eq!(decision.value, Value::ZERO);
            assert_eq!(decision.round, 2);
        }
    }

    #[test]
    fn floodset_with_large_t_decides_at_n_minus_one() {
        // Condition (2): with t >= n - 1 the synthesized protocol decides at
        // time n - 1 = 2 instead of t + 1 = 3.
        let params = crash_params(3, 2);
        let outcome = Synthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
        for agent in AgentId::all(3) {
            assert_eq!(outcome.earliest_decision_time(agent), Some(2));
        }
        // And the time-3 templates are not needed in failure-free runs: the
        // protocol still satisfies agreement when executed.
        let inits = vec![Value::ONE, Value::ONE, Value::ZERO];
        let run =
            simulate_run(&FloodSet, &params, &outcome.rule, &inits, &Adversary::failure_free());
        for agent in AgentId::all(3) {
            assert_eq!(run.decision(agent).unwrap().round, 2);
            assert_eq!(run.decision(agent).unwrap().value, Value::ZERO);
        }
    }

    #[test]
    fn eba_p0_on_emin_matches_hand_implementation() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        let outcome = Synthesizer::new(EMin, params).synthesize(&KnowledgeBasedProgram::eba_p0());
        assert_eq!(outcome.stats.non_uniform_classes, 0);
        // An agent with initial value 0 decides immediately.
        for agent in AgentId::all(2) {
            assert_eq!(outcome.earliest_decision_time(agent), Some(0));
            let zero = outcome.template(agent, 0, "eba-decide-0").unwrap();
            assert_eq!(format!("{}", zero.predicate), "neg init");
        }
        // Executing the synthesized table matches the hand-written EMin rule
        // on a failure-free run.
        let inits = vec![Value::ONE, Value::ZERO];
        let synthesized =
            simulate_run(&EMin, &params, &outcome.rule, &inits, &Adversary::failure_free());
        let handwritten = simulate_run(
            &EMin,
            &params,
            &epimc_protocols::EMinRule,
            &inits,
            &Adversary::failure_free(),
        );
        for agent in AgentId::all(2) {
            assert_eq!(
                synthesized.decision(agent).map(|d| d.value),
                handwritten.decision(agent).map(|d| d.value)
            );
        }
    }

    #[test]
    fn early_exit_skips_settled_rounds_and_preserves_outcomes() {
        // FloodSet n = 3, t = 2: by condition (2) every live agent decides
        // at time n - 1 = 2, two rounds short of the horizon t + 2 = 4 —
        // rounds 3 and 4 are skipped and layer 4 is never built.
        let params = crash_params(3, 2);
        let program = KnowledgeBasedProgram::sba(2);
        let eager = Synthesizer::new(FloodSet, params).synthesize(&program);
        let full = Synthesizer::new(FloodSet, params).with_early_exit(false).synthesize(&program);

        assert_eq!(eager.stats.skipped_rounds, 2, "rounds 3 and 4 are skipped");
        assert_eq!(full.stats.skipped_rounds, 0);
        assert!(eager.stats.total_states < full.stats.total_states);
        assert!(eager.stats.observation_classes < full.stats.observation_classes);

        // Outcomes are unchanged: identical decision times, and the eager
        // rule is exactly the full rule restricted to the processed rounds.
        for agent in AgentId::all(3) {
            assert_eq!(eager.earliest_decision_time(agent), full.earliest_decision_time(agent));
        }
        for ((agent, time, observation), action) in eager.rule.iter() {
            assert_eq!(full.rule.get(*agent, *time, observation), *action);
        }
        let full_processed = full.rule.iter().filter(|((_, time, _), _)| *time <= 2).count();
        assert_eq!(
            eager.rule.len(),
            full_processed,
            "the eager rule is the full rule restricted to the processed rounds"
        );
        // Executions agree on every failure-free run.
        for inits in
            [vec![Value::ZERO; 3], vec![Value::ONE, Value::ZERO, Value::ONE], vec![Value::ONE; 3]]
        {
            let lhs =
                simulate_run(&FloodSet, &params, &eager.rule, &inits, &Adversary::failure_free());
            let rhs =
                simulate_run(&FloodSet, &params, &full.rule, &inits, &Adversary::failure_free());
            for agent in AgentId::all(3) {
                assert_eq!(lhs.decision(agent), rhs.decision(agent));
            }
        }
        // The templates of the processed rounds are identical.
        for template in &eager.templates {
            let other = full
                .template(template.agent, template.time, &template.branch_label)
                .expect("full run covers the processed rounds");
            assert_eq!(template.predicate, other.predicate);
        }
    }

    #[test]
    fn non_uniform_conditions_are_reported_with_diagnostics() {
        // `InitIs(agent, 0)` is not a function of a FloodSet agent's
        // observation: an agent that has seen both values may have started
        // with either. Such a malformed "knowledge-based" program must be
        // reported, not silently conjoined away.
        let params = crash_params(2, 1);
        let program = KnowledgeBasedProgram {
            name: "malformed".to_string(),
            branches: vec![KbpBranch::new(
                "own-init-zero",
                Action::Decide(Value::ZERO),
                |agent, _params| Formula::atom(ConsensusAtom::InitIs(agent, Value::ZERO)),
            )],
        };
        let outcome =
            Synthesizer::new(FloodSet, params).with_early_exit(false).synthesize(&program);
        assert!(outcome.stats.non_uniform_classes > 0);
        assert_eq!(outcome.non_uniform.len(), outcome.stats.non_uniform_classes);
        for class in &outcome.non_uniform {
            assert_eq!(class.branch_label, "own-init-zero");
            // The ambiguous class is the one where the agent has seen both
            // values; its own initial value is hidden behind it.
            assert_eq!(class.observation, Observation::new(vec![1, 1]));
            assert!(!format!("{class}").is_empty());
        }
        // Both agents hit the ambiguous class at some time >= 1.
        assert!(outcome.non_uniform.iter().any(|c| c.agent == AgentId::new(0)));
        assert!(outcome.non_uniform.iter().any(|c| c.agent == AgentId::new(1)));
        assert!(outcome.non_uniform.iter().all(|c| c.time >= 1));
    }
}

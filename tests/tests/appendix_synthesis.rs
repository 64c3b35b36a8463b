//! Experiment row Q5 of DESIGN.md: the synthesis example of the paper's
//! appendix — FloodSet, n = 3, t = 1, |V| = 2 — including the exact shape of
//! the synthesized predicates and the corresponding model-checked facts.

use epimc::optimality::sba_knowledge_condition;
use epimc::prelude::*;
use epimc_integration::crash_params;

#[test]
fn synthesized_templates_match_the_appendix_output() {
    let params = crash_params(3, 1);
    let outcome = Synthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
    for agent in (0..3).map(AgentId::new) {
        // c_1_v: no common belief of either value at time 1.
        for label in ["sba-decide-0", "sba-decide-1"] {
            let template = outcome.template(agent, 1, label).unwrap();
            assert!(template.predicate.is_false(), "{agent} {label}: {}", template.predicate);
        }
        // c_2_v: at time 2 the condition is exactly values_received[v].
        assert_eq!(
            format!("{}", outcome.template(agent, 2, "sba-decide-0").unwrap().predicate),
            "values_received[0]"
        );
        assert_eq!(
            format!("{}", outcome.template(agent, 2, "sba-decide-1").unwrap().predicate),
            "values_received[1]"
        );
    }
}

#[test]
fn model_checked_facts_of_the_appendix_script_hold() {
    // The appendix script also model checks, after synthesis:
    //  * agent 0's knowledge test for deciding 0 never holds at time 1;
    //  * at time 2 it is equivalent to values_received[0];
    //  * agreement, validity and termination of the synthesized protocol.
    let params = crash_params(3, 1);
    let outcome = Synthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
    let model = ConsensusModel::explore(FloodSet, params, outcome.rule);
    let checker = Checker::new(&model);

    let agent = AgentId::new(0);
    let condition_zero = Formula::believes_nonfaulty(
        agent,
        Formula::common_belief(Formula::or(
            (0..3).map(|j| Formula::atom(ConsensusAtom::InitIs(AgentId::new(j), Value::ZERO))),
        )),
    );
    // Never holds at time 1.
    let at_time_1 = Formula::and([Formula::atom(ConsensusAtom::TimeIs(1)), condition_zero.clone()]);
    assert!(checker.check(&at_time_1).is_empty());
    // At time 2 it is equivalent to the agent having received value 0.
    let equivalence = Formula::implies(
        Formula::atom(ConsensusAtom::TimeIs(2)),
        Formula::iff(condition_zero, Formula::atom(ConsensusAtom::ObsEquals(agent, 0, 1))),
    );
    assert!(checker.holds_everywhere(&equivalence));
    // The synthesized protocol satisfies the specification.
    assert!(epimc::spec::check_sba(&model).all_hold());
}

#[test]
fn explicit_and_symbolic_engines_agree_on_the_appendix_model() {
    let params = crash_params(3, 1);
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let explicit = Checker::new(&model);
    let symbolic =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    for agent in (0..3).map(AgentId::new) {
        let condition = sba_knowledge_condition(agent, 3, 2);
        assert_eq!(explicit.check(&condition), symbolic.check_points(&model, &condition));
    }
}

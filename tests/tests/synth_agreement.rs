//! Differential suite cross-validating the two synthesis engines: over a
//! grid of {FloodSet (SBA), E_min / E_basic (EBA)} × parameter ranges, the
//! explicit [`Synthesizer`] and the symbolic [`SymbolicSynthesizer`] must
//! produce identical `TableRule`s, identical `earliest_decision_time`s per
//! agent, identical run statistics and equivalent simplified predicates —
//! mirroring `engine_agreement.rs` for the model checking engines. On a
//! mismatch the diverging (program, agent, time, observation) is printed in
//! full.
//!
//! The grid is deterministic (synthesis has no random inputs); the
//! randomised complement lives in the `simplify_observations` property test
//! of `epimc-synth` and in `engine_agreement.rs`, which feeds both model
//! checking engines seeded random formulas.

use std::collections::BTreeMap;

use epimc::prelude::*;
use epimc_integration::{crash_params, distinct_layer_states, omission_params};

type RuleEntries = BTreeMap<(AgentId, Round, Observation), Action>;

fn rule_entries(rule: &TableRule) -> RuleEntries {
    rule.iter().map(|(key, action)| (key.clone(), *action)).collect()
}

/// Synthesizes `program` with the explicit engine and with the symbolic
/// engine under the default options, and asserts full agreement — rule,
/// templates, statistics and diagnostics, bit for bit — printing the
/// diverging (program, agent, time, observation) on failure. Returns the
/// explicit outcome and the symbolic run's profile.
fn engines_agree_on<E>(
    program_name: &str,
    exchange: E,
    program: &KnowledgeBasedProgram,
    params: ModelParams,
) -> (SynthesisOutcome, SymbolicSynthesisProfile)
where
    E: InformationExchange + SymbolicEncode,
{
    let explicit = Synthesizer::new(exchange.clone(), params).synthesize(program);
    let (mut symbolic, profile) =
        SymbolicSynthesizer::new(exchange.clone(), params).synthesize_profiled(program);
    // `total_states` measures different things across the engines: the
    // explicit engine counts explored *points*, the symbolic engine
    // model-counts distinct encoded *states*. The exploration may keep
    // points that differ only in adversary bookkeeping invisible to every
    // agent (EMin under omissions does), so distinct ≤ explored — align the
    // field after checking that relation, and compare everything else
    // exactly.
    assert!(
        symbolic.stats.total_states <= explicit.stats.total_states,
        "{program_name} {params}: the symbolic engine counted more states ({}) than the \
         explicit exploration has points ({})",
        symbolic.stats.total_states,
        explicit.stats.total_states
    );
    symbolic.stats.total_states = explicit.stats.total_states;
    compare_outcomes(program_name, exchange, params, &explicit, &symbolic);
    (explicit, profile)
}

/// The model-construction differential: on top of [`engines_agree_on`],
/// every layer the symbolic induction built — as a forward image under the
/// rule fixed so far, never enumerating a state — has exactly as many
/// states as an exploration under the synthesized rule has distinct states
/// in that layer.
fn engines_agree_relational<E>(
    program_name: &str,
    exchange: E,
    program: &KnowledgeBasedProgram,
    params: ModelParams,
) where
    E: InformationExchange + SymbolicEncode,
{
    let (explicit, profile) = engines_agree_on(program_name, exchange.clone(), program, params);
    let model = ConsensusModel::explore(exchange, params, explicit.rule);
    let explored = distinct_layer_states(&model);
    for round in &profile.rounds {
        assert_eq!(
            round.layer_states as u128, explored[round.time as usize],
            "{program_name} {params}: layer {} state counts differ",
            round.time
        );
    }
}

fn compare_outcomes<E>(
    program_name: &str,
    exchange: E,
    params: ModelParams,
    explicit: &SynthesisOutcome,
    symbolic: &SynthesisOutcome,
) where
    E: InformationExchange,
{
    // Identical decision tables.
    let explicit_entries = rule_entries(&explicit.rule);
    let symbolic_entries = rule_entries(&symbolic.rule);
    for ((agent, time, observation), action) in &explicit_entries {
        match symbolic_entries.get(&(*agent, *time, observation.clone())) {
            Some(other) if other == action => {}
            other => panic!(
                "{program_name} {params}: engines diverge at ({program_name}, {agent}, \
                 time={time}, {observation}): explicit {action}, symbolic {other:?}"
            ),
        }
    }
    for ((agent, time, observation), action) in &symbolic_entries {
        assert!(
            explicit_entries.contains_key(&(*agent, *time, observation.clone())),
            "{program_name} {params}: symbolic-only entry at ({program_name}, {agent}, \
             time={time}, {observation}): {action}"
        );
    }

    // Identical per-agent earliest decision times.
    for agent in AgentId::all(params.num_agents()) {
        assert_eq!(
            explicit.earliest_decision_time(agent),
            symbolic.earliest_decision_time(agent),
            "{program_name} {params}: earliest decision time differs for {agent}"
        );
    }

    // Identical statistics (states, classes, non-uniform counts, skipped
    // rounds) and non-uniformity diagnostics.
    assert_eq!(explicit.stats, symbolic.stats, "{program_name} {params}: stats differ");
    assert_eq!(
        explicit.non_uniform, symbolic.non_uniform,
        "{program_name} {params}: non-uniform diagnostics differ"
    );

    // Equivalent simplified predicates: structurally identical, and (the
    // semantic check) evaluating identically on every reachable observation
    // of the template's layer.
    assert_eq!(explicit.templates.len(), symbolic.templates.len());
    let model = ConsensusModel::explore(exchange.clone(), params, explicit.rule.clone());
    let layout = exchange.observable_layout(&params);
    for (lhs, rhs) in explicit.templates.iter().zip(&symbolic.templates) {
        assert_eq!(
            (lhs.agent, lhs.time, &lhs.branch_label),
            (rhs.agent, rhs.time, &rhs.branch_label)
        );
        assert_eq!(
            lhs.predicate, rhs.predicate,
            "{program_name} {params}: predicates differ at ({program_name}, {}, time={}, \
             branch {})",
            lhs.agent, lhs.time, lhs.branch_label
        );
        for index in 0..model.layer_size(lhs.time) {
            let observation = model.observation(lhs.agent, PointId::new(lhs.time, index));
            assert_eq!(
                lhs.predicate.eval(&layout, observation),
                rhs.predicate.eval(&layout, observation),
                "{program_name} {params}: predicate evaluation differs at ({program_name}, {}, \
                 time={}, {observation})",
                lhs.agent,
                lhs.time
            );
        }
    }
}

#[test]
fn sba_floodset_grid() {
    for (n, t) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
        engines_agree_on("SBA", FloodSet, &KnowledgeBasedProgram::sba(2), crash_params(n, t));
    }
}

#[test]
fn sba_floodset_four_agents() {
    engines_agree_on("SBA", FloodSet, &KnowledgeBasedProgram::sba(2), crash_params(4, 1));
}

#[test]
fn sba_count_floodset_detects_the_count_exit() {
    // n = 2, t = 2: the count observable allows earlier decisions, which the
    // synthesized (optimal) implementation must pick up in both engines.
    for (n, t) in [(2, 1), (2, 2)] {
        engines_agree_on("SBA", CountFloodSet, &KnowledgeBasedProgram::sba(2), crash_params(n, t));
    }
}

#[test]
fn eba_emin_grid() {
    let program = KnowledgeBasedProgram::eba_p0();
    for params in
        [crash_params(2, 1), omission_params(2, 1), omission_params(2, 2), omission_params(3, 1)]
    {
        engines_agree_on("EBA-P0", EMin, &program, params);
    }
}

#[test]
fn eba_ebasic_grid() {
    let program = KnowledgeBasedProgram::eba_p0();
    for params in [crash_params(2, 1), omission_params(2, 1)] {
        engines_agree_on("EBA-P0", EBasic, &program, params);
    }
}

#[test]
fn sba_floodset_grid_relational() {
    for (n, t) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
        engines_agree_relational(
            "SBA",
            FloodSet,
            &KnowledgeBasedProgram::sba(2),
            crash_params(n, t),
        );
    }
}

#[test]
fn sba_count_floodset_relational() {
    for (n, t) in [(2, 1), (2, 2)] {
        engines_agree_relational(
            "SBA",
            CountFloodSet,
            &KnowledgeBasedProgram::sba(2),
            crash_params(n, t),
        );
    }
}

#[test]
fn eba_emin_grid_relational() {
    let program = KnowledgeBasedProgram::eba_p0();
    for params in [crash_params(2, 1), omission_params(2, 1), omission_params(3, 1)] {
        engines_agree_relational("EBA-P0", EMin, &program, params);
    }
}

#[test]
fn eba_ebasic_relational() {
    let program = KnowledgeBasedProgram::eba_p0();
    for params in [crash_params(2, 1), omission_params(2, 1)] {
        engines_agree_relational("EBA-P0", EBasic, &program, params);
    }
}

#[test]
fn malformed_programs_produce_identical_diagnostics() {
    // A non-knowledge condition (the agent's hidden initial value) is
    // non-uniform on observation classes; both engines must report the very
    // same (agent, time, observation) classes.
    use epimc_synth::KbpBranch;
    let program = KnowledgeBasedProgram {
        name: "malformed".to_string(),
        branches: vec![KbpBranch::new("own-init-zero", Action::Decide(Value::ZERO), |agent, _| {
            Formula::atom(ConsensusAtom::InitIs(agent, Value::ZERO))
        })],
    };
    let params = crash_params(2, 1);
    let explicit = Synthesizer::new(FloodSet, params).synthesize(&program);
    let symbolic = SymbolicSynthesizer::new(FloodSet, params).synthesize(&program);
    assert!(explicit.stats.non_uniform_classes > 0);
    assert_eq!(explicit.non_uniform, symbolic.non_uniform);
    assert_eq!(rule_entries(&explicit.rule), rule_entries(&symbolic.rule));
}

//! The specification clauses and knowledge conditions at the sizes the
//! tables and the reference benchmark report: the formulas of the
//! benchmark's `global_check` workload — the SBA clauses without their outer
//! `AG`, and `∃v. B^N_i C_B ∃v` for the first and the last agent — must get
//! the same verdict from every engine.
//!
//! These are the formulas the global engine evaluates as state constraints
//! and restricts to each layer once (hundreds of implications over atoms),
//! so this is where a wrong `bounded` bit would show at scale. The debug
//! run has the explicit [`Checker`] as a third voice; the release-sized
//! instances are `#[ignore]`d for it and compare global against local only
//! (CI runs them with `cargo test --release -- --ignored`).

use epimc::optimality::sba_knowledge_condition;
use epimc::prelude::*;
use epimc::spec::{
    agreement_formula, simultaneous_agreement_formula, termination_formula,
    uniform_agreement_formula, validity_formula,
};
use epimc_logic::TemporalKind;

type F = Formula<ConsensusAtom>;

fn specification(params: &ModelParams) -> Vec<F> {
    let (n, k) = (params.num_agents(), params.num_values());
    let clauses = [
        simultaneous_agreement_formula(n, k),
        uniform_agreement_formula(n, k),
        agreement_formula(n, k),
        validity_formula(n, k),
        termination_formula(n, params.horizon()),
    ];
    let mut formulas: Vec<F> = clauses
        .into_iter()
        .map(|clause| match clause {
            Formula::Temporal(TemporalKind::AllGlobally, body) => *body,
            other => panic!("specification clause is not an AG formula: {other}"),
        })
        .collect();
    for agent in [0, n - 1] {
        formulas.push(sba_knowledge_condition(AgentId::new(agent), n, k));
    }
    formulas
}

/// Global (one session, as `global_check` runs it) against local (the
/// conjunction of its per-layer verdicts), and against the explicit checker
/// when `explicit` is set.
fn engines_agree_on_the_specification<E, R>(
    name: &str,
    exchange: E,
    rule: R,
    params: ModelParams,
    explicit: bool,
) where
    E: InformationExchange + SymbolicEncode + Clone + 'static,
    R: DecisionRule<E> + SymbolicRule<E> + Clone + 'static,
{
    let formulas = specification(&params);
    let global = SymbolicChecker::relational(
        exchange.clone(),
        params,
        rule.clone(),
        SymbolicOptions::default(),
    );
    let mut session = global.session();
    let verdicts: Vec<bool> = formulas
        .iter()
        .map(|formula| global.holds_everywhere_in_session(&mut session, formula))
        .collect();
    global.end_session(session);

    let local = LocalChecker::new(exchange.clone(), params, rule.clone());
    for (formula, &verdict) in formulas.iter().zip(&verdicts) {
        let by_layer = (0..global.num_layers()).all(|layer| local.holds_in_layer(formula, layer));
        assert_eq!(verdict, by_layer, "{name}: global and local disagree on {formula}");
    }
    if explicit {
        let model = ConsensusModel::explore(exchange, params, rule);
        let checker = Checker::new(&model);
        for (formula, &verdict) in formulas.iter().zip(&verdicts) {
            assert_eq!(
                verdict,
                checker.holds_everywhere(formula),
                "{name}: global and explicit disagree on {formula}"
            );
        }
    }
    // Each propositional clause met every layer once; the two knowledge
    // conditions are disjunctions of bounded beliefs and met none.
    let propositional = (formulas.len() - 2) as u64;
    assert_eq!(global.stats().reach_restrictions, propositional * global.num_layers() as u64);
}

fn crash(agents: usize, max_faulty: usize) -> ModelParams {
    ModelParams::builder().agents(agents).max_faulty(max_faulty).values(2).build()
}

#[test]
fn specification_verdicts_agree_on_floodset_n6_t2() {
    engines_agree_on_the_specification(
        "floodset n=6 t=2",
        FloodSet,
        FloodSetRule,
        crash(6, 2),
        true,
    );
}

#[test]
fn specification_verdicts_agree_on_count_n4_t1() {
    engines_agree_on_the_specification(
        "count n=4 t=1",
        CountFloodSet,
        TextbookRule,
        crash(4, 1),
        true,
    );
}

#[test]
#[ignore = "release-sized: run with `cargo test --release -- --ignored`"]
fn specification_verdicts_agree_on_floodset_n12_t4() {
    engines_agree_on_the_specification(
        "floodset n=12 t=4",
        FloodSet,
        FloodSetRule,
        crash(12, 4),
        false,
    );
}

#[test]
#[ignore = "release-sized: run with `cargo test --release -- --ignored`"]
fn specification_verdicts_agree_on_emin_n8_t3() {
    let params = ModelParams::builder()
        .agents(8)
        .max_faulty(3)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    engines_agree_on_the_specification("emin n=8 t=3", EMin, EMinRule, params, false);
}

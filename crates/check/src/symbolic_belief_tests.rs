//! Tests of the epistemic operators' evaluation order: "block the
//! believers" and the common-belief frontier iteration (a child module of
//! `symbolic`, so it can compare denotations handle by handle and inspect
//! the arena).
//!
//! Two oracles. The generic `fixpoint` evaluator, which the frontier
//! iteration does not go through: `C_B φ` must be the *same diagrams*, in
//! the same manager, as `νX. E_B(X ∧ φ)`. And the explicit [`Checker`],
//! which knows nothing of BDDs: every operator must denote its point set.

use super::*;
use crate::explicit::Checker;
use epimc_protocols::{
    CountFloodSet, DiffFloodSet, DworkMoses, DworkMosesRule, EBasic, EBasicRule, EMin, EMinRule,
    FloodSet, FloodSetRule, TextbookRule,
};
use epimc_system::{FailureKind, ModelParams, Value};

type F = Formula<ConsensusAtom>;

fn exists(value: usize) -> F {
    F::atom(ConsensusAtom::ExistsInit(Value::new(value)))
}

/// The grid of `φ`: atoms, negated atoms, `true`, formulas false on whole
/// layers (so those layers' frontiers start full and others start empty),
/// and common belief nested in `φ`.
fn grid() -> Vec<F> {
    let agent = AgentId::new;
    let atoms = [
        exists(0),
        exists(1),
        F::atom(ConsensusAtom::InitIs(agent(0), Value::new(1))),
        F::atom(ConsensusAtom::Nonfaulty(agent(1))),
        F::atom(ConsensusAtom::Decided(agent(0))),
        F::atom(ConsensusAtom::DecidesNow(agent(1), Value::new(0))),
    ];
    let mut grid: Vec<F> = atoms.to_vec();
    grid.extend(atoms.iter().cloned().map(F::not));
    grid.extend([
        F::True,
        F::False,
        F::atom(ConsensusAtom::TimeIs(1)),
        F::not(F::atom(ConsensusAtom::TimeIs(0))),
        F::or([F::atom(ConsensusAtom::TimeIs(0)), exists(0)]),
        F::or([exists(1), F::common_belief(exists(0))]),
        F::common_belief(F::or([exists(0), F::common_belief(F::not(exists(1)))])),
        F::believes_nonfaulty(agent(0), F::common_belief(exists(0))),
    ]);
    grid
}

/// `νX. E_B(X ∧ φ)`, spelled for the generic fixpoint evaluator.
fn textbook_common_belief(phi: &F) -> F {
    F::gfp(0, F::everyone_believes(F::and([F::var(0), phi.clone()])))
}

/// Whether `C_B φ` and `νX. E_B(X ∧ φ)` evaluate to the same handles on
/// every layer (under the checker's current focus and through `session`).
fn frontier_equals_textbook<E, R>(
    checker: &SymbolicChecker<E, R>,
    phi: &F,
    mut session: Option<&mut EvalSession>,
) -> bool
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let mut env = HashMap::new();
    let frontier = checker.eval(&F::common_belief(phi.clone()), &mut env, session.as_deref_mut());
    let textbook = checker.eval(&textbook_common_belief(phi), &mut env, session);
    // Both denotations are rooted, so a collection in between remapped
    // them together.
    let equal = checker.dens_equal(frontier, textbook);
    checker.release(frontier);
    checker.release(textbook);
    equal
}

/// The differential on one family: under the default options and under
/// `gc_threshold: 2` (a collection at whichever safe point — between
/// layers, rounds or agents — first sees the store doubled).
fn frontier_agrees_on<E, R>(family: &str, exchange: E, rule: R, params: ModelParams)
where
    E: InformationExchange + SymbolicEncode + Clone,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let explicit = Checker::new(&model);
    let grid = grid();
    let operators: Vec<F> = grid
        .iter()
        .flat_map(|phi| {
            [
                F::knows(AgentId::new(0), phi.clone()),
                F::believes_nonfaulty(AgentId::new(1), phi.clone()),
                F::everyone_believes(phi.clone()),
                F::common_belief(phi.clone()),
            ]
        })
        .collect();
    let expected: Vec<PointSet> = operators.iter().map(|f| explicit.check(f)).collect();

    let default = SymbolicOptions::default();
    let collecting = SymbolicOptions { gc_threshold: 2, ..default };
    for (label, options) in [("default", default), ("collecting", collecting)] {
        let checker = &SymbolicChecker::relational(exchange.clone(), params, rule.clone(), options);
        let baseline = checker.inner.borrow().arena.live_count();
        for phi in &grid {
            assert!(
                frontier_equals_textbook(checker, phi, None),
                "{family} {label}: C_B differs from the generic fixpoint on {phi}"
            );
        }
        // A focused session, as synthesis drives it: only the queried
        // layer is computed, to the same handle.
        for layer in 0..checker.num_layers() {
            let mut session = checker.session();
            SymbolicChecker::<E, R>::lock_session_focus(&mut session, Some(layer));
            checker.focus.set(Some(layer));
            for phi in &grid {
                assert!(
                    frontier_equals_textbook(checker, phi, Some(&mut session)),
                    "{family} {label}: focused on layer {layer}, C_B differs from \
                     the generic fixpoint on {phi}"
                );
            }
            checker.focus.set(None);
            checker.end_session(session);
        }
        assert_eq!(
            checker.inner.borrow().arena.live_count(),
            baseline,
            "{family} {label}: denotation leak"
        );
        for (formula, want) in operators.iter().zip(&expected) {
            assert_eq!(
                &checker.check_points(&model, formula),
                want,
                "{family} {label}: {formula} differs from the explicit checker"
            );
        }
        if label == "collecting" {
            // The threshold doubles past the survivors, so few safe
            // points collect; the sweep further down puts a collection
            // on each of them in turn.
            assert!(checker.stats().gc_runs > 0, "{family}: never collected");
        }
    }
}

fn omissions(agents: usize) -> ModelParams {
    ModelParams::builder()
        .agents(agents)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build()
}

fn crash(agents: usize) -> ModelParams {
    ModelParams::builder().agents(agents).max_faulty(1).values(2).build()
}

#[test]
fn frontier_matches_both_oracles_on_floodset() {
    frontier_agrees_on("floodset", FloodSet, FloodSetRule, crash(3));
}

#[test]
fn frontier_matches_both_oracles_on_count() {
    frontier_agrees_on("count", CountFloodSet, TextbookRule, crash(2));
}

#[test]
fn frontier_matches_both_oracles_on_diff() {
    frontier_agrees_on("diff", DiffFloodSet, TextbookRule, crash(2));
}

#[test]
fn frontier_matches_both_oracles_on_dwork_moses() {
    frontier_agrees_on("dworkmoses", DworkMoses, DworkMosesRule, crash(2));
}

#[test]
fn frontier_matches_both_oracles_on_emin() {
    frontier_agrees_on("emin", EMin, EMinRule, omissions(2));
}

#[test]
fn frontier_matches_both_oracles_on_ebasic() {
    frontier_agrees_on("ebasic", EBasic, EBasicRule, omissions(2));
}

#[test]
fn a_collection_at_any_safe_point_of_the_frontier_loop_is_harmless() {
    // One collection per evaluation, moved across the evaluation by the
    // slack left under the trigger: it lands in turn on every safe point
    // of the loop — before a layer, and between the agents of a round,
    // where only the scratch array roots the accumulator and the frontier.
    let params = crash(3);
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let phi = exists(0);
    let formula = F::common_belief(phi.clone());
    let want = Checker::new(&model).check(&formula);
    let allocated = || checker.stats().allocated_nodes;
    checker.force_gc();
    let before = allocated();
    assert_eq!(checker.holds_everywhere(&formula), want == PointSet::full(&model));
    let per_evaluation = allocated() - before;
    assert!(per_evaluation > 150, "too small to sweep: {per_evaluation} nodes");
    assert_eq!(checker.stats().gc_runs, 1, "the default threshold collected");

    for slack in 0..per_evaluation {
        checker.force_gc();
        let collections = checker.stats().gc_runs;
        {
            let mut inner = checker.inner.borrow_mut();
            inner.gc_threshold = inner.bdd.live_nodes() + slack;
        }
        assert!(frontier_equals_textbook(&checker, &phi, None), "slack {slack}");
        assert_eq!(checker.stats().gc_runs, collections + 1, "slack {slack}: one collection");
        assert_eq!(checker.check_points(&model, &formula), want, "slack {slack}");
    }
}

#[test]
fn a_converged_layer_is_not_revisited() {
    // `C_B ∃0` on FloodSet n=3 t=1: the layers need different numbers of
    // rounds, so the frontier iteration computes fewer layer steps than a
    // whole-denotation loop of as many rounds would, and the counts repeat
    // exactly from checker to checker.
    let fresh = || {
        SymbolicChecker::relational(FloodSet, crash(3), FloodSetRule, SymbolicOptions::default())
    };
    let checker = fresh();
    assert_eq!(checker.stats().common_belief_rounds, 0);
    let formula = F::common_belief(exists(0));
    checker.holds_everywhere(&formula);
    let stats = checker.stats();
    let layers = checker.num_layers() as u64;
    assert!(stats.common_belief_rounds > 1, "one round cannot tell the layers apart: {stats:?}");
    assert!(
        stats.common_belief_layer_steps < stats.common_belief_rounds * layers,
        "every layer ran every round: {stats:?}"
    );
    // Additive, and a function of the model and the formula alone.
    checker.holds_everywhere(&formula);
    let twice = checker.stats();
    assert_eq!(twice.common_belief_rounds, 2 * stats.common_belief_rounds);
    assert_eq!(twice.common_belief_layer_steps, 2 * stats.common_belief_layer_steps);
    let other = fresh();
    other.holds_everywhere(&formula);
    assert_eq!(other.stats().common_belief_rounds, stats.common_belief_rounds);
    assert_eq!(other.stats().common_belief_layer_steps, stats.common_belief_layer_steps);
    // A layer on which `φ` holds throughout has an empty first frontier
    // and costs no step at all.
    let trivial = fresh();
    trivial.holds_everywhere(&F::common_belief(F::True));
    assert_eq!(trivial.stats().common_belief_layer_steps, 0);
}

#[test]
fn a_budget_trip_anywhere_in_a_knowledge_condition_leaves_a_valid_checker() {
    // Abort-anywhere, scoped to the frontier loop: for every op-fuel value
    // below what `B[0] CB ∃0` needs on a cold manager, the query aborts,
    // the arena holds exactly the denotations it held before the call, the
    // manager stays canonical, and the un-budgeted retry *on the same
    // checker* answers as a never-interrupted one does.
    let params = ModelParams::builder().agents(4).max_faulty(1).values(2).build();
    let formula = F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists(0)));
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let want = Ok(Checker::new(&model).holds_everywhere(&formula));
    let query = || checker.try_holds_everywhere(&formula);

    // A collection empties the operation caches, so every attempt
    // starts as cold as the first.
    checker.force_gc();
    checker.set_budget(Some(Budget::with_max_ops(u64::MAX)));
    assert_eq!(query(), want, "unlimited fuel");
    let needed = checker.inner.borrow().bdd.budget_ops();
    checker.set_budget(None);
    assert!(needed > 1_000, "the query is too small to sweep ({needed} ops)");
    let held = checker.inner.borrow().arena.live_ids();
    for fuel in 1..needed {
        checker.force_gc();
        checker.set_budget(Some(Budget::with_max_ops(fuel)));
        let abort = query().expect_err("less fuel than the query needs must abort");
        assert!(matches!(abort.error, BddError::BudgetExceeded { .. }), "fuel {fuel}");
        {
            let inner = checker.inner.borrow();
            assert_eq!(inner.arena.live_ids(), held, "fuel {fuel}: arena changed");
            assert_eq!(inner.bdd.budget(), None, "fuel {fuel}: budget still armed");
            inner.bdd.check_canonical_invariant().unwrap_or_else(|error| {
                panic!("fuel {fuel}: manager invalid after the abort: {error}")
            });
        }
        assert_eq!(query(), want, "fuel {fuel}: retry after the abort");
    }
    checker.force_gc();
    checker.set_budget(Some(Budget::with_max_ops(needed)));
    assert_eq!(query(), want, "exact fuel suffices");
    checker.set_budget(None);
}

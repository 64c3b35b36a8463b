//! Tests of restriction to the reachable sets on demand (a child module of
//! `symbolic`, so it can call `eval_bounded` and inspect the arena).
//!
//! The evaluator hands unbounded denotations — state constraints, `⊤`,
//! complements — from operand to connective, and only the consumer
//! boundary conjoins a layer's reachable set. `consumer_denotation` below
//! is the executable form of the invariant `holds_everywhere` documents: a
//! denotation handed to a consumer lies inside the reachable sets. The
//! oracle for *which* subset it is stays the explicit [`Checker`], which
//! knows nothing of BDDs or of restriction.

use super::*;
use crate::explicit::Checker;
use epimc_protocols::{
    CountFloodSet, DiffFloodSet, DworkMoses, DworkMosesRule, EBasic, EBasicRule, EMin, EMinRule,
    FloodSet, FloodSetRule, TextbookRule,
};
use epimc_system::{Action, FailureKind, ModelParams, TableRule, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type F = Formula<ConsensusAtom>;

fn exists(value: usize) -> F {
    F::atom(ConsensusAtom::ExistsInit(Value::new(value)))
}

/// The consumer boundary, checked: evaluates `formula` as every public
/// entry point does and asserts that each focused layer lies inside its
/// reachable set, each unfocused layer is `⊥`, and the entry says so.
fn consumer_denotation<E, R>(
    checker: &SymbolicChecker<E, R>,
    formula: &F,
    session: Option<&mut EvalSession>,
    context: &str,
) -> DenId
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let den = checker.eval_bounded(formula, &mut HashMap::new(), session);
    let mut inner = checker.inner.borrow_mut();
    let inner = &mut *inner;
    assert!(inner.arena.den(den).bounded, "{context}: {formula} reached a consumer unbounded");
    for layer in 0..inner.reachable.len() {
        let value = inner.arena.get(den)[layer];
        if checker.is_active(layer) {
            let inside = inner.bdd.and(value, inner.reachable[layer]);
            assert_eq!(inside, value, "{context}: {formula} leaves layer {layer}'s reachable set");
        } else {
            assert_eq!(value, Ref::FALSE, "{context}: {formula} is not ⊥ off the focus");
        }
    }
    den
}

/// An operand of the grid: every kind of atom the evaluator builds
/// differently (constraints, `TimeIs`, `DecidesNow`, an
/// observable compared with a value its bits cannot hold) and the
/// constants, half of them negated.
fn operand(rng: &mut StdRng, n: usize) -> F {
    let agent = AgentId::new(rng.gen_range(0..n));
    let value = Value::new(rng.gen_range(0..2usize));
    let operand = match rng.gen_range(0..12u32) {
        0 => F::atom(ConsensusAtom::InitIs(agent, value)),
        1 => F::atom(ConsensusAtom::ExistsInit(value)),
        2 => F::atom(ConsensusAtom::Nonfaulty(agent)),
        3 => F::atom(ConsensusAtom::Decided(agent)),
        4 => F::atom(ConsensusAtom::DecidedValue(agent, value)),
        5 => F::atom(ConsensusAtom::DecidesNow(agent, value)),
        6 => F::atom(ConsensusAtom::TimeIs(rng.gen_range(0..3u32))),
        7 => F::atom(ConsensusAtom::ObsEquals(agent, 0, rng.gen_range(0..2u32))),
        8 => F::atom(ConsensusAtom::ObsAtMost(agent, 0, rng.gen_range(0..2u32))),
        9 => F::atom(ConsensusAtom::ObsEquals(agent, 0, 1 << 20)),
        10 => F::True,
        _ => F::False,
    };
    // The raw variant: `F::not` would fold the constants away.
    if rng.gen_bool(0.5) {
        Formula::Not(Box::new(operand))
    } else {
        operand
    }
}

/// The shapes in which a bounded operand (an epistemic or temporal result,
/// a fixpoint iterate) meets an unbounded one, over seeded operands. Raw
/// `And` / `Or` variants keep constant operands in place.
fn grid(seed: u64, n: usize) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = Vec::new();
    for _ in 0..2 {
        let agent = AgentId::new(rng.gen_range(0..n));
        let mut p = || operand(&mut rng, n);
        grid.extend([
            Formula::Or(vec![F::knows(agent, p()), p()]),
            F::not(Formula::And(vec![p(), F::common_belief(p())])),
            F::iff(p(), F::believes_nonfaulty(agent, p())),
            F::implies(F::exists_next(p()), p()),
            Formula::And(vec![F::not(p()), F::not(p())]),
            F::gfp(0, F::everyone_believes(Formula::And(vec![F::var(0), p()]))),
            F::lfp(1, Formula::Or(vec![F::knows(agent, F::var(1)), p()])),
            F::all_globally(F::implies(p(), F::everyone_believes(p()))),
            Formula::Or(vec![F::False, p(), F::believes_nonfaulty(agent, F::True)]),
            p(),
        ]);
    }
    grid
}

/// The model's own rule as a decision table: every `(agent, time,
/// observation)` at which the model decides becomes an entry, so a checker
/// whose frontier table is refreshed from it must answer exactly as under
/// the model's rule.
pub(super) fn rule_as_table<E, R>(model: &ConsensusModel<E, R>) -> TableRule
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let mut table = TableRule::new("own-rule-as-table");
    for point in model.points() {
        for agent in AgentId::all(model.num_agents()) {
            if let action @ Action::Decide(_) = model.action_at(agent, point) {
                table.set(agent, point.time, model.observation(agent, point).clone(), action);
            }
        }
    }
    table
}

/// What `observation_values` must report, computed from an explicit point
/// set by grouping the layer on the agent's observation.
pub(super) fn explicit_values<E, R>(
    model: &ConsensusModel<E, R>,
    holds: &PointSet,
    agent: AgentId,
    time: Round,
) -> ObservationValues
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let mut classes: std::collections::BTreeMap<Observation, (bool, bool)> = Default::default();
    for index in 0..model.layer_size(time) {
        let point = PointId::new(time, index);
        let (all, any) =
            classes.entry(model.observation(agent, point).clone()).or_insert((true, false));
        *all &= holds.contains(point);
        *any |= holds.contains(point);
    }
    let pick = |keep: fn(bool, bool) -> bool| -> Vec<Observation> {
        classes.iter().filter(|(_, &(all, any))| keep(all, any)).map(|(o, _)| o.clone()).collect()
    };
    ObservationValues {
        reachable: pick(|_, _| true),
        holding: pick(|all, _| all),
        non_uniform: pick(|all, any| any && !all),
    }
}

/// The differential on one family: default options and `gc_threshold: 2`
/// (unbounded operands sit in the arena across the safe points of
/// `common_belief` and `map_layers`); with the frontier's decides-now
/// table from the model's rule and then refreshed from the rule spelled as
/// a table; unfocused, and through `observation_values` at every layer.
fn restriction_agrees_on<E, R>(family: &str, exchange: E, rule: R, params: ModelParams, seed: u64)
where
    E: InformationExchange + SymbolicEncode + Clone,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let explicit = Checker::new(&model);
    let table = rule_as_table(&model);
    let n = params.num_agents();
    let grid = grid(seed, n);
    let expected: Vec<PointSet> = grid.iter().map(|f| explicit.check(f)).collect();
    let agents = [AgentId::new(0), AgentId::new(n - 1)];
    let no_such_observable = F::atom(ConsensusAtom::ObsEquals(agents[0], 9, 0));

    let default = SymbolicOptions::default();
    let collecting = SymbolicOptions { gc_threshold: 2, ..default };
    for (label, options) in [("default", default), ("collecting", collecting)] {
        let checker = &SymbolicChecker::relational(exchange.clone(), params, rule.clone(), options);
        for refreshed in [false, true] {
            if refreshed {
                checker.set_frontier_rule(&table);
            }
            let context = format!("{family} {label} refreshed={refreshed}");
            let baseline = checker.inner.borrow().arena.live_count();

            let mut session = checker.session();
            for (formula, want) in grid.iter().zip(&expected) {
                // Also padded with an observable index the layout does
                // not have: the explicit model cannot evaluate it at
                // all, the checker answers `⊥`, bounded.
                let padded = Formula::Or(vec![formula.clone(), no_such_observable.clone()]);
                for asked in [formula, &padded] {
                    let den = consumer_denotation(checker, asked, Some(&mut session), &context);
                    assert_eq!(
                        &checker.read_points(&model, den),
                        want,
                        "{context}: {asked} differs from the explicit checker"
                    );
                    checker.release(den);
                }
            }
            checker.end_session(session);

            // Temporal formulas are evaluated unfocused whatever layer
            // is asked for, so they share one session.
            let mut unfocused = checker.session();
            for time in 0..model.num_layers() as Round {
                let mut focused = checker.session();
                for (formula, want) in grid.iter().zip(&expected) {
                    let focus = (!formula.is_temporal()).then_some(time as usize);
                    let session = if focus.is_some() { &mut focused } else { &mut unfocused };
                    for agent in agents {
                        assert_eq!(
                            checker.observation_values(session, formula, agent, time),
                            explicit_values(&model, want, agent, time),
                            "{context}: {formula} for {agent} at layer {time}"
                        );
                    }
                    // What those calls were handed, under their focus.
                    checker.focus.set(focus);
                    let den = consumer_denotation(checker, formula, Some(session), &context);
                    checker.focus.set(None);
                    checker.release(den);
                }
                checker.end_session(focused);
            }
            checker.end_session(unfocused);
            assert_eq!(
                checker.inner.borrow().arena.live_count(),
                baseline,
                "{context}: denotation leak"
            );
        }
        if label == "collecting" {
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
fn lazy_restriction_matches_the_explicit_checker_on_floodset() {
    restriction_agrees_on("floodset", FloodSet, FloodSetRule, crash(3), 0x17_01);
}

#[test]
fn lazy_restriction_matches_the_explicit_checker_on_count() {
    restriction_agrees_on("count", CountFloodSet, TextbookRule, crash(2), 0x17_02);
}

#[test]
fn lazy_restriction_matches_the_explicit_checker_on_diff() {
    restriction_agrees_on("diff", DiffFloodSet, TextbookRule, crash(2), 0x17_03);
}

#[test]
fn lazy_restriction_matches_the_explicit_checker_on_dwork_moses() {
    restriction_agrees_on("dworkmoses", DworkMoses, DworkMosesRule, crash(2), 0x17_04);
}

#[test]
fn lazy_restriction_matches_the_explicit_checker_on_emin() {
    restriction_agrees_on("emin", EMin, EMinRule, omissions(2), 0x17_05);
}

#[test]
fn lazy_restriction_matches_the_explicit_checker_on_ebasic() {
    restriction_agrees_on("ebasic", EBasic, EBasicRule, omissions(2), 0x17_06);
}

/// The body of `epimc::spec::simultaneous_agreement_formula` (its outer
/// `AG` stripped, as the `global_check` workload evaluates it): `n²·k`
/// implications over atoms, spelled here because `epimc` sits above this
/// crate.
fn simultaneous_agreement_body(n: usize, num_values: usize) -> F {
    let nonfaulty = |agent| F::atom(ConsensusAtom::Nonfaulty(agent));
    let decides = |agent, value| F::atom(ConsensusAtom::DecidesNow(agent, value));
    F::and(AgentId::all(n).flat_map(move |i| {
        AgentId::all(n).flat_map(move |j| {
            Value::all(num_values).map(move |v| {
                F::implies(F::and([nonfaulty(i), decides(i, v), nonfaulty(j)]), decides(j, v))
            })
        })
    }))
}

#[test]
fn a_specification_clause_meets_each_layer_once() {
    let params = crash(4);
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let clause = simultaneous_agreement_body(4, 2);
    assert_eq!(checker.stats().reach_restrictions, 0, "the build restricts nothing");
    let verdict = checker.holds_everywhere(&clause);
    assert_eq!(verdict, Checker::new(&model).holds_everywhere(&clause));
    // 32 implications, 128 atoms: one conjunction per layer, made by
    // `holds_everywhere`, none by a connective.
    let layers = checker.num_layers() as u64;
    assert_eq!(checker.stats().reach_restrictions, layers);
    // Additive; an epistemic formula's operand is absorbed, its result is
    // bounded, and nothing is restricted at all.
    checker.holds_everywhere(&clause);
    assert_eq!(checker.stats().reach_restrictions, 2 * layers);
    checker.holds_everywhere(&F::knows(AgentId::new(0), F::not(clause)));
    assert_eq!(checker.stats().reach_restrictions, 2 * layers);
    // A temporal operator and a fixpoint body are consumers too.
    checker.holds_everywhere(&F::all_globally(exists(0)));
    assert_eq!(checker.stats().reach_restrictions, 3 * layers);
}

/// Cache lookups and live nodes, the two things a session hit must leave
/// alone.
fn kernel_activity<E, R>(checker: &SymbolicChecker<E, R>) -> (u64, u64, usize)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let stats = checker.stats();
    (stats.cache_hits, stats.cache_misses, stats.live_nodes)
}

#[test]
fn a_repeat_in_a_session_is_one_hit_and_no_bdd_operation() {
    // `serve_warm`'s contract from inside the crate: the session keeps each
    // entry in the most restricted form a consumer has asked of it, so
    // asking again compares handles and performs no kernel operation.
    let params = crash(3);
    let relational =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let decides = F::atom(ConsensusAtom::DecidesNow(AgentId::new(0), Value::new(0)));
    let propositional = F::implies(F::and([exists(0), F::not(exists(1))]), decides.clone());
    let mixed = F::implies(F::common_belief(exists(0)), decides);

    let mut session = relational.session();
    for formula in [&propositional, &mixed] {
        let first = relational.holds_everywhere_in_session(&mut session, formula);
        let (hits, before) = (session.hits(), kernel_activity(&relational));
        assert_eq!(relational.holds_everywhere_in_session(&mut session, formula), first);
        assert_eq!(session.hits(), hits + 1, "{formula}: one hit, at the root");
        assert_eq!(
            kernel_activity(&relational),
            before,
            "{formula}: the repeat touched the kernel"
        );
    }
    // An entry first cached as an *operand* is unbounded; the first consumer
    // to ask for it restricts the entry itself, and the next pays nothing.
    let operand = F::or([exists(1), F::not(F::atom(ConsensusAtom::Decided(AgentId::new(1))))]);
    relational.holds_everywhere_in_session(&mut session, &F::not(operand.clone()));
    let restrictions = relational.stats().reach_restrictions;
    let first = relational.holds_everywhere_in_session(&mut session, &operand);
    assert_eq!(
        relational.stats().reach_restrictions,
        restrictions + relational.num_layers() as u64,
        "the cached operand was restricted in place"
    );
    let (hits, before) = (session.hits(), kernel_activity(&relational));
    assert_eq!(relational.holds_everywhere_in_session(&mut session, &operand), first);
    assert_eq!(session.hits(), hits + 1);
    assert_eq!(kernel_activity(&relational), before, "the upgraded entry was restricted again");
    assert_eq!(
        relational.stats().reach_restrictions,
        restrictions + relational.num_layers() as u64
    );
    relational.end_session(session);

    // A focused `observation_values` repeat: evaluation is the one hit and
    // allocates nothing. Its two projections of the layer are kernel calls
    // by design, answered from the operation cache — two lookups, no miss.
    let mut session = relational.session();
    let agent = AgentId::new(0);
    for formula in [&propositional, &mixed] {
        let first = relational.observation_values(&mut session, formula, agent, 1);
        let (hits, (cache_hits, cache_misses, live)) =
            (session.hits(), kernel_activity(&relational));
        assert_eq!(relational.observation_values(&mut session, formula, agent, 1), first);
        assert_eq!(session.hits(), hits + 1);
        let (hits_after, misses_after, live_after) = kernel_activity(&relational);
        assert_eq!((misses_after, live_after), (cache_misses, live), "{formula}: focused repeat");
        assert!(hits_after <= cache_hits + 2, "{formula}: more than the two projections");
    }
    relational.end_session(session);
}

#[test]
fn a_budget_trip_anywhere_in_a_lazy_evaluation_leaves_a_valid_checker() {
    // Abort-anywhere over the new boundary: a clause that is all unbounded
    // operands until `holds_everywhere` restricts it, and a disjunction in
    // which an unbounded operand waits in the arena while `B[0] CB ∃0`
    // runs. One checker throughout; for every op-fuel value below what the
    // query needs, the arena is back to its pre-call ids, the manager is
    // canonical, and the un-budgeted retry gives the reference answer.
    let params = crash(4);
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let reference = Checker::new(&model);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let clause = simultaneous_agreement_body(4, 2);
    let knowledge = F::or([
        F::atom(ConsensusAtom::Decided(AgentId::new(1))),
        F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists(0))),
    ]);
    let held = checker.inner.borrow().arena.live_ids();
    for formula in [&clause, &knowledge] {
        let want = Ok(reference.holds_everywhere(formula));
        // A collection empties the operation caches, so every attempt
        // starts as cold as the first.
        checker.force_gc();
        checker.set_budget(Some(Budget::with_max_ops(u64::MAX)));
        assert_eq!(checker.try_holds_everywhere(formula), want, "unlimited fuel");
        let needed = checker.inner.borrow().bdd.budget_ops();
        checker.set_budget(None);
        assert!(needed > 500, "{formula} is too small to sweep ({needed} ops)");
        for fuel in 1..needed {
            checker.force_gc();
            checker.set_budget(Some(Budget::with_max_ops(fuel)));
            let abort = checker
                .try_holds_everywhere(formula)
                .expect_err("less fuel than the query needs must abort");
            assert!(matches!(abort.error, BddError::BudgetExceeded { .. }), "fuel {fuel}");
            {
                let inner = checker.inner.borrow();
                assert_eq!(inner.arena.live_ids(), held, "fuel {fuel}: arena changed");
                assert_eq!(inner.bdd.budget(), None, "fuel {fuel}: budget still armed");
                inner.bdd.check_canonical_invariant().unwrap_or_else(|error| {
                    panic!("fuel {fuel}: manager invalid after the abort: {error}")
                });
            }
            assert_eq!(checker.try_holds_everywhere(formula), want, "fuel {fuel}: retry");
        }
        checker.force_gc();
        checker.set_budget(Some(Budget::with_max_ops(needed)));
        assert_eq!(checker.try_holds_everywhere(formula), want, "exact fuel suffices");
        checker.set_budget(None);
    }

    // The same sweep over the one in-place write: a session entry cached
    // unbounded, restricted layer by layer on its first consumer hit. A
    // trip between two layers leaves a half-restricted entry, which is
    // still a valid unbounded one.
    let want = Ok(reference.holds_everywhere(&clause));
    let fresh_operand_entry = || {
        let mut session = checker.session();
        checker.holds_everywhere_in_session(&mut session, &F::not(clause.clone()));
        checker.force_gc();
        session
    };
    let mut session = fresh_operand_entry();
    checker.set_budget(Some(Budget::with_max_ops(u64::MAX)));
    assert_eq!(checker.try_holds_everywhere_in_session(&mut session, &clause), want);
    let needed = checker.inner.borrow().bdd.budget_ops();
    checker.set_budget(None);
    checker.end_session(session);
    assert!(needed > checker.num_layers() as u64, "the hit restricts every layer ({needed} ops)");
    for fuel in 1..needed {
        let mut session = fresh_operand_entry();
        let entries = checker.inner.borrow().arena.live_ids();
        checker.set_budget(Some(Budget::with_max_ops(fuel)));
        checker
            .try_holds_everywhere_in_session(&mut session, &clause)
            .expect_err("less fuel than the restriction needs must abort");
        assert_eq!(checker.inner.borrow().arena.live_ids(), entries, "fuel {fuel}: arena changed");
        assert_eq!(
            checker.try_holds_everywhere_in_session(&mut session, &clause),
            want,
            "fuel {fuel}: retry through the half-restricted entry"
        );
        checker.end_session(session);
    }
    assert_eq!(checker.inner.borrow().arena.live_ids(), held);
}

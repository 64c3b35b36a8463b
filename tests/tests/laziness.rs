//! The laziness contract of the local engine (`LocalChecker`, the lazy
//! façade over the global evaluator's `holds_in_layer`), as a property
//! suite:
//!
//! 1. **Expansion invariance** — verdicts and point sets computed lazily
//!    (layers materialised on demand, temporal formulas evaluated over the
//!    built prefix) are identical to those computed against a fully
//!    expanded model, both across checkers (a lazy one vs one
//!    force-expanded before its first query) and within one checker (ask
//!    lazily, force-expand every layer, ask again).
//! 2. **Exact demand** — knowledge and common belief are layer-local under
//!    clock semantics, so a query at layer `t` builds exactly the layers
//!    its formula reads: `t + 1` for a purely epistemic one, one more per
//!    nested `AX`/`EX`, and all of them for an unbounded temporal
//!    operator.
//!
//! The formula generator is seeded, so failures reproduce exactly.

use epimc::prelude::{
    AgentId, Checker, ConsensusAtom, ConsensusModel, FloodSet, FloodSetRule, Formula, LocalChecker,
    ModelParams, SymbolicChecker, SymbolicOptions, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type F = Formula<ConsensusAtom>;

fn random_atom(rng: &mut StdRng, n: usize) -> ConsensusAtom {
    let agent = AgentId::new(rng.gen_range(0..n));
    match rng.gen_range(0..7u32) {
        0 => ConsensusAtom::InitIs(agent, Value::new(rng.gen_range(0..2usize))),
        1 => ConsensusAtom::ExistsInit(Value::new(rng.gen_range(0..2usize))),
        2 => ConsensusAtom::Nonfaulty(agent),
        3 => ConsensusAtom::Decided(agent),
        4 => ConsensusAtom::DecidesNow(agent, Value::new(rng.gen_range(0..2usize))),
        5 => ConsensusAtom::TimeIs(rng.gen_range(0..3u32)),
        _ => ConsensusAtom::ObsEquals(agent, rng.gen_range(0..2usize), rng.gen_range(0..2u32)),
    }
}

fn random_formula(rng: &mut StdRng, n: usize, depth: usize) -> F {
    if depth == 0 || rng.gen_bool(0.2) {
        return match rng.gen_range(0..8u32) {
            0 => F::True,
            1 => F::False,
            _ => F::atom(random_atom(rng, n)),
        };
    }
    let agent = AgentId::new(rng.gen_range(0..n));
    let inner = random_formula(rng, n, depth - 1);
    match rng.gen_range(0..11u32) {
        0 => F::not(inner),
        1 => F::and([inner, random_formula(rng, n, depth - 1)]),
        2 => F::or([inner, random_formula(rng, n, depth - 1)]),
        3 => F::implies(inner, random_formula(rng, n, depth - 1)),
        4 => F::knows(agent, inner),
        5 => F::believes_nonfaulty(agent, inner),
        6 => F::everyone_believes(inner),
        7 => F::common_belief(inner),
        8 => F::all_next(inner),
        9 => F::exists_finally(inner),
        _ => F::all_globally(inner),
    }
}

fn params() -> ModelParams {
    ModelParams::builder().agents(2).max_faulty(1).values(2).build()
}

/// Lazy solving and a force-expanded model give identical verdicts and
/// point sets on seeded random formulas, both across checkers and on the
/// same checker re-solved after the forced expansion.
#[test]
fn verdicts_and_points_invariant_under_forced_full_expansion() {
    let params = params();
    let horizon = params.horizon() as usize;
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let mut rng = StdRng::seed_from_u64(0xD1FF_1020);
    for case in 0..60 {
        let formula = random_formula(&mut rng, params.num_agents(), 3);
        let lazy = LocalChecker::new(FloodSet, params, FloodSetRule);
        let forced = LocalChecker::new(FloodSet, params, FloodSetRule);
        forced.force_full_expansion();
        assert_eq!(forced.layers_expanded(), horizon + 1);
        for layer in 0..=horizon {
            assert_eq!(
                lazy.holds_in_layer(&formula, layer),
                forced.holds_in_layer(&formula, layer),
                "case {case}: lazy and forced verdicts differ at layer {layer} on {formula}"
            );
        }
        let lazy_points = lazy.check_points(&model, &formula);
        assert_eq!(
            lazy_points,
            forced.check_points(&model, &formula),
            "case {case}: lazy and forced point sets differ on {formula}"
        );
        // Re-solve on the same checker after forcing every layer:
        // `check_points` is not memoised, so this is a genuine re-run
        // against the now-complete model.
        lazy.force_full_expansion();
        assert_eq!(
            lazy_points,
            lazy.check_points(&model, &formula),
            "case {case}: re-solving after forced expansion changed the point set on {formula}"
        );
    }
}

/// Global verdicts (`holds_everywhere`) are likewise invariant.
#[test]
fn global_verdicts_invariant_under_forced_full_expansion() {
    let params = params();
    let mut rng = StdRng::seed_from_u64(0xD1FF_1021);
    for case in 0..60 {
        let formula = random_formula(&mut rng, params.num_agents(), 3);
        let lazy = LocalChecker::new(FloodSet, params, FloodSetRule);
        let forced = LocalChecker::new(FloodSet, params, FloodSetRule);
        forced.force_full_expansion();
        assert_eq!(
            lazy.holds_everywhere(&formula),
            forced.holds_everywhere(&formula),
            "case {case}: lazy and forced global verdicts differ on {formula}"
        );
    }
}

/// At least one seeded query settles while `layers_expanded < horizon`:
/// knowledge, belief and common belief are layer-local under clock
/// semantics, so a purely epistemic layer-0 query needs only layer 0
/// however deep the model is.
#[test]
fn epistemic_layer_zero_queries_settle_early() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).horizon(4).build();
    let horizon = params.horizon() as usize;
    assert_eq!(horizon, 4);
    let checker = LocalChecker::new(FloodSet, params, FloodSetRule);
    let mut rng = StdRng::seed_from_u64(0xD1FF_1022);
    let mut settled_early = 0usize;
    for _ in 0..12 {
        // Epistemic-only formulas: no temporal operator, so no cell ever
        // references a deeper layer.
        let atom = F::atom(random_atom(&mut rng, params.num_agents()));
        let formula = F::believes_nonfaulty(
            AgentId::new(0),
            F::common_belief(F::or([atom.clone(), F::not(atom)])),
        );
        checker.holds_in_layer(&formula, 0);
        if checker.layers_expanded() < horizon {
            settled_early += 1;
        }
    }
    assert!(settled_early > 0, "no layer-0 epistemic query settled with layers_expanded < horizon");
    // The queries above are purely epistemic: layer 0 alone suffices.
    assert_eq!(checker.layers_expanded(), 1, "epistemic layer-0 queries must not expand layers");
    assert!(checker.stats().layers_expanded < horizon);
}

/// A purely epistemic layer-0 query builds layer 0 alone and gives the
/// explicit oracle's verdict.
#[test]
fn layer_zero_epistemic_query_expands_one_layer() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).horizon(4).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let explicit = Checker::new(&model);
    let exists = |v: usize| F::atom(ConsensusAtom::ExistsInit(Value::new(v)));
    for formula in [
        F::believes_nonfaulty(AgentId::new(0), F::common_belief(F::or([exists(0), exists(1)]))),
        F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists(0))),
        F::knows(AgentId::new(1), exists(1)),
    ] {
        let checker = LocalChecker::new(FloodSet, params, FloodSetRule);
        let initially = F::implies(F::atom(ConsensusAtom::TimeIs(0)), formula.clone());
        assert_eq!(
            checker.holds_in_layer(&formula, 0),
            explicit.holds_everywhere(&initially),
            "{formula}"
        );
        assert_eq!(checker.layers_expanded(), 1, "{formula}");
    }
}

/// `Next` depth bounds expansion: `AX^k φ` (and `EX^k φ`) at layer `t`
/// builds exactly `min(t + k, horizon) + 1` layers, and the verdict is
/// the one a fully built model gives.
#[test]
fn next_depth_bounds_expansion() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).horizon(4).build();
    let horizon = params.horizon() as usize;
    let global =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let phi = F::knows(AgentId::new(0), F::atom(ConsensusAtom::Decided(AgentId::new(1))));
    for k in 0..=3 {
        for universal in [true, false] {
            let formula = (0..k).fold(phi.clone(), |f, _| {
                if universal {
                    F::all_next(f)
                } else {
                    F::exists_next(f)
                }
            });
            for t in 0..=horizon {
                let checker = LocalChecker::new(FloodSet, params, FloodSetRule);
                assert_eq!(
                    checker.holds_in_layer(&formula, t),
                    global.holds_in_layer(&formula, t),
                    "{formula} at layer {t}"
                );
                assert_eq!(
                    checker.layers_expanded(),
                    (t + k).min(horizon) + 1,
                    "{formula} at layer {t}"
                );
            }
        }
    }
}

/// An unbounded temporal operator demands the whole horizon, and at the
/// horizon the next-step operators take the global engines' defaults:
/// `AX` holds vacuously and `EX` fails.
#[test]
fn unbounded_temporal_defaults_match_global_engines() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).horizon(4).build();
    let horizon = params.horizon() as usize;
    let global =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let decided = F::atom(ConsensusAtom::Decided(AgentId::new(0)));
    for formula in [F::all_globally(F::not(decided.clone())), F::exists_finally(decided)] {
        let checker = LocalChecker::new(FloodSet, params, FloodSetRule);
        assert_eq!(
            checker.holds_in_layer(&formula, 0),
            global.holds_in_layer(&formula, 0),
            "{formula}"
        );
        assert_eq!(checker.layers_expanded(), horizon + 1, "{formula}");
        assert_eq!(checker.stats().fallbacks, 1, "{formula}");
    }
    let checker = LocalChecker::new(FloodSet, params, FloodSetRule);
    assert!(checker.holds_in_layer(&F::all_next(F::ff()), horizon));
    assert!(!checker.holds_in_layer(&F::exists_next(F::tt()), horizon));
    assert_eq!(checker.layers_expanded(), horizon + 1);
}

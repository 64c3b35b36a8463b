//! Seeded random differential suite cross-validating the model-checking
//! engines: on randomly generated epistemic/temporal formulas, the
//! explicit-state checker, the symbolic (BDD) checker and the local
//! (lazy) checker must return exactly the same set of points — not
//! merely the same valid/invalid verdict. The explicit checker over an
//! explored model is the one point-level oracle; the symbolic engines build
//! their model relationally, as everything that ships does, and are read
//! off on the explored points through `check_points`.
//!
//! The clock-semantics outcomes are unique (Huang & van der Meyden), so
//! explicit ≡ symbolic ≡ local must hold bit-for-bit. The **three-way
//! grid** at the bottom runs all three engines behind the common
//! [`CheckBackend`] seam on 200 formulas for each of the six protocol
//! families; on a mismatch the diverging engine, formula and first
//! diverging layer are printed. The generator is seeded, so a failure
//! reproduces exactly.

use epimc::prelude::*;
use epimc_integration::distinct_layer_states;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type F = Formula<ConsensusAtom>;

const FORMULAS_PER_FAMILY: usize = 200;

fn random_atom(rng: &mut StdRng, n: usize) -> ConsensusAtom {
    let agent = AgentId::new(rng.gen_range(0..n));
    match rng.gen_range(0..8u32) {
        0 => ConsensusAtom::InitIs(agent, Value::new(rng.gen_range(0..2usize))),
        1 => ConsensusAtom::ExistsInit(Value::new(rng.gen_range(0..2usize))),
        2 => ConsensusAtom::Nonfaulty(agent),
        3 => ConsensusAtom::Decided(agent),
        4 => ConsensusAtom::DecidesNow(agent, Value::new(rng.gen_range(0..2usize))),
        5 => ConsensusAtom::TimeIs(rng.gen_range(0..4u32)),
        6 => ConsensusAtom::ObsEquals(agent, rng.gen_range(0..2usize), rng.gen_range(0..2u32)),
        _ => ConsensusAtom::ObsAtMost(agent, rng.gen_range(0..2usize), rng.gen_range(0..2u32)),
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

/// The symbolic engine as the differential tests run it: built
/// relationally *under* `options`, so stressed thresholds already act on
/// the forward images of the build.
fn symbolic_floodset(
    params: ModelParams,
    options: SymbolicOptions,
) -> SymbolicChecker<FloodSet, FloodSetRule> {
    SymbolicChecker::relational(FloodSet, params, FloodSetRule, options)
}

/// Checks `FORMULAS_PER_FAMILY` random formulas on both engines over the
/// same instance, requiring identical point sets.
fn engines_agree_on<E, R>(family: &str, exchange: E, rule: R, params: ModelParams, seed: u64)
where
    E: InformationExchange + SymbolicEncode,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let explicit = Checker::new(&model);
    let symbolic = SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..FORMULAS_PER_FAMILY {
        let formula = random_formula(&mut rng, params.num_agents(), 3);
        let explicit_result = explicit.check(&formula);
        let symbolic_result = symbolic.check_points(&model, &formula);
        assert_eq!(
            explicit_result, symbolic_result,
            "{family} case {case}: engines disagree on {formula}"
        );
    }
}

/// The relational front-end differential: the purely symbolic model
/// construction must produce (a) layer state sets extensionally identical
/// to the explicitly explored ones — every explored point reachable and
/// each layer's model count equal to the number of distinct states among
/// its explored points — (b) identical observation classes per agent and
/// layer, and (c) on every seeded random formula, exactly the explicit
/// engine's point set.
fn relational_agrees_on<E, R>(
    family: &str,
    exchange: E,
    rule: R,
    params: ModelParams,
    seed: u64,
    cases: usize,
) where
    E: InformationExchange + SymbolicEncode,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let explicit = Checker::new(&model);
    let relational =
        SymbolicChecker::relational(exchange, params, rule, SymbolicOptions::default());
    assert_eq!(
        relational.check_points(&model, &F::True),
        PointSet::full(&model),
        "{family}: a point explored explicitly is not relationally reachable"
    );
    let explored_states = distinct_layer_states(&model);
    for time in 0..model.num_layers() as Round {
        assert_eq!(
            relational.layer_state_count(time),
            explored_states[time as usize],
            "{family}: layer {time} state counts differ"
        );
        for agent in AgentId::all(params.num_agents()) {
            let explored: std::collections::BTreeSet<&Observation> = (0..model.layer_size(time))
                .map(|index| model.observation(agent, PointId::new(time, index)))
                .collect();
            let mut session = relational.session();
            let classes = relational.observation_values(&mut session, &F::True, agent, time);
            relational.end_session(session);
            assert!(
                classes.reachable.iter().eq(explored),
                "{family}: observation classes differ for {agent} at time {time}"
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let formula = random_formula(&mut rng, params.num_agents(), 3);
        assert_eq!(
            explicit.check(&formula),
            relational.check_points(&model, &formula),
            "{family} case {case}: relational front-end disagrees on {formula}"
        );
    }
}

/// The first layer at which two point sets differ, for diagnostics.
fn diverging_layer<M: PointModel>(model: &M, a: &PointSet, b: &PointSet) -> Option<Round> {
    (0..model.num_layers() as Round).find(|&t| a.restrict_to_layer(t) != b.restrict_to_layer(t))
}

/// The three-way differential grid: `FORMULAS_PER_FAMILY` seeded random
/// formulas checked by all three engines behind the [`CheckBackend`]
/// seam, requiring identical point sets *and* identical global verdicts.
/// On a mismatch the diverging engine, formula and first diverging layer
/// are reported.
fn three_way_agree_on<E, R>(family: &str, exchange: E, rule: R, params: ModelParams, seed: u64)
where
    E: InformationExchange + SymbolicEncode + 'static,
    R: DecisionRule<E> + SymbolicRule<E> + Clone + 'static,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let explicit = Checker::new(&model);
    let symbolic = SymbolicChecker::relational(
        exchange.clone(),
        params,
        rule.clone(),
        SymbolicOptions::default(),
    );
    let local = LocalChecker::new(exchange, params, rule);
    let backends: [&dyn CheckBackend<E, R>; 3] = [&explicit, &symbolic, &local];
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..FORMULAS_PER_FAMILY {
        let formula = random_formula(&mut rng, params.num_agents(), 3);
        let reference = backends[0].backend_check_points(&model, &formula);
        let reference_verdict = backends[0].backend_holds_everywhere(&formula);
        for backend in &backends[1..] {
            let points = backend.backend_check_points(&model, &formula);
            if points != reference {
                panic!(
                    "{family} case {case}: engine `{}` diverges from `{}` at layer {:?} on {formula}",
                    backend.backend_name(),
                    backends[0].backend_name(),
                    diverging_layer(&model, &reference, &points),
                );
            }
            assert_eq!(
                backend.backend_holds_everywhere(&formula),
                reference_verdict,
                "{family} case {case}: engine `{}` verdict diverges on {formula}",
                backend.backend_name()
            );
        }
    }
}

#[test]
fn three_way_grid_floodset_crash() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    three_way_agree_on("floodset", FloodSet, FloodSetRule, params, 0xD1FF_0020);
}

#[test]
fn three_way_grid_count_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    three_way_agree_on("count", CountFloodSet, TextbookRule, params, 0xD1FF_0021);
}

#[test]
fn three_way_grid_diff_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    three_way_agree_on("diff", DiffFloodSet, TextbookRule, params, 0xD1FF_0022);
}

#[test]
fn three_way_grid_dwork_moses_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    three_way_agree_on("dworkmoses", DworkMoses, DworkMosesRule, params, 0xD1FF_0023);
}

#[test]
fn three_way_grid_emin_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    three_way_agree_on("emin", EMin, EMinRule, params, 0xD1FF_0024);
}

#[test]
fn three_way_grid_ebasic_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    three_way_agree_on("ebasic", EBasic, EBasicRule, params, 0xD1FF_0025);
}

#[test]
fn relational_agrees_on_floodset_crash() {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    relational_agrees_on("floodset", FloodSet, FloodSetRule, params, 0xD1FF_0010, 48);
}

#[test]
fn relational_agrees_on_count_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    relational_agrees_on("count", CountFloodSet, TextbookRule, params, 0xD1FF_0011, 64);
}

#[test]
fn relational_agrees_on_diff_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    relational_agrees_on("diff", DiffFloodSet, TextbookRule, params, 0xD1FF_0012, 64);
}

#[test]
fn relational_agrees_on_dwork_moses_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    relational_agrees_on("dworkmoses", DworkMoses, DworkMosesRule, params, 0xD1FF_0013, 64);
}

#[test]
fn relational_agrees_on_emin_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    relational_agrees_on("emin", EMin, EMinRule, params, 0xD1FF_0014, 64);
}

#[test]
fn relational_agrees_on_ebasic_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    relational_agrees_on("ebasic", EBasic, EBasicRule, params, 0xD1FF_0015, 64);
}

#[test]
fn engines_agree_on_floodset_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    engines_agree_on("floodset", FloodSet, FloodSetRule, params, 0xD1FF_0001);
}

#[test]
fn engines_agree_on_count_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    engines_agree_on("count", CountFloodSet, TextbookRule, params, 0xD1FF_0002);
}

#[test]
fn engines_agree_on_diff_crash() {
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    engines_agree_on("diff", DiffFloodSet, TextbookRule, params, 0xD1FF_0003);
}

#[test]
fn engines_agree_on_floodset_three_agents() {
    // A three-agent instance exercises nontrivial nonfaulty sets in the
    // common-belief fixpoint; fewer cases because the model is larger. (The
    // second seed is the formula set the retired partitioned-vs-monolithic
    // comparison ran against the explicit engine.)
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let explicit = Checker::new(&model);
    let symbolic = symbolic_floodset(params, SymbolicOptions::default());
    for seed in [0xD1FF_0004, 0xD1FF_0006] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..48 {
            let formula = random_formula(&mut rng, 3, 3);
            assert_eq!(
                explicit.check(&formula),
                symbolic.check_points(&model, &formula),
                "floodset-n3 seed {seed:#x} case {case}: engines disagree on {formula}"
            );
        }
    }
}

#[test]
fn engines_agree_on_emin_omissions() {
    let params = ModelParams::builder()
        .agents(2)
        .max_faulty(1)
        .values(2)
        .failure(FailureKind::SendOmission)
        .build();
    engines_agree_on("emin", EMin, EMinRule, params, 0xD1FF_0005);
}

/// Differential test for variable reordering: the default engine under a
/// small GC threshold (so it collects through the build and mid-evaluation)
/// group-sifts its order after every `every`-th of 48 seeded cases, and
/// every random formula — including the temporal operators, whose
/// reachable relations every sift drops and the next pre-image rebuilds
/// under the new order — must produce exactly the explicit engine's
/// `PointSet`.
fn forced_reorders_agree_with_explicit(seed: u64, every: usize) {
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let explicit = Checker::new(&model);
    let symbolic =
        symbolic_floodset(params, SymbolicOptions { gc_threshold: 1 << 10, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..48 {
        let formula = random_formula(&mut rng, 3, 3);
        assert_eq!(
            symbolic.check_points(&model, &formula),
            explicit.check(&formula),
            "seed {seed:#x}: engines disagree on case {case}: {formula}"
        );
        if case % every == every - 1 {
            symbolic.force_reorder();
        }
    }
    let stats = symbolic.stats();
    assert!(stats.reorder_runs > 0, "the forced reorders must have run");
    assert!(stats.gc_runs > 0, "the small threshold must have collected");
}

#[test]
fn forced_reorders_agree_with_explicit_on_seeded_formulas() {
    forced_reorders_agree_with_explicit(0xD1FF_0008, 8);
}

#[test]
fn engine_under_gc_and_reorder_pressure_agrees_with_explicit_on_seeded_formulas() {
    // A second formula set, sifted more often, so reorders also land
    // between short runs of cases.
    forced_reorders_agree_with_explicit(0xD1FF_0009, 3);
}

#[test]
fn gc_preserves_symbolic_semantics_on_seeded_formulas() {
    // Oracle test for the garbage collector: evaluate a seeded random
    // formula set, sweep, and re-evaluate — every answer must be
    // bit-identical to the pre-sweep point set and to the explicit engine.
    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let explicit = Checker::new(&model);
    // A tiny threshold also forces collections *during* evaluation, in the
    // middle of fixpoint iterations.
    let symbolic =
        symbolic_floodset(params, SymbolicOptions { gc_threshold: 1 << 10, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(0xD1FF_0007);
    let formulas: Vec<F> = (0..64).map(|_| random_formula(&mut rng, 2, 3)).collect();
    let before: Vec<PointSet> = formulas.iter().map(|f| symbolic.check_points(&model, f)).collect();
    symbolic.force_gc();
    assert!(symbolic.stats().gc_runs > 0, "collections must have run");
    for (case, (formula, expected)) in formulas.iter().zip(&before).enumerate() {
        let after = symbolic.check_points(&model, formula);
        assert_eq!(&after, expected, "gc changed case {case}: {formula}");
        assert_eq!(
            after,
            explicit.check(formula),
            "symbolic engine disagrees with explicit after gc on case {case}: {formula}"
        );
    }
}

#[test]
fn knowledge_is_veridical_on_random_formulas() {
    // K_i φ ⇒ φ is valid in the S5 clock semantics; checking it on random
    // φ exercises the knowledge machinery end to end.
    let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker = Checker::new(&model);
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    for _ in 0..48 {
        let formula = random_formula(&mut rng, 3, 3);
        let veridical = F::implies(F::knows(AgentId::new(0), formula.clone()), formula.clone());
        assert!(checker.holds_everywhere(&veridical), "K not veridical for {formula}");
        // Positive introspection: K_i φ ⇒ K_i K_i φ.
        let introspection = F::implies(
            F::knows(AgentId::new(0), formula.clone()),
            F::knows(AgentId::new(0), F::knows(AgentId::new(0), formula.clone())),
        );
        assert!(
            checker.holds_everywhere(&introspection),
            "no positive introspection for {formula}"
        );
    }
}

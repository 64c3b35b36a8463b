//! Tests of the pre-image through the per-round reachable relation `T_t`
//! (a child module of `symbolic`, so it can hand `preimage` / `all_next`
//! arbitrary target sets and inspect the cache).
//!
//! The oracle is the explicit [`Checker`] over [`WithSets`], an explored
//! model whose atoms are arbitrary point sets: `EX S` / `AX S` for any `S`
//! is then an ordinary formula check over the explicit successor lists.

use super::*;
use crate::explicit::Checker;
use epimc_protocols::{
    CountFloodSet, DiffFloodSet, DworkMoses, DworkMosesRule, EBasic, EBasicRule, EMin, EMinRule,
    FloodSet, FloodSetRule, TextbookRule,
};
use epimc_system::{AgentSet, FailureKind, ModelParams, Value};

type F = Formula<ConsensusAtom>;

/// Seeded target sets per round (the empty set and the whole next layer
/// included).
const SETS_PER_ROUND: usize = 20;

/// An explored model with point-set atoms: atom `k` holds exactly at the
/// points of `sets[k]`.
struct WithSets<'m, E: InformationExchange, R> {
    model: &'m ConsensusModel<E, R>,
    sets: Vec<PointSet>,
}

impl<E: InformationExchange, R: DecisionRule<E>> PointModel for WithSets<'_, E, R> {
    type Atom = usize;

    fn num_agents(&self) -> usize {
        self.model.num_agents()
    }
    fn num_layers(&self) -> usize {
        self.model.num_layers()
    }
    fn layer_size(&self, time: Round) -> usize {
        self.model.layer_size(time)
    }
    fn successors(&self, point: PointId) -> &[usize] {
        self.model.successors(point)
    }
    fn observation(&self, agent: AgentId, point: PointId) -> &Observation {
        self.model.observation(agent, point)
    }
    fn nonfaulty(&self, point: PointId) -> AgentSet {
        self.model.nonfaulty(point)
    }
    fn eval_atom(&self, atom: &usize, point: PointId) -> bool {
        self.sets[*atom].contains(point)
    }
}

/// SplitMix64, for seeded target sets.
fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `targets[t]`: the member indices (in layer `t + 1`) of each target set
/// of round `t`. Set 0 is empty, set 1 the whole layer, the rest are
/// seeded subsets of varying density — closed under "encodes identically"
/// (`encodings[layer][index]` is a point's state-variable assignment),
/// since a BDD over the state variables cannot tell such points apart.
fn seeded_targets(encodings: &[Vec<Vec<bool>>], seed: u64) -> Vec<Vec<Vec<usize>>> {
    let mut state = seed;
    encodings[1..]
        .iter()
        .map(|layer| {
            (0..SETS_PER_ROUND)
                .map(|k| match k {
                    0 => Vec::new(),
                    1 => (0..layer.len()).collect(),
                    _ => {
                        let density = next_random(&mut state) % 8 + 1;
                        let picked: Vec<&Vec<bool>> = layer
                            .iter()
                            .filter(|_| next_random(&mut state) % 9 < density)
                            .collect();
                        (0..layer.len()).filter(|&index| picked.contains(&&layer[index])).collect()
                    }
                })
                .collect()
        })
        .collect()
}

/// The explicit checker's `(EX S, AX S)` at layer `t` for every target of
/// every round, as ascending index lists.
fn oracle_answers<E, R>(
    model: &ConsensusModel<E, R>,
    targets: &[Vec<Vec<usize>>],
) -> Vec<(Vec<usize>, Vec<usize>)>
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let mut sets = Vec::new();
    let mut rounds = Vec::new();
    for (t, round_targets) in targets.iter().enumerate() {
        for members in round_targets {
            let mut set = PointSet::empty(model);
            for &index in members {
                set.insert(PointId::new(t as Round + 1, index));
            }
            sets.push(set);
            rounds.push(t as Round);
        }
    }
    let with_sets = WithSets { model, sets };
    let oracle = Checker::new(&with_sets);
    let layer_of = |set: PointSet, t: Round| -> Vec<usize> {
        set.restrict_to_layer(t).iter().map(|point| point.index).collect()
    };
    rounds
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let ex = oracle.check(&Formula::exists_next(Formula::atom(k)));
            let ax = oracle.check(&Formula::all_next(Formula::atom(k)));
            (layer_of(ex, t), layer_of(ax, t))
        })
        .collect()
}

/// The symbolic `AX S` (`universal`) or `EX S` at layer `t` for the target
/// `members` of layer `t + 1`, straight through `all_next` /
/// `preimage`, with a safe point (carrying the target) first — under
/// `gc_threshold: 2` a collection whenever the model's share of the store
/// has doubled, each of which remaps the reachable-relation cache.
fn symbolic_next<E, R, R2>(
    checker: &SymbolicChecker<E, R>,
    model: &ConsensusModel<E, R2>,
    t: usize,
    members: &[usize],
    universal: bool,
) -> Vec<usize>
where
    E: InformationExchange,
    R: DecisionRule<E>,
    R2: DecisionRule<E>,
{
    let encode =
        |time: usize, index: usize| checker.encode_point(model, PointId::new(time as Round, index));
    let mut inner = checker.inner.borrow_mut();
    let inner = &mut *inner;
    let minterms: Vec<Ref> = members
        .iter()
        .map(|&index| {
            let bits = encode(t + 1, index);
            inner.bdd.cube_literals(bits.iter().enumerate().map(|(slot, &bit)| (cur(slot), bit)))
        })
        .collect();
    let mut target = [inner.bdd.or_all(minterms)];
    inner.maybe_gc(&mut target);
    let result = if universal {
        checker.all_next(inner, t, target[0])
    } else {
        checker.preimage(inner, t, target[0])
    };
    (0..model.layer_size(t as Round))
        .filter(|&index| {
            let bits = encode(t, index);
            inner.bdd.eval(result, |v| bits[(v.index() / 2) as usize])
        })
        .collect()
}

/// Every cached `T_t` is `Ref`-equal to a from-scratch rebuild: whatever
/// collections remapped, or an abort left behind, is the complete
/// canonical relation. Leaves the rebuilt relations cached.
fn assert_cache_matches_rebuild<E, R>(checker: &SymbolicChecker<E, R>, context: &str)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    let mut inner = checker.inner.borrow_mut();
    let cached: Vec<(usize, Ref)> =
        inner.reachable_relations.iter().map(|(&t, &r)| (t, r)).collect();
    inner.reachable_relations.clear();
    for (t, relation) in cached {
        assert_eq!(
            checker.reachable_relation(&mut inner, t),
            relation,
            "{context}: the cached relation of round {t} differs from its rebuild"
        );
    }
}

/// Tests (i) and (ii) on one family: default options and collections
/// between the steps.
fn preimage_agrees_on<E, R>(family: &str, exchange: E, rule: R, params: ModelParams, seed: u64)
where
    E: InformationExchange + SymbolicEncode + Clone,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let model = ConsensusModel::explore(exchange.clone(), params, rule.clone());
    let rounds = model.num_layers() - 1;
    // The encoding is a function of the layout alone; a seed has it.
    let encoder = SymbolicChecker::relational_seed(
        exchange.clone(),
        params,
        rule.clone(),
        Default::default(),
    );
    let encodings: Vec<Vec<Vec<bool>>> = (0..model.num_layers() as Round)
        .map(|time| {
            (0..model.layer_size(time))
                .map(|index| encoder.encode_point(&model, PointId::new(time, index)))
                .collect()
        })
        .collect();
    let targets = seeded_targets(&encodings, seed);
    let expected = oracle_answers(&model, &targets);
    // Totality: every reachable state has a successor, so `EX` of the
    // whole next layer is the whole layer.
    for t in 0..rounds {
        let whole: Vec<usize> = (0..model.layer_size(t as Round)).collect();
        assert_eq!(expected[t * SETS_PER_ROUND + 1].0, whole, "{family}: round {t} is not total");
    }
    let collecting = SymbolicOptions { gc_threshold: 2, ..Default::default() };
    for (label, options) in [("default", SymbolicOptions::default()), ("collecting", collecting)] {
        let checker = &SymbolicChecker::relational(exchange.clone(), params, rule.clone(), options);
        let images = checker.stats().relational_product_calls;
        // `EX ∅` and `AX` of the whole next layer (a bad set of ∅) are
        // answered without a reachable relation.
        for t in 0..rounds {
            let (empty, whole) = (&targets[t][0], &targets[t][1]);
            assert_eq!(
                symbolic_next(checker, &model, t, empty, false),
                expected[t * SETS_PER_ROUND].0,
                "{family} {label}: round {t}, EX ∅"
            );
            assert_eq!(
                symbolic_next(checker, &model, t, whole, true),
                expected[t * SETS_PER_ROUND + 1].1,
                "{family} {label}: round {t}, AX of the whole layer"
            );
        }
        let stats = checker.stats();
        assert_eq!(
            (stats.preimage_calls, stats.reachable_relations_built),
            (0, 0),
            "{family} {label}: an empty pre-image demanded a reachable relation"
        );

        let mut collections_over_cache = 0;
        for (k, want) in expected.iter().enumerate() {
            let (t, members) =
                (k / SETS_PER_ROUND, &targets[k / SETS_PER_ROUND][k % SETS_PER_ROUND]);
            if label == "collecting" && k % SETS_PER_ROUND == SETS_PER_ROUND / 2 {
                // Midway through each round's targets, an automatic-style
                // collection over the relations built so far.
                let mut inner = checker.inner.borrow_mut();
                assert!(!inner.reachable_relations.is_empty(), "{family}: round {t}, no T_t");
                inner.collect(&mut []);
                collections_over_cache += 1;
            }
            let got = (
                symbolic_next(checker, &model, t, members, false),
                symbolic_next(checker, &model, t, members, true),
            );
            assert_eq!(
                &got,
                want,
                "{family} {label}: round {t}, target {} (EX, AX)",
                k % SETS_PER_ROUND
            );
        }
        let stats = checker.stats();
        // Only `EX ∅` and `AX` of a whole layer skip the relation.
        let queries: u64 = (0..rounds)
            .flat_map(|t| targets[t].iter().map(move |members| (t, members.len())))
            .map(|(t, len)| {
                u64::from(len != 0) + u64::from(len != model.layer_size(t as Round + 1))
            })
            .sum();
        assert_eq!(stats.preimage_calls, queries, "{family} {label}");
        // Collections keep the cache, so one relation per round serves
        // every target either way.
        assert_eq!(
            stats.reachable_relations_built, rounds as u64,
            "{family} {label}: a relation was rebuilt"
        );
        if label == "default" {
            assert_eq!(stats.gc_runs, 0, "{family}: the default threshold collected");
        } else {
            assert_eq!(collections_over_cache, rounds, "{family}");
            // What the collections remapped is what a rebuild from scratch
            // finds: remap plus canonicity.
            assert_cache_matches_rebuild(checker, &format!("{family} {label}"));
        }
        assert_eq!(
            stats.relational_product_calls, images,
            "{family} {label}: a pre-image was counted as a forward image step"
        );
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
fn preimage_matches_explicit_on_floodset() {
    preimage_agrees_on("floodset", FloodSet, FloodSetRule, crash(3), 0x7E1A_0001);
}

#[test]
fn preimage_matches_explicit_on_count() {
    preimage_agrees_on("count", CountFloodSet, TextbookRule, crash(2), 0x7E1A_0002);
}

#[test]
fn preimage_matches_explicit_on_diff() {
    preimage_agrees_on("diff", DiffFloodSet, TextbookRule, crash(2), 0x7E1A_0003);
}

#[test]
fn preimage_matches_explicit_on_dwork_moses() {
    preimage_agrees_on("dworkmoses", DworkMoses, DworkMosesRule, crash(2), 0x7E1A_0004);
}

#[test]
fn preimage_matches_explicit_on_emin() {
    preimage_agrees_on("emin", EMin, EMinRule, omissions(2), 0x7E1A_0005);
}

#[test]
fn preimage_matches_explicit_on_ebasic() {
    preimage_agrees_on("ebasic", EBasic, EBasicRule, omissions(2), 0x7E1A_0006);
}

fn decided(agent: usize) -> F {
    F::atom(ConsensusAtom::Decided(AgentId::new(agent)))
}

/// The temporal part of the service's cold batch.
fn temporal_batch() -> Vec<F> {
    vec![
        F::exists_finally(decided(0)),
        F::all_next(F::all_next(decided(0))),
        F::all_globally(F::implies(
            F::atom(ConsensusAtom::DecidedValue(AgentId::new(1), Value::new(0))),
            F::not(F::atom(ConsensusAtom::DecidedValue(AgentId::new(1), Value::new(1)))),
        )),
    ]
}

#[test]
fn a_budget_trip_anywhere_in_the_first_temporal_query_leaves_a_valid_checker() {
    // Abort-anywhere, scoped to the pre-image path: for every op-fuel
    // value below what the first temporal query of a fresh checker needs,
    // the query aborts, the manager stays canonical, no partial reachable
    // relation is left in the cache, and the unbudgeted retry answers as
    // a never-interrupted checker does.
    let params = crash(2);
    let fresh =
        || SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let batch = temporal_batch();
    let reference = fresh();
    reference.set_budget(Some(Budget::with_max_ops(u64::MAX)));
    let first = reference.try_holds_everywhere(&batch[0]).expect("unlimited fuel");
    let needed = reference.inner.borrow().bdd.budget_ops();
    reference.set_budget(None);
    let verdicts: Vec<bool> = batch.iter().map(|f| reference.holds_everywhere(f)).collect();
    assert_eq!(verdicts[0], first);
    assert!(needed > 100, "the query is too small to sweep ({needed} ops)");

    for fuel in 1..needed {
        let checker = fresh();
        checker.set_budget(Some(Budget::with_max_ops(fuel)));
        let abort = checker
            .try_holds_everywhere(&batch[0])
            .expect_err("less fuel than the query needs must abort");
        assert!(matches!(abort.error, BddError::BudgetExceeded { .. }), "fuel {fuel}");
        assert_valid_after_abort(&checker, &format!("fuel {fuel}"));
        let retried: Vec<bool> = batch.iter().map(|f| checker.holds_everywhere(f)).collect();
        assert_eq!(retried, verdicts, "fuel {fuel}: verdicts changed after the abort");
    }
    let checker = fresh();
    checker.set_budget(Some(Budget::with_max_ops(needed)));
    assert_eq!(checker.try_holds_everywhere(&batch[0]), Ok(first), "exact fuel suffices");

    // The same sweep over a *warm* cache: `EF decided[0]` filled it, a
    // safe-point collection kept it, and `AX AX decided[0]` trips at every
    // op-fuel value below what it needs. No trip may corrupt a kept
    // relation.
    let warm = || {
        let checker = fresh();
        assert_eq!(checker.holds_everywhere(&batch[0]), verdicts[0]);
        let mut inner = checker.inner.borrow_mut();
        assert!(!inner.reachable_relations.is_empty(), "`EF` built no relation");
        inner.collect(&mut []);
        drop(inner);
        checker
    };
    let reference = warm();
    let built = reference.stats().reachable_relations_built;
    reference.set_budget(Some(Budget::with_max_ops(u64::MAX)));
    let second = reference.try_holds_everywhere(&batch[1]).expect("unlimited fuel");
    let needed = reference.inner.borrow().bdd.budget_ops();
    assert_eq!(second, verdicts[1]);
    assert_eq!(reference.stats().reachable_relations_built, built, "the collection lost T_t");
    assert!(needed > 100, "the warm query is too small to sweep ({needed} ops)");
    for fuel in 1..needed {
        let checker = warm();
        checker.set_budget(Some(Budget::with_max_ops(fuel)));
        let abort = checker
            .try_holds_everywhere(&batch[1])
            .expect_err("less fuel than the query needs must abort");
        assert!(matches!(abort.error, BddError::BudgetExceeded { .. }), "warm fuel {fuel}");
        assert_valid_after_abort(&checker, &format!("warm fuel {fuel}"));
        let retried: Vec<bool> = batch.iter().map(|f| checker.holds_everywhere(f)).collect();
        assert_eq!(retried, verdicts, "warm fuel {fuel}: verdicts changed after the abort");
    }
}

/// After a budget trip: the manager is canonical and every cached `T_t`
/// is the complete relation its rebuild gives.
fn assert_valid_after_abort<E, R>(checker: &SymbolicChecker<E, R>, context: &str)
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    checker
        .inner
        .borrow()
        .bdd
        .check_canonical_invariant()
        .unwrap_or_else(|error| panic!("{context}: manager invalid after the abort: {error}"));
    assert_cache_matches_rebuild(checker, context);
}

#[test]
fn a_temporal_batch_leaves_no_trace_in_a_snapshot() {
    // The reachable relations are neither serialised nor do they block a
    // snapshot, and after a collection nothing of them is left: the
    // snapshot taken after a temporal batch equals the one taken before
    // it, byte for byte, up to the manager's lifetime counters (peak live
    // nodes, collections, swept nodes — nine u64s) and the two checksums
    // that cover them, which close the stream.
    const COUNTERS_AND_CHECKSUMS: usize = 9 * 8 + 8 + 8;
    let params = ModelParams::builder().agents(4).max_faulty(1).values(2).build();
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let batch = temporal_batch();
    checker.force_gc();
    let before = checker.snapshot().expect("snapshot before the batch");
    let live_before = checker.stats().live_nodes;

    let verdicts: Vec<bool> = batch.iter().map(|f| checker.holds_everywhere(f)).collect();
    assert!(checker.stats().reachable_relations_built > 0, "the batch never ran a pre-image");
    assert!(checker.snapshot().is_ok(), "cached reachable relations must not block a snapshot");
    checker.force_gc();
    assert!(checker.inner.borrow().reachable_relations.is_empty(), "a collection kept the cache");
    assert_eq!(checker.stats().live_nodes, live_before, "the batch left rooted nodes behind");
    let after = checker.snapshot().expect("snapshot after the batch");
    assert_eq!(before.len(), after.len());
    let stable = before.len() - COUNTERS_AND_CHECKSUMS;
    assert!(before[..stable] == after[..stable], "the batch changed the snapshot's model bytes");

    for bytes in [&before, &after] {
        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, bytes)
            .expect("restore");
        let answers: Vec<bool> = batch.iter().map(|f| restored.holds_everywhere(f)).collect();
        assert_eq!(answers, verdicts, "a restored checker answers the batch differently");
    }
}

/// The service's cold batch, in its order: a common-belief implication,
/// a safety `AG`, a nested belief, and the two formulas whose pre-images
/// reach every layer.
fn cold_batch() -> Vec<F> {
    let exists0 = F::atom(ConsensusAtom::ExistsInit(Value::new(0)));
    let temporal = temporal_batch();
    vec![
        F::implies(
            F::common_belief(exists0.clone()),
            F::atom(ConsensusAtom::DecidesNow(AgentId::new(0), Value::new(0))),
        ),
        temporal[2].clone(),
        F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists0)),
        temporal[0].clone(),
        temporal[1].clone(),
    ]
}

/// The cold batch through one session under the default options: the
/// relations kept across collections never move the GC trigger's model
/// size, every round's `T_t` is built once, and the verdicts are those of
/// a run that drops the cache before every formula. Returns whether a
/// collection ran while relations were cached.
fn cold_batch_builds_each_relation_once<E, R>(
    family: &str,
    exchange: E,
    rule: R,
    params: ModelParams,
) -> bool
where
    E: InformationExchange + SymbolicEncode + Clone,
    R: DecisionRule<E> + SymbolicRule<E> + Clone,
{
    let batch = cold_batch();
    let answer = |drop_cache: bool| {
        let checker = SymbolicChecker::relational(
            exchange.clone(),
            params,
            rule.clone(),
            SymbolicOptions::default(),
        );
        let mut session = checker.session();
        let mut collected_over_cache = false;
        let verdicts: Vec<bool> = batch
            .iter()
            .map(|f| {
                if drop_cache {
                    checker.inner.borrow_mut().reachable_relations.clear();
                }
                let cached = !checker.inner.borrow().reachable_relations.is_empty();
                let runs = checker.stats().gc_runs;
                let verdict = checker.holds_everywhere_in_session(&mut session, f);
                collected_over_cache |= cached && checker.stats().gc_runs > runs;
                verdict
            })
            .collect();
        checker.end_session(session);
        (verdicts, checker.stats(), collected_over_cache)
    };
    let (verdicts, stats, collected_over_cache) = answer(false);
    let (reference, ..) = answer(true);
    assert_eq!(verdicts, reference, "{family}: the kept relations changed a verdict");
    assert_eq!(
        stats.reachable_relations_built,
        u64::from(params.horizon()),
        "{family}: one relation per round serves the batch"
    );
    collected_over_cache
}

#[test]
fn the_cold_batch_builds_each_relation_once_without_reordering() {
    // On this instance `AX AX decided[0]` starts with a collection over
    // the relations `EF decided[0]` built.
    let params = ModelParams::builder().agents(4).max_faulty(2).values(2).build();
    assert!(
        cold_batch_builds_each_relation_once("diff", DiffFloodSet, TextbookRule, params),
        "no collection ran over a non-empty cache"
    );
}

#[test]
#[ignore = "release-sized: the six serve_cold models"]
fn the_cold_batch_builds_each_relation_once_on_every_serve_cold_model() {
    let crash = |n, t| ModelParams::builder().agents(n).max_faulty(t).values(2).build();
    let send = |n, t| {
        ModelParams::builder()
            .agents(n)
            .max_faulty(t)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build()
    };
    cold_batch_builds_each_relation_once("floodset", FloodSet, FloodSetRule, crash(8, 3));
    cold_batch_builds_each_relation_once("count", CountFloodSet, TextbookRule, crash(5, 2));
    cold_batch_builds_each_relation_once("diff", DiffFloodSet, TextbookRule, crash(4, 2));
    cold_batch_builds_each_relation_once("dworkmoses", DworkMoses, DworkMosesRule, crash(3, 1));
    cold_batch_builds_each_relation_once("emin", EMin, EMinRule, send(4, 2));
    cold_batch_builds_each_relation_once("ebasic", EBasic, EBasicRule, send(4, 3));
}

//! Complement-edge oracle tests: every memoised operation must agree with a
//! truth-table oracle while negations fly around freely, the canonicity
//! invariant (stored then-edges are never complemented) must hold at every
//! point — including mid-stream garbage collections and reorders.

use epimc_bdd::{Bdd, Ref, ReorderPolicy, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_VARS: u32 = 6;

/// A random function built directly in the manager, negation-heavy on
/// purpose: complement edges earn their keep exactly on formulas that
/// negate intermediate results constantly.
fn random_function(bdd: &mut Bdd, rng: &mut StdRng, depth: usize) -> Ref {
    if depth == 0 || rng.gen_bool(0.2) {
        let var = Var::new(rng.gen_range(0..NUM_VARS));
        return bdd.literal(var, rng.gen_bool(0.5));
    }
    let a = random_function(bdd, rng, depth - 1);
    let b = random_function(bdd, rng, depth - 1);
    match rng.gen_range(0..7u32) {
        0 => bdd.and(a, b),
        1 => bdd.or(a, b),
        2 => bdd.xor(a, b),
        3 => bdd.implies(a, b),
        4 => bdd.iff(a, b),
        5 => bdd.not(a),
        _ => {
            let na = bdd.not(a);
            let nb = bdd.not(b);
            bdd.and(na, nb)
        }
    }
}

fn truth_table(bdd: &Bdd, f: Ref) -> Vec<bool> {
    (0u32..(1 << NUM_VARS))
        .map(|bits| {
            let assignment: Vec<bool> = (0..NUM_VARS).map(|i| bits & (1 << i) != 0).collect();
            bdd.eval_bits(f, &assignment)
        })
        .collect()
}

/// Truth table of `∃ vars . f` computed on the oracle side.
fn table_exists(table: &[bool], vars: &[u32]) -> Vec<bool> {
    (0..table.len())
        .map(|bits| {
            // Any setting of the quantified variables on top of `bits`.
            let free_mask: usize = !vars.iter().map(|&v| 1usize << v).sum::<usize>();
            (0..table.len()).any(|other| (other & free_mask) == (bits & free_mask) && table[other])
        })
        .collect()
}

#[test]
fn ite_agrees_with_truth_table_under_negation_pressure() {
    let mut rng = StdRng::seed_from_u64(0x5EA4_0010);
    let mut bdd = Bdd::new();
    for round in 0..120 {
        let f = random_function(&mut bdd, &mut rng, 3);
        let g = random_function(&mut bdd, &mut rng, 3);
        let h = random_function(&mut bdd, &mut rng, 3);
        let (tf, tg, th) = (truth_table(&bdd, f), truth_table(&bdd, g), truth_table(&bdd, h));
        let ite = bdd.ite(f, g, h);
        let expected: Vec<bool> =
            (0..tf.len()).map(|k| if tf[k] { tg[k] } else { th[k] }).collect();
        assert_eq!(truth_table(&bdd, ite), expected, "round {round}");
        // The classic ite identities the normalizer must honour.
        let nf = bdd.not(f);
        let ite_nf = bdd.ite(nf, h, g);
        assert_eq!(ite, ite_nf, "round {round}: ite(¬f, h, g) must equal ite(f, g, h)");
        let tautology = bdd.ite(f, f, nf);
        assert_eq!(tautology, Ref::TRUE, "round {round}: ite(f, f, ¬f) must be ⊤");
        bdd.check_canonical_invariant().expect("canonicity violated");
    }
}

#[test]
fn quantifiers_agree_with_truth_table_across_gc_and_reorder() {
    let mut rng = StdRng::seed_from_u64(0x5EA4_0011);
    for round in 0..24 {
        let mut bdd = Bdd::new();
        // Materialise every level up front so the random in-place swaps
        // below always address existing levels.
        for v in 0..NUM_VARS {
            bdd.var(Var::new(v));
        }
        let mut f = random_function(&mut bdd, &mut rng, 5);
        let mut g = random_function(&mut bdd, &mut rng, 5);
        let table_f = truth_table(&bdd, f);
        let table_g = truth_table(&bdd, g);
        let num_quant = rng.gen_range(1..=3usize);
        let mut quant_vars: Vec<u32> = (0..NUM_VARS).collect();
        for _ in 0..(NUM_VARS as usize - num_quant) {
            quant_vars.remove(rng.gen_range(0..quant_vars.len()));
        }
        let expected_exists = table_exists(&table_f, &quant_vars);
        let expected_and_exists = {
            let conj: Vec<bool> = table_f.iter().zip(&table_g).map(|(&a, &b)| a && b).collect();
            table_exists(&conj, &quant_vars)
        };

        // Interleave the checked operations with collections, reorders and
        // in-place swaps, re-deriving the cube after each disruption (gc
        // and reorder invalidate non-rooted handles; variable identities
        // survive everything).
        for step in 0..4 {
            match step {
                0 => {}
                1 => {
                    bdd.gc([&mut f, &mut g]);
                }
                2 => {
                    bdd.reorder(ReorderPolicy::Sift, [&mut f, &mut g]);
                }
                _ => {
                    bdd.swap_adjacent_levels(rng.gen_range(0..NUM_VARS - 1));
                }
            }
            bdd.check_canonical_invariant().expect("canonicity violated");
            let cube = bdd.cube_of_vars(quant_vars.iter().map(|&v| Var::new(v)));
            let ex = bdd.exists(f, cube);
            assert_eq!(truth_table(&bdd, ex), expected_exists, "round {round} step {step}");
            let fused = bdd.and_exists(f, g, cube);
            assert_eq!(
                truth_table(&bdd, fused),
                expected_and_exists,
                "round {round} step {step}: and_exists"
            );
            // ∃ must also commute with negation the slow way: ¬∀¬.
            let nf = bdd.not(f);
            let all = bdd.forall(nf, cube);
            let dual = bdd.not(all);
            assert_eq!(dual, ex, "round {round} step {step}: ∃f must equal ¬∀¬f");
        }
    }
}

#[test]
fn restrict_and_replace_agree_with_truth_table_across_gc_and_reorder() {
    let mut rng = StdRng::seed_from_u64(0x5EA4_0012);
    for round in 0..24 {
        let mut bdd = Bdd::new();
        let mut f = random_function(&mut bdd, &mut rng, 5);
        let table = truth_table(&bdd, f);
        let var = rng.gen_range(0..NUM_VARS);
        let value = rng.gen_bool(0.5);
        let expected_restrict: Vec<bool> = (0..table.len())
            .map(|bits| {
                let fixed = if value { bits | (1 << var) } else { bits & !(1usize << var) };
                table[fixed]
            })
            .collect();
        // Rename the restricted variable out of the way and back: the round
        // trip must be the identity, and the renamed function must read the
        // fresh variable where the old one was.
        let fresh = Var::new(NUM_VARS + 1);
        let out = bdd.register_substitution(vec![(Var::new(var), fresh)]);
        let back = bdd.register_substitution(vec![(fresh, Var::new(var))]);

        for step in 0..3 {
            match step {
                0 => {}
                1 => {
                    bdd.gc([&mut f]);
                }
                _ => {
                    bdd.reorder(ReorderPolicy::GroupSift, [&mut f]);
                }
            }
            bdd.check_canonical_invariant().expect("canonicity violated");
            let restricted = bdd.restrict(f, Var::new(var), value);
            assert_eq!(
                truth_table(&bdd, restricted),
                expected_restrict,
                "round {round} step {step}: restrict"
            );
            let nf = bdd.not(f);
            let nrestricted = bdd.restrict(nf, Var::new(var), value);
            let roundtrip = bdd.not(nrestricted);
            assert_eq!(
                roundtrip, restricted,
                "round {round} step {step}: restrict must commute with negation"
            );
            let renamed = bdd.replace(f, out);
            let returned = bdd.replace(renamed, back);
            assert_eq!(returned, f, "round {round} step {step}: replace round trip");
            let nrenamed = bdd.replace(nf, out);
            let nreturned = bdd.not(nrenamed);
            assert_eq!(
                nreturned, renamed,
                "round {round} step {step}: replace must commute with negation"
            );
        }
    }
}

#[test]
fn cube_literals_and_sat_assignments_agree_with_truth_table() {
    let mut rng = StdRng::seed_from_u64(0x5EA4_0013);
    for round in 0..24 {
        let mut bdd = Bdd::new();
        // A mixed-phase cube: the canonical chain of complemented and
        // regular edges.
        let phases: Vec<(Var, bool)> =
            (0..NUM_VARS).map(|v| (Var::new(v), rng.gen_bool(0.5))).collect();
        let cube = bdd.cube_literals(phases.iter().copied());
        let expected: Vec<bool> = (0..1usize << NUM_VARS)
            .map(|bits| phases.iter().all(|&(v, phase)| (bits >> v.index() & 1 == 1) == phase))
            .collect();
        assert_eq!(truth_table(&bdd, cube), expected, "round {round}: cube");
        assert_eq!(bdd.sat_count(cube, NUM_VARS), 1, "round {round}: a cube has one model");

        let mut f = random_function(&mut bdd, &mut rng, 5);
        let table = truth_table(&bdd, f);
        let vars: Vec<Var> = (0..NUM_VARS).map(Var::new).collect();
        for step in 0..3 {
            match step {
                0 => {}
                1 => {
                    bdd.gc([&mut f]);
                }
                _ => {
                    bdd.reorder(ReorderPolicy::Sift, [&mut f]);
                }
            }
            let mut expected_models: Vec<Vec<bool>> = (0..table.len())
                .filter(|&bits| table[bits])
                .map(|bits| (0..NUM_VARS as usize).map(|v| bits >> v & 1 == 1).collect())
                .collect();
            expected_models.sort();
            // `sat_assignments_over` wants its variables in level order,
            // which reordering keeps changing; map each model back to
            // variable-index order before comparing.
            let mut by_level = vars.clone();
            by_level.sort_by_key(|&v| bdd.level_of_var(v));
            let mut models: Vec<Vec<bool>> = bdd
                .sat_assignments_over(f, &by_level)
                .into_iter()
                .map(|model| {
                    let mut by_index = vec![false; NUM_VARS as usize];
                    for (&var, &bit) in by_level.iter().zip(&model) {
                        by_index[var.index() as usize] = bit;
                    }
                    by_index
                })
                .collect();
            models.sort();
            assert_eq!(models, expected_models, "round {round} step {step}: sat_assignments");
            // The negation enumerates exactly the complementary set.
            let nf = bdd.not(f);
            assert_eq!(
                bdd.sat_assignments_over(nf, &by_level).len(),
                table.len() - expected_models.len(),
                "round {round} step {step}: ¬f must have the complementary model count"
            );
        }
    }
}

#[test]
fn canonicity_invariant_holds_through_random_op_gc_reorder_streams() {
    // The seeded property test behind `check_canonical_invariant`: no
    // reachable stored edge may violate the complement convention at any
    // point of a long random stream of operations, collections, swaps and
    // reorders.
    let mut rng = StdRng::seed_from_u64(0x5EA4_0014);
    let mut bdd = Bdd::with_cache_capacity(256);
    let mut roots: Vec<Ref> = Vec::new();
    for step in 0..200 {
        match rng.gen_range(0..10u32) {
            0..=5 => {
                let f = random_function(&mut bdd, &mut rng, 3);
                roots.push(f);
            }
            6 => {
                if let Some(&f) = roots.last() {
                    let nf = bdd.not(f);
                    roots.push(nf);
                }
            }
            7 => {
                if roots.len() >= 2 {
                    let a = roots[rng.gen_range(0..roots.len())];
                    let b = roots[rng.gen_range(0..roots.len())];
                    let cube = bdd.cube_of_vars([Var::new(rng.gen_range(0..NUM_VARS))]);
                    let fused = bdd.and_exists(a, b, cube);
                    roots.push(fused);
                }
            }
            8 => {
                roots.truncate(roots.len() / 2);
                bdd.gc(roots.iter_mut());
            }
            _ => {
                bdd.reorder(ReorderPolicy::Sift, roots.iter_mut());
            }
        }
        bdd.check_canonical_invariant()
            .unwrap_or_else(|violation| panic!("step {step}: {violation}"));
    }
}

#[test]
fn negation_is_constant_time_and_allocation_free() {
    let mut rng = StdRng::seed_from_u64(0x5EA4_0015);
    let mut bdd = Bdd::new();
    let f = random_function(&mut bdd, &mut rng, 5);
    let stats_before = bdd.stats();
    let nf = bdd.not(f);
    let back = bdd.not(nf);
    let stats_after = bdd.stats();
    assert_eq!(back, f, "double negation must be the identity");
    assert_ne!(nf, f);
    assert_eq!(
        stats_after.live_nodes, stats_before.live_nodes,
        "Bdd::not must not allocate a single node"
    );
    assert_eq!(
        stats_after.allocated_nodes, stats_before.allocated_nodes,
        "Bdd::not must not allocate a single node"
    );
    assert_eq!(stats_after.o1_negations, stats_before.o1_negations + 2);
    // A function and its negation share every node.
    assert_eq!(bdd.node_count(f), bdd.node_count(nf));
}

#[test]
fn op_caches_never_confuse_a_function_with_its_negation() {
    // Behavioural regression for the cache keys: compute an operation on
    // `f`, then immediately on `¬f` with identical remaining operands. If a
    // key dropped the complement bit, the second call would return the
    // memoised result of the first.
    let mut rng = StdRng::seed_from_u64(0x5EA4_0016);
    let mut bdd = Bdd::new();
    for round in 0..60 {
        let f = random_function(&mut bdd, &mut rng, 4);
        let g = random_function(&mut bdd, &mut rng, 4);
        let table_f = truth_table(&bdd, f);
        let table_g = truth_table(&bdd, g);
        let cube = bdd.cube_of_vars([Var::new(0), Var::new(3)]);
        let nf = bdd.not(f);

        let ex = bdd.exists(f, cube);
        let nex = bdd.exists(nf, cube);
        assert_eq!(truth_table(&bdd, ex), table_exists(&table_f, &[0, 3]), "round {round}");
        let ntable: Vec<bool> = table_f.iter().map(|&b| !b).collect();
        assert_eq!(
            truth_table(&bdd, nex),
            table_exists(&ntable, &[0, 3]),
            "round {round}: ∃¬f must not reuse the ∃f cache entry"
        );

        let fused = bdd.and_exists(f, g, cube);
        let nfused = bdd.and_exists(nf, g, cube);
        let conj: Vec<bool> = table_f.iter().zip(&table_g).map(|(&a, &b)| a && b).collect();
        let nconj: Vec<bool> = ntable.iter().zip(&table_g).map(|(&a, &b)| a && b).collect();
        assert_eq!(truth_table(&bdd, fused), table_exists(&conj, &[0, 3]), "round {round}");
        assert_eq!(
            truth_table(&bdd, nfused),
            table_exists(&nconj, &[0, 3]),
            "round {round}: and_exists(¬f) must not reuse the and_exists(f) entry"
        );
    }
}

//! Garbage-collection oracle tests: a sweep must preserve the semantics of
//! every rooted diagram (bit-identical truth tables before and after),
//! preserve canonicity, and actually reclaim unreachable nodes.

use epimc_bdd::{Bdd, Ref, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_VARS: u32 = 6;

/// Builds a random function over `NUM_VARS` variables directly in the
/// manager, leaving behind plenty of intermediate garbage.
fn random_function(bdd: &mut Bdd, rng: &mut StdRng, depth: usize) -> Ref {
    if depth == 0 || rng.gen_bool(0.2) {
        let var = Var::new(rng.gen_range(0..NUM_VARS));
        return bdd.literal(var, rng.gen_bool(0.5));
    }
    let a = random_function(bdd, rng, depth - 1);
    let b = random_function(bdd, rng, depth - 1);
    match rng.gen_range(0..5u32) {
        0 => bdd.and(a, b),
        1 => bdd.or(a, b),
        2 => bdd.xor(a, b),
        3 => bdd.implies(a, b),
        _ => {
            let na = bdd.not(a);
            bdd.or(na, b)
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

#[test]
fn gc_preserves_semantics_of_a_random_formula_set() {
    let mut rng = StdRng::seed_from_u64(0x6C_0001);
    for round in 0..24 {
        let mut bdd = Bdd::new();
        // Build a set of rooted functions plus interleaved garbage.
        let mut roots: Vec<Ref> = Vec::new();
        for _ in 0..12 {
            let keep = random_function(&mut bdd, &mut rng, 4);
            let _garbage = random_function(&mut bdd, &mut rng, 4);
            roots.push(keep);
        }
        let tables_before: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&bdd, f)).collect();
        let live_before = bdd.live_nodes();

        let gc = bdd.gc(roots.iter_mut());
        assert_eq!(gc.live_nodes + gc.swept_nodes, live_before, "round {round}");

        // Oracle: every rooted function evaluates bit-identically.
        for (index, (&root, table)) in roots.iter().zip(&tables_before).enumerate() {
            assert_eq!(
                truth_table(&bdd, root),
                *table,
                "round {round}: function {index} changed after gc"
            );
        }

        // Canonicity: semantically equal roots are still the same node, and
        // fresh operations agree with pre-gc semantics.
        for (i, &a) in roots.iter().enumerate() {
            for (j, &b) in roots.iter().enumerate().skip(i + 1) {
                assert_eq!(
                    a == b,
                    tables_before[i] == tables_before[j],
                    "round {round}: canonicity broken between {i} and {j}"
                );
            }
        }
        let conjunction = bdd.and_all(roots.iter().copied());
        let expected: Vec<bool> =
            (0..tables_before[0].len()).map(|k| tables_before.iter().all(|t| t[k])).collect();
        assert_eq!(truth_table(&bdd, conjunction), expected, "round {round}");
    }
}

#[test]
fn gc_with_cache_keeps_both_tiers_and_counts_the_cache_apart() {
    // Two managers built from the same seed: one collected with a cache
    // tier, one with the roots alone. The cache-only count is exactly the
    // difference of their survivors, and every diagram of both tiers
    // evaluates as before.
    for round in 0..16u64 {
        let build = || {
            let mut rng = StdRng::seed_from_u64(0x6C_0100 + round);
            let mut bdd = Bdd::new();
            let mut roots = Vec::new();
            let mut cache = Vec::new();
            for k in 0..10 {
                let f = random_function(&mut bdd, &mut rng, 4);
                let _garbage = random_function(&mut bdd, &mut rng, 3);
                if k % 2 == 0 {
                    roots.push(f);
                } else {
                    cache.push(f);
                }
            }
            // A cache entry built over a root shares its nodes.
            let shared = bdd.and(roots[0], cache[0]);
            cache.push(shared);
            (bdd, roots, cache)
        };
        let (mut tiered, mut roots, mut cache) = build();
        let tables: Vec<Vec<bool>> =
            roots.iter().chain(&cache).map(|&f| truth_table(&tiered, f)).collect();
        let gc = tiered.gc_with_cache(roots.iter_mut(), cache.iter_mut());
        let (mut plain, mut plain_roots, _) = build();
        let plain_gc = plain.gc(plain_roots.iter_mut());
        assert_eq!(gc.live_nodes - gc.cache_only_nodes, plain_gc.live_nodes, "round {round}");
        assert_eq!(gc.live_nodes, tiered.live_nodes(), "round {round}");
        for (index, (&f, table)) in roots.iter().chain(&cache).zip(&tables).enumerate() {
            assert_eq!(truth_table(&tiered, f), *table, "round {round}: diagram {index}");
        }
        tiered.check_canonical_invariant().unwrap();
        // Dropping the cache tier and collecting again sweeps exactly the
        // cache-only nodes.
        let again = tiered.gc(roots.iter_mut());
        assert_eq!(again.swept_nodes, gc.cache_only_nodes, "round {round}");
    }
}

#[test]
fn repeated_gc_is_stable() {
    let mut rng = StdRng::seed_from_u64(0x6C_0002);
    let mut bdd = Bdd::new();
    let mut f = random_function(&mut bdd, &mut rng, 5);
    let table = truth_table(&bdd, f);
    // A second collection with no new garbage sweeps nothing.
    bdd.gc([&mut f]);
    let live = bdd.live_nodes();
    let gc = bdd.gc([&mut f]);
    assert_eq!(gc.swept_nodes, 0);
    assert_eq!(bdd.live_nodes(), live);
    assert_eq!(truth_table(&bdd, f), table);
    assert_eq!(bdd.stats().gc_runs, 2);
}

#[test]
fn gc_reclaims_fixpoint_style_garbage() {
    // Mimic the symbolic checker's fixpoint loops: successive iterates
    // replace each other, and only the final one stays rooted.
    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = (0..NUM_VARS).map(|i| bdd.var(Var::new(i))).collect();
    let mut current = Ref::TRUE;
    for _ in 0..50 {
        let mut next = Ref::FALSE;
        for (k, &v) in vars.iter().enumerate() {
            let rotated = vars[(k + 1) % vars.len()];
            let t = bdd.xor(v, rotated);
            let clause = bdd.and(current, t);
            next = bdd.or(next, clause);
        }
        current = bdd.and(current, next);
    }
    let table = truth_table(&bdd, current);
    let before = bdd.live_nodes();
    let needed = bdd.node_count(current);
    bdd.gc([&mut current]);
    // Everything but the diagram itself (and at most the two terminals) is
    // reclaimed.
    assert!(bdd.live_nodes() <= needed + 2);
    assert!(bdd.live_nodes() < before);
    assert_eq!(truth_table(&bdd, current), table);
}

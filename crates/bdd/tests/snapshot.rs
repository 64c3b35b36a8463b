//! Snapshot round-trip property suite.
//!
//! Seeded random managers — with garbage collection, dynamic reordering and
//! complement-edge churn (negations, XORs) interleaved into their history —
//! must serialize → restore to managers with identical truth tables for
//! every root, the same learned variable order, and the same lifetime
//! statistics. Corrupted, truncated and wrong-version byte streams must be
//! rejected with an error, never a panic (this suite runs in release CI).

use epimc_bdd::{reseal_snapshot, Bdd, Ref, ReorderPolicy, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const NUM_VARS: u32 = 6;
const CASES: usize = 24;
const OPS_PER_CASE: usize = 60;

/// Builds a manager with a randomised operation history: random binary ops
/// over a working set of roots, punctuated by GC and reorder passes so the
/// snapshot sees tombstones, a non-identity order and complement churn.
fn churned_manager(rng: &mut StdRng) -> (Bdd, Vec<Ref>) {
    let mut bdd = Bdd::new();
    let mut roots: Vec<Ref> = (0..NUM_VARS).map(|v| bdd.var(Var::new(v))).collect();
    for _ in 0..OPS_PER_CASE {
        let a = roots[rng.gen_range(0..roots.len())];
        let b = roots[rng.gen_range(0..roots.len())];
        let fresh = match rng.gen_range(0..6u32) {
            0 => bdd.and(a, b),
            1 => bdd.or(a, b),
            2 => bdd.xor(a, b),
            3 => bdd.not(a),
            4 => bdd.implies(a, b),
            _ => bdd.iff(a, b),
        };
        if roots.len() > 8 {
            let victim = rng.gen_range(0..roots.len());
            roots[victim] = fresh;
        } else {
            roots.push(fresh);
        }
        match rng.gen_range(0..12u32) {
            0 => {
                bdd.gc(roots.iter_mut());
            }
            1 => {
                bdd.reorder(ReorderPolicy::Sift, roots.iter_mut());
            }
            _ => {}
        }
    }
    (bdd, roots)
}

fn truth_table(bdd: &Bdd, f: Ref) -> Vec<bool> {
    (0..1u32 << NUM_VARS)
        .map(|assignment| {
            let bits: Vec<bool> = (0..NUM_VARS).map(|bit| assignment >> bit & 1 == 1).collect();
            bdd.eval_bits(f, &bits)
        })
        .collect()
}

#[test]
fn random_round_trips_preserve_semantics_order_and_stats() {
    let mut rng = StdRng::seed_from_u64(0xEBDD_517C);
    for case in 0..CASES {
        let (bdd, roots) = churned_manager(&mut rng);
        let words: Vec<u64> = (0..case).map(|_| rng.next_u64()).collect();
        let bytes = bdd.snapshot(&roots, &words);
        let (restored, restored_roots, restored_words) =
            Bdd::restore(&bytes).unwrap_or_else(|error| panic!("case {case}: {error}"));
        assert_eq!(restored_roots.len(), roots.len(), "case {case}: root count");
        assert_eq!(restored_words, words, "case {case}: words");
        assert_eq!(restored.current_order(), bdd.current_order(), "case {case}: order");
        for (index, (&old, &new)) in roots.iter().zip(&restored_roots).enumerate() {
            assert_eq!(
                truth_table(&restored, new),
                truth_table(&bdd, old),
                "case {case}: truth table of root {index}"
            );
        }
        let old_stats = bdd.stats();
        let new_stats = restored.stats();
        assert_eq!(new_stats.live_nodes, old_stats.live_nodes, "case {case}: live nodes");
        assert_eq!(new_stats.peak_live_nodes, old_stats.peak_live_nodes, "case {case}: peak");
        assert_eq!(new_stats.gc_runs, old_stats.gc_runs, "case {case}: gc epoch");
        assert_eq!(new_stats.swept_nodes, old_stats.swept_nodes, "case {case}: swept");
        assert_eq!(new_stats.reorder_runs, old_stats.reorder_runs, "case {case}: reorders");
        assert_eq!(new_stats.reorder_swaps, old_stats.reorder_swaps, "case {case}: swaps");
        assert_eq!(new_stats.o1_negations, old_stats.o1_negations, "case {case}: negations");
        restored.check_canonical_invariant().expect("restored canonicity");
    }
}

#[test]
fn round_trip_composes_with_further_operations() {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    let (bdd, roots) = churned_manager(&mut rng);
    let bytes = bdd.snapshot(&roots, &[]);
    let (mut restored, mut roots, _) = Bdd::restore(&bytes).expect("round trip");
    // The restored manager must be fully operational: build, gc, reorder.
    let a = roots[0];
    let b = roots[1];
    let and = restored.and(a, b);
    let or = restored.or(a, b);
    let implies = restored.implies(and, or);
    assert_eq!(implies, restored.constant(true));
    roots.push(and);
    restored.gc(roots.iter_mut());
    restored.reorder(ReorderPolicy::Sift, roots.iter_mut());
    restored.check_canonical_invariant().expect("canonicity after further ops");
}

#[test]
fn every_truncated_prefix_is_rejected_without_panicking() {
    let mut rng = StdRng::seed_from_u64(7);
    let (bdd, roots) = churned_manager(&mut rng);
    let bytes = bdd.snapshot(&roots, &[3, 5]);
    for cut in 0..bytes.len() {
        assert!(Bdd::restore(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
    }
}

#[test]
fn single_byte_corruptions_are_rejected_without_panicking() {
    let mut rng = StdRng::seed_from_u64(11);
    let (bdd, roots) = churned_manager(&mut rng);
    let mut bytes = bdd.snapshot(&roots, &[3, 5]);
    // Flip each byte in turn (stride 1 over the whole stream): either the
    // checksum catches it, or — when the flip hits the checksum itself —
    // the checksum no longer matches the payload. Restoring must fail
    // cleanly each time.
    for position in 0..bytes.len() {
        bytes[position] ^= 0x55;
        assert!(Bdd::restore(&bytes).is_err(), "flip at byte {position} accepted");
        bytes[position] ^= 0x55;
    }
    // Untouched stream still restores (the loop above is self-inverse).
    Bdd::restore(&bytes).expect("pristine stream restores");
}

#[test]
fn complement_edge_mode_is_preserved() {
    let mut bdd = Bdd::with_cache_capacity(1 << 10);
    let x = bdd.var(Var::new(0));
    let y = bdd.var(Var::new(1));
    let and = bdd.and(x, y);
    let nand = bdd.not(and);
    let mut bytes = bdd.snapshot(&[nand], &[]);
    // The flag byte follows the magic and the version; bit 0 is set.
    assert_eq!(bytes[8], 1, "every snapshot is a complement-edge manager");
    let (mut restored, roots, _) = Bdd::restore(&bytes).expect("round trip");
    assert!(!restored.eval_bits(roots[0], &[true, true]));
    assert!(restored.eval_bits(roots[0], &[true, false]));
    // The restored manager negates by flipping the bit: no allocation.
    let live = restored.live_nodes();
    let and_again = restored.not(roots[0]);
    assert_eq!(restored.live_nodes(), live);
    assert!(restored.eval_bits(and_again, &[true, true]));

    // A well-formed stream whose flag byte says two-terminal is refused by
    // name, not restored into another representation.
    bytes[8] = 0;
    reseal_snapshot(&mut bytes);
    let error = Bdd::restore(&bytes).expect_err("two-terminal stream accepted");
    assert!(error.message().contains("two-terminal"), "{error}");
}

#[test]
#[should_panic(expected = "two-terminal representation")]
fn with_settings_rejects_the_two_terminal_mode() {
    let _ = Bdd::with_settings(1 << 10, false);
}

//! Regression test for `Formula::canonical_hash` collision handling in
//! the cross-request promotion path: `epimc-serve` holds one `EvalSession`
//! per warm model and serves denotations to *different* clients keyed by
//! the canonical hash. A collision (two structurally distinct formulas,
//! one hash) must be detected by the structural check and the stale entry
//! evicted — never served as the other formula's denotation.
//!
//! The forced collision uses the test-only `ConsensusAtom::CollisionProbe`
//! atom, whose `Hash` impl deliberately ignores its payload: the `true`
//! probe denotes ⊤ (all points), the `false` probe ⊥ (no points), and
//! both hash identically. The checks go through
//! `holds_everywhere_in_session`, the entry the server's warm path calls;
//! the two probes differ in verdict, alone and under `K`.

use epimc_check::{Checker, SymbolicChecker, SymbolicOptions};
use epimc_logic::{AgentId, Formula};
use epimc_protocols::{FloodSet, FloodSetRule};
use epimc_system::{ConsensusAtom, ConsensusModel, ModelParams};

type F = Formula<ConsensusAtom>;

#[test]
fn cross_request_cache_rejects_canonical_hash_collisions() {
    let probe_top = F::atom(ConsensusAtom::CollisionProbe(true));
    let probe_bottom = F::atom(ConsensusAtom::CollisionProbe(false));
    assert_eq!(
        probe_top.canonical_hash(),
        probe_bottom.canonical_hash(),
        "the probes must force a canonical-hash collision"
    );
    assert_ne!(probe_top, probe_bottom, "the probes must stay structurally distinct");

    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let explicit = Checker::new(&model);

    // One session promoted across "requests", as on the server's warm path.
    let mut session = checker.session();

    // Request 1 caches the ⊤ probe's denotation under the shared hash.
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &probe_top),
        explicit.holds_everywhere(&probe_top)
    );

    // Request 2 sends the structurally different collider: the stale entry
    // must be rejected — no cache hit, and the ⊥ denotation computed fresh.
    let hits_before = session.hits();
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &probe_bottom),
        explicit.holds_everywhere(&probe_bottom),
        "a colliding cache entry was served as the wrong denotation"
    );
    assert_eq!(session.hits(), hits_before, "a colliding entry counted as a cache hit");

    // The collider now owns the bucket: re-sending it is a genuine hit with
    // the correct denotation.
    let hits_before = session.hits();
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &probe_bottom),
        explicit.holds_everywhere(&probe_bottom)
    );
    assert!(session.hits() > hits_before, "the refreshed entry must serve genuine hits");

    // And the evicted formula still answers correctly when it returns.
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &probe_top),
        explicit.holds_everywhere(&probe_top)
    );
    checker.end_session(session);
}

#[test]
fn collisions_under_modal_operators_are_rejected_too() {
    // Compound formulas over colliding subterms collide as well (the
    // canonical hash composes child hashes), so the promotion path must
    // reject stale entries at every cached nesting level.
    let k_top = F::knows(AgentId::new(0), F::atom(ConsensusAtom::CollisionProbe(true)));
    let k_bottom = F::knows(AgentId::new(0), F::atom(ConsensusAtom::CollisionProbe(false)));
    assert_eq!(k_top.canonical_hash(), k_bottom.canonical_hash());
    assert_ne!(k_top, k_bottom);

    let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
    let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
    let checker =
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
    let explicit = Checker::new(&model);

    let mut session = checker.session();
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &k_top),
        explicit.holds_everywhere(&k_top)
    );
    let hits_before = session.hits();
    assert_eq!(
        checker.holds_everywhere_in_session(&mut session, &k_bottom),
        explicit.holds_everywhere(&k_bottom),
        "a colliding modal formula was served the stale denotation"
    );
    assert_eq!(session.hits(), hits_before);
    checker.end_session(session);
}

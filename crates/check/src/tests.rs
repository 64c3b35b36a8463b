//! Unit tests of the crate-level helpers shared by the engines.

use epimc_logic::{AgentId, Formula as F};
use epimc_system::ConsensusAtom;

use crate::symbolic::layer_demand;

/// `Next` depth bounds expansion: reading `AX^k φ` or `EX^k φ` at layer
/// `t` demands layer `min(t + k, horizon)` and no later one — a single
/// next-step from layer 0 needs layers 0 and 1, not 2 — while a fixpoint
/// that steps forward or an unbounded temporal operator demands the
/// whole horizon.
#[test]
fn next_depth_bounds_expansion() {
    let horizon = 4;
    let phi = F::knows(AgentId::new(0), F::atom(ConsensusAtom::Decided(AgentId::new(1))));
    assert_eq!(layer_demand(&F::exists_next(phi.clone()), 0, horizon), 1);
    for k in 0..=horizon + 1 {
        for universal in [true, false] {
            let formula = (0..k).fold(phi.clone(), |f, _| {
                if universal {
                    F::all_next(f)
                } else {
                    F::exists_next(f)
                }
            });
            for t in 0..=horizon {
                assert_eq!(
                    layer_demand(&formula, t, horizon),
                    (t + k).min(horizon),
                    "{formula} at layer {t}"
                );
            }
        }
    }

    // Boolean and epistemic connectives take the deepest operand.
    let mixed = F::and([
        F::exists_next(phi.clone()),
        F::not(F::knows(AgentId::new(2), F::all_next(F::all_next(phi.clone())))),
    ]);
    assert_eq!(layer_demand(&mixed, 1, horizon), 3);

    // A fixpoint without a next-step reads only its own layer; one that
    // steps forward, and every unbounded temporal operator, may read them all.
    let still = F::gfp(0, F::and([phi.clone(), F::var(0)]));
    assert_eq!(layer_demand(&still, 1, horizon), 1);
    let stepping = F::gfp(0, F::and([phi.clone(), F::all_next(F::var(0))]));
    assert_eq!(layer_demand(&stepping, 1, horizon), horizon);
    for unbounded in [F::all_globally(phi.clone()), F::exists_finally(phi)] {
        assert_eq!(layer_demand(&unbounded, 0, horizon), horizon, "{unbounded}");
    }
}

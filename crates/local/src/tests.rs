//! Unit tests for the equation-system compiler.

use super::*;

/// Atoms of the compiler tests: two propositions.
type Atom = u8;

fn a(i: usize) -> AgentId {
    AgentId::new(i)
}

fn p() -> Formula<Atom> {
    Formula::atom(0)
}

fn q() -> Formula<Atom> {
    Formula::atom(1)
}

#[test]
fn alternating_fixpoints_are_detected_and_refused() {
    let alternating = Formula::gfp(
        0,
        Formula::lfp(1, Formula::or([p(), Formula::and([Formula::var(0), Formula::var(1)])])),
    );
    let system = EqSystem::compile(&alternating);
    assert!(system.is_alternating());

    // Same-polarity nesting that references the outer variable is flagged
    // too (the check does not distinguish by polarity).
    let nested = Formula::gfp(
        0,
        Formula::everyone_believes(Formula::gfp(
            1,
            Formula::and([p(), Formula::var(0), Formula::var(1)]),
        )),
    );
    assert!(EqSystem::compile(&nested).is_alternating());

    // Independent nesting is fine: the inner fixpoint is closed.
    let independent = Formula::common_belief(Formula::all_finally(p()));
    assert!(!EqSystem::compile(&independent).is_alternating());
}

#[test]
fn closed_subformulas_are_hash_consed() {
    let shared = Formula::knows(a(0), p());
    let f = Formula::and([
        shared.clone(),
        Formula::or([shared.clone(), q()]),
        Formula::implies(q(), shared),
    ]);
    let system = EqSystem::compile(&f);
    assert!(system.memo_hits() >= 2, "expected shared K_0 p to hit the memo table");
    // Every occurrence of `K_0 p` is one equation.
    let EqRhs::And(conjuncts) = system.rhs(system.root()) else {
        panic!("the root of a conjunction is an `And` equation");
    };
    let EqRhs::Or(disjuncts) = system.rhs(conjuncts[1]) else {
        panic!("the second conjunct is an `Or` equation");
    };
    assert_eq!(conjuncts[0], disjuncts[0]);
    assert!(matches!(system.rhs(conjuncts[0]), EqRhs::Knows(agent, _) if *agent == a(0)));
}

//! The formula abstract syntax tree.

use crate::agent::AgentId;

/// Identifier of a fixpoint variable bound by [`Formula::Gfp`] or [`Formula::Lfp`].
pub type FixpointVar = u32;

/// Bounded branching-time temporal operators.
///
/// The models produced by `epimc-system` are layered, finite-horizon state
/// graphs (synchronous protocols executed for a fixed number of rounds), so
/// the temporal operators are interpreted over the finite unrolling: `AG φ`
/// means "φ holds now and in every reachable future state within the
/// horizon", and so on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemporalKind {
    /// `AX φ` — φ holds in every successor state.
    AllNext,
    /// `EX φ` — φ holds in some successor state.
    ExistsNext,
    /// `AG φ` — φ holds in every state reachable from here (including here).
    AllGlobally,
    /// `AF φ` — on every path from here, φ eventually holds within the horizon.
    AllFinally,
    /// `EG φ` — on some path from here, φ holds at every state within the horizon.
    ExistsGlobally,
    /// `EF φ` — some state reachable from here satisfies φ.
    ExistsFinally,
}

impl TemporalKind {
    /// Returns the textual operator name used by the parser and printer.
    pub fn name(self) -> &'static str {
        match self {
            TemporalKind::AllNext => "AX",
            TemporalKind::ExistsNext => "EX",
            TemporalKind::AllGlobally => "AG",
            TemporalKind::AllFinally => "AF",
            TemporalKind::ExistsGlobally => "EG",
            TemporalKind::ExistsFinally => "EF",
        }
    }
}

/// A formula of the logic of knowledge, common belief, fixpoints and
/// (bounded) branching time, generic over the atomic proposition type `P`.
///
/// The operators mirror Section 2 of the paper:
///
/// * [`Formula::Knows`] is the S5 knowledge operator `K_i`, interpreted over
///   the agent's local state (under the clock semantics the local state is
///   the pair of the current time and the agent's observation).
/// * [`Formula::BelievesNonfaulty`] is the indexical belief operator
///   `B^N_i φ = K_i (i ∈ N ⇒ φ)` where `N` is the set of nonfaulty agents.
/// * [`Formula::EveryoneBelieves`] is `E_B_N φ = ⋀_{i ∈ N} B^N_i φ`.
/// * [`Formula::CommonBelief`] is `C_B_N φ = νX. E_B_N (X ∧ φ)`.
/// * [`Formula::Gfp`] / [`Formula::Lfp`] are the explicit fixpoint operators
///   of the linear-time mu-calculus extended to interpreted systems; bound
///   variables appear as [`Formula::Var`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Formula<P> {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// An atomic proposition.
    Atom(P),
    /// Negation.
    Not(Box<Formula<P>>),
    /// N-ary conjunction. An empty conjunction is equivalent to `True`.
    And(Vec<Formula<P>>),
    /// N-ary disjunction. An empty disjunction is equivalent to `False`.
    Or(Vec<Formula<P>>),
    /// Material implication.
    Implies(Box<Formula<P>>, Box<Formula<P>>),
    /// Biconditional.
    Iff(Box<Formula<P>>, Box<Formula<P>>),
    /// `K_i φ`: agent `i` knows φ.
    Knows(AgentId, Box<Formula<P>>),
    /// `B^N_i φ`: agent `i` believes φ relative to the nonfaulty set `N`.
    BelievesNonfaulty(AgentId, Box<Formula<P>>),
    /// `E_B_N φ`: every nonfaulty agent believes φ.
    EveryoneBelieves(Box<Formula<P>>),
    /// `C_B_N φ`: common belief of φ among the nonfaulty agents.
    CommonBelief(Box<Formula<P>>),
    /// Greatest fixpoint `νX. φ(X)`.
    Gfp(FixpointVar, Box<Formula<P>>),
    /// Least fixpoint `μX. φ(X)`.
    Lfp(FixpointVar, Box<Formula<P>>),
    /// Occurrence of a fixpoint variable.
    Var(FixpointVar),
    /// A bounded branching-time temporal operator applied to a formula.
    Temporal(TemporalKind, Box<Formula<P>>),
}

impl<P> Formula<P> {
    // ----- constructors ---------------------------------------------------

    /// The constant true.
    pub fn tt() -> Self {
        Formula::True
    }

    /// The constant false.
    pub fn ff() -> Self {
        Formula::False
    }

    /// An atomic proposition.
    pub fn atom(p: P) -> Self {
        Formula::Atom(p)
    }

    /// Negation, with double negations collapsed.
    // Named for symmetry with the other formula constructors; this is an
    // associated constructor, not a method shadowing `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(formula: Formula<P>) -> Self {
        match formula {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// N-ary conjunction. `Formula::and([])` is `True`, a singleton collapses
    /// to its only conjunct, and nested conjunctions are flattened.
    pub fn and<I: IntoIterator<Item = Formula<P>>>(conjuncts: I) -> Self {
        let mut flat = Vec::new();
        for c in conjuncts {
            match c {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// N-ary disjunction. `Formula::or([])` is `False`, a singleton collapses
    /// to its only disjunct, and nested disjunctions are flattened.
    pub fn or<I: IntoIterator<Item = Formula<P>>>(disjuncts: I) -> Self {
        let mut flat = Vec::new();
        for d in disjuncts {
            match d {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Material implication `antecedent ⇒ consequent`.
    pub fn implies(antecedent: Formula<P>, consequent: Formula<P>) -> Self {
        Formula::Implies(Box::new(antecedent), Box::new(consequent))
    }

    /// Biconditional `lhs ⇔ rhs`.
    pub fn iff(lhs: Formula<P>, rhs: Formula<P>) -> Self {
        Formula::Iff(Box::new(lhs), Box::new(rhs))
    }

    /// Knowledge `K_i φ`.
    pub fn knows(agent: AgentId, formula: Formula<P>) -> Self {
        Formula::Knows(agent, Box::new(formula))
    }

    /// Indexical belief `B^N_i φ`.
    pub fn believes_nonfaulty(agent: AgentId, formula: Formula<P>) -> Self {
        Formula::BelievesNonfaulty(agent, Box::new(formula))
    }

    /// `E_B_N φ`: everyone in the nonfaulty set believes φ.
    pub fn everyone_believes(formula: Formula<P>) -> Self {
        Formula::EveryoneBelieves(Box::new(formula))
    }

    /// Common belief `C_B_N φ` among the nonfaulty agents.
    pub fn common_belief(formula: Formula<P>) -> Self {
        Formula::CommonBelief(Box::new(formula))
    }

    /// Greatest fixpoint `νX. φ(X)`.
    pub fn gfp(var: FixpointVar, body: Formula<P>) -> Self {
        Formula::Gfp(var, Box::new(body))
    }

    /// Least fixpoint `μX. φ(X)`.
    pub fn lfp(var: FixpointVar, body: Formula<P>) -> Self {
        Formula::Lfp(var, Box::new(body))
    }

    /// A fixpoint variable occurrence.
    pub fn var(var: FixpointVar) -> Self {
        Formula::Var(var)
    }

    /// `AX φ`.
    pub fn all_next(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::AllNext, Box::new(formula))
    }

    /// `EX φ`.
    pub fn exists_next(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::ExistsNext, Box::new(formula))
    }

    /// `AG φ`.
    pub fn all_globally(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::AllGlobally, Box::new(formula))
    }

    /// `AF φ`.
    pub fn all_finally(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::AllFinally, Box::new(formula))
    }

    /// `EG φ`.
    pub fn exists_globally(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::ExistsGlobally, Box::new(formula))
    }

    /// `EF φ`.
    pub fn exists_finally(formula: Formula<P>) -> Self {
        Formula::Temporal(TemporalKind::ExistsFinally, Box::new(formula))
    }

    /// `AX^k φ` — the `AX` operator applied `k` times, as used by the MCK
    /// scripts in the paper's appendix (`AX^3 ...`).
    pub fn all_next_pow(k: usize, formula: Formula<P>) -> Self {
        let mut result = formula;
        for _ in 0..k {
            result = Formula::all_next(result);
        }
        result
    }

    // ----- structural queries ----------------------------------------------

    /// Number of operator and atom nodes in the formula.
    pub fn size(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |_| count += 1);
        count
    }

    /// Maximum nesting depth of the formula.
    pub fn depth(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => 1,
            Formula::Not(inner) => 1 + inner.depth(),
            Formula::And(items) | Formula::Or(items) => {
                1 + items.iter().map(Formula::depth).max().unwrap_or(0)
            }
            Formula::Implies(lhs, rhs) | Formula::Iff(lhs, rhs) => 1 + lhs.depth().max(rhs.depth()),
            Formula::Knows(_, inner)
            | Formula::BelievesNonfaulty(_, inner)
            | Formula::EveryoneBelieves(inner)
            | Formula::CommonBelief(inner)
            | Formula::Gfp(_, inner)
            | Formula::Lfp(_, inner)
            | Formula::Temporal(_, inner) => 1 + inner.depth(),
        }
    }

    /// Returns `true` when the formula contains any epistemic operator
    /// (knowledge, belief, or common belief).
    pub fn is_epistemic(&self) -> bool {
        let mut found = false;
        self.visit(&mut |f| {
            if matches!(
                f,
                Formula::Knows(..)
                    | Formula::BelievesNonfaulty(..)
                    | Formula::EveryoneBelieves(..)
                    | Formula::CommonBelief(..)
            ) {
                found = true;
            }
        });
        found
    }

    /// Returns `true` when the formula contains any temporal operator.
    pub fn is_temporal(&self) -> bool {
        let mut found = false;
        self.visit(&mut |f| {
            if matches!(f, Formula::Temporal(..)) {
                found = true;
            }
        });
        found
    }

    /// Returns `true` when the formula is a *knowledge condition* in the
    /// sense required by the synthesis requirements of the paper: a boolean
    /// combination of formulas of the form `K_i φ` / `B^N_i φ` (which may
    /// contain further knowledge and fixpoint operators) with no temporal
    /// operators anywhere.
    pub fn is_knowledge_condition(&self) -> bool {
        fn boolean_of_knowledge<P>(f: &Formula<P>) -> bool {
            match f {
                Formula::True | Formula::False => true,
                Formula::Knows(..)
                | Formula::BelievesNonfaulty(..)
                | Formula::EveryoneBelieves(..)
                | Formula::CommonBelief(..) => true,
                Formula::Not(inner) => boolean_of_knowledge(inner),
                Formula::And(items) | Formula::Or(items) => items.iter().all(boolean_of_knowledge),
                Formula::Implies(lhs, rhs) | Formula::Iff(lhs, rhs) => {
                    boolean_of_knowledge(lhs) && boolean_of_knowledge(rhs)
                }
                Formula::Atom(_)
                | Formula::Var(_)
                | Formula::Gfp(..)
                | Formula::Lfp(..)
                | Formula::Temporal(..) => false,
            }
        }
        !self.is_temporal() && boolean_of_knowledge(self)
    }

    /// Collects the set of agents mentioned by knowledge or belief operators.
    pub fn agents(&self) -> Vec<AgentId> {
        let mut agents = Vec::new();
        self.visit(&mut |f| {
            if let Formula::Knows(a, _) | Formula::BelievesNonfaulty(a, _) = f {
                if !agents.contains(a) {
                    agents.push(*a);
                }
            }
        });
        agents.sort();
        agents
    }

    /// Collects references to every atom occurring in the formula.
    pub fn atoms(&self) -> Vec<&P> {
        let mut atoms = Vec::new();
        self.visit(&mut |f| {
            if let Formula::Atom(p) = f {
                atoms.push(p);
            }
        });
        atoms
    }

    /// Returns the set of free fixpoint variables of the formula.
    pub fn free_vars(&self) -> Vec<FixpointVar> {
        fn go<P>(f: &Formula<P>, bound: &mut Vec<FixpointVar>, free: &mut Vec<FixpointVar>) {
            match f {
                Formula::Var(v) => {
                    if !bound.contains(v) && !free.contains(v) {
                        free.push(*v);
                    }
                }
                Formula::Gfp(v, body) | Formula::Lfp(v, body) => {
                    bound.push(*v);
                    go(body, bound, free);
                    bound.pop();
                }
                Formula::Not(inner)
                | Formula::Knows(_, inner)
                | Formula::BelievesNonfaulty(_, inner)
                | Formula::EveryoneBelieves(inner)
                | Formula::CommonBelief(inner)
                | Formula::Temporal(_, inner) => go(inner, bound, free),
                Formula::And(items) | Formula::Or(items) => {
                    for item in items {
                        go(item, bound, free);
                    }
                }
                Formula::Implies(lhs, rhs) | Formula::Iff(lhs, rhs) => {
                    go(lhs, bound, free);
                    go(rhs, bound, free);
                }
                Formula::True | Formula::False | Formula::Atom(_) => {}
            }
        }
        let mut free = Vec::new();
        go(self, &mut Vec::new(), &mut free);
        free.sort_unstable();
        free
    }

    /// Returns `true` when the formula has no free fixpoint variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Computes the polarity with which fixpoint variable `var` occurs.
    pub(crate) fn polarity_of(&self, var: FixpointVar) -> Polarity {
        fn go<P>(f: &Formula<P>, var: FixpointVar, positive: bool) -> Polarity {
            match f {
                Formula::Var(v) if *v == var => {
                    if positive {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    }
                }
                Formula::Var(_) | Formula::True | Formula::False | Formula::Atom(_) => {
                    Polarity::Absent
                }
                Formula::Gfp(v, _) | Formula::Lfp(v, _) if *v == var => Polarity::Absent,
                Formula::Gfp(_, inner) | Formula::Lfp(_, inner) => go(inner, var, positive),
                Formula::Not(inner) => go(inner, var, !positive),
                Formula::And(items) | Formula::Or(items) => items
                    .iter()
                    .fold(Polarity::Absent, |acc, item| acc.join(go(item, var, positive))),
                Formula::Implies(lhs, rhs) => go(lhs, var, !positive).join(go(rhs, var, positive)),
                Formula::Iff(lhs, rhs) => {
                    // Both sides occur under both polarities.
                    let l = go(lhs, var, positive).join(go(lhs, var, !positive));
                    let r = go(rhs, var, positive).join(go(rhs, var, !positive));
                    l.join(r)
                }
                Formula::Knows(_, inner)
                | Formula::BelievesNonfaulty(_, inner)
                | Formula::EveryoneBelieves(inner)
                | Formula::CommonBelief(inner)
                | Formula::Temporal(_, inner) => go(inner, var, positive),
            }
        }
        go(self, var, true)
    }

    /// Checks that every fixpoint binder in the formula binds its variable
    /// only positively, as required for the fixpoints to be well defined.
    pub fn fixpoints_well_formed(&self) -> bool {
        let mut ok = true;
        self.visit(&mut |f| {
            if let Formula::Gfp(v, body) | Formula::Lfp(v, body) = f {
                match body.polarity_of(*v) {
                    Polarity::Negative | Polarity::Mixed => ok = false,
                    Polarity::Absent | Polarity::Positive => {}
                }
            }
        });
        ok
    }

    /// A canonical 64-bit hash of the formula's structure: stable across
    /// processes, platforms and runs (unlike `std`'s randomised default
    /// hasher), so it can key cross-request and on-disk caches. Two
    /// formulas hash equal iff their ASTs are structurally equal — no
    /// normalisation is applied beyond what the smart constructors already
    /// did, so `p ∧ q` and `q ∧ p` hash differently.
    pub fn canonical_hash(&self) -> u64
    where
        P: std::hash::Hash,
    {
        use std::hash::Hash;
        let mut hasher = StableHasher::default();
        self.hash(&mut hasher);
        std::hash::Hasher::finish(&hasher)
    }

    /// Applies `f` to every subformula (including the formula itself), in
    /// pre-order.
    pub fn visit<'a, F: FnMut(&'a Formula<P>)>(&'a self, f: &mut F) {
        f(self);
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => {}
            Formula::Not(inner)
            | Formula::Knows(_, inner)
            | Formula::BelievesNonfaulty(_, inner)
            | Formula::EveryoneBelieves(inner)
            | Formula::CommonBelief(inner)
            | Formula::Gfp(_, inner)
            | Formula::Lfp(_, inner)
            | Formula::Temporal(_, inner) => inner.visit(f),
            Formula::And(items) | Formula::Or(items) => {
                for item in items {
                    item.visit(f);
                }
            }
            Formula::Implies(lhs, rhs) | Formula::Iff(lhs, rhs) => {
                lhs.visit(f);
                rhs.visit(f);
            }
        }
    }

    /// Maps the atoms of the formula through `f`, preserving structure.
    pub fn map_atoms<Q, F: FnMut(&P) -> Q>(&self, f: &mut F) -> Formula<Q> {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(p) => Formula::Atom(f(p)),
            Formula::Var(v) => Formula::Var(*v),
            Formula::Not(inner) => Formula::Not(Box::new(inner.map_atoms(f))),
            Formula::And(items) => Formula::And(items.iter().map(|i| i.map_atoms(f)).collect()),
            Formula::Or(items) => Formula::Or(items.iter().map(|i| i.map_atoms(f)).collect()),
            Formula::Implies(lhs, rhs) => {
                Formula::Implies(Box::new(lhs.map_atoms(f)), Box::new(rhs.map_atoms(f)))
            }
            Formula::Iff(lhs, rhs) => {
                Formula::Iff(Box::new(lhs.map_atoms(f)), Box::new(rhs.map_atoms(f)))
            }
            Formula::Knows(a, inner) => Formula::Knows(*a, Box::new(inner.map_atoms(f))),
            Formula::BelievesNonfaulty(a, inner) => {
                Formula::BelievesNonfaulty(*a, Box::new(inner.map_atoms(f)))
            }
            Formula::EveryoneBelieves(inner) => {
                Formula::EveryoneBelieves(Box::new(inner.map_atoms(f)))
            }
            Formula::CommonBelief(inner) => Formula::CommonBelief(Box::new(inner.map_atoms(f))),
            Formula::Gfp(v, inner) => Formula::Gfp(*v, Box::new(inner.map_atoms(f))),
            Formula::Lfp(v, inner) => Formula::Lfp(*v, Box::new(inner.map_atoms(f))),
            Formula::Temporal(kind, inner) => {
                Formula::Temporal(*kind, Box::new(inner.map_atoms(f)))
            }
        }
    }

    /// Expands the derived operators `B^N_i`, `E_B_N` and `C_B_N` into the
    /// primitive operators `K_i`, conjunction and the greatest fixpoint, for
    /// a system with agents `0..n` and a "member of the nonfaulty set"
    /// predicate supplied by `nonfaulty_atom`.
    ///
    /// The expansion follows Section 2 of the paper:
    ///
    /// * `B^N_i φ  =  K_i (nonfaulty_i ⇒ φ)`
    /// * `E_B_N φ  =  ⋀_i (nonfaulty_i ⇒ B^N_i φ)`
    /// * `C_B_N φ  =  νX. E_B_N (X ∧ φ)`
    ///
    /// Fresh fixpoint variables are taken starting from `fresh_var`, which
    /// must be larger than any variable already used in the formula.
    pub fn expand_derived<F>(
        &self,
        n: usize,
        nonfaulty_atom: &F,
        fresh_var: FixpointVar,
    ) -> Formula<P>
    where
        P: Clone,
        F: Fn(AgentId) -> P,
    {
        fn everyone<P: Clone, F: Fn(AgentId) -> P>(
            n: usize,
            nonfaulty_atom: &F,
            body: Formula<P>,
        ) -> Formula<P> {
            Formula::and(AgentId::all(n).map(|i| {
                Formula::implies(
                    Formula::atom(nonfaulty_atom(i)),
                    Formula::knows(
                        i,
                        Formula::implies(Formula::atom(nonfaulty_atom(i)), body.clone()),
                    ),
                )
            }))
        }

        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(p) => Formula::Atom(p.clone()),
            Formula::Var(v) => Formula::Var(*v),
            Formula::Not(inner) => Formula::not(inner.expand_derived(n, nonfaulty_atom, fresh_var)),
            Formula::And(items) => {
                Formula::and(items.iter().map(|i| i.expand_derived(n, nonfaulty_atom, fresh_var)))
            }
            Formula::Or(items) => {
                Formula::or(items.iter().map(|i| i.expand_derived(n, nonfaulty_atom, fresh_var)))
            }
            Formula::Implies(lhs, rhs) => Formula::implies(
                lhs.expand_derived(n, nonfaulty_atom, fresh_var),
                rhs.expand_derived(n, nonfaulty_atom, fresh_var),
            ),
            Formula::Iff(lhs, rhs) => Formula::iff(
                lhs.expand_derived(n, nonfaulty_atom, fresh_var),
                rhs.expand_derived(n, nonfaulty_atom, fresh_var),
            ),
            Formula::Knows(a, inner) => {
                Formula::knows(*a, inner.expand_derived(n, nonfaulty_atom, fresh_var))
            }
            Formula::BelievesNonfaulty(a, inner) => Formula::knows(
                *a,
                Formula::implies(
                    Formula::atom(nonfaulty_atom(*a)),
                    inner.expand_derived(n, nonfaulty_atom, fresh_var),
                ),
            ),
            Formula::EveryoneBelieves(inner) => {
                everyone(n, nonfaulty_atom, inner.expand_derived(n, nonfaulty_atom, fresh_var))
            }
            Formula::CommonBelief(inner) => {
                let body = inner.expand_derived(n, nonfaulty_atom, fresh_var + 1);
                Formula::gfp(
                    fresh_var,
                    everyone(n, nonfaulty_atom, Formula::and([Formula::var(fresh_var), body])),
                )
            }
            Formula::Gfp(v, inner) => {
                Formula::gfp(*v, inner.expand_derived(n, nonfaulty_atom, fresh_var))
            }
            Formula::Lfp(v, inner) => {
                Formula::lfp(*v, inner.expand_derived(n, nonfaulty_atom, fresh_var))
            }
            Formula::Temporal(kind, inner) => Formula::Temporal(
                *kind,
                Box::new(inner.expand_derived(n, nonfaulty_atom, fresh_var)),
            ),
        }
    }

    /// Largest fixpoint variable occurring anywhere in the formula, or `None`
    /// if there are no fixpoint variables.
    pub fn max_var(&self) -> Option<FixpointVar> {
        let mut max = None;
        self.visit(&mut |f| {
            let v = match f {
                Formula::Var(v) | Formula::Gfp(v, _) | Formula::Lfp(v, _) => Some(*v),
                _ => None,
            };
            if let Some(v) = v {
                max = Some(max.map_or(v, |m: FixpointVar| m.max(v)));
            }
        });
        max
    }
}

/// The polarity with which a fixpoint variable occurs inside a formula.
///
/// The greatest-fixpoint operator `νX. φ(X)` is only meaningful when `X`
/// occurs positively in `φ` (under an even number of negations), as required
/// by the paper's semantic model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Polarity {
    /// The variable does not occur.
    Absent,
    /// Every occurrence is under an even number of negations.
    Positive,
    /// Every occurrence is under an odd number of negations.
    Negative,
    /// The variable occurs both positively and negatively.
    Mixed,
}

impl Polarity {
    fn join(self, other: Polarity) -> Polarity {
        use Polarity::*;
        match (self, other) {
            (Absent, p) | (p, Absent) => p,
            (Positive, Positive) => Positive,
            (Negative, Negative) => Negative,
            _ => Mixed,
        }
    }
}

/// A deterministic 64-bit streaming hasher backing
/// [`Formula::canonical_hash`]. Byte-at-a-time FxHash-style mixing
/// (`rotate ⊕ byte, × seed`) with every multi-byte write funnelled through
/// little-endian byte order, so the digest is identical across processes,
/// platforms and word sizes — the property `std`'s `DefaultHasher`
/// explicitly does not promise.
#[derive(Default)]
struct StableHasher {
    hash: u64,
}

impl StableHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(byte)).wrapping_mul(Self::SEED);
        }
    }

    // Fixed-width writes go through little-endian bytes regardless of the
    // native byte order (the default implementations use native order).
    fn write_u8(&mut self, value: u8) {
        self.write(&[value]);
    }

    fn write_u16(&mut self, value: u16) {
        self.write(&value.to_le_bytes());
    }

    fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    fn write_u128(&mut self, value: u128) {
        self.write(&value.to_le_bytes());
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_i8(&mut self, value: i8) {
        self.write_u8(value as u8);
    }

    fn write_i16(&mut self, value: i16) {
        self.write_u16(value as u16);
    }

    fn write_i32(&mut self, value: i32) {
        self.write_u32(value as u32);
    }

    fn write_i64(&mut self, value: i64) {
        self.write_u64(value as u64);
    }

    fn write_i128(&mut self, value: i128) {
        self.write_u128(value as u128);
    }

    fn write_isize(&mut self, value: isize) {
        self.write_u64(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type F = Formula<&'static str>;

    #[test]
    fn and_or_flatten_and_collapse() {
        assert_eq!(F::and([]), F::True);
        assert_eq!(F::or([]), F::False);
        assert_eq!(F::and([F::atom("p")]), F::atom("p"));
        let nested = F::and([F::and([F::atom("p"), F::atom("q")]), F::atom("r")]);
        assert_eq!(nested, Formula::And(vec![F::atom("p"), F::atom("q"), F::atom("r")]));
        assert_eq!(F::and([F::atom("p"), F::False]), F::False);
        assert_eq!(F::or([F::atom("p"), F::True]), F::True);
        assert_eq!(F::and([F::True, F::True]), F::True);
    }

    #[test]
    fn not_collapses_constants_and_double_negation() {
        assert_eq!(F::not(F::True), F::False);
        assert_eq!(F::not(F::False), F::True);
        assert_eq!(F::not(F::not(F::atom("p"))), F::atom("p"));
    }

    #[test]
    fn canonical_hash_is_deterministic_and_structural() {
        let f = F::knows(AgentId::new(1), F::and([F::atom("p"), F::not(F::atom("q"))]));
        // Equal structures (clones, independent builds) agree.
        assert_eq!(f.canonical_hash(), f.clone().canonical_hash());
        let rebuilt = F::knows(AgentId::new(1), F::and([F::atom("p"), F::not(F::atom("q"))]));
        assert_eq!(f.canonical_hash(), rebuilt.canonical_hash());
        // Different connectives, operand orders and agents disagree.
        let and = F::and([F::atom("p"), F::atom("q")]);
        let or = F::or([F::atom("p"), F::atom("q")]);
        let swapped = F::and([F::atom("q"), F::atom("p")]);
        assert_ne!(and.canonical_hash(), or.canonical_hash());
        assert_ne!(and.canonical_hash(), swapped.canonical_hash());
        let other_agent = F::knows(AgentId::new(2), F::atom("p"));
        assert_ne!(
            F::knows(AgentId::new(1), F::atom("p")).canonical_hash(),
            other_agent.canonical_hash()
        );
        // The digest is a fixture: a change here means every persisted
        // cross-request cache key changes, which must be deliberate.
        assert_eq!(F::True.canonical_hash(), {
            let mut h = StableHasher::default();
            std::hash::Hash::hash(&F::True, &mut h);
            std::hash::Hasher::finish(&h)
        });
    }

    #[test]
    fn size_and_depth() {
        let f = F::knows(AgentId::new(0), F::and([F::atom("p"), F::atom("q")]));
        assert_eq!(f.size(), 4);
        assert_eq!(f.depth(), 3);
        assert_eq!(F::True.size(), 1);
        assert_eq!(F::True.depth(), 1);
    }

    #[test]
    fn epistemic_and_temporal_classification() {
        let k = F::knows(AgentId::new(1), F::atom("p"));
        assert!(k.is_epistemic());
        assert!(!k.is_temporal());
        let t = F::all_globally(F::atom("p"));
        assert!(!t.is_epistemic());
        assert!(t.is_temporal());
        let both = F::all_next(F::common_belief(F::atom("p")));
        assert!(both.is_epistemic());
        assert!(both.is_temporal());
    }

    #[test]
    fn knowledge_condition_classification() {
        let a = AgentId::new(0);
        let good = F::believes_nonfaulty(a, F::common_belief(F::atom("p")));
        assert!(good.is_knowledge_condition());
        let good2 = F::and([F::knows(a, F::atom("p")), F::not(F::knows(a, F::atom("q")))]);
        assert!(good2.is_knowledge_condition());
        // A bare atom is not a knowledge condition...
        assert!(!F::atom("p").is_knowledge_condition());
        // ...nor is a temporal formula.
        assert!(!F::all_next(F::knows(a, F::atom("p"))).is_knowledge_condition());
    }

    #[test]
    fn agents_are_collected_and_sorted() {
        let f = F::and([
            F::knows(AgentId::new(2), F::atom("p")),
            F::believes_nonfaulty(AgentId::new(0), F::atom("q")),
            F::knows(AgentId::new(2), F::atom("r")),
        ]);
        assert_eq!(f.agents(), vec![AgentId::new(0), AgentId::new(2)]);
    }

    #[test]
    fn atoms_are_collected() {
        let f = F::implies(F::atom("p"), F::or([F::atom("q"), F::atom("p")]));
        assert_eq!(f.atoms(), vec![&"p", &"q", &"p"]);
    }

    #[test]
    fn free_vars_and_closedness() {
        let open = F::and([F::var(1), F::gfp(2, F::var(2))]);
        assert_eq!(open.free_vars(), vec![1]);
        assert!(!open.is_closed());
        let closed = F::gfp(1, F::and([F::var(1), F::atom("p")]));
        assert!(closed.is_closed());
    }

    #[test]
    fn map_atoms_preserves_structure() {
        let f = F::knows(AgentId::new(0), F::implies(F::atom("p"), F::atom("q")));
        let mapped: Formula<String> = f.map_atoms(&mut |a| a.to_uppercase());
        assert_eq!(
            mapped,
            Formula::knows(
                AgentId::new(0),
                Formula::implies(Formula::atom("P".to_string()), Formula::atom("Q".to_string()))
            )
        );
    }

    #[test]
    fn expand_derived_belief() {
        let a = AgentId::new(0);
        let f = F::believes_nonfaulty(a, F::atom("p"));
        let expanded = f.expand_derived(2, &|i| if i == a { "nf0" } else { "nf1" }, 0);
        assert_eq!(expanded, Formula::knows(a, Formula::implies(F::atom("nf0"), F::atom("p"))));
    }

    #[test]
    fn expand_derived_common_belief_builds_gfp() {
        let f = F::common_belief(F::atom("p"));
        let expanded = f.expand_derived(2, &|i| if i.index() == 0 { "nf0" } else { "nf1" }, 0);
        match &expanded {
            Formula::Gfp(0, body) => {
                // Body is a conjunction over both agents.
                match body.as_ref() {
                    Formula::And(items) => assert_eq!(items.len(), 2),
                    other => panic!("expected conjunction, got {other:?}"),
                }
            }
            other => panic!("expected gfp, got {other:?}"),
        }
        assert!(expanded.is_closed());
    }

    #[test]
    fn ax_pow_repeats_operator() {
        let f = F::all_next_pow(3, F::atom("p"));
        assert_eq!(f, F::all_next(F::all_next(F::all_next(F::atom("p")))));
        assert_eq!(F::all_next_pow(0, F::atom("p")), F::atom("p"));
    }

    #[test]
    fn max_var_found() {
        let f = F::gfp(3, F::and([F::var(3), F::lfp(7, F::var(7))]));
        assert_eq!(f.max_var(), Some(7));
        assert_eq!(F::atom("p").max_var(), None);
    }

    #[test]
    fn polarity_analysis() {
        let f = F::and([F::var(0), F::not(F::var(1))]);
        assert_eq!(f.polarity_of(0), Polarity::Positive);
        assert_eq!(f.polarity_of(1), Polarity::Negative);
        assert_eq!(f.polarity_of(2), Polarity::Absent);
        let g = F::and([F::var(0), F::not(F::var(0))]);
        assert_eq!(g.polarity_of(0), Polarity::Mixed);
        // Implication flips the antecedent.
        let h = F::implies(F::var(0), F::var(0));
        assert_eq!(h.polarity_of(0), Polarity::Mixed);
        // Shadowed binders do not count.
        let shadow = F::gfp(0, F::var(0));
        assert_eq!(shadow.polarity_of(0), Polarity::Absent);
    }

    #[test]
    fn fixpoint_well_formedness() {
        let ok = F::gfp(0, F::and([F::var(0), F::atom("p")]));
        assert!(ok.fixpoints_well_formed());
        let bad = F::gfp(0, F::not(F::var(0)));
        assert!(!bad.fixpoints_well_formed());
        // The common-belief expansion is always well formed.
        let cb = F::common_belief(F::atom("p")).expand_derived(3, &|_| "nf", 0);
        assert!(cb.fixpoints_well_formed());
    }
}

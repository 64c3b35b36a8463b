//! Compilation of epistemic-temporal formulas into flat fixpoint equation
//! systems ([`EqSystem::compile`]).
//!
//! A [`Formula`] becomes one equation per subformula. Common belief
//! becomes a greatest fixpoint `νX. E_B_N (X ∧ φ)`; the bounded temporal
//! operators become least or greatest fixpoints according to their
//! polarity (`AG`/`EG` are greatest, `AF`/`EF` are least, `AX`/`EX` are
//! plain next-step equations). Closed subformulas are hash-consed during
//! compilation, keyed by [`Formula::canonical_hash`] and verified by
//! structural equality. Each equation records the polarity of its
//! governing fixpoint and the fixpoints whose cycle it lies on, and a
//! system whose fixpoint body references an enclosing fixpoint's variable
//! is flagged ([`EqSystem::is_alternating`]).
//!
//! Nothing in the workspace solves these systems. The lazy engine,
//! `epimc-check`'s `LocalChecker`, answers through the global evaluator
//! (`SymbolicChecker::holds_in_layer`), which reads the layers a query
//! needs off the formula. The compiler stays for one caller: the
//! reference benchmark (`benchmark/src/probes.rs`) times
//! `EqSystem::compile` for its `local.compile_us` probe, and the crate
//! goes when that probe does.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::Hash;

use epimc_logic::{AgentId, FixpointVar, Formula, TemporalKind};

/// Index of an equation in an [`EqSystem`].
pub type NodeId = usize;

/// Right-hand side of one equation of the system ([`EqSystem::rhs`]);
/// operands are equation ids.
#[derive(Debug, Clone)]
pub enum EqRhs<P> {
    /// The constant true.
    Top,
    /// The constant false.
    Bottom,
    /// An atomic proposition.
    Atom(P),
    /// Negation.
    Not(NodeId),
    /// Conjunction.
    And(Vec<NodeId>),
    /// Disjunction.
    Or(Vec<NodeId>),
    /// Implication.
    Implies(NodeId, NodeId),
    /// Biconditional.
    Iff(NodeId, NodeId),
    /// `K_i φ`.
    Knows(AgentId, NodeId),
    /// `B^N_i φ`.
    BelievesNonfaulty(AgentId, NodeId),
    /// `E_B_N φ`.
    EveryoneBelieves(NodeId),
    /// Next-step operator: the value at layer `t` is determined by
    /// `child`'s value at layer `t + 1`; at the last layer it degenerates
    /// to the constant `default_top` (⊤ for universal operators, ⊥ for
    /// existential ones), matching the global engines' horizon semantics.
    Next {
        /// `AX` (`true`) or `EX`.
        universal: bool,
        /// The value at the last layer.
        default_top: bool,
        /// The operand, read one layer later.
        child: NodeId,
    },
    /// Occurrence of a fixpoint variable, resolved to its binding
    /// [`EqRhs::Fix`] equation.
    Var(NodeId),
    /// A fixpoint equation; its polarity (greatest `νX. body` vs least
    /// `μX. body`) is recorded with the equation at compile time.
    Fix {
        /// The equation the fixpoint iterates.
        body: NodeId,
    },
}

/// One equation plus the metadata computed at compile time.
#[derive(Debug, Clone)]
struct EqNode<P> {
    rhs: EqRhs<P>,
    /// The polarity of the governing fixpoint: `true` when it is a
    /// greatest one. Irrelevant — and `false` — for equations not on any
    /// fixpoint cycle.
    init_greatest: bool,
    /// The fixpoint equations whose cycle this equation lies on: its free
    /// fixpoint references, plus itself if it is a `Fix`. Sorted.
    cycles: Vec<NodeId>,
}

/// A compiled fixpoint equation system: a flat table of equations with a
/// distinguished root.
#[derive(Debug, Clone)]
pub struct EqSystem<P> {
    nodes: Vec<EqNode<P>>,
    root: NodeId,
    memo_hits: usize,
    alternating: bool,
}

struct Compiler<P> {
    nodes: Vec<EqNode<P>>,
    /// Hash-consing of closed compound subformulas, keyed by
    /// `canonical_hash` and disambiguated by structural equality (the
    /// same collision discipline as the cross-request denotation cache).
    memo: HashMap<u64, Vec<(Formula<P>, NodeId)>>,
    memo_hits: usize,
    alternating: bool,
}

impl<P: Clone + Eq + Hash> Compiler<P> {
    fn add(&mut self, rhs: EqRhs<P>, cycles: Vec<NodeId>, init_greatest: bool) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(EqNode { rhs, init_greatest, cycles });
        id
    }

    /// Free fixpoint references of a node (its `cycles` minus itself).
    fn free_fixes(&self, id: NodeId) -> Vec<NodeId> {
        let node = &self.nodes[id];
        let mut fixes = node.cycles.clone();
        if matches!(node.rhs, EqRhs::Fix { .. }) {
            fixes.retain(|&f| f != id);
        }
        fixes
    }

    fn union_fixes(&self, children: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for &c in children {
            for f in self.free_fixes(c) {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Current governing polarity for a node whose free-fix set is
    /// `fixes`: the innermost enclosing fixpoint's polarity, or `false`
    /// when the node is not on any cycle (then the value is irrelevant).
    fn init_for(fixes: &[NodeId], polarity: &[bool]) -> bool {
        if fixes.is_empty() {
            false
        } else {
            polarity.last().copied().unwrap_or(false)
        }
    }

    /// Allocates a fixpoint equation, compiles `body` under it via
    /// `fill_body`, and patches the equation in.
    fn fix(
        &mut self,
        greatest: bool,
        polarity: &mut Vec<bool>,
        env: &mut HashMap<FixpointVar, NodeId>,
        fill_body: impl FnOnce(
            &mut Self,
            &mut Vec<bool>,
            &mut HashMap<FixpointVar, NodeId>,
            NodeId,
        ) -> NodeId,
    ) -> NodeId {
        let fix_id = self.add(EqRhs::Bottom, Vec::new(), greatest); // placeholder
        polarity.push(greatest);
        let body = fill_body(self, polarity, env, fix_id);
        polarity.pop();
        let mut cycles = self.free_fixes(body);
        cycles.retain(|&f| f != fix_id);
        if !cycles.is_empty() {
            // The body references an enclosing fixpoint variable: flag
            // the system as alternating.
            self.alternating = true;
        }
        cycles.push(fix_id);
        cycles.sort_unstable();
        self.nodes[fix_id] = EqNode { rhs: EqRhs::Fix { body }, init_greatest: greatest, cycles };
        fix_id
    }

    fn compile(
        &mut self,
        formula: &Formula<P>,
        polarity: &mut Vec<bool>,
        env: &mut HashMap<FixpointVar, NodeId>,
    ) -> NodeId {
        // Hash-cons closed compound subformulas. Openness is relative to
        // fixpoint variables, so anything with a free variable (whose
        // meaning depends on `env`) is excluded, as are the leaves (not
        // worth the table entry).
        let compound =
            !matches!(formula, Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_));
        let memo_key = (compound && formula.is_closed()).then(|| formula.canonical_hash());
        if let Some(key) = memo_key {
            if let Some(entries) = self.memo.get(&key) {
                for (stored, id) in entries {
                    if stored == formula {
                        self.memo_hits += 1;
                        return *id;
                    }
                }
            }
        }
        let id = match formula {
            Formula::True => self.add(EqRhs::Top, Vec::new(), false),
            Formula::False => self.add(EqRhs::Bottom, Vec::new(), false),
            Formula::Atom(p) => self.add(EqRhs::Atom(p.clone()), Vec::new(), false),
            Formula::Not(f) => {
                let c = self.compile(f, polarity, env);
                let fixes = self.union_fixes(&[c]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Not(c), fixes, init)
            }
            Formula::And(fs) => {
                let cs: Vec<NodeId> = fs.iter().map(|f| self.compile(f, polarity, env)).collect();
                let fixes = self.union_fixes(&cs);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::And(cs), fixes, init)
            }
            Formula::Or(fs) => {
                let cs: Vec<NodeId> = fs.iter().map(|f| self.compile(f, polarity, env)).collect();
                let fixes = self.union_fixes(&cs);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Or(cs), fixes, init)
            }
            Formula::Implies(a, b) => {
                let ca = self.compile(a, polarity, env);
                let cb = self.compile(b, polarity, env);
                let fixes = self.union_fixes(&[ca, cb]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Implies(ca, cb), fixes, init)
            }
            Formula::Iff(a, b) => {
                let ca = self.compile(a, polarity, env);
                let cb = self.compile(b, polarity, env);
                let fixes = self.union_fixes(&[ca, cb]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Iff(ca, cb), fixes, init)
            }
            Formula::Knows(agent, f) => {
                let c = self.compile(f, polarity, env);
                let fixes = self.union_fixes(&[c]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Knows(*agent, c), fixes, init)
            }
            Formula::BelievesNonfaulty(agent, f) => {
                let c = self.compile(f, polarity, env);
                let fixes = self.union_fixes(&[c]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::BelievesNonfaulty(*agent, c), fixes, init)
            }
            Formula::EveryoneBelieves(f) => {
                let c = self.compile(f, polarity, env);
                let fixes = self.union_fixes(&[c]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::EveryoneBelieves(c), fixes, init)
            }
            Formula::CommonBelief(f) => {
                // C_B_N φ  ≡  νX. E_B_N (X ∧ φ)  — the same unfolding the
                // symbolic engine iterates.
                self.fix(true, polarity, env, |me, polarity, env, fix_id| {
                    let phi = me.compile(f, polarity, env);
                    let var = me.add(EqRhs::Var(fix_id), vec![fix_id], true);
                    let and_fixes = me.union_fixes(&[var, phi]);
                    let and = me.add(EqRhs::And(vec![var, phi]), and_fixes.clone(), true);
                    me.add(EqRhs::EveryoneBelieves(and), and_fixes, true)
                })
            }
            Formula::Temporal(kind, f) => self.compile_temporal(*kind, f, polarity, env),
            Formula::Gfp(v, body) | Formula::Lfp(v, body) => {
                let greatest = matches!(formula, Formula::Gfp(..));
                let var = *v;
                self.fix(greatest, polarity, env, |me, polarity, env, fix_id| {
                    let shadowed = env.insert(var, fix_id);
                    let body_id = me.compile(body, polarity, env);
                    match shadowed {
                        Some(prev) => {
                            env.insert(var, prev);
                        }
                        None => {
                            env.remove(&var);
                        }
                    }
                    body_id
                })
            }
            Formula::Var(v) => {
                let fix_id = *env
                    .get(v)
                    .unwrap_or_else(|| panic!("free fixpoint variable X{v} in local compilation"));
                let greatest = self.nodes[fix_id].init_greatest;
                self.add(EqRhs::Var(fix_id), vec![fix_id], greatest)
            }
        };
        if let Some(key) = memo_key {
            self.memo.entry(key).or_default().push((formula.clone(), id));
        }
        id
    }

    fn compile_temporal(
        &mut self,
        kind: TemporalKind,
        f: &Formula<P>,
        polarity: &mut Vec<bool>,
        env: &mut HashMap<FixpointVar, NodeId>,
    ) -> NodeId {
        match kind {
            TemporalKind::AllNext | TemporalKind::ExistsNext => {
                let universal = matches!(kind, TemporalKind::AllNext);
                let c = self.compile(f, polarity, env);
                let fixes = self.union_fixes(&[c]);
                let init = Self::init_for(&fixes, polarity);
                self.add(EqRhs::Next { universal, default_top: universal, child: c }, fixes, init)
            }
            // AG φ ≡ νX. φ ∧ AX X,   EG φ ≡ νX. φ ∧ EX X — greatest
            // fixpoints, with the next-step defaulting to ⊤ at the horizon
            // (both collapse to φ there, as in the global engines).
            TemporalKind::AllGlobally | TemporalKind::ExistsGlobally => {
                let universal = matches!(kind, TemporalKind::AllGlobally);
                self.fix(true, polarity, env, |me, polarity, env, fix_id| {
                    let phi = me.compile(f, polarity, env);
                    let var = me.add(EqRhs::Var(fix_id), vec![fix_id], true);
                    let next = me.add(
                        EqRhs::Next { universal, default_top: true, child: var },
                        vec![fix_id],
                        true,
                    );
                    let fixes = me.union_fixes(&[phi, next]);
                    me.add(EqRhs::And(vec![phi, next]), fixes, true)
                })
            }
            // AF φ ≡ μX. φ ∨ AX X,   EF φ ≡ μX. φ ∨ EX X — least
            // fixpoints, next-step defaulting to ⊥ at the horizon.
            TemporalKind::AllFinally | TemporalKind::ExistsFinally => {
                let universal = matches!(kind, TemporalKind::AllFinally);
                self.fix(false, polarity, env, |me, polarity, env, fix_id| {
                    let phi = me.compile(f, polarity, env);
                    let var = me.add(EqRhs::Var(fix_id), vec![fix_id], false);
                    let next = me.add(
                        EqRhs::Next { universal, default_top: false, child: var },
                        vec![fix_id],
                        false,
                    );
                    let fixes = me.union_fixes(&[phi, next]);
                    me.add(EqRhs::Or(vec![phi, next]), fixes, false)
                })
            }
        }
    }
}

impl<P: Clone + Eq + Hash> EqSystem<P> {
    /// Compiles `formula` into an equation system.
    ///
    /// # Panics
    ///
    /// Panics if `formula` has a free fixpoint variable.
    pub fn compile(formula: &Formula<P>) -> Self {
        let mut compiler =
            Compiler { nodes: Vec::new(), memo: HashMap::new(), memo_hits: 0, alternating: false };
        let root = compiler.compile(formula, &mut Vec::new(), &mut HashMap::new());
        EqSystem {
            nodes: compiler.nodes,
            root,
            memo_hits: compiler.memo_hits,
            alternating: compiler.alternating,
        }
    }
}

impl<P> EqSystem<P> {
    /// Number of equations (after hash-consing).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the system has no equations (never true for a compiled
    /// formula — present for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many closed subformulas were shared through the
    /// `canonical_hash` memo table during compilation.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// Whether some fixpoint body references an enclosing fixpoint
    /// variable (an alternating system).
    pub fn is_alternating(&self) -> bool {
        self.alternating
    }

    /// The equation of the compiled formula itself.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The right-hand side of equation `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an equation of this system.
    pub fn rhs(&self, id: NodeId) -> &EqRhs<P> {
        &self.nodes[id].rhs
    }
}

#[cfg(test)]
mod tests;

//! Epistemic model checking engines for consensus protocol models.
//!
//! This crate evaluates formulas of the logic of knowledge, common belief,
//! fixpoints and bounded branching time (from `epimc-logic`) over the layered
//! protocol models produced by `epimc-system`, using the **clock semantics**
//! of knowledge throughout: an agent's epistemic local state is the pair of
//! the current time and its observation, so the knowledge accessibility
//! relation relates exactly the points of the same layer in which the agent
//! makes the same observation.
//!
//! Three engines are provided:
//!
//! * [`Checker`] — the explicit-state engine. Sets of points are represented
//!   as per-layer bit sets; knowledge is computed by grouping the points of a
//!   layer by observation; common belief is computed as the greatest
//!   fixpoint of the "everyone believes" operator.
//! * [`LocalChecker`] — the lazy **local** engine. The formula is compiled
//!   into a fixpoint equation system (`epimc-local`) and solved by a
//!   worklist with dependency tracking; reachable layers are materialised
//!   relationally *only when a cell of the system demands them*, so a
//!   layer-bounded query on a deep model touches a fraction of it. Verdicts
//!   are memoised across queries, keyed by
//!   [`epimc_logic::Formula::canonical_hash`] with a structural collision
//!   check. All three engines answer identically; the common
//!   [`CheckBackend`] seam lets differential suites drive them uniformly.
//! * [`SymbolicChecker`] — the OBDD engine, mirroring the implementation
//!   strategy of MCK. Each layer's set of reachable states is encoded as a
//!   BDD over boolean state variables in one static, sender-interleaved
//!   order;
//!   knowledge becomes quantification over the variables the agent does not
//!   observe; each round has a per-agent **partitioned transition
//!   relation**, and the bounded temporal operators are evaluated by a
//!   symbolic pre-image through the round's **reachable relation**
//!   `T_t = ∃ choices . reachable[t] ∧ ⋀_i R_t^i` — the forward image's
//!   product (partitions conjoined in support-overlap order, choices
//!   quantified as early as the schedule allows) with the current-state
//!   variables kept, so that a pre-image is one fused `and_exists` against
//!   a small diagram instead of a product over unreachable states. `T_t`
//!   is a per-round cache kept across automatic collections and dropped by
//!   a full collection or a reorder, never a root. See
//!   [`SymbolicOptions`]. Denotations are
//!   **restricted to the reachable sets on demand**: atoms are few-node
//!   state constraints and the boolean connectives combine them as such
//!   (restriction to a layer commutes with every connective under the
//!   clock semantics), the epistemic operators absorb an unrestricted
//!   operand in the `reachable ∧ ¬φ` they compute anyway, and only a
//!   consumer — a public entry point, a temporal operator, a fixpoint body
//!   — conjoins each layer's reachable set, once. What a consumer sees is
//!   the same boolean function as under eager restriction, so the same
//!   canonical diagram; [`SymbolicStats::reach_restrictions`] counts the
//!   layer-level conjunctions.
//!
//! [`SymbolicChecker`] has **one model source**, the relational
//! construction ([`SymbolicChecker::relational`] /
//! [`SymbolicChecker::relational_seed`] +
//! [`SymbolicChecker::extend_layer_relational`]): the model is built with
//! no state ever enumerated, from a protocol's `SymbolicEncode` contract
//! (`epimc-relational`). Layer 0 is the initial-state cube and every
//! further layer is the forward image of the previous one under the
//! round's partitioned transition relation, the adversary's crash/delivery
//! choices quantified away per image. The explicit [`Checker`] over an
//! explored `ConsensusModel` is the one point-level oracle, and
//! [`SymbolicChecker::check_points`] the one read-off against it: it
//! evaluates a formula and looks every explored point up in the
//! denotation, giving a [`PointSet`] to compare.
//!
//! The manager underneath uses **complement edges**, its only
//! representation: negation is a constant-time bit flip and a denotation
//! shares every BDD node with its negation — which is what the
//! negation-heavy epistemic operators (`¬K¬`, belief via relativised
//! knowledge, the common-belief fixpoint) hammer. Rooted handles are
//! remapped (complement bit preserved) across gc and reorder.
//!
//! # Memory discipline of the symbolic engine
//!
//! The BDD manager garbage-collects: all long-lived handles (reachable
//! sets, hidden-variable cubes, relation partitions) and every in-flight
//! formula denotation are *rooted*, and collections run automatically once
//! the live-node count passes [`SymbolicOptions::gc_threshold`] — including
//! inside fixpoint iterations. The operation caches are capacity-bounded
//! ([`epimc_bdd::DEFAULT_CACHE_CAPACITY`]), so memory stays proportional to
//! the live diagrams, not to the history of operations. The per-round
//! reachable relations the temporal operators build are a second,
//! *cache* tier of the collector ([`epimc_bdd::Bdd::gc_with_cache`]): kept
//! across automatic collections and [`SymbolicChecker::compact`], but not
//! counted by the GC trigger, and dropped by reorders and
//! [`SymbolicChecker::force_gc`].
//! [`SymbolicStats`] reports peak live nodes, collections, swept nodes,
//! reorders, and cache hit/miss/eviction counts.
//!
//! The variable order is static ([`ReorderMode::Static`], the only
//! policy): the engine never sifts on its own. It registers every
//! current/primed variable pair as a sifting *group* with the manager, so
//! a requested sift ([`SymbolicChecker::force_reorder`], Rudell group
//! sifting through [`epimc_bdd::Bdd::reorder`]) moves each pair as a block
//! and the transition relations stay cheap under the new order. A checker
//! grows in place, so the manager and its GC state live across all
//! synthesis rounds.
//!
//! # Synthesis-facing API
//!
//! The symbolic synthesis engine (`epimc-synth`) drives its forward
//! induction through these extensions of [`SymbolicChecker`]:
//!
//! * [`EvalSession`] — a denotation cache for closed subformulas, so the
//!   per-agent conditions of a knowledge-based-program branch share the
//!   expensive common-belief fixpoint. Each entry is kept in the most
//!   restricted form a consumer has asked of it, so repeating a query is
//!   one cache hit and no BDD operation (the warm path of `epimc-serve`);
//! * [`SymbolicChecker::observation_values`] — reads the truth value of a
//!   formula on every observation class of an agent at a layer off the BDD
//!   denotation, by existentially quantifying the variables the agent does
//!   not observe (with non-constant classes reported, and evaluation
//!   *focused* on the queried layer for temporal-free formulas);
//! * [`SymbolicChecker::set_frontier_rule`] — recomputes the newest
//!   layer's decides-now table under the partial rule fixed so far, so
//!   `DecidesNow` at the frontier reads the decisions of that rule;
//! * [`SymbolicChecker::extend_layer_relational`] — grows the model by one
//!   layer under the partial rule fixed so far, in the same BDD manager
//!   (node store, caches, reachable sets, GC state), so a whole synthesis
//!   run lives in a single collected manager;
//! * [`SymbolicChecker::snapshot`] / [`SymbolicChecker::restore_relational`]
//!   — a checker handed *across processes*: one `epimc-bdd` snapshot
//!   stream (see its snapshot module) whose roots are the layers, relation
//!   partitions and decides-now tables and whose words are the model
//!   fingerprint, length tables and GC state; the cubes the layout
//!   determines are derived again on restore. It restores to a checker
//!   answering bit-identically, and `epimc-serve` uses it to persist warm
//!   model state.
//!
//! All engines implement the same semantics; `tests/engine_agreement.rs`
//! checks them against each other on randomly generated formulas, and the
//! benchmark crate compares their scaling (the `symbolic` and `synthesis`
//! ablations of the reproduction).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explicit;
mod local;
mod pointset;
mod symbolic;

pub use epimc_bdd::{catch_budget, BddError, Budget, BudgetReason};
pub use explicit::Checker;
pub use local::{CheckBackend, LocalChecker, LocalStats};
pub use pointset::PointSet;
pub use symbolic::{
    BudgetAbort, EvalSession, ObservationValues, ReorderMode, SymbolicChecker, SymbolicOptions,
    SymbolicStats,
};

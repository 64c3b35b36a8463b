//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! MCK, the model checker used in the paper, implements its epistemic model
//! checking and synthesis algorithms with ordered binary decision diagram
//! techniques (Burch et al., 1992). This crate provides the BDD substrate for
//! the `epimc` workspace: a hash-consed node store with memoised boolean
//! operations, quantification, substitution, satisfiability counting and
//! cube (DNF) extraction — engineered for long runs:
//!
//! * **Complement edges.** A [`Ref`] packs a node slot together with a
//!   complement bit, so negation ([`Bdd::not`]) is a constant-time bit flip
//!   that allocates nothing, and a function shares every node with its
//!   negation. Canonicity is kept by a convention: the *stored then-edge of
//!   a node is never complemented* (a constructor handed a complemented
//!   then-edge builds the negated node and returns a complemented
//!   reference). There is a single terminal, ⊤; `false` is the complemented
//!   edge to it. This is the only representation (the classic two-terminal
//!   one is not offered), and [`Bdd::check_canonical_invariant`] verifies
//!   the convention over the whole store.
//! * **Cache-conscious node store.** Nodes live in a struct-of-arrays arena
//!   (variables, low edges and high edges in three parallel `u32` arrays),
//!   packing 16 child edges per 64-byte cache line on the hot traversal
//!   paths. A single free-list inside the allocator is shared by ordinary
//!   construction, the collector and the reorderer's slot recycling.
//! * **Garbage collection.** [`Bdd::gc`] is a mark-and-sweep collector: the
//!   caller passes every external handle it still needs as a *root*
//!   (`&mut Ref`), the collector sweeps everything unreachable, compacts the
//!   node store, rebuilds the unique table, and remaps the roots in place.
//!   Any non-rooted [`Ref`] is invalidated by a collection — see the
//!   [`Ref`] docs for the precise rooting contract. [`Bdd::gc_with_cache`]
//!   adds a second tier of *cache roots*, kept and remapped the same way
//!   but reported apart ([`GcStats::cache_only_nodes`]), so memoised
//!   diagrams can survive a collection without counting as model size.
//!   A collection keeps the unique table's high-water capacity;
//!   [`Bdd::gc_shrink`] returns it to the survivors' size.
//! * **Bounded operation caches.** The `ite`/`exists`/`replace`/`and_exists`
//!   memo tables are direct-mapped caches with a fixed capacity
//!   ([`Bdd::with_cache_capacity`]) and deterministic hashing, so cache
//!   memory is bounded and run-to-run behaviour is reproducible.
//!   Hit/miss/eviction counters are reported through [`BddStats`];
//!   [`Bdd::clear_caches`] starts a new counter epoch.
//! * **Fused relational product.** [`Bdd::and_exists`] computes
//!   `∃ vars . f ∧ g` without materialising the conjunction (early
//!   quantification), which is what makes partitioned transition relations
//!   pay off in the symbolic model checker.
//! * **Variable reordering on request.** A variable's identity ([`Var`]) is
//!   distinct from its *level* (its position in the order, see
//!   [`Bdd::level_of_var`]). [`Bdd::swap_adjacent_levels`] exchanges two
//!   adjacent levels in place without invalidating any [`Ref`], and
//!   [`Bdd::reorder`] runs Rudell sifting on top — as *group sifting* when
//!   blocks of variables (e.g. current/primed pairs) are registered with
//!   [`Bdd::set_groups`], so the pairs a transition relation relies on stay
//!   adjacent. `reorder` follows the same rooting contract as [`Bdd::gc`].
//!   Nothing in the manager triggers it: the symbolic layer ships a static
//!   order and sifts only when a caller asks.
//! * **Static interleaved ordering.** [`interleaved_order`] and
//!   [`interleaved_slot`] compute an agent-interleaved variable order;
//!   [`Bdd::set_order`] installs a client's order up front.
//! * **Cooperative cancellation.** A [`Budget`] installed with
//!   [`Bdd::set_budget`] bounds a computation by wall-clock deadline,
//!   live-node ceiling and operation fuel. The budget is polled on
//!   op-cache misses and at the GC/reorder safe points — exactly where the
//!   manager's invariants hold — and a trip unwinds a typed
//!   [`BddError::BudgetExceeded`] that [`catch_budget`] converts back into
//!   a `Result` at the engine boundary. The manager is guaranteed
//!   structurally valid after an abort, so callers may keep or discard it.
//! * **Snapshot persistence.** [`Bdd::snapshot`] serializes the whole
//!   manager (node store, learned order, groups, counters, plus caller
//!   roots and words) into a versioned, checksummed binary format — the
//!   one snapshot format of the workspace — and
//!   [`Bdd::restore`] decodes it with full revalidation of the canonicity
//!   invariants — precomputed models survive process restarts. See the
//!   `snapshot` module docs for the byte layout and version policy.
//!
//! # Example
//!
//! ```
//! use epimc_bdd::{Bdd, Var};
//!
//! let mut bdd = Bdd::new();
//! let x = bdd.var(Var::new(0));
//! let y = bdd.var(Var::new(1));
//! let both = bdd.and(x, y);
//! let either = bdd.or(x, y);
//! let implies = bdd.implies(both, either);
//! assert_eq!(implies, bdd.constant(true));
//! assert_eq!(bdd.sat_count(both, 2), 1);
//!
//! // Sweep garbage, keeping (and remapping) the handles we still use.
//! let mut roots = [both, either];
//! bdd.gc(roots.iter_mut());
//! let [both, _either] = roots;
//! assert_eq!(bdd.sat_count(both, 2), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod budget;
mod cache;
mod cubes;
mod manager;
mod ops;
mod order;
mod reorder;
mod sat;
mod snapshot;
mod store;

pub use budget::{catch_budget, BddError, Budget, BudgetReason};
pub use cubes::{Cube, Literal};
pub use manager::{Bdd, BddStats, GcStats, Ref, Var, DEFAULT_CACHE_CAPACITY};
pub use ops::SubstId;
pub use order::{interleaved_order, interleaved_slot};
pub use reorder::{ReorderPolicy, ReorderStats};
pub use snapshot::{reseal_snapshot, SnapshotError, SNAPSHOT_VERSION};

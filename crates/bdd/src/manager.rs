//! The BDD manager: hash-consed node store with complement edges, core
//! boolean operations, and mark-and-sweep garbage collection.
//!
//! # Complement edges
//!
//! A [`Ref`] packs a node-slot index and a *complement bit*: the reference
//! with the bit set denotes the **negation** of the function stored at the
//! slot. There is a single terminal node ⊤ at slot 0 — [`Ref::TRUE`] is the
//! regular edge to it and [`Ref::FALSE`] the complemented one — and
//! [`Bdd::not`] is an O(1) bit flip that allocates nothing.
//!
//! Complement edges break canonicity unless one of the two equivalent
//! representations of every function is chosen once and for all. The
//! convention here (the usual one) is that **the stored then/high edge of a
//! node is never complemented**: when [`Bdd::mk`] is asked for a node whose
//! high edge carries the bit, it builds the node for the pointwise negation
//! (both children flipped) and returns the complemented reference to it.
//! With that rule, equality of [`Ref`]s — bit included — still coincides
//! with logical equivalence. The whole-store invariant is checkable via
//! [`Bdd::check_canonical_invariant`].

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::cache::{BoundedCache, FxHashSet, FxHasher};
use crate::store::NodeStore;

/// A BDD variable, identified by a stable index.
///
/// A variable's *identity* (this index) is distinct from its *level* — its
/// current position in the manager's variable order. A freshly seen variable
/// is placed at the next free level (so without reordering, level and index
/// coincide), and [`Bdd::reorder`] / [`Bdd::swap_adjacent_levels`] move
/// variables between levels without changing their identity. Query the
/// current position with [`Bdd::level_of_var`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given (stable) index.
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// The stable index of the variable (its identity, *not* its level).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A reference to a BDD node owned by a [`Bdd`] manager, together with a
/// complement bit (see the module documentation).
///
/// References are only meaningful relative to the manager that produced them;
/// mixing references from different managers yields unspecified (but memory
/// safe) results.
///
/// # Validity across garbage collection and reordering
///
/// A `Ref` stays valid until the next call to [`Bdd::gc`]. A collection
/// *remaps* every reference passed to it as a root — or, through
/// [`Bdd::gc_with_cache`], as a cache root — (in place, preserving its
/// complement bit) and invalidates every other non-terminal reference:
/// holding a non-rooted `Ref` across a `gc()` and using it afterwards is
/// memory safe but yields an unspecified diagram. [`Bdd::reorder`] follows
/// the same rooting contract, and in-place level swaps
/// ([`Bdd::swap_adjacent_levels`]) never invalidate references at all. The
/// terminals [`Ref::FALSE`] and [`Ref::TRUE`] are always valid and never
/// remapped.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ref(u32);

impl Ref {
    /// The constant `true`: the regular edge to the terminal.
    pub const TRUE: Ref = Ref(0);
    /// The constant `false`: the complemented edge to the terminal.
    pub const FALSE: Ref = Ref(1);

    /// The node-slot index this reference points at.
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// The regular (uncomplemented) reference to node slot `index`.
    pub(crate) fn from_index(index: usize) -> Ref {
        let slot = u32::try_from(index).expect("BDD node count overflow");
        assert!(slot <= u32::MAX >> 1, "BDD node count overflow");
        Ref(slot << 1)
    }

    /// Whether the complement bit is set.
    #[inline]
    pub(crate) fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// The same node with the complement bit flipped: the negation.
    #[inline]
    pub(crate) fn negate(self) -> Ref {
        Ref(self.0 ^ 1)
    }

    /// The same node with the complement bit cleared.
    #[inline]
    pub(crate) fn regular(self) -> Ref {
        Ref(self.0 & !1)
    }

    /// This reference seen *through* an edge carrying `parent`'s complement
    /// bit: XORs the parity down so traversals resolve complements locally.
    #[inline]
    pub(crate) fn through(self, parent: Ref) -> Ref {
        Ref(self.0 ^ (parent.0 & 1))
    }

    /// Returns `true` when this reference denotes a constant (either edge
    /// to the terminal node).
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// The packed on-disk representation: slot index shifted left one with
    /// the complement bit in bit 0. Used by the snapshot encoder.
    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a reference from its packed representation. The snapshot
    /// decoder bounds-checks the slot index before trusting the result.
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Ref {
        Ref(raw)
    }
}

impl fmt::Debug for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Ref::TRUE => write!(f, "@true"),
            Ref::FALSE => write!(f, "@false"),
            Ref(raw) if raw & 1 == 0 => write!(f, "@{}", raw >> 1),
            Ref(raw) => write!(f, "~@{}", raw >> 1),
        }
    }
}

/// A stored node triple: the unique-table key. Under the complement-edge
/// convention `high` is never complemented (the low edge may be).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub(crate) var: Var,
    pub(crate) low: Ref,
    pub(crate) high: Ref,
}

/// Statistics about a manager, exposed for benchmarking and for reporting
/// the "BDD blow-up" behaviour discussed in Section 13 of the paper.
///
/// Node counters (`allocated_nodes`, `live_nodes`, `peak_live_nodes`,
/// `gc_runs`, `swept_nodes`) are cumulative over the lifetime of the
/// manager. Cache counters (`*_cache_hits`, `cache_misses`,
/// `cache_evictions`) count since the last [`Bdd::clear_caches`], which
/// starts a new statistics *epoch*; [`Bdd::gc`] clears cache entries but
/// does **not** end the epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Total number of nodes ever allocated (including the terminal and
    /// nodes since swept by [`Bdd::gc`]).
    pub allocated_nodes: usize,
    /// Number of nodes currently in the store.
    pub live_nodes: usize,
    /// Largest number of simultaneously live nodes ever observed.
    pub peak_live_nodes: usize,
    /// Negations answered in O(1) by flipping the complement bit, without
    /// allocating or traversing anything.
    pub o1_negations: u64,
    /// Number of [`Bdd::gc`] runs.
    pub gc_runs: u64,
    /// Total number of nodes reclaimed by garbage collection.
    pub swept_nodes: u64,
    /// Number of entries currently held in the operation caches.
    pub cache_entries: usize,
    /// Total capacity of the operation caches (the memory bound).
    pub cache_capacity: usize,
    /// `ite` computations answered from the cache this epoch.
    pub ite_cache_hits: u64,
    /// `exists` computations answered from the cache this epoch.
    pub exists_cache_hits: u64,
    /// `replace` computations answered from the cache this epoch.
    pub replace_cache_hits: u64,
    /// Fused `and_exists` computations answered from the cache this epoch.
    pub and_exists_cache_hits: u64,
    /// Cache lookups that missed this epoch (all operations).
    pub cache_misses: u64,
    /// Entries overwritten by colliding inserts this epoch (all operations).
    pub cache_evictions: u64,
    /// Number of [`Bdd::reorder`] runs over the lifetime of the manager.
    pub reorder_runs: u64,
    /// Total adjacent-level swaps performed by reordering (both
    /// [`Bdd::reorder`] sifting passes and explicit
    /// [`Bdd::swap_adjacent_levels`] calls), lifetime-cumulative.
    pub reorder_swaps: u64,
    /// Number of [`Bdd::relational_product`] calls (the checker's forward
    /// image steps; its pre-images use plain [`Bdd::and_exists`]),
    /// lifetime-cumulative.
    pub relational_product_calls: u64,
    /// Cache hits observed inside [`Bdd::relational_product`] calls,
    /// lifetime-cumulative (a subset of the per-epoch cache hit counters).
    pub image_cache_hits: u64,
    /// Cache misses observed inside [`Bdd::relational_product`] calls,
    /// lifetime-cumulative.
    pub image_cache_misses: u64,
}

impl BddStats {
    /// Total cache hits across all memoised operations this epoch.
    pub fn total_cache_hits(&self) -> u64 {
        self.ite_cache_hits
            + self.exists_cache_hits
            + self.replace_cache_hits
            + self.and_exists_cache_hits
    }

    /// Fraction of cache lookups answered from the cache this epoch, in
    /// `[0, 1]`; `0` when no lookups were made.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.total_cache_hits();
        let lookups = hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

/// Statistics returned by one [`Bdd::gc`] / [`Bdd::gc_with_cache`] /
/// [`Bdd::gc_shrink`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes that survived the sweep (including the terminal).
    pub live_nodes: usize,
    /// Nodes reclaimed by the sweep.
    pub swept_nodes: usize,
    /// Survivors that only cache roots reach: what dropping the cache and
    /// collecting again would reclaim. Zero for [`Bdd::gc`].
    pub cache_only_nodes: usize,
}

/// Default number of slots in the `ite` cache; the other operation caches
/// are a quarter of this size. See [`Bdd::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// A binary decision diagram manager.
///
/// All diagrams produced by a manager share structure through a unique table,
/// so equality of [`Ref`]s coincides with logical equivalence of the functions
/// they denote (canonicity of ROBDDs with complement edges; see the module
/// documentation for the complement convention).
///
/// The operation caches are capacity-bounded (direct-mapped with overwrite
/// on collision), so the manager's memory beyond the node store itself is
/// fixed; [`Bdd::gc`] reclaims unreachable nodes given the set of live
/// external references.
pub struct Bdd {
    pub(crate) store: NodeStore,
    pub(crate) unique: HashMap<Node, Ref, BuildHasherDefault<FxHasher>>,
    pub(crate) ite_cache: BoundedCache<(Ref, Ref, Ref)>,
    pub(crate) exists_cache: BoundedCache<(Ref, Ref)>,
    pub(crate) replace_cache: BoundedCache<(Ref, u32)>,
    pub(crate) and_exists_cache: BoundedCache<(Ref, Ref, Ref)>,
    /// Per registered substitution, the target of each variable by index
    /// (itself when unmapped; variables past the end are unmapped too).
    pub(crate) substitutions: Vec<Vec<Var>>,
    /// `level_of[var.index()]` is the variable's current level; smaller
    /// levels are tested closer to the root. Always a permutation of
    /// `0..level_of.len()`, with `var_at` its inverse.
    pub(crate) level_of: Vec<u32>,
    /// `var_at[level]` is the index of the variable currently at `level`.
    pub(crate) var_at: Vec<u32>,
    /// Variable groups moved as blocks by group sifting; see
    /// [`Bdd::set_groups`].
    pub(crate) groups: Vec<Vec<Var>>,
    pub(crate) peak_live_nodes: usize,
    pub(crate) o1_negations: u64,
    pub(crate) gc_runs: u64,
    pub(crate) swept_nodes: u64,
    pub(crate) reorder_runs: u64,
    pub(crate) reorder_swaps: u64,
    pub(crate) relational_product_calls: u64,
    pub(crate) image_cache_hits: u64,
    pub(crate) image_cache_misses: u64,
    /// Optional resource budget; see [`Bdd::set_budget`]. `None` makes
    /// every charge/poll a no-op.
    pub(crate) budget: Option<crate::Budget>,
    /// Budgeted operations (op-cache misses) since the budget was
    /// installed; also paces the periodic deadline/node polls.
    pub(crate) budget_ops: u64,
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdd {
    /// Creates an empty manager containing only the terminal node, with
    /// the default cache capacity.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// [`Bdd::with_cache_capacity`], spelled with the complement-edge flag
    /// the manager once took. Complement edges are the only representation,
    /// so the flag must be `true`; the signature stays for existing callers.
    ///
    /// # Panics
    ///
    /// Panics if `complement` is `false`: the two-terminal representation
    /// was removed.
    pub fn with_settings(capacity: usize, complement: bool) -> Self {
        assert!(complement, "the two-terminal representation (complement edges off) was removed");
        Self::with_cache_capacity(capacity)
    }

    /// Creates an empty manager whose `ite` cache holds at most `capacity`
    /// entries (rounded up to a power of two); the `exists`, `replace` and
    /// `and_exists` caches hold a quarter of that each.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        let secondary = (capacity / 4).max(2);
        Bdd {
            store: NodeStore::new(),
            unique: HashMap::default(),
            ite_cache: BoundedCache::new(capacity),
            exists_cache: BoundedCache::new(secondary),
            replace_cache: BoundedCache::new(secondary),
            and_exists_cache: BoundedCache::new(secondary),
            substitutions: Vec::new(),
            level_of: Vec::new(),
            var_at: Vec::new(),
            groups: Vec::new(),
            peak_live_nodes: 1,
            o1_negations: 0,
            gc_runs: 0,
            swept_nodes: 0,
            reorder_runs: 0,
            reorder_swaps: 0,
            relational_product_calls: 0,
            image_cache_hits: 0,
            image_cache_misses: 0,
            budget: None,
            budget_ops: 0,
        }
    }

    /// Installs (or clears, with `None`) a resource
    /// [`Budget`](crate::Budget). The budget
    /// is polled cooperatively: on op-cache misses and at the GC/reorder
    /// safe points. When a limit trips the manager unwinds a typed
    /// [`BddError`](crate::BddError) — catch it at the engine boundary with
    /// [`catch_budget`](crate::catch_budget); the manager is structurally
    /// valid afterwards (polls only happen between complete updates).
    /// Installing a budget resets the operation counter.
    pub fn set_budget(&mut self, budget: Option<crate::Budget>) {
        if budget.is_some() {
            crate::budget::install_quiet_budget_hook();
        }
        self.budget = budget;
        self.budget_ops = 0;
    }

    /// The currently installed budget, if any.
    pub fn budget(&self) -> Option<crate::Budget> {
        self.budget
    }

    /// Budgeted operations (op-cache misses) performed since the current
    /// budget was installed.
    pub fn budget_ops(&self) -> u64 {
        self.budget_ops
    }

    /// Charges one budgeted operation (called on every op-cache miss).
    /// Checks the fuel limit immediately and runs the full deadline/node
    /// poll every 1024 charges, keeping the hot path at a counter bump.
    #[inline(always)] // on `ite`'s miss path: see the comment there
    pub(crate) fn charge_op(&mut self) {
        let Some(budget) = self.budget else { return };
        self.budget_ops += 1;
        if let Some(max_ops) = budget.max_ops {
            if self.budget_ops > max_ops {
                self.budget_trip(crate::BudgetReason::Ops);
            }
        }
        if self.budget_ops & 0x3FF == 0 {
            self.poll_budget();
        }
    }

    /// Polls the installed budget now (deadline, live-node ceiling, fuel),
    /// unwinding a typed [`BddError`](crate::BddError) if a limit has
    /// tripped. A no-op without a budget. Called automatically at the
    /// GC/reorder safe points; callers with their own long cache-hit
    /// phases may poll explicitly.
    pub fn poll_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        if let Some(deadline) = budget.deadline {
            if std::time::Instant::now() >= deadline {
                self.budget_trip(crate::BudgetReason::Deadline);
            }
        }
        if let Some(max_live) = budget.max_live_nodes {
            if self.store.live() > max_live {
                self.budget_trip(crate::BudgetReason::LiveNodes);
            }
        }
        if let Some(max_ops) = budget.max_ops {
            if self.budget_ops > max_ops {
                self.budget_trip(crate::BudgetReason::Ops);
            }
        }
    }

    #[cold]
    fn budget_trip(&self, reason: crate::BudgetReason) -> ! {
        std::panic::panic_any(crate::BddError::BudgetExceeded {
            reason,
            ops: self.budget_ops,
            live_nodes: self.store.live(),
        })
    }

    /// Makes sure `var` (and every variable of smaller index) has a level.
    /// Fresh variables are appended below every existing level in index
    /// order, so a manager that never reorders tests variables in index
    /// order — the pre-reordering behaviour.
    pub(crate) fn ensure_var(&mut self, var: Var) {
        debug_assert_ne!(var.0, u32::MAX, "the terminal pseudo-variable has no level");
        let len = self.level_of.len() as u32;
        for index in len..=var.0 {
            self.level_of.push(index);
            self.var_at.push(index);
        }
    }

    /// The current level of `var`: its position in the variable order,
    /// smaller levels closer to the root. A variable the manager has not
    /// seen yet reports the level it *would* get (its index — fresh
    /// variables are appended in index order), so the answer is stable
    /// whether or not the variable has been materialised.
    pub fn level_of_var(&self, var: Var) -> u32 {
        match self.level_of.get(var.0 as usize) {
            Some(&level) => level,
            // Unseen variables (and the terminal pseudo-variable u32::MAX)
            // sit at their index, below every assigned level.
            None => var.0,
        }
    }

    /// The variable currently at `level`.
    ///
    /// # Panics
    ///
    /// Panics if no variable has been placed at `level` yet.
    pub fn var_at_level(&self, level: u32) -> Var {
        Var(self.var_at[level as usize])
    }

    /// Number of levels (= number of distinct variables seen so far).
    pub fn num_levels(&self) -> usize {
        self.var_at.len()
    }

    /// The current variable order, root-most level first.
    pub fn current_order(&self) -> Vec<Var> {
        self.var_at.iter().map(|&index| Var(index)).collect()
    }

    /// Sets the initial variable order: `order[k]` becomes the variable at
    /// level `k` (the list also materialises its variables). Unlike
    /// [`Bdd::reorder`], this permutes the level bookkeeping directly, so it
    /// is only sound while the manager holds no interior nodes — a client
    /// that knows a good order (e.g. a transition relation interleaving
    /// inputs with the state bits they feed) installs it up front instead of
    /// hoping dynamic reordering discovers it.
    ///
    /// # Panics
    ///
    /// Panics if an interior node already exists, if `order` skips or
    /// repeats a variable, or if it omits a variable the manager has
    /// already levelled. Internal callers that construct the order
    /// themselves use this wrapper; code handling external input (e.g. the
    /// snapshot-restore path) goes through [`Bdd::try_set_order`] instead.
    pub fn set_order(&mut self, order: Vec<Var>) {
        if let Err(message) = self.try_set_order(order) {
            panic!("{message}");
        }
    }

    /// Fallible [`Bdd::set_order`]: validates the order and returns a
    /// descriptive error instead of aborting, so a server can turn a bad
    /// order (e.g. from a corrupt snapshot or a malformed request) into a
    /// request-level failure. On error the level bookkeeping is untouched
    /// except that variables mentioned in `order` may have been
    /// materialised at their default (index-order) levels.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation: interior nodes
    /// already exist, the order skips or omits a variable, or it lists a
    /// variable twice.
    pub fn try_set_order(&mut self, order: Vec<Var>) -> Result<(), String> {
        if self.store.live() != 1 {
            return Err("set_order requires a manager without interior nodes".to_string());
        }
        for &var in &order {
            self.ensure_var(var);
        }
        if order.len() != self.num_levels() {
            return Err(format!(
                "set_order must list every variable exactly once \
                 ({} listed, {} materialised)",
                order.len(),
                self.num_levels()
            ));
        }
        let mut seen = vec![false; order.len()];
        for &var in &order {
            if seen[var.0 as usize] {
                return Err(format!("variable {var} listed twice in set_order"));
            }
            seen[var.0 as usize] = true;
        }
        for (level, &var) in order.iter().enumerate() {
            self.level_of[var.0 as usize] = level as u32;
            self.var_at[level] = var.0;
        }
        Ok(())
    }

    /// The level of the variable tested by node `r` (`u32::MAX` for the
    /// terminals, which sit below every variable).
    #[inline(always)] // on `ite`'s miss path: see the comment there
    pub(crate) fn node_level(&self, r: Ref) -> u32 {
        let var = self.store.var(r.index());
        if var.0 == u32::MAX {
            u32::MAX
        } else {
            self.level_of[var.0 as usize]
        }
    }

    /// The level of `var`, which must already be materialised (internal
    /// fast path without the unseen-variable fallback).
    #[inline]
    pub(crate) fn level(&self, var: Var) -> u32 {
        if var.0 == u32::MAX {
            u32::MAX
        } else {
            self.level_of[var.0 as usize]
        }
    }

    /// Returns the terminal node for the given boolean constant.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    /// Returns the diagram for the single variable `var`.
    pub fn var(&mut self, var: Var) -> Ref {
        self.mk(var, Ref::FALSE, Ref::TRUE)
    }

    /// Returns the diagram for the negation of the single variable `var`.
    pub fn nvar(&mut self, var: Var) -> Ref {
        self.mk(var, Ref::TRUE, Ref::FALSE)
    }

    /// Returns the diagram for a literal: `var` if `positive`, else `!var`.
    pub fn literal(&mut self, var: Var, positive: bool) -> Ref {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    pub(crate) fn node_var(&self, r: Ref) -> Var {
        self.store.var(r.index())
    }

    /// The low (else) child of `r`, complement-resolved: `r`'s own bit is
    /// XORed onto the stored edge, so recursive algorithms decompose
    /// `f = ite(var, high, low)` without handling parity themselves.
    #[inline]
    pub(crate) fn node_low(&self, r: Ref) -> Ref {
        self.store.low(r.index()).through(r)
    }

    /// The high (then) child of `r`, complement-resolved (see
    /// [`Bdd::node_low`]).
    #[inline]
    pub(crate) fn node_high(&self, r: Ref) -> Ref {
        self.store.high(r.index()).through(r)
    }

    /// Creates (or finds) the node `ITE(var, high, low)`, applying the
    /// standard reduction rules and the complement-edge canonicalization:
    /// a complemented high edge is never stored — the node is built with
    /// both children negated and the complemented reference returned.
    pub(crate) fn mk(&mut self, var: Var, low: Ref, high: Ref) -> Ref {
        if low == high {
            return low;
        }
        self.ensure_var(var);
        // The ordering invariant at the source: both children must sit
        // strictly below the parent's *level* (not its raw index) — the
        // first thing an incorrect level swap would violate.
        debug_assert!(
            self.node_level(low) > self.level(var) && self.node_level(high) > self.level(var),
            "node ordering violated: {var:?} (level {}) over children at levels {} and {}",
            self.level(var),
            self.node_level(low),
            self.node_level(high),
        );
        let negate = high.is_complement();
        let (low, high) = if negate { (low.negate(), high.negate()) } else { (low, high) };
        let node = Node { var, low, high };
        // `get` then `insert`, not `entry`: the entry API measured about
        // 20 % slower here (global_check, alternating pairs).
        if let Some(&existing) = self.unique.get(&node) {
            return if negate { existing.negate() } else { existing };
        }
        let slot = self.store.alloc(node);
        let r = Ref::from_index(slot);
        self.unique.insert(node, r);
        self.peak_live_nodes = self.peak_live_nodes.max(self.store.live());
        if negate {
            r.negate()
        } else {
            r
        }
    }

    /// Checks the whole-store canonicity invariant: every occupied slot
    /// stores a non-redundant node whose children sit strictly below it in
    /// the level order and whose high edge is regular (the complement
    /// convention), and the unique table maps each
    /// stored triple back to its slot. Returns a description of the first
    /// violation. O(n); meant for tests and `debug_assert!`s.
    pub fn check_canonical_invariant(&self) -> Result<(), String> {
        for slot in 1..self.store.len() {
            if self.store.is_free(slot) {
                continue;
            }
            let node = self.store.get(slot);
            if node.low == node.high {
                return Err(format!("slot {slot} is redundant: both children are {:?}", node.low));
            }
            if node.high.is_complement() {
                return Err(format!(
                    "slot {slot} violates the complement convention: low {:?}, high {:?}",
                    node.low, node.high
                ));
            }
            let level = self.level(node.var);
            if self.node_level(node.low) <= level || self.node_level(node.high) <= level {
                return Err(format!(
                    "slot {slot} ({:?}, level {level}) has children at levels {} and {}",
                    node.var,
                    self.node_level(node.low),
                    self.node_level(node.high)
                ));
            }
            match self.unique.get(&node) {
                Some(&r) if r.index() == slot && !r.is_complement() => {}
                other => {
                    return Err(format!(
                        "unique table maps slot {slot}'s triple to {other:?} instead of itself"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Builds the conjunction of literals over *distinct* variables as a
    /// single chain of nodes, in level order — each step is O(1) regardless
    /// of the current variable order, unlike a fold of `and`s over an
    /// arbitrary literal order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if two literals mention the same variable.
    pub fn cube_literals<I: IntoIterator<Item = (Var, bool)>>(&mut self, literals: I) -> Ref {
        let mut literals: Vec<(Var, bool)> = literals.into_iter().collect();
        for &(var, _) in &literals {
            self.ensure_var(var);
        }
        literals.sort_unstable_by_key(|&(var, _)| self.level(var));
        debug_assert!(
            literals.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "cube_literals mentions a variable twice"
        );
        let mut acc = Ref::TRUE;
        for (var, positive) in literals.into_iter().rev() {
            acc = if positive {
                self.mk(var, Ref::FALSE, acc)
            } else {
                self.mk(var, acc, Ref::FALSE)
            };
        }
        acc
    }

    /// If-then-else: the function `if f then g else h`.
    ///
    /// All binary boolean operations are implemented in terms of this
    /// operation, which is memoised (a dedicated two-operand `and`/`or`
    /// recursion was tried and gained only about 3 % on global_check).
    /// The call is normalised before the cache is consulted (first operand
    /// regular, then-operand regular), so `ite(f, g, h)` and
    /// `¬ite(¬f, ¬h, ¬g)` share one cache entry.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f == Ref::TRUE {
            return g;
        }
        if f == Ref::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        let mut f = f;
        let mut g = g;
        let mut h = h;
        // Operand identities: an operand equal to the condition or to its
        // negation is a constant on each branch.
        if g == f {
            g = Ref::TRUE;
        } else if g == f.negate() {
            g = Ref::FALSE;
        }
        if h == f {
            h = Ref::FALSE;
        } else if h == f.negate() {
            h = Ref::TRUE;
        }
        if g == h {
            return g;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return f;
        }
        if g == Ref::FALSE && h == Ref::TRUE {
            return f.negate();
        }
        // Canonicalize the cache key: condition regular, then-branch
        // regular (the complement is pulled out of the result).
        if f.is_complement() {
            f = f.negate();
            std::mem::swap(&mut g, &mut h);
        }
        let negate = g.is_complement();
        if negate {
            g = g.negate();
            h = h.negate();
        }
        if let Some(cached) = self.ite_cache.get(&(f, g, h)) {
            return if negate { cached.negate() } else { cached };
        }
        // The miss path sits behind a chain of early returns that LLVM's
        // static branch weights rate as cold, and at a cold call site it
        // inlines almost nothing: `charge_op`, `node_level`, `cofactors`
        // and the cache insert would stay calls on the kernel's hottest
        // recursion (5–8 % of the reference benchmark's `global_check` and
        // `local_lazy` pass wall, 2-core AMD EPYC), so they are
        // `#[inline(always)]`.
        self.charge_op();
        // The top variable is the one at the root-most *level* among the
        // three operands (`f` is never terminal here, so the minimum is a
        // real level and `var_at` covers it).
        let top_level = self.node_level(f).min(self.node_level(g)).min(self.node_level(h));
        let top = Var(self.var_at[top_level as usize]);
        let (f_lo, f_hi) = self.cofactors(f, top);
        let (g_lo, g_hi) = self.cofactors(g, top);
        let (h_lo, h_hi) = self.cofactors(h, top);
        let low = self.ite(f_lo, g_lo, h_lo);
        let high = self.ite(f_hi, g_hi, h_hi);
        let result = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), result);
        if negate {
            result.negate()
        } else {
            result
        }
    }

    #[inline(always)] // on `ite`'s miss path: see the comment there
    pub(crate) fn cofactors(&self, r: Ref, var: Var) -> (Ref, Ref) {
        if r.is_terminal() || self.node_var(r) != var {
            (r, r)
        } else {
            (self.node_low(r), self.node_high(r))
        }
    }

    /// Logical negation: an O(1) complement-bit flip that allocates no
    /// nodes.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.o1_negations += 1;
        f.negate()
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Material implication `f ⇒ g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
    }

    /// Biconditional `f ⇔ g`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Conjunction of an iterator of diagrams (`true` for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::TRUE;
        for item in items {
            acc = self.and(acc, item);
            if acc == Ref::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of diagrams (`false` for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::FALSE;
        for item in items {
            acc = self.or(acc, item);
            if acc == Ref::TRUE {
                break;
            }
        }
        acc
    }

    /// Number of distinct store slots in the diagram rooted at `f`,
    /// including the terminal when it is reached. Both polarities of a
    /// shared node count once — with complement edges, a function and its
    /// negation occupy the same nodes.
    pub fn node_count(&self, f: Ref) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if !seen.insert(r.index()) || r.is_terminal() {
                continue;
            }
            stack.push(self.node_low(r));
            stack.push(self.node_high(r));
        }
        seen.len()
    }

    /// Number of nodes currently in the store (the terminal included).
    pub fn live_nodes(&self) -> usize {
        self.store.live()
    }

    /// Manager-wide statistics, in O(1): every field is a maintained
    /// counter, none scans the store. See [`BddStats`] for which counters
    /// are lifetime-cumulative and which are per-epoch.
    pub fn stats(&self) -> BddStats {
        let caches = [
            &self.ite_cache.counters,
            &self.exists_cache.counters,
            &self.replace_cache.counters,
            &self.and_exists_cache.counters,
        ];
        BddStats {
            allocated_nodes: self.store.live() + self.swept_nodes as usize,
            live_nodes: self.store.live(),
            peak_live_nodes: self.peak_live_nodes,
            o1_negations: self.o1_negations,
            gc_runs: self.gc_runs,
            swept_nodes: self.swept_nodes,
            cache_entries: self.ite_cache.len()
                + self.exists_cache.len()
                + self.replace_cache.len()
                + self.and_exists_cache.len(),
            cache_capacity: self.ite_cache.capacity()
                + self.exists_cache.capacity()
                + self.replace_cache.capacity()
                + self.and_exists_cache.capacity(),
            ite_cache_hits: self.ite_cache.counters.hits,
            exists_cache_hits: self.exists_cache.counters.hits,
            replace_cache_hits: self.replace_cache.counters.hits,
            and_exists_cache_hits: self.and_exists_cache.counters.hits,
            cache_misses: caches.iter().map(|c| c.misses).sum(),
            cache_evictions: caches.iter().map(|c| c.evictions).sum(),
            reorder_runs: self.reorder_runs,
            reorder_swaps: self.reorder_swaps,
            relational_product_calls: self.relational_product_calls,
            image_cache_hits: self.image_cache_hits,
            image_cache_misses: self.image_cache_misses,
        }
    }

    /// Drops all memoisation caches **and resets the per-epoch cache
    /// counters** (hits, misses, evictions), so statistics reported after a
    /// clear describe exactly the work done since it — one *epoch*. The
    /// unique table is retained (canonicity is unaffected) and the lifetime
    /// node counters (`allocated_nodes`, `peak_live_nodes`, `gc_runs`,
    /// `swept_nodes`) keep accumulating. Useful between benchmark
    /// iterations.
    pub fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.ite_cache.reset_counters();
        self.and_exists_cache.clear();
        self.and_exists_cache.reset_counters();
        self.exists_cache.clear();
        self.exists_cache.reset_counters();
        self.replace_cache.clear();
        self.replace_cache.reset_counters();
    }

    fn clear_cache_entries(&mut self) {
        self.ite_cache.clear();
        self.and_exists_cache.clear();
        self.exists_cache.clear();
        self.replace_cache.clear();
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// Marks every node reachable from the given `roots`, sweeps the rest,
    /// compacts the node store (clearing the allocator free-list), rebuilds
    /// the unique table, and **remaps each root in place**, preserving its
    /// complement bit, so the caller's handles stay valid. Registered
    /// substitutions survive (they are variable-level); the operation caches
    /// are dropped because their entries mention swept references (their
    /// per-epoch counters keep counting — a collection does not end the
    /// statistics epoch).
    ///
    /// Every other non-terminal [`Ref`] held by the caller is invalidated;
    /// see the [`Ref`] documentation for the rooting contract.
    pub fn gc<'a, I: IntoIterator<Item = &'a mut Ref>>(&mut self, roots: I) -> GcStats {
        self.sweep(roots, [], false)
    }

    /// [`Bdd::gc`] with a second tier of roots: `cache_roots` are kept and
    /// remapped in place exactly like `roots` (complement bits included),
    /// but the nodes only they reach are reported apart, as
    /// [`GcStats::cache_only_nodes`], so a caller holding memoised diagrams
    /// can keep them without counting them as the size of its model. One
    /// mark pass over one stack: `roots` first, then `cache_roots`, so a
    /// node both tiers reach counts as root-held.
    pub fn gc_with_cache<'a, 'b, I, C>(&mut self, roots: I, cache_roots: C) -> GcStats
    where
        I: IntoIterator<Item = &'a mut Ref>,
        C: IntoIterator<Item = &'b mut Ref>,
    {
        self.sweep(roots, cache_roots, false)
    }

    /// [`Bdd::gc_with_cache`] that also returns the unique table to the
    /// survivors' size. A plain collection keeps the table's high-water
    /// capacity (the next build regrows into it); this one drops the old
    /// table before allocating the new one, so a manager that is done
    /// building — a warm model about to sit idle — holds no more table
    /// than its nodes need.
    pub fn gc_shrink<'a, 'b, I, C>(&mut self, roots: I, cache_roots: C) -> GcStats
    where
        I: IntoIterator<Item = &'a mut Ref>,
        C: IntoIterator<Item = &'b mut Ref>,
    {
        self.sweep(roots, cache_roots, true)
    }

    /// The one collector behind [`Bdd::gc`], [`Bdd::gc_with_cache`] and
    /// [`Bdd::gc_shrink`]; `shrink` right-sizes the unique table.
    fn sweep<'a, 'b, I, C>(&mut self, roots: I, cache_roots: C, shrink: bool) -> GcStats
    where
        I: IntoIterator<Item = &'a mut Ref>,
        C: IntoIterator<Item = &'b mut Ref>,
    {
        let root_slots: Vec<&'a mut Ref> = roots.into_iter().collect();
        let cache_slots: Vec<&'b mut Ref> = cache_roots.into_iter().collect();
        let live_before = self.store.live();
        // Mark, by slot index (both polarities of a node share a slot).
        let mut marked = vec![false; self.store.len()];
        marked[0] = true;
        let mut stack: Vec<usize> = root_slots.iter().map(|slot| (**slot).index()).collect();
        self.mark(&mut stack, &mut marked);
        stack.extend(cache_slots.iter().map(|slot| (**slot).index()));
        let cache_only_nodes = self.mark(&mut stack, &mut marked);
        // Sweep and compact in two passes: first assign every surviving node
        // its new slot, then rebuild with children remapped through the
        // complete table. (A single index-order pass would require children
        // to precede their parents, which level swaps do not preserve.)
        let mut remap: Vec<u32> = vec![u32::MAX; self.store.len()];
        let mut survivors = 0u32;
        for (index, &keep) in marked.iter().enumerate() {
            if keep {
                remap[index] = survivors;
                survivors = survivors.checked_add(1).expect("BDD node count overflow");
            }
        }
        let remapped = |r: Ref| Ref::from_index(remap[r.index()] as usize).through(r);
        let mut live = NodeStore::with_capacity(survivors as usize);
        live.push_terminal();
        for (index, &keep) in marked.iter().enumerate().skip(1) {
            if !keep {
                continue;
            }
            let node = self.store.get(index);
            live.push(Node { var: node.var, low: remapped(node.low), high: remapped(node.high) });
        }
        let swept = live_before - live.live();
        self.store = live;
        // Rebuild the unique table over the surviving nodes: in place, or
        // in a fresh table once the old one is freed.
        if shrink {
            self.unique = HashMap::default();
            self.unique.reserve(self.store.len() - 1);
        } else {
            self.unique.clear();
        }
        for slot in 1..self.store.len() {
            self.unique.insert(self.store.get(slot), Ref::from_index(slot));
        }
        // The caches mention dead references; drop the entries but keep the
        // epoch counters running. (Remapping the entries whose operands all
        // survive instead gave no measurable gain on global_check.)
        self.clear_cache_entries();
        // Remap the caller's roots (both tiers) in place, preserving each
        // root's own complement bit.
        for slot in root_slots {
            *slot = remapped(*slot);
        }
        for slot in cache_slots {
            *slot = remapped(*slot);
        }
        self.gc_runs += 1;
        self.swept_nodes += swept as u64;
        GcStats { live_nodes: self.store.live(), swept_nodes: swept, cache_only_nodes }
    }

    /// Marks every unmarked slot reachable from `stack` (draining it) and
    /// returns how many slots it newly marked.
    fn mark(&self, stack: &mut Vec<usize>, marked: &mut [bool]) -> usize {
        let mut newly = 0;
        while let Some(index) = stack.pop() {
            if marked[index] {
                continue;
            }
            marked[index] = true;
            newly += 1;
            stack.push(self.store.low(index).index());
            stack.push(self.store.high(index).index());
        }
        newly
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("nodes", &self.store.live())
            .field("cache", &self.ite_cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_distinct_terminals() {
        let bdd = Bdd::new();
        assert_eq!(bdd.constant(true), Ref::TRUE);
        assert_eq!(bdd.constant(false), Ref::FALSE);
        assert_ne!(Ref::TRUE, Ref::FALSE);
        assert!(Ref::TRUE.is_terminal());
        assert!(Ref::FALSE.is_terminal());
        // The two constants are the two polarities of the single terminal.
        assert_eq!(Ref::TRUE.negate(), Ref::FALSE);
        assert_eq!(bdd.live_nodes(), 1);
    }

    #[test]
    fn variables_are_canonical() {
        let mut bdd = Bdd::new();
        let x1 = bdd.var(Var::new(3));
        let x2 = bdd.var(Var::new(3));
        assert_eq!(x1, x2);
        let y = bdd.var(Var::new(4));
        assert_ne!(x1, y);
    }

    #[test]
    fn basic_boolean_algebra() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let nx = bdd.not(x);
        assert_eq!(bdd.and(x, nx), Ref::FALSE);
        assert_eq!(bdd.or(x, nx), Ref::TRUE);
        assert_eq!(bdd.and(x, Ref::TRUE), x);
        assert_eq!(bdd.or(x, Ref::FALSE), x);
        // Canonicity: x∧y built two ways is the same node.
        let a = bdd.and(x, y);
        let b = {
            let ny = bdd.not(y);
            let not_either = bdd.or(nx, ny);
            bdd.not(not_either)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn xor_iff_implies() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let x_xor_y = bdd.xor(x, y);
        let x_iff_y = bdd.iff(x, y);
        assert_eq!(bdd.not(x_xor_y), x_iff_y);
        let imp = bdd.implies(x, y);
        let nx = bdd.not(x);
        let expected = bdd.or(nx, y);
        assert_eq!(imp, expected);
    }

    #[test]
    fn and_all_or_all() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| bdd.var(Var::new(i))).collect();
        let all = bdd.and_all(vars.clone());
        let any = bdd.or_all(vars.clone());
        assert_eq!(bdd.sat_count(all, 4), 1);
        assert_eq!(bdd.sat_count(any, 4), 15);
        assert_eq!(bdd.and_all([]), Ref::TRUE);
        assert_eq!(bdd.or_all([]), Ref::FALSE);
    }

    #[test]
    fn literal_builder() {
        let mut bdd = Bdd::new();
        let pos = bdd.literal(Var::new(2), true);
        let neg = bdd.literal(Var::new(2), false);
        assert_eq!(bdd.not(pos), neg);
    }

    #[test]
    fn node_count_reflects_sharing() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        // Slots: the x-node, the y-node, and the shared terminal.
        assert_eq!(bdd.node_count(f), 3);
        assert_eq!(bdd.node_count(Ref::TRUE), 1);
        // A function and its negation share every node.
        let nf = bdd.not(f);
        assert_eq!(bdd.node_count(nf), bdd.node_count(f));
    }

    #[test]
    fn negation_is_free_and_involutive() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.xor(x, y);
        let live = bdd.live_nodes();
        let nf = bdd.not(f);
        assert_eq!(bdd.live_nodes(), live, "negation must not allocate");
        assert_ne!(nf, f);
        assert_eq!(bdd.not(nf), f);
        assert!(bdd.stats().o1_negations >= 2);
    }

    #[test]
    fn stats_and_cache_clearing_starts_a_new_epoch() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let _ = bdd.and(x, y);
        let _ = bdd.and(x, y);
        assert!(bdd.stats().allocated_nodes >= 4);
        assert!(bdd.stats().cache_entries > 0);
        assert!(bdd.stats().ite_cache_hits > 0);
        assert!(bdd.stats().cache_misses > 0);
        bdd.clear_caches();
        let stats = bdd.stats();
        assert_eq!(stats.cache_entries, 0);
        assert_eq!(stats.ite_cache_hits, 0, "clear_caches starts a new epoch");
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.cache_evictions, 0);
        // Operations still work after clearing caches, and the new epoch
        // counts its own hits.
        assert_eq!(bdd.and(x, y), bdd.and(y, x));
        let _ = bdd.and(x, y);
        assert!(bdd.stats().ite_cache_hits > 0);
    }

    #[test]
    fn peak_live_nodes_tracks_high_water_mark() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..6).map(|i| bdd.var(Var::new(i))).collect();
        let mut all = bdd.and_all(vars.clone());
        let peak = bdd.stats().peak_live_nodes;
        assert!(peak >= 8);
        assert_eq!(peak, bdd.live_nodes());
        // Sweeping garbage lowers live nodes but not the peak.
        bdd.gc([&mut all]);
        assert!(bdd.live_nodes() <= peak);
        assert_eq!(bdd.stats().peak_live_nodes, peak);
    }

    #[test]
    fn gc_remaps_roots_and_sweeps_garbage() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let mut keep = bdd.and(x, y);
        let keep_count = bdd.node_count(keep);
        // Build garbage that shares nothing with `keep`.
        let g1 = bdd.xor(y, z);
        let _g2 = bdd.or(g1, z);
        let before = bdd.live_nodes();
        let gc = bdd.gc([&mut keep]);
        assert_eq!(gc.live_nodes, bdd.live_nodes());
        assert!(gc.swept_nodes > 0, "garbage must be reclaimed");
        assert!(bdd.live_nodes() < before);
        assert_eq!(bdd.live_nodes(), keep_count);
        // The rooted diagram still denotes x ∧ y.
        assert!(bdd.eval_bits(keep, &[true, true]));
        assert!(!bdd.eval_bits(keep, &[true, false]));
        // Canonicity survives: rebuilding x ∧ y finds the same node.
        let x2 = bdd.var(Var::new(0));
        let y2 = bdd.var(Var::new(1));
        assert_eq!(bdd.and(x2, y2), keep);
        assert_eq!(bdd.stats().gc_runs, 1);
        assert_eq!(bdd.stats().swept_nodes, gc.swept_nodes as u64);
        // Cumulative allocation counts swept nodes.
        assert_eq!(bdd.stats().allocated_nodes, bdd.live_nodes() + gc.swept_nodes);
    }

    #[test]
    fn gc_preserves_the_complement_bit_of_roots() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        let mut nf = bdd.not(f);
        let g1 = bdd.xor(x, y);
        let _g2 = bdd.or(g1, y);
        bdd.gc([&mut nf]);
        // ¬(x∧y) still evaluates as such after the sweep.
        assert!(!bdd.eval_bits(nf, &[true, true]));
        assert!(bdd.eval_bits(nf, &[true, false]));
        assert!(bdd.eval_bits(nf, &[false, false]));
    }

    #[test]
    fn gc_with_no_roots_keeps_only_the_terminal() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let _ = bdd.and(x, y);
        let gc = bdd.gc([]);
        assert_eq!(gc.live_nodes, 1);
        assert_eq!(bdd.constant(true), Ref::TRUE);
        assert_eq!(bdd.constant(false), Ref::FALSE);
        // The manager is fully usable after a total sweep.
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let f = bdd.and(x, y);
        assert!(bdd.eval_bits(f, &[true, true]));
    }

    #[test]
    fn a_node_shared_by_a_root_and_a_cache_root_counts_as_root_held() {
        let mut bdd = Bdd::new();
        let w = bdd.var(Var::new(0));
        let x = bdd.var(Var::new(1));
        let y = bdd.var(Var::new(2));
        let mut root = bdd.and(x, y);
        // `w ∧ (x ∧ y)` is one w-node over the root's diagram.
        let mut cached = bdd.and(w, root);
        let mut alias = root;
        let g1 = bdd.xor(w, y);
        let _garbage = bdd.or(g1, x);
        let root_nodes = bdd.node_count(root);
        let gc = bdd.gc_with_cache([&mut root], [&mut cached, &mut alias]);
        assert_eq!(gc.cache_only_nodes, 1, "only the w-node is cache-only");
        assert_eq!(gc.live_nodes, root_nodes + 1);
        assert_eq!(alias, root, "a cache root equal to a root is remapped to it");
        assert!(bdd.eval_bits(cached, &[true, true, true]));
        assert!(!bdd.eval_bits(cached, &[false, true, true]));
        let rebuilt = {
            let w = bdd.var(Var::new(0));
            bdd.and(w, root)
        };
        assert_eq!(rebuilt, cached, "canonicity across the remap");
        bdd.check_canonical_invariant().unwrap();
    }

    #[test]
    fn a_complemented_cache_root_comes_back_complemented() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var::new(0));
        let y = bdd.var(Var::new(1));
        let z = bdd.var(Var::new(2));
        let f = bdd.and(x, y);
        let g = bdd.or(f, z);
        let mut cached = if g.is_complement() { g } else { bdd.not(g) };
        let table: Vec<bool> = (0..8u32)
            .map(|bits| bdd.eval_bits(cached, &[bits & 1 != 0, bits & 2 != 0, bits & 4 != 0]))
            .collect();
        let _garbage = bdd.xor(x, z);
        let gc = bdd.gc_with_cache([], [&mut cached]);
        assert!(cached.is_complement(), "the cache root lost its complement bit");
        assert_eq!(gc.cache_only_nodes + 1, gc.live_nodes, "everything but ⊤ is cache-only");
        for (bits, &want) in table.iter().enumerate() {
            let bits = bits as u32;
            assert_eq!(bdd.eval_bits(cached, &[bits & 1 != 0, bits & 2 != 0, bits & 4 != 0]), want);
        }
        bdd.check_canonical_invariant().unwrap();
    }

    #[test]
    fn gc_shrink_right_sizes_the_unique_table() {
        // Every minterm over 12 variables fills the table with thousands of
        // nodes; keeping one small diagram, a plain collection keeps the
        // build's capacity and the shrinking one returns it to at most twice
        // its entries.
        let build = || {
            let mut bdd = Bdd::new();
            let vars: Vec<Ref> = (0..12).map(|i| bdd.var(Var::new(i))).collect();
            for minterm in 0..1u32 << vars.len() {
                vars.iter().enumerate().fold(Ref::TRUE, |acc, (i, &x)| {
                    let literal = if minterm >> i & 1 == 1 { x } else { bdd.not(x) };
                    bdd.and(acc, literal)
                });
            }
            let parity = vars.iter().fold(Ref::FALSE, |acc, &x| bdd.xor(acc, x));
            let keep = bdd.and(vars[0], parity);
            (bdd, keep)
        };
        let (mut plain, mut plain_keep) = build();
        let (mut shrunk, mut shrunk_keep) = build();
        let built_capacity = shrunk.unique.capacity();
        assert!(shrunk.unique.len() > 4_000, "the build is too small to shrink");
        let plain_gc = plain.gc([&mut plain_keep]);
        let shrunk_gc = shrunk.gc_shrink([&mut shrunk_keep], []);
        assert_eq!(plain_gc, shrunk_gc);
        assert_eq!(plain.unique.capacity(), built_capacity, "`gc` keeps the capacity");
        let entries = shrunk.unique.len();
        assert_eq!(entries + 1, shrunk.live_nodes(), "every non-terminal survivor is indexed");
        assert!(
            shrunk.unique.capacity() <= 2 * entries,
            "{} slots for {entries} entries",
            shrunk.unique.capacity()
        );
        shrunk.check_canonical_invariant().unwrap();
        assert!(plain.snapshot(&[plain_keep], &[]) == shrunk.snapshot(&[shrunk_keep], &[]));
        let vars: Vec<Ref> = (0..12).map(|i| shrunk.var(Var::new(i))).collect();
        let parity = vars.iter().fold(Ref::FALSE, |acc, &x| shrunk.xor(acc, x));
        assert_eq!(shrunk.and(vars[0], parity), shrunk_keep, "canonicity across the rebuild");
    }

    #[test]
    fn gc_is_gc_with_an_empty_cache() {
        // Two managers driven identically, one collected by each entry
        // point: identical stores (the snapshot covers every slot, the
        // level order and the lifetime counters), stats and roots.
        let build = || {
            let mut bdd = Bdd::new();
            let vars: Vec<Ref> = (0..5).map(|i| bdd.var(Var::new(i))).collect();
            let a = bdd.xor(vars[0], vars[3]);
            let b = bdd.and(a, vars[1]);
            let _garbage = bdd.or(b, vars[4]);
            let c = bdd.iff(vars[2], vars[4]);
            let nc = bdd.not(c);
            (bdd, vec![b, nc])
        };
        let (mut plain, mut plain_roots) = build();
        let (mut tiered, mut tiered_roots) = build();
        let plain_gc = plain.gc(plain_roots.iter_mut());
        let tiered_gc = tiered.gc_with_cache(tiered_roots.iter_mut(), []);
        assert_eq!(plain_gc, tiered_gc);
        assert_eq!(tiered_gc.cache_only_nodes, 0);
        assert_eq!(plain_roots, tiered_roots);
        assert_eq!(plain.stats(), tiered.stats());
        assert!(plain.snapshot(&plain_roots, &[]) == tiered.snapshot(&tiered_roots, &[]));
        plain.check_canonical_invariant().unwrap();
        tiered.check_canonical_invariant().unwrap();
    }
}

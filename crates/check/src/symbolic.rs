//! The symbolic (OBDD) epistemic model checking engine.
//!
//! MCK implements its epistemic model checking and synthesis algorithms with
//! ordered binary decision diagrams; this module mirrors that implementation
//! strategy for the consensus models of this workspace. Each layer's set of
//! reachable states is represented as a BDD over boolean *state variables*:
//! for every agent, the bits of its observable variables, a nonfaulty bit,
//! the bits of its initial preference, and its decision status. Under the
//! clock semantics, knowledge then becomes quantification:
//!
//! ```text
//! [K_i φ]  =  Reach ∧ ¬ ∃ (vars not observed by i) . (Reach ∧ ¬[φ])
//! ```
//!
//! i.e. agent `i` knows `φ` exactly at the reachable states from which no
//! reachable state that differs only in variables `i` cannot see fails `φ`.
//! Common belief is the greatest fixpoint of the "everyone believes"
//! operator, computed per layer as a *frontier* iteration: each round
//! projects only the points the previous round removed (see the comment
//! above `SymbolicChecker::block`).
//!
//! # Engineering for scale
//!
//! * **One static variable order.** Each agent's state variables come as
//!   (current, primed) pairs — every current-state variable immediately
//!   followed by its next-state copy, the standard ordering for synchronous
//!   multi-agent relations — and right after them the adversary choices
//!   gating that agent's outgoing messages (see
//!   `SymbolicChecker::relational_seed`). The order is installed once and
//!   never changes on its own: the engine does not sift automatically.
//!   [`SymbolicChecker::force_reorder`] group-sifts on request, moving each
//!   current/primed pair as a block so relations and the renaming between
//!   the two copies stay cheap. Because a checker grows in place
//!   ([`SymbolicChecker::extend_layer_relational`]), the one BDD manager
//!   carries across synthesis rounds instead of being rebuilt each round.
//! * **Variable-encoded atoms, restricted on demand.** Every atom is a
//!   constraint over the encoded state variables, built by
//!   `epimc_relational` (`DecidesNow` is the layer's decides-now table: the
//!   guarded condition its round was built under) and stays that
//!   few-node constraint through the boolean connectives: restriction to a
//!   layer's reachable set commutes with them under the clock semantics,
//!   so it is applied once per layer where a consumer needs it — an entry
//!   point, a temporal operator, a fixpoint body — and never by a
//!   connective (see the section comment above `SymbolicChecker::eval`;
//!   [`SymbolicStats::reach_restrictions`] counts it).
//! * **Partitioned transition relation, pre-image through the reachable
//!   relation.** Each round has a per-agent *partitioned* transition
//!   relation: auxiliary choice variables encode the adversary's choice
//!   and each partition constrains one agent's primed variables. The
//!   bounded temporal operators never walk those partitions backwards.
//!   Under the clock semantics `reachable[t]` is the exact care set of
//!   round `t`, so the pre-image goes through the round's *reachable
//!   relation* `T_t(cur, nxt) = ∃ choices . reachable[t] ∧ ⋀_i R_t^i` —
//!   the forward image's early-quantification schedule with the
//!   current-state variables kept — and `pre(S) ∧ reachable[t]` is one
//!   fused [`epimc_bdd::Bdd::and_exists`] of `T_t` with the primed target.
//!   `T_t` is built on first use and held in a per-round cache that
//!   automatic collections and [`SymbolicChecker::compact`] keep as a
//!   cache tier the GC trigger does not count, and that reorders and
//!   [`SymbolicChecker::force_gc`] empty; it is never serialised (see the
//!   section comment above `reachable_relation` for the measurements
//!   behind that).
//! * **Garbage collection.** All long-lived BDD handles (reachable sets,
//!   hidden-variable cubes, relation partitions) and every in-flight
//!   formula denotation live in a rooted arena, so the manager's
//!   mark-and-sweep collector ([`epimc_bdd::Bdd::gc`]) can run between
//!   operations — including in the middle of fixpoint iterations — without
//!   invalidating live work. Collections trigger automatically past a
//!   live-node threshold (see [`SymbolicOptions::gc_threshold`]).
//! * **Growth in place and layer focus.** The model is never enumerated:
//!   layer 0 is the initial-state cube of the protocol's [`SymbolicEncode`]
//!   contract and [`SymbolicChecker::extend_layer_relational`] appends each
//!   further layer as the forward image of the frontier, under whatever
//!   rule the caller passes. For temporal-free formulas,
//!   [`SymbolicChecker::observation_values`] focuses evaluation on the
//!   single queried layer (knowledge and common belief are layer-local
//!   under the clock semantics). Together these drive the symbolic
//!   synthesis engine's forward induction.
//!
//! The point-level reference is the explicit [`Checker`]; the one read-off
//! against it is [`SymbolicChecker::check_points`].
//!
//! [`Checker`]: crate::Checker

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

use epimc_bdd::{catch_budget, Bdd, BddError, Budget, GcStats, Ref, ReorderPolicy, SubstId, Var};
use epimc_logic::{AgentId, Formula, TemporalKind};
use epimc_relational::{
    atom_constraint, cur, decides_now_table, encode_state, initial_cube, nxt, round_relation,
    ChoiceVars, SlotLayout, SymbolicEncode, SymbolicRule,
};
use epimc_system::{
    ConsensusAtom, ConsensusModel, DecisionRule, FailureKind, InformationExchange, ModelParams,
    Observation, PointId, PointModel, Round,
};

use crate::pointset::PointSet;

/// The variable-order policy of the symbolic engine. [`ReorderMode::Static`]
/// — the sender-interleaved order installed when the model is seeded — is
/// the only value: the engine never sifts on its own, and
/// [`SymbolicChecker::force_reorder`] group-sifts on request. The type and
/// its [`SymbolicOptions::reorder`] field are kept only so callers that
/// spell the policy out keep compiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorderMode {
    /// Keep the static sender-interleaved order.
    Static,
}

/// Tuning knobs of the symbolic engine.
#[derive(Clone, Copy, Debug)]
pub struct SymbolicOptions {
    /// Live-node count above which a garbage collection is triggered at the
    /// next safe point. After a collection the effective threshold is
    /// raised to twice the surviving live nodes, so a model that genuinely
    /// needs more than the threshold does not thrash.
    pub gc_threshold: usize,
    /// The variable-order policy: [`ReorderMode::Static`], its only value.
    pub reorder: ReorderMode,
    /// Optional resource budget installed on the manager (wall-clock
    /// deadline, live-node ceiling, operation fuel). A trip unwinds a
    /// typed [`epimc_bdd::BddError`]; use the `try_*` checker entry
    /// points ([`SymbolicChecker::try_holds_everywhere`] and friends) to
    /// receive it as a structured [`BudgetAbort`] instead. `None` (the default)
    /// means unlimited.
    pub budget: Option<Budget>,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            // Peak store size is bounded by this threshold plus one
            // epoch's garbage. The cache-conscious node store makes a
            // collection cheap enough (three dense u32 sweeps) that 2^17
            // costs nothing over the former 2^18: on FloodSet n=8 t=3 the
            // halved trigger doubles the collection count (50 -> 108) at an
            // unchanged wall clock while cutting peak live nodes 37%
            // (309,696 -> 194,973) — and complement edges shrink the
            // garbage epochs themselves, since negations no longer
            // materialise copied DAGs.
            gc_threshold: 1 << 17,
            reorder: ReorderMode::Static,
            budget: None,
        }
    }
}

/// A budget trip translated into a structured error by the fallible
/// checker entry points ([`SymbolicChecker::try_holds_everywhere`],
/// [`SymbolicChecker::try_holds_everywhere_in_session`]). The checker's
/// manager is structurally valid afterwards: every denotation the aborted
/// evaluation was building has been released, session caches keep only
/// complete entries, and the budget has been disarmed — the caller may
/// keep using (or re-arm and retry on) the same checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetAbort {
    /// The underlying manager error (which limit, ops performed, live
    /// nodes at the trip point).
    pub error: BddError,
    /// Model layers fully built when the abort happened (partial-progress
    /// stat; relevant for checkers grown layer by layer).
    pub layers_built: usize,
    /// Live nodes after releasing the aborted evaluation's denotations.
    pub live_nodes: usize,
}

impl fmt::Display for BudgetAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers built, {} live nodes kept)",
            self.error, self.layers_built, self.live_nodes
        )
    }
}

impl std::error::Error for BudgetAbort {}

/// Statistics about a symbolic run, used by the ablation benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SymbolicStats {
    /// Number of boolean state variables in the encoding (current-state).
    pub num_state_vars: usize,
    /// Number of additional variables for the transition relation (primed
    /// copies plus adversary-choice bits).
    pub num_relation_vars: usize,
    /// Total BDD nodes ever allocated by the manager (swept nodes included).
    pub allocated_nodes: usize,
    /// BDD nodes currently live in the manager.
    pub live_nodes: usize,
    /// High-water mark of simultaneously live BDD nodes.
    pub peak_live_nodes: usize,
    /// Number of garbage collections performed.
    pub gc_runs: u64,
    /// Total nodes reclaimed by garbage collection.
    pub swept_nodes: u64,
    /// Sum over layers of the node count of the reachable-set BDDs
    /// ([`epimc_bdd::Bdd::node_count`] of each layer, so nodes two layers
    /// share count twice). Kept as a running total, not walked.
    pub reachable_nodes: usize,
    /// Operation-cache hits in the current statistics epoch.
    pub cache_hits: u64,
    /// Operation-cache misses in the current statistics epoch.
    pub cache_misses: u64,
    /// Operation-cache evictions in the current statistics epoch.
    pub cache_evictions: u64,
    /// Number of dynamic variable reorders performed.
    pub reorder_runs: u64,
    /// Total adjacent-level swaps performed by reordering.
    pub reorder_swaps: u64,
    /// Number of fused image steps ([`epimc_bdd::Bdd::relational_product`])
    /// performed: one per partition folded into a **forward** image.
    /// Pre-images and reachable-relation builds go
    /// through plain [`epimc_bdd::Bdd::and_exists`] and are not counted
    /// here — see `preimage_calls` and `reachable_relations_built`.
    pub relational_product_calls: u64,
    /// Operation-cache hits observed inside those image steps.
    pub image_cache_hits: u64,
    /// Operation-cache misses observed inside those image steps.
    pub image_cache_misses: u64,
    /// Pre-images computed by the temporal operators, each one
    /// `and_exists` against a round's reachable relation. A pre-image of
    /// the empty set is answered without one and is not counted.
    pub preimage_calls: u64,
    /// Reachable relations `T_t` built for those pre-images, counting
    /// every rebuild after a reorder or a full collection
    /// ([`SymbolicChecker::force_gc`]) dropped the cache; automatic
    /// collections and [`SymbolicChecker::compact`] keep it.
    pub reachable_relations_built: u64,
    /// Rounds of the common-belief frontier iteration: per `C_B`
    /// evaluation, the number of rounds its slowest layer needed before
    /// its frontier emptied, summed over evaluations. A function of the
    /// model and the formulas alone, so it repeats exactly.
    pub common_belief_rounds: u64,
    /// Layer × round steps those iterations computed: per `C_B`
    /// evaluation, the sum over layers of the rounds *that* layer needed.
    /// Below `common_belief_rounds × layers` whenever layers converge in
    /// different rounds, since a converged layer is not revisited.
    pub common_belief_layer_steps: u64,
    /// Layer-level `reachable[l] ∧ ·` conjunctions performed on behalf of
    /// consumers of a denotation (lifetime count, additive). The evaluator
    /// restricts lazily, so this rises once per layer per consumer that was
    /// handed an unbounded denotation — not once per connective — and
    /// answers "why did this formula touch the layers k times".
    pub reach_restrictions: u64,
}

impl SymbolicStats {
    /// Fraction of operation-cache lookups that hit, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// A handle to a formula denotation (one `Ref` per layer) held in the
/// rooted arena, so it survives garbage collections.
type DenId = usize;

/// One arena entry: a `Ref` per layer, and whether every layer is known to
/// lie inside its reachable set. The evaluator restricts lazily (see the
/// section comment above `SymbolicChecker::eval`), so an *unbounded* entry
/// stands for the denotation `layers[l] ∧ reachable[l]`.
#[derive(Clone)]
struct Den {
    layers: Vec<Ref>,
    bounded: bool,
}

/// The rooted arena of in-flight denotations: every denotation a formula
/// evaluation is still using lives here, and [`Inner::collect`] passes all
/// of them to the collector as roots.
#[derive(Default)]
struct DenArena {
    dens: Vec<Option<Den>>,
    free: Vec<usize>,
}

impl DenArena {
    fn alloc(&mut self, layers: Vec<Ref>, bounded: bool) -> DenId {
        let den = Some(Den { layers, bounded });
        if let Some(id) = self.free.pop() {
            self.dens[id] = den;
            id
        } else {
            self.dens.push(den);
            self.dens.len() - 1
        }
    }

    fn release(&mut self, id: DenId) {
        debug_assert!(self.dens[id].is_some(), "double free of denotation {id}");
        self.dens[id] = None;
        self.free.push(id);
    }

    fn den(&self, id: DenId) -> &Den {
        self.dens[id].as_ref().expect("use of freed denotation")
    }

    fn den_mut(&mut self, id: DenId) -> &mut Den {
        self.dens[id].as_mut().expect("use of freed denotation")
    }

    fn get(&self, id: DenId) -> &[Ref] {
        self.den(id).layers.as_slice()
    }

    fn get_mut(&mut self, id: DenId) -> &mut Vec<Ref> {
        &mut self.den_mut(id).layers
    }

    fn live_count(&self) -> usize {
        self.dens.iter().filter(|d| d.is_some()).count()
    }

    /// Ids of every live denotation, for the abort-cleanup diff in the
    /// `try_*` entry points.
    fn live_ids(&self) -> Vec<usize> {
        self.dens.iter().enumerate().filter_map(|(id, den)| den.is_some().then_some(id)).collect()
    }

    fn roots_mut(&mut self) -> impl Iterator<Item = &mut Ref> {
        self.dens.iter_mut().flatten().flat_map(|den| den.layers.iter_mut())
    }
}

/// The mutable half of the checker: the manager plus every rooted handle.
struct Inner {
    bdd: Bdd,
    arena: DenArena,
    /// Reachable-set BDD of every layer.
    reachable: Vec<Ref>,
    /// Σ [`Bdd::node_count`] over `reachable`, kept as a running total: a
    /// layer never changes once it is pushed, and a collection remaps its
    /// nodes without changing how many there are, so only a reorder (which
    /// resizes every diagram) recounts it.
    reachable_nodes: usize,
    /// For each agent, the cube of current-state variables it does *not*
    /// observe.
    hidden_cubes: Vec<Ref>,
    /// Renames a pre-image's target onto the primed variables.
    cur_to_nxt: SubstId,
    /// The reverse substitution: forward images land on primed variables
    /// and are renamed back.
    nxt_to_cur: SubstId,
    /// The cube of all primed variables plus the choice variables: what a
    /// pre-image quantifies out of `T_t ∧ S'` (neither conjunct mentions a
    /// choice variable, so those are skipped for free).
    all_quant_cube: Ref,
    /// Per round `t`: the relation partitions, one per agent, built with
    /// the layer the round leads to.
    relations: Vec<Vec<Ref>>,
    /// Per round `t`: the sorted variable-index support of each relation
    /// partition, computed once when the partitions are built and used by
    /// [`Inner::round_schedule`] to order the conjunctions by support
    /// overlap. Variable *identities* are stable under gc and reorder, so
    /// these need no rooting and never go stale.
    relation_supports: Vec<Vec<Vec<u32>>>,
    /// Per round `t`: the reachable relation `T_t` the pre-image goes
    /// through (see [`SymbolicChecker::reachable_relation`]). A **cache
    /// tier** of the collector, not a root: [`Inner::collect`] keeps and
    /// remaps it without counting it toward either trigger, while
    /// [`Inner::reorder_now`] and [`SymbolicChecker::force_gc`] empty it
    /// and the next pre-image rebuilds what it needs. Never serialised.
    reachable_relations: HashMap<usize, Ref>,
    /// Pre-images answered through a reachable relation (lifetime count).
    preimage_calls: u64,
    /// Reachable relations built, rebuilds after a reorder or a full
    /// collection included.
    reachable_relations_built: u64,
    /// Rounds of the common-belief frontier iteration (lifetime count; see
    /// [`SymbolicStats::common_belief_rounds`]).
    common_belief_rounds: u64,
    /// Layer × round steps those iterations actually computed.
    common_belief_layer_steps: u64,
    /// Layer-level restrictions to the reachable set performed for
    /// consumers (lifetime count; see [`SymbolicStats::reach_restrictions`]).
    reach_restrictions: u64,
    /// Per layer, the guarded decides-now conditions the layer's round was
    /// built under (`dnow[layer][agent * num_values + v]`), which is what
    /// `DecidesNow` atoms denote. The frontier layer's entry comes from the
    /// rule that built it or [`SymbolicChecker::set_frontier_rule`], until
    /// the next extension replaces it.
    dnow: Vec<Vec<Ref>>,
    gc_threshold: usize,
    gc_base_threshold: usize,
    /// The manager's `allocated_nodes` right after the last
    /// [`Inner::compact`] that ran with no denotation and no reachable
    /// relation held, so the store held the model alone. While nothing
    /// has been allocated since, a collection would sweep nothing, and
    /// [`SymbolicChecker::snapshot`] skips it.
    model_only_at: Option<usize>,
}

/// Roots every long-lived handle, every arena denotation and the caller's
/// scratch refs of the destructured [`Inner`] into one iterator for the
/// collector / reorderer.
macro_rules! inner_roots {
    ($inner:expr, $extra:expr) => {{
        let Inner { arena, reachable, hidden_cubes, all_quant_cube, relations, dnow, .. } = $inner;
        reachable
            .iter_mut()
            .chain(hidden_cubes.iter_mut())
            .chain(std::iter::once(all_quant_cube))
            .chain(relations.iter_mut().flatten())
            .chain(dnow.iter_mut().flatten())
            .chain(arena.roots_mut())
            .chain($extra.iter_mut())
    }};
}

/// The model's long-lived handles a checker cannot recompute: what a seed
/// builds and what a snapshot carries, in the order a snapshot lists them.
struct ModelRoots {
    reachable: Vec<Ref>,
    relations: Vec<Vec<Ref>>,
    dnow: Vec<Vec<Ref>>,
}

/// The handles a checker derives from its layout instead of storing: each
/// agent's hidden-variable cube, then the pre-image quantification cube
/// (every primed and every choice variable). A seed and a restore both
/// build them here, so a snapshot never carries them.
fn derived_cubes(bdd: &mut Bdd, layout: &SlotLayout, choice: &ChoiceVars) -> (Vec<Ref>, Ref) {
    let num_slots = layout.num_slots;
    let all_quant: Vec<Var> = (0..num_slots).map(nxt).chain(choice.all_vars()).collect();
    let all_quant_cube = bdd.cube_of_vars(all_quant);
    let hidden_cubes = layout
        .agents
        .iter()
        .map(|slots| {
            let mut observed = vec![false; num_slots];
            for slot in slots.obs_bits.iter().flatten() {
                observed[*slot] = true;
            }
            let hidden =
                (0..num_slots).filter(|&slot| !observed[slot]).map(cur).collect::<Vec<_>>();
            bdd.cube_of_vars(hidden)
        })
        .collect();
    (hidden_cubes, all_quant_cube)
}

/// The checker's words in a snapshot: the model fingerprint a restore
/// verifies before trusting a single `Ref` (agent count, fault bound, value
/// count, failure kind, horizon, and the variable layout the exchange
/// induces).
fn fingerprint(params: &ModelParams, layout: &SlotLayout, choice: &ChoiceVars) -> [u64; 7] {
    [
        params.num_agents() as u64,
        params.max_faulty() as u64,
        params.num_values() as u64,
        match params.failure().kind() {
            FailureKind::Crash => 0,
            FailureKind::SendOmission => 1,
            FailureKind::ReceiveOmission => 2,
            FailureKind::GeneralOmission => 3,
        },
        u64::from(params.horizon()),
        layout.num_slots as u64,
        choice.count() as u64,
    ]
}

/// The deepest layer that evaluating `formula` at layer `t` reads, clamped
/// to the horizon (see [`SymbolicChecker::holds_in_layer`]).
pub(crate) fn layer_demand(formula: &Formula<ConsensusAtom>, t: usize, horizon: usize) -> usize {
    next_depth(formula).map_or(horizon, |depth| (t + depth).min(horizon))
}

/// The `AX`/`EX` nesting depth of `formula`, or `None` when reading it at
/// a layer may need every later one.
fn next_depth(formula: &Formula<ConsensusAtom>) -> Option<usize> {
    match formula {
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => Some(0),
        Formula::Not(inner)
        | Formula::Knows(_, inner)
        | Formula::BelievesNonfaulty(_, inner)
        | Formula::EveryoneBelieves(inner)
        | Formula::CommonBelief(inner) => next_depth(inner),
        Formula::And(items) | Formula::Or(items) => {
            items.iter().try_fold(0, |depth, item| Some(depth.max(next_depth(item)?)))
        }
        Formula::Implies(lhs, rhs) | Formula::Iff(lhs, rhs) => {
            Some(next_depth(lhs)?.max(next_depth(rhs)?))
        }
        // A fixpoint iterates its body, so a body that steps forward at
        // all may step through every later layer.
        Formula::Gfp(_, body) | Formula::Lfp(_, body) => next_depth(body).filter(|&d| d == 0),
        Formula::Temporal(TemporalKind::AllNext | TemporalKind::ExistsNext, inner) => {
            Some(next_depth(inner)? + 1)
        }
        Formula::Temporal(..) => None,
    }
}

/// The sorted variable-index support of `f`.
fn support_indices(bdd: &Bdd, f: Ref) -> Vec<u32> {
    bdd.support(f).iter().map(|var| var.index()).collect()
}

impl Inner {
    /// The one constructor, shared by a fresh seed and a restored
    /// snapshot. It takes the [`derived_cubes`], registers both
    /// substitution directions — in this order on every manager, so a
    /// restored checker's ids (allocated sequentially) match the
    /// snapshotted one's — derives each relation partition's support from
    /// the partition itself, and starts every counter, cache and the arena
    /// empty.
    fn new(
        mut bdd: Bdd,
        num_slots: usize,
        (hidden_cubes, all_quant_cube): (Vec<Ref>, Ref),
        roots: ModelRoots,
        gc_threshold: usize,
        gc_base_threshold: usize,
    ) -> Self {
        let cur_to_nxt =
            bdd.register_substitution((0..num_slots).map(|slot| (cur(slot), nxt(slot))).collect());
        let nxt_to_cur =
            bdd.register_substitution((0..num_slots).map(|slot| (nxt(slot), cur(slot))).collect());
        let ModelRoots { reachable, relations, dnow } = roots;
        let reachable_nodes = reachable.iter().map(|&layer| bdd.node_count(layer)).sum();
        let relation_supports = relations
            .iter()
            .map(|parts| parts.iter().map(|&part| support_indices(&bdd, part)).collect())
            .collect();
        Inner {
            bdd,
            arena: DenArena::default(),
            reachable,
            reachable_nodes,
            hidden_cubes,
            cur_to_nxt,
            nxt_to_cur,
            all_quant_cube,
            relations,
            relation_supports,
            reachable_relations: HashMap::new(),
            preimage_calls: 0,
            reachable_relations_built: 0,
            common_belief_rounds: 0,
            common_belief_layer_steps: 0,
            reach_restrictions: 0,
            dnow,
            gc_threshold: gc_threshold.max(2),
            gc_base_threshold: gc_base_threshold.max(2),
            model_only_at: None,
        }
    }

    /// Runs a collection now, rooting every long-lived handle, every arena
    /// denotation, and the caller's `extra` scratch refs, and keeping the
    /// reachable-relation cache as the collector's *cache* tier
    /// ([`Bdd::gc_with_cache`]): its entries survive, remapped, but the
    /// nodes only they hold are not model size. The trigger sees the model
    /// alone — with `model_live` the survivors the roots reach, the next
    /// collection waits for `max(base, 2·model_live)` plus the cache — so
    /// with an empty cache every decision is the one a plain `gc` made.
    fn collect(&mut self, extra: &mut [Ref]) {
        let gc = {
            let inner = &mut *self;
            let roots = inner_roots!(inner, extra);
            inner.bdd.gc_with_cache(roots, inner.reachable_relations.values_mut())
        };
        self.retrigger(gc);
    }

    /// [`Inner::collect`] between checks (no scratch refs) that also
    /// returns the unique table to the survivors' size
    /// ([`Bdd::gc_shrink`]).
    fn compact(&mut self) {
        let gc = {
            let inner = &mut *self;
            let mut no_scratch: [Ref; 0] = [];
            let roots = inner_roots!(inner, no_scratch);
            inner.bdd.gc_shrink(roots, inner.reachable_relations.values_mut())
        };
        self.retrigger(gc);
        let model_only = self.arena.live_count() == 0 && self.reachable_relations.is_empty();
        self.model_only_at = model_only.then(|| self.bdd.stats().allocated_nodes);
    }

    /// The full collection: drops the reachable relations, then compacts.
    fn collect_to_model(&mut self) {
        self.reachable_relations.clear();
        self.compact();
    }

    /// Sets the next automatic collection's trigger from this one's
    /// survivors (see [`Inner::collect`]).
    fn retrigger(&mut self, gc: GcStats) {
        let model_live = gc.live_nodes - gc.cache_only_nodes;
        self.gc_threshold = self.gc_base_threshold.max(model_live * 2) + gc.cache_only_nodes;
    }

    /// Group-sifts the variable order now, rooting exactly what a
    /// collection roots (no scratch refs: it runs only between checks).
    /// The reachable-relation cache is dropped first: sifting is sized by
    /// the model, and its relations are rebuilt on demand under the new
    /// order.
    fn reorder_now(&mut self) {
        self.reachable_relations.clear();
        self.model_only_at = None;
        {
            let inner = &mut *self;
            let mut no_scratch: [Ref; 0] = [];
            let roots = inner_roots!(inner, no_scratch);
            inner.bdd.reorder(ReorderPolicy::GroupSift, roots);
        }
        // Reordering sweeps twice; keep the GC threshold consistent with
        // the (possibly much smaller) surviving store.
        self.gc_threshold = self.gc_base_threshold.max(self.bdd.live_nodes() * 2);
        self.reachable_nodes = self.reachable.iter().map(|&layer| self.bdd.node_count(layer)).sum();
    }

    /// Collects if the live-node count has crossed the threshold. Only call
    /// this at *safe points*: every `Ref` the caller still needs must be in
    /// the arena, a rooted field, or `extra`.
    fn maybe_gc(&mut self, extra: &mut [Ref]) {
        // Safe points are where the manager's invariants hold, so this is
        // also where an installed budget's deadline and node ceiling are
        // checked (a trip unwinds from here with a structurally valid
        // manager; cache-hit-dominated phases that never miss still pass
        // through here between evaluation steps).
        self.bdd.poll_budget();
        if self.bdd.live_nodes() > self.gc_threshold {
            self.collect(extra);
        }
    }

    /// The order in which round `t`'s partitions are conjoined onto
    /// `reachable[t]`, and for each step the `quantifiable` variables that
    /// can be quantified out with it because no later partition mentions
    /// them (early quantification). Greedy by support overlap with the
    /// product so far — the partition sharing the most variables goes
    /// next; ties break toward the fewest fresh variables, then the lowest
    /// agent index. The schedule is a function of supports alone (stable
    /// under gc and reorder), so it is
    /// deterministic and computing it performs no BDD operation.
    /// `quantifiable` must be sorted.
    fn round_schedule(&self, t: usize, quantifiable: &[u32]) -> Vec<(usize, Vec<u32>)> {
        let supports = &self.relation_supports[t];
        let mut acc_support = support_indices(&self.bdd, self.reachable[t]);
        let mut remaining: Vec<usize> = (0..supports.len()).collect();
        let mut schedule = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut best_pos = 0;
            let mut best_score: Option<(usize, usize)> = None;
            for (pos, &agent) in remaining.iter().enumerate() {
                let support = &supports[agent];
                let overlap =
                    support.iter().filter(|v| acc_support.binary_search(v).is_ok()).count();
                let fresh = support.len() - overlap;
                let beats = match best_score {
                    None => true,
                    Some((top_overlap, top_fresh)) => {
                        overlap > top_overlap || (overlap == top_overlap && fresh < top_fresh)
                    }
                };
                if beats {
                    best_pos = pos;
                    best_score = Some((overlap, fresh));
                }
            }
            let agent = remaining.remove(best_pos);
            acc_support.extend(supports[agent].iter().copied());
            acc_support.sort_unstable();
            acc_support.dedup();
            let freed: Vec<u32> = acc_support
                .iter()
                .copied()
                .filter(|v| quantifiable.binary_search(v).is_ok())
                .filter(|v| remaining.iter().all(|&rest| supports[rest].binary_search(v).is_err()))
                .collect();
            acc_support.retain(|v| freed.binary_search(v).is_err());
            schedule.push((agent, freed));
        }
        schedule
    }
}

/// The symbolic epistemic model checker for consensus models.
///
/// No state is ever enumerated: the protocol's [`SymbolicEncode`] /
/// [`SymbolicRule`] implementations are compiled into an initial-state cube
/// and per-round partitioned transition relations, and each layer is the
/// forward image of the previous one.
pub struct SymbolicChecker<E: InformationExchange, R> {
    exchange: E,
    /// The decision rule the model is built under.
    rule: R,
    /// The state-variable layout shared with `epimc_relational`.
    layout: SlotLayout,
    /// The adversary-choice variables.
    choice: ChoiceVars,
    params: ModelParams,
    inner: RefCell<Inner>,
    /// Bumped on every [`SymbolicChecker::set_frontier_rule`] call; sessions
    /// record the epoch they were created in, so a stale session (whose
    /// cached denotations may bake in an older frontier table) is rejected.
    frontier_epoch: Cell<u64>,
    /// When set, evaluation only computes the denotation of this layer
    /// (every other layer stays `FALSE`). Sound for formulas without
    /// temporal operators — knowledge, common belief and the boolean
    /// connectives are all layer-local under the clock semantics — and what
    /// makes per-round synthesis cost proportional to one layer instead of
    /// all layers built so far. Set internally by
    /// [`SymbolicChecker::observation_values`] and
    /// [`SymbolicChecker::holds_in_layer`].
    focus: Cell<Option<usize>>,
    /// Memo of the decoded reachable observations per (agent, layer): the
    /// projection is formula-independent, and the synthesis loop asks for it
    /// once per branch per agent per round.
    reachable_obs: RefCell<HashMap<(usize, Round), Vec<Observation>>>,
}

/// A denotation cache for repeated evaluations against one
/// [`SymbolicChecker`].
///
/// Closed subformulas (no free fixpoint variables) denote the same per-layer
/// point sets wherever they occur, so a session memoises them across checks.
/// This is what lets the synthesis engine evaluate a knowledge-based-program
/// branch once per round: the per-agent conditions `B^N_i C_B_N φ` share the
/// expensive common-belief fixpoint `C_B_N φ`, which is computed for the
/// first agent and recalled from the session for the rest.
///
/// An entry is stored as the evaluator produced it — possibly not yet
/// restricted to the reachable sets — and is restricted in place the first
/// time a consumer asks for it in that form (the arena entry carries the
/// bit). It is thus kept in the most restricted form anyone has asked of
/// it: repeating a query already answered through
/// [`SymbolicChecker::holds_everywhere_in_session`] or the evaluation step
/// of [`SymbolicChecker::observation_values`] is exactly one hit, at the
/// root, and performs no BDD operation.
///
/// Cached denotations live in the checker's rooted arena (they survive
/// garbage collections) until the session is returned via
/// [`SymbolicChecker::end_session`] or the checker is dropped. A session
/// becomes *stale* when the model grows or the frontier's decides-now
/// table is refreshed ([`SymbolicChecker::set_frontier_rule`]); using a
/// stale session panics.
pub struct EvalSession {
    /// Memoised denotations keyed by [`Formula::canonical_hash`] — a
    /// process- and platform-stable structural hash, so a session promoted
    /// to cross-request scope (the checking server holds one per warm
    /// model) recognises a formula sent by a *different* client as the same
    /// cache entry. The formula is stored alongside the denotation and
    /// compared structurally on every hit: a hash collision is detected,
    /// the stale entry evicted and the formula re-evaluated, instead of a
    /// wrong denotation being served across requests.
    cache: HashMap<u64, (Formula<ConsensusAtom>, DenId)>,
    epoch: u64,
    /// Number of layers the checker had when the session started; cached
    /// denotations are per-layer vectors, so extending the model silently
    /// truncates them — using the session afterwards must fail loudly.
    layers: usize,
    /// The layer focus of the first evaluation; the cached denotations are
    /// only valid under the same focus, so later evaluations must match.
    focus_lock: Option<Option<usize>>,
    /// Cache hits served so far (lifetime of the session).
    hits: u64,
}

impl EvalSession {
    /// Number of formulas memoised so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` when nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Number of evaluations answered from the session cache so far. The
    /// serving layer reports this in response headers so clients (and the
    /// CI smoke test) can observe warm hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// The truth values a formula takes on an agent's observation classes at one
/// layer, read off the BDD denotation by existential quantification of the
/// variables the agent does not observe (see
/// [`SymbolicChecker::observation_values`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservationValues {
    /// Every observation the agent makes at some reachable state of the
    /// layer, ascending.
    pub reachable: Vec<Observation>,
    /// The observations whose entire class satisfies the formula (the
    /// conservative conjunction over the class), ascending.
    pub holding: Vec<Observation>,
    /// The observations on which the formula is *not* constant, ascending.
    /// Empty whenever the formula is a knowledge condition for the agent.
    pub non_uniform: Vec<Observation>,
}

impl<E, R> SymbolicChecker<E, R>
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    /// The state-variable assignment of one point of an explored model,
    /// indexed by slot.
    fn encode_point<R2: DecisionRule<E>>(
        &self,
        model: &ConsensusModel<E, R2>,
        point: PointId,
    ) -> Vec<bool> {
        encode_state(&self.exchange, &self.params, &self.layout, model.state(point))
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Number of layers built so far (`horizon + 1` for a fully built
    /// model; a seed starts at 1 and grows via
    /// [`SymbolicChecker::extend_layer_relational`]).
    pub fn num_layers(&self) -> usize {
        self.inner.borrow().reachable.len()
    }

    /// Forces a *full* garbage collection now: drops the cached reachable
    /// relations that automatic collections keep, then
    /// [compacts](SymbolicChecker::compact) — afterwards the manager holds
    /// the model and the live session denotations alone (e.g. before a
    /// snapshot). Every `PointSet` already extracted stays valid (it holds
    /// no BDD references); subsequent checks are unaffected, bar
    /// rebuilding a relation on the next pre-image.
    pub fn force_gc(&self) {
        self.inner.borrow_mut().collect_to_model();
    }

    /// Collects now, rooting all persistent handles and live session
    /// denotations and keeping the reachable relations as an automatic
    /// collection does, and returns the manager's unique table to the
    /// survivors' size (automatic collections keep its high-water
    /// capacity). Afterwards the manager holds the model and its caches
    /// and no garbage — what a warm model should hold between requests.
    pub fn compact(&self) {
        self.inner.borrow_mut().compact();
    }

    /// Statistics about the symbolic encoding, in O(1): the manager's
    /// figures are maintained counters, and `reachable_nodes` is a running
    /// total the checker updates where it pushes a layer, so callers may
    /// read this after every request or synthesis round.
    pub fn stats(&self) -> SymbolicStats {
        let inner = self.inner.borrow();
        let bdd_stats = inner.bdd.stats();
        SymbolicStats {
            num_state_vars: self.layout.num_slots,
            num_relation_vars: self.layout.num_slots + self.choice.count(),
            allocated_nodes: bdd_stats.allocated_nodes,
            live_nodes: bdd_stats.live_nodes,
            peak_live_nodes: bdd_stats.peak_live_nodes,
            gc_runs: bdd_stats.gc_runs,
            swept_nodes: bdd_stats.swept_nodes,
            reachable_nodes: inner.reachable_nodes,
            cache_hits: bdd_stats.total_cache_hits(),
            cache_misses: bdd_stats.cache_misses,
            cache_evictions: bdd_stats.cache_evictions,
            reorder_runs: bdd_stats.reorder_runs,
            reorder_swaps: bdd_stats.reorder_swaps,
            relational_product_calls: bdd_stats.relational_product_calls,
            image_cache_hits: bdd_stats.image_cache_hits,
            image_cache_misses: bdd_stats.image_cache_misses,
            preimage_calls: inner.preimage_calls,
            reachable_relations_built: inner.reachable_relations_built,
            common_belief_rounds: inner.common_belief_rounds,
            common_belief_layer_steps: inner.common_belief_layer_steps,
            reach_restrictions: inner.reach_restrictions,
        }
    }

    /// Forces a group-sifting reorder now, rooting all persistent handles
    /// (the reorderer follows the `gc` contract, so every `PointSet`
    /// already extracted stays valid) and dropping the reachable-relation
    /// cache. The engine never sifts on its own; this is the one entry
    /// point, for callers that time sifting or stress the reorderer.
    pub fn force_reorder(&self) {
        self.inner.borrow_mut().reorder_now();
    }

    /// Starts an evaluation session (a denotation cache for closed
    /// subformulas shared across subsequent checks). Return it with
    /// [`SymbolicChecker::end_session`] to release the cached denotations.
    pub fn session(&self) -> EvalSession {
        EvalSession {
            cache: HashMap::new(),
            epoch: self.frontier_epoch.get(),
            layers: self.num_layers(),
            focus_lock: None,
            hits: 0,
        }
    }

    /// Whether evaluation currently computes the denotation of `layer`
    /// (always `true` without a layer focus).
    fn is_active(&self, layer: usize) -> bool {
        self.focus.get().is_none_or(|focus| focus == layer)
    }

    /// Locks `session` to the given layer focus (first use pins it; later
    /// uses must match, because cached denotations are only valid under the
    /// focus they were computed with).
    fn lock_session_focus(session: &mut EvalSession, focus: Option<usize>) {
        match session.focus_lock {
            None => session.focus_lock = Some(focus),
            Some(locked) => assert_eq!(
                locked, focus,
                "evaluation session reused under a different layer focus; start a new session"
            ),
        }
    }

    /// Releases every denotation memoised by `session`.
    pub fn end_session(&self, session: EvalSession) {
        let mut inner = self.inner.borrow_mut();
        for (_, (_, den)) in session.cache {
            inner.arena.release(den);
        }
        inner.maybe_gc(&mut []);
    }

    fn assert_session_fresh(&self, session: &EvalSession) {
        assert_eq!(
            session.epoch,
            self.frontier_epoch.get(),
            "evaluation session outlived a frontier-rule change; start a new session"
        );
        assert_eq!(
            session.layers,
            self.num_layers(),
            "evaluation session outlived a model extension; start a new session"
        );
    }

    /// Every observation `agent` makes at some reachable state of layer
    /// `time`, computed by projecting the layer's reachable-set BDD onto the
    /// agent's observable variables. Ascending and duplicate-free. The
    /// decoded result is memoised per (agent, layer) — the projection is
    /// formula-independent, and the synthesis loop needs it once per branch.
    pub fn layer_observations(&self, agent: AgentId, time: Round) -> Vec<Observation> {
        if let Some(cached) = self.reachable_obs.borrow().get(&(agent.index(), time)) {
            return cached.clone();
        }
        let decoded = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let reach = inner.reachable[time as usize];
            let hidden = inner.hidden_cubes[agent.index()];
            let projected = inner.bdd.exists(reach, hidden);
            self.decode_observations(&inner.bdd, projected, agent)
        };
        self.reachable_obs.borrow_mut().insert((agent.index(), time), decoded.clone());
        decoded
    }

    /// Evaluates `formula` (with the session cache) and reads off, for every
    /// observation class of `agent` at layer `time`, whether the class
    /// satisfies it: the denotation and its complement within the reachable
    /// set are projected onto the agent's observable variables by
    /// existential quantification of everything the agent does not observe,
    /// and the class values are the set difference. Classes appearing in
    /// both projections are reported as non-uniform (the formula is not a
    /// function of the agent's observation there); their class value is the
    /// conservative conjunction, exactly as in the explicit engine.
    pub fn observation_values(
        &self,
        session: &mut EvalSession,
        formula: &Formula<ConsensusAtom>,
        agent: AgentId,
        time: Round,
    ) -> ObservationValues {
        self.assert_session_fresh(session);
        // Knowledge, common belief and the boolean connectives are
        // layer-local, so a temporal-free condition only needs its
        // denotation at the queried layer: focus the evaluation there.
        // Temporal operators couple layers and force the full evaluation.
        let focus = if formula.is_temporal() { None } else { Some(time as usize) };
        Self::lock_session_focus(session, focus);
        self.focus.set(focus);
        self.inner.borrow_mut().maybe_gc(&mut []);
        let mut env = HashMap::new();
        let den = self.eval_bounded(formula, &mut env, Some(session));
        self.focus.set(None);
        let reachable = self.layer_observations(agent, time);
        let (positive, negative) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let den_t = inner.arena.get(den)[time as usize];
            let reach = inner.reachable[time as usize];
            let hidden = inner.hidden_cubes[agent.index()];
            let bdd = &mut inner.bdd;
            // `den_t ⊆ reach` at the consumer boundary, so the positive
            // projection only mentions observations of reachable states.
            // (The negative one conjoins `reach` itself.)
            let positive = bdd.exists(den_t, hidden);
            let not_den = bdd.not(den_t);
            let negative = bdd.and_exists(reach, not_den, hidden);
            (
                self.decode_observations(&inner.bdd, positive, agent),
                self.decode_observations(&inner.bdd, negative, agent),
            )
        };
        self.release(den);
        // Both projections are sorted, so membership is a binary search.
        let (non_uniform, holding): (Vec<Observation>, Vec<Observation>) =
            positive.into_iter().partition(|o| negative.binary_search(o).is_ok());
        ObservationValues { reachable, holding, non_uniform }
    }

    /// Decodes the models of `projected` (a BDD whose support lies within
    /// `agent`'s current-state observable variables) into observations,
    /// sorted ascending.
    fn decode_observations(&self, bdd: &Bdd, projected: Ref, agent: AgentId) -> Vec<Observation> {
        let vars = &self.layout.agents[agent.index()];
        // The assignment walk follows the *current* variable order, which
        // dynamic reordering may have moved away from slot order.
        let mut var_list: Vec<Var> =
            vars.obs_bits.iter().flatten().map(|&slot| cur(slot)).collect();
        var_list.sort_unstable_by_key(|&var| bdd.level_of_var(var));
        // Per field, the position of each of its bits within the walk.
        let field_positions: Vec<Vec<usize>> = vars
            .obs_bits
            .iter()
            .map(|field| {
                field
                    .iter()
                    .map(|&slot| {
                        var_list
                            .binary_search_by_key(&bdd.level_of_var(cur(slot)), |&var| {
                                bdd.level_of_var(var)
                            })
                            .expect("observable bit is in the walk list")
                    })
                    .collect()
            })
            .collect();
        let assignments = bdd.sat_assignments_over(projected, &var_list);
        let mut observations: Vec<Observation> = assignments
            .into_iter()
            .map(|bits| {
                let values = field_positions
                    .iter()
                    .map(|positions| {
                        positions
                            .iter()
                            .enumerate()
                            .fold(0u32, |acc, (k, &pos)| acc | (u32::from(bits[pos]) << k))
                    })
                    .collect();
                Observation::new(values)
            })
            .collect();
        observations.sort_unstable();
        observations
    }

    /// Returns `true` when `formula` holds at every point of the model.
    ///
    /// A denotation handed to a consumer is always restricted to the
    /// reachable sets (`eval_bounded`), so the formula holds everywhere
    /// exactly when its per-layer BDDs equal the reachable-set BDDs
    /// (canonical diagrams make this a pointer comparison).
    pub fn holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        self.inner.borrow_mut().maybe_gc(&mut []);
        let mut env = HashMap::new();
        let den = self.eval_bounded(formula, &mut env, None);
        let holds = {
            let inner = self.inner.borrow();
            let layers = inner.arena.get(den);
            layers.iter().zip(inner.reachable.iter()).all(|(d, r)| d == r)
        };
        self.release(den);
        self.inner.borrow_mut().maybe_gc(&mut []);
        holds
    }

    /// [`SymbolicChecker::holds_everywhere`] with a session cache: closed
    /// subformulas already memoised in `session` are recalled instead of
    /// recomputed, which is what makes a repeated batched query against a
    /// warm server cache-dominated.
    pub fn holds_everywhere_in_session(
        &self,
        session: &mut EvalSession,
        formula: &Formula<ConsensusAtom>,
    ) -> bool {
        self.assert_session_fresh(session);
        Self::lock_session_focus(session, None);
        self.inner.borrow_mut().maybe_gc(&mut []);
        let mut env = HashMap::new();
        let den = self.eval_bounded(formula, &mut env, Some(session));
        let holds = {
            let inner = self.inner.borrow();
            let layers = inner.arena.get(den);
            layers.iter().zip(inner.reachable.iter()).all(|(d, r)| d == r)
        };
        self.release(den);
        holds
    }

    /// Installs (or clears, with `None`) a resource [`Budget`] on the
    /// underlying manager — the way a long-lived (warm) checker is re-armed
    /// per request. Pair with the `try_*` entry points, which translate a
    /// trip into a [`BudgetAbort`] and restore the checker to a clean
    /// state.
    pub fn set_budget(&self, budget: Option<Budget>) {
        self.inner.borrow_mut().bdd.set_budget(budget);
    }

    /// Fallible [`SymbolicChecker::holds_everywhere`]: a budget trip is
    /// returned as a structured [`BudgetAbort`] instead of unwinding. On
    /// abort the checker is restored to a clean, reusable state (see
    /// [`BudgetAbort`]).
    pub fn try_holds_everywhere(
        &self,
        formula: &Formula<ConsensusAtom>,
    ) -> Result<bool, BudgetAbort> {
        self.catch_abort(|| self.holds_everywhere(formula))
    }

    /// Runs `query`, translating a budget trip into a [`BudgetAbort`] after
    /// the cleanup it describes: the layer focus cleared, every denotation
    /// the query allocated released, the budget disarmed.
    pub(crate) fn catch_abort<T>(&self, query: impl FnOnce() -> T) -> Result<T, BudgetAbort> {
        let before = self.inner.borrow().arena.live_ids();
        catch_budget(query).map_err(|error| self.budget_abort(error, &before, None))
    }

    /// Fallible [`SymbolicChecker::holds_everywhere_in_session`]. On abort
    /// the session survives: entries memoised *before* the trip (and any
    /// subformula completed during the aborted evaluation) stay valid —
    /// only the in-flight denotations are released — so a warm session is
    /// not poisoned by one over-budget query.
    pub fn try_holds_everywhere_in_session(
        &self,
        session: &mut EvalSession,
        formula: &Formula<ConsensusAtom>,
    ) -> Result<bool, BudgetAbort> {
        let before = self.inner.borrow().arena.live_ids();
        catch_budget(|| self.holds_everywhere_in_session(session, formula))
            .map_err(|error| self.budget_abort(error, &before, Some(&*session)))
    }

    /// Abort cleanup shared by the `try_*` entry points: disarm the budget
    /// (so cleanup itself cannot re-trip), release every denotation that
    /// came alive during the aborted evaluation — except complete entries
    /// the session cache adopted — and report partial-progress stats.
    fn budget_abort(
        &self,
        error: BddError,
        live_before: &[usize],
        session: Option<&EvalSession>,
    ) -> BudgetAbort {
        self.focus.set(None);
        let mut inner = self.inner.borrow_mut();
        inner.bdd.set_budget(None);
        let keep: std::collections::HashSet<usize> = live_before
            .iter()
            .copied()
            .chain(session.into_iter().flat_map(|s| s.cache.values().map(|&(_, den)| den)))
            .collect();
        let leaked: Vec<usize> =
            inner.arena.live_ids().into_iter().filter(|id| !keep.contains(id)).collect();
        for id in leaked {
            inner.arena.release(id);
        }
        let layers_built = inner.reachable.len();
        inner.maybe_gc(&mut []);
        let live_nodes = inner.bdd.live_nodes();
        BudgetAbort { error, layers_built, live_nodes }
    }

    /// Evaluates `formula` and reads the result off on the points of
    /// `model` — an explicitly explored model of the *same instance*. This
    /// is the differential read-off: the layers never enumerate a state,
    /// but any point of an explicit model can be encoded and looked up in
    /// the denotation BDDs, giving a `PointSet` directly comparable with
    /// the explicit [`Checker`](crate::Checker)'s.
    ///
    /// # Panics
    ///
    /// Panics if `model` has more layers than the checker.
    pub fn check_points<R2: DecisionRule<E>>(
        &self,
        model: &ConsensusModel<E, R2>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet {
        self.inner.borrow_mut().maybe_gc(&mut []);
        let mut env = HashMap::new();
        let den = self.eval_bounded(formula, &mut env, None);
        let set = self.read_points(model, den);
        self.release(den);
        self.inner.borrow_mut().maybe_gc(&mut []);
        set
    }

    /// Reads an already-computed denotation off on the points of `model`
    /// ([`SymbolicChecker::check_points`] without the evaluation step).
    /// `den` stays owned by the caller.
    fn read_points<R2: DecisionRule<E>>(
        &self,
        model: &ConsensusModel<E, R2>,
        den: DenId,
    ) -> PointSet {
        assert!(
            model.num_layers() <= self.num_layers(),
            "oracle model has more layers than the checker has built"
        );
        let inner = self.inner.borrow();
        let layers = inner.arena.get(den);
        let mut set = PointSet::empty(model);
        for time in 0..model.num_layers() as Round {
            for index in 0..model.layer_size(time) {
                let bits = self.encode_point(model, PointId::new(time, index));
                let holds =
                    inner.bdd.eval(layers[time as usize], |v| bits[(v.index() / 2) as usize]);
                if holds {
                    set.insert(PointId::new(time, index));
                }
            }
        }
        set
    }

    /// Number of states in layer `time`, counted off the reachable-set
    /// BDD. An explored model of the same instance can have more *points*
    /// than this: points that differ only in adversary bookkeeping no state
    /// variable records (EMin under omissions has them) encode identically.
    ///
    /// # Panics
    ///
    /// Panics if the encoding has 128 or more state variables (the count
    /// is returned as `u128`).
    pub fn layer_state_count(&self, time: Round) -> u128 {
        let inner = self.inner.borrow();
        let vars: Vec<Var> = (0..self.layout.num_slots).map(cur).collect();
        inner.bdd.sat_count_over(inner.reachable[time as usize], &vars)
    }

    /// Whether every agent has decided — or, under crash failures, crashed —
    /// in every state of the newest layer: the symbolic counterpart of
    /// [`ConsensusModel::final_layer_settled`], answered on the reachable-set
    /// BDD without enumerating the layer. The forward synthesis induction
    /// uses it for its early exit.
    pub fn final_layer_settled(&self) -> bool {
        let inner = &mut *self.inner.borrow_mut();
        let last = *inner.reachable.last().expect("the checker always has a layer");
        let crash = self.params.failure().kind() == FailureKind::Crash;
        let mut unsettled = Ref::FALSE;
        for vars in &self.layout.agents {
            let decided = inner.bdd.var(cur(vars.decided));
            let mut undecided = inner.bdd.not(decided);
            if crash {
                // A crashed agent never decides but does not block settling;
                // omission-faulty agents keep running and must still decide.
                let alive = inner.bdd.var(cur(vars.nonfaulty));
                undecided = inner.bdd.and(alive, undecided);
            }
            unsettled = inner.bdd.or(unsettled, undecided);
        }
        inner.bdd.and(last, unsettled) == Ref::FALSE
    }

    // ------------------------------------------------------------------
    // Arena plumbing.

    fn release(&self, den: DenId) {
        self.inner.borrow_mut().arena.release(den);
    }

    fn clone_den(&self, den: DenId) -> DenId {
        let mut inner = self.inner.borrow_mut();
        let Den { layers, bounded } = inner.arena.den(den).clone();
        inner.arena.alloc(layers, bounded)
    }

    /// A fresh denotation holding `value(layer)` on the focused layers and
    /// `⊥` on the others. `bounded` is the caller's promise that every
    /// value lies inside its layer's reachable set.
    fn alloc_active<F>(&self, bounded: bool, mut value: F) -> DenId
    where
        F: FnMut(&mut Inner, usize) -> Ref,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let layers = (0..inner.reachable.len())
            .map(|layer| if self.is_active(layer) { value(inner, layer) } else { Ref::FALSE })
            .collect();
        inner.arena.alloc(layers, bounded)
    }

    fn alloc_reachable(&self) -> DenId {
        self.alloc_active(true, |inner, layer| inner.reachable[layer])
    }

    /// `⊤` as an unbounded denotation: no layer is touched until a consumer
    /// restricts.
    fn alloc_true(&self) -> DenId {
        self.alloc_active(false, |_, _| Ref::TRUE)
    }

    fn alloc_false(&self) -> DenId {
        self.alloc_active(true, |_, _| Ref::FALSE)
    }

    /// Layerwise `a[l] = ¬a[l]`, in place (skipping unfocused layers). The
    /// complement of anything leaves the reachable set, so `a` ends up
    /// unbounded.
    fn negate(&self, a: DenId) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let den = inner.arena.den_mut(a);
        for (index, layer) in den.layers.iter_mut().enumerate() {
            if self.is_active(index) {
                *layer = inner.bdd.not(*layer);
            }
        }
        den.bounded = false;
    }

    /// Layerwise `a[l] = op(a[l], b[l])`, in place into `a`; `b` survives.
    /// `bound` says whether the result is bounded, given whether `a` and
    /// `b` are.
    fn map_binary<F: Fn(&mut Bdd, Ref, Ref) -> Ref>(
        &self,
        a: DenId,
        b: DenId,
        bound: fn(bool, bool) -> bool,
        op: F,
    ) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        debug_assert_ne!(a, b, "aliased denotations");
        let rhs = inner.arena.den(b).clone();
        let den = inner.arena.den_mut(a);
        for (index, (layer, r)) in den.layers.iter_mut().zip(rhs.layers).enumerate() {
            if self.is_active(index) {
                *layer = op(&mut inner.bdd, *layer, r);
            }
        }
        den.bounded = bound(den.bounded, rhs.bounded);
    }

    /// The consumer boundary: layerwise `a[l] &= reachable[l]`, in place,
    /// unless `a` is bounded already. The one place a denotation meets the
    /// reachable sets on a consumer's behalf, counted per layer in
    /// [`SymbolicStats::reach_restrictions`].
    fn restrict_to_reachable(&self, a: DenId) {
        let mut inner = self.inner.borrow_mut();
        let Inner { bdd, arena, reachable, reach_restrictions, .. } = &mut *inner;
        let den = arena.den_mut(a);
        if den.bounded {
            return;
        }
        for (index, (layer, &reach)) in den.layers.iter_mut().zip(reachable.iter()).enumerate() {
            if self.is_active(index) {
                *layer = bdd.and(reach, *layer);
                *reach_restrictions += 1;
            }
        }
        den.bounded = true;
    }

    fn dens_equal(&self, a: DenId, b: DenId) -> bool {
        let inner = self.inner.borrow();
        inner.arena.get(a) == inner.arena.get(b)
    }

    // ------------------------------------------------------------------
    // Formula evaluation, with restriction to the reachable sets on demand.
    //
    // The denotation of `φ` at layer `l` is a subset `[φ]_l` of
    // `reachable[l]`. Under the clock semantics restriction to the layer
    // commutes with every boolean connective, so the evaluator does not
    // restrict as it goes: what `eval` returns is any `d` with
    // `d[l] ∧ reachable[l] = [φ]_l`, and the entry's `bounded` bit records
    // when `d[l] = [φ]_l` already. Atoms yield their few-node state
    // constraint as it is, `true` is `⊤`, and the connectives combine
    // operands without touching a layer-sized diagram (`And` is bounded if
    // any conjunct is, `Or` only if all disjuncts are, `Not` / `Implies` /
    // `Iff` never). A specification clause of hundreds of implications
    // over atoms is one small constraint, conjoined with each layer once.
    //
    // The restriction happens where a consumer needs it, through
    // `eval_bounded`: the public entry points (`check*`,
    // `holds_everywhere*`, `holds_in_layer`, `observation_values`), the
    // operand of a temporal operator, and the body of a fixpoint (its
    // variable is bound to bounded iterates). The epistemic operators conjoin
    // `reachable[l]` onto `¬φ` anyway and take their operand as it is.
    // What a consumer sees is the same boolean function as under eager
    // restriction, hence — canonical diagrams in one manager — the same
    // `Ref`.

    /// Evaluates `formula` to a rooted denotation, possibly unbounded (see
    /// the section comment), consulting and filling the session cache for
    /// closed subformulas when a session is given.
    fn eval(
        &self,
        formula: &Formula<ConsensusAtom>,
        env: &mut HashMap<u32, DenId>,
        session: Option<&mut EvalSession>,
    ) -> DenId {
        self.eval_as(formula, env, session, false)
    }

    /// [`Self::eval`] for a consumer: the denotation itself, every layer
    /// inside its reachable set and `⊥` off the layer focus.
    fn eval_bounded(
        &self,
        formula: &Formula<ConsensusAtom>,
        env: &mut HashMap<u32, DenId>,
        session: Option<&mut EvalSession>,
    ) -> DenId {
        self.eval_as(formula, env, session, true)
    }

    fn eval_as(
        &self,
        formula: &Formula<ConsensusAtom>,
        env: &mut HashMap<u32, DenId>,
        mut session: Option<&mut EvalSession>,
        bounded: bool,
    ) -> DenId {
        // Only closed non-trivial subformulas are memoised, so the
        // canonical hash is computed lazily and exactly once per call.
        let cacheable = !matches!(formula, Formula::True | Formula::False | Formula::Var(_))
            && formula.is_closed();
        let key =
            if cacheable && session.is_some() { Some(formula.canonical_hash()) } else { None };
        if let (Some(cache), Some(key)) = (session.as_deref_mut(), key) {
            if let Some((cached_formula, den)) = cache.cache.get(&key) {
                // Structural collision check: `canonical_hash` equality is
                // not formula identity, and this cache outlives single
                // requests on the server's promotion path — a colliding
                // entry must be rejected, never served.
                if cached_formula == formula {
                    cache.hits += 1;
                    let den = *den;
                    // The entry itself is restricted, so it stays in the
                    // most restricted form any consumer has asked of it
                    // and the next such hit performs no BDD operation.
                    if bounded {
                        self.restrict_to_reachable(den);
                    }
                    return self.clone_den(den);
                }
                let (_, stale) = cache.cache.remove(&key).expect("entry just read");
                self.release(stale);
            }
        }
        let den = self.eval_node(formula, env, session.as_deref_mut());
        if bounded {
            self.restrict_to_reachable(den);
        }
        if let (Some(cache), Some(key)) = (session, key) {
            let copy = self.clone_den(den);
            cache.cache.insert(key, (formula.clone(), copy));
        }
        den
    }

    fn eval_node(
        &self,
        formula: &Formula<ConsensusAtom>,
        env: &mut HashMap<u32, DenId>,
        mut session: Option<&mut EvalSession>,
    ) -> DenId {
        match formula {
            Formula::True => self.alloc_true(),
            Formula::False => self.alloc_false(),
            Formula::Atom(atom) => self.atom_denotation(atom),
            Formula::Var(v) => {
                let id = *env.get(v).unwrap_or_else(|| panic!("free fixpoint variable _X{v}"));
                self.clone_den(id)
            }
            Formula::Not(inner) => {
                let t = self.eval(inner, env, session);
                self.negate(t);
                t
            }
            Formula::And(items) => {
                let acc = self.alloc_true();
                for item in items {
                    let value = self.eval(item, env, session.as_deref_mut());
                    self.map_binary(acc, value, |a, b| a || b, |bdd, a, b| bdd.and(a, b));
                    self.release(value);
                }
                acc
            }
            Formula::Or(items) => {
                let acc = self.alloc_false();
                for item in items {
                    let value = self.eval(item, env, session.as_deref_mut());
                    self.map_binary(acc, value, |a, b| a && b, |bdd, a, b| bdd.or(a, b));
                    self.release(value);
                }
                acc
            }
            Formula::Implies(lhs, rhs) => {
                let l = self.eval(lhs, env, session.as_deref_mut());
                let r = self.eval(rhs, env, session);
                self.map_binary(l, r, |_, _| false, |bdd, a, b| bdd.implies(a, b));
                self.release(r);
                l
            }
            Formula::Iff(lhs, rhs) => {
                let l = self.eval(lhs, env, session.as_deref_mut());
                let r = self.eval(rhs, env, session);
                self.map_binary(l, r, |_, _| false, |bdd, a, b| bdd.iff(a, b));
                self.release(r);
                l
            }
            Formula::Knows(agent, inner) => {
                let target = self.eval(inner, env, session);
                let result = self.knowledge(*agent, target, false);
                self.release(target);
                result
            }
            Formula::BelievesNonfaulty(agent, inner) => {
                let target = self.eval(inner, env, session);
                let result = self.knowledge(*agent, target, true);
                self.release(target);
                result
            }
            Formula::EveryoneBelieves(inner) => {
                let target = self.eval(inner, env, session);
                let result = self.everyone_believes(target);
                self.release(target);
                result
            }
            Formula::CommonBelief(inner) => {
                let target = self.eval(inner, env, session);
                let result = self.common_belief(target);
                self.release(target);
                result
            }
            Formula::Gfp(var, body) => self.fixpoint(*var, body, env, session, true),
            Formula::Lfp(var, body) => self.fixpoint(*var, body, env, session, false),
            Formula::Temporal(kind, inner) => {
                let target = self.eval_bounded(inner, env, session);
                let result = self.temporal(*kind, target);
                self.release(target);
                result
            }
        }
    }

    // ------------------------------------------------------------------
    // Atoms as variable constraints.

    /// The denotation of an atom, unbounded: a current-state constraint
    /// BDD per layer ([`atom_constraint`]), left for a consumer to conjoin
    /// with the reachable sets.
    fn atom_denotation(&self, atom: &ConsensusAtom) -> DenId {
        let constraint = atom_constraint(&mut self.inner.borrow_mut().bdd, &self.layout, atom);
        match (constraint, atom) {
            (Some(c), _) => self.alloc_active(false, |_, _| c),
            (None, ConsensusAtom::TimeIs(round)) => self.alloc_active(false, |_, layer| {
                if layer as Round == *round {
                    Ref::TRUE
                } else {
                    Ref::FALSE
                }
            }),
            // `DecidesNow` looks at the *action* taken in the coming round,
            // which is not part of the state encoding: each layer stores the
            // guarded conditions of the rule its round was built under.
            (None, ConsensusAtom::DecidesNow(agent, value)) => {
                let index = agent.index() * self.params.num_values() + value.index();
                self.alloc_active(false, |inner, t| inner.dnow[t][index])
            }
            (None, _) => unreachable!("atom_constraint leaves only TimeIs and DecidesNow"),
        }
    }

    // ------------------------------------------------------------------
    // Epistemic operators: one layerwise primitive, "block the believers".
    //
    // Under the clock semantics knowledge is layer-local, and every
    // operator below removes from a set `x` of one layer the observation
    // classes of an agent `i` that contain a point of a bad set `a ∧ b`:
    //
    //     block_i(x, a ∧ b, guard) = x ∧ ¬(guard ∧ ∃ hidden_i . (a ∧ b))
    //
    // The projection is one fused `and_exists` (the conjunction is never
    // built), and the clause it yields — a diagram over agent `i`'s
    // observable variables and nonfaulty flag only — is conjoined straight
    // onto `x`. With `R` the layer's reachable set and `nf_i` agent `i`'s
    // nonfaulty flag:
    //
    //     K_i φ      = block_i(R, R ∧ ¬φ, ⊤)
    //     B^N_i φ    = block_i(R, (R ∧ ¬φ) ∧ nf_i, ⊤)
    //     E_B(x, Δ)  = the fold of block_i(·, Δ ∧ nf_i, nf_i) over all i, from x
    //     E_B φ      = E_B(R, R ∧ ¬φ)
    //
    // The `R ∧ ¬φ` of every line is where an *unbounded* operand is
    // absorbed: `φ` arrives as whatever `eval` produced (often a few-node
    // state constraint), and since `R ∧ ¬(d ∧ R) = R ∧ ¬d` the bad set —
    // and so the result, which lies inside `R` by construction and is
    // allocated bounded — is the one eager restriction would have given.
    // No operator here asks for `eval_bounded`.
    //
    // Common belief `C_B φ = νX. E_B(X ∧ φ)` is a *frontier* iteration of
    // that step: `X₀ = R`, `Δ₀ = R ∧ ¬φ`, `X_{k+1} = E_B(X_k, Δ_k)`,
    // `Δ_{k+1} = X_k ∧ ¬X_{k+1}`. The textbook iterate is
    // `E_B(R, R ∧ ¬(X_k ∧ φ))`, whose bad set only grows:
    // `R ∧ ¬(X_k ∧ φ) = Δ₀ ∨ … ∨ Δ_k`. `∃` distributes over `∨`, so the
    // clauses of `Δ₀ … Δ_{k-1}` are exactly those already conjoined into
    // `X_k`, and each round quantifies only the points the previous round
    // removed instead of the whole complement. A layer whose `Δ` is empty
    // has converged, whatever the other layers are doing. Every iterate is
    // the same boolean function as the textbook one, so in one manager it
    // is the same diagram (`Ref`-equal) as what the generic `fixpoint`
    // evaluator below computes for `νX. E_B(X ∧ φ)`.

    /// `x ∧ ¬(guard ∧ ∃ hidden_agent . (a ∧ b))` on one layer; `x` itself
    /// when no observation class of `agent` meets `a ∧ b`.
    fn block(inner: &mut Inner, agent: AgentId, x: Ref, a: Ref, b: Ref, guard: Ref) -> Ref {
        let hidden = inner.hidden_cubes[agent.index()];
        let bdd = &mut inner.bdd;
        let classes = bdd.and_exists(a, b, hidden);
        if classes == Ref::FALSE {
            return x;
        }
        let blocked = bdd.and(guard, classes);
        let clause = bdd.not(blocked);
        bdd.and(x, clause)
    }

    /// One layer of block the believers:
    /// `x ∧ ⋀_i ¬(nf_i ∧ ∃ hidden_i . (nf_i ∧ delta))`.
    fn block_believers(&self, inner: &mut Inner, x: Ref, delta: Ref) -> Ref {
        if delta == Ref::FALSE {
            return x;
        }
        let mut live = [x, delta];
        for agent in AgentId::all(self.params.num_agents()) {
            // Safe point between agents: whatever else the caller holds is
            // rooted, only the accumulator and the frontier need carrying.
            inner.maybe_gc(&mut live);
            let [x, delta] = live;
            let nonfaulty = inner.bdd.var(cur(self.layout.agents[agent.index()].nonfaulty));
            live[0] = Self::block(inner, agent, x, delta, nonfaulty, nonfaulty);
        }
        live[0]
    }

    /// One layer of `K_agent target` (`B^N_agent target` when `guarded`).
    fn knows_layer(
        &self,
        inner: &mut Inner,
        layer: usize,
        agent: AgentId,
        target: Ref,
        guarded: bool,
    ) -> Ref {
        let reach = inner.reachable[layer];
        let not_target = inner.bdd.not(target);
        if guarded {
            let failing = inner.bdd.and(reach, not_target);
            let nonfaulty = inner.bdd.var(cur(self.layout.agents[agent.index()].nonfaulty));
            Self::block(inner, agent, reach, failing, nonfaulty, Ref::TRUE)
        } else {
            Self::block(inner, agent, reach, reach, not_target, Ref::TRUE)
        }
    }

    /// One layer of `E_B_N target`.
    fn everyone_believes_layer(&self, inner: &mut Inner, layer: usize, target: Ref) -> Ref {
        let reach = inner.reachable[layer];
        let not_target = inner.bdd.not(target);
        let failing = inner.bdd.and(reach, not_target);
        self.block_believers(inner, reach, failing)
    }

    /// Layerwise `op(layer, target[layer])` over the focused layers into a
    /// fresh denotation, with a safe point before each layer (`target` and
    /// the result are rooted in the arena).
    fn map_layers<F>(&self, target: DenId, mut op: F) -> DenId
    where
        F: FnMut(&mut Inner, usize, Ref) -> Ref,
    {
        let result = self.alloc_false();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for layer in (0..inner.reachable.len()).filter(|&layer| self.is_active(layer)) {
            inner.maybe_gc(&mut []);
            let target_layer = inner.arena.get(target)[layer];
            let value = op(inner, layer, target_layer);
            inner.arena.get_mut(result)[layer] = value;
        }
        result
    }

    fn knowledge(&self, agent: AgentId, target: DenId, guarded: bool) -> DenId {
        self.map_layers(target, |inner, layer, target| {
            self.knows_layer(inner, layer, agent, target, guarded)
        })
    }

    fn everyone_believes(&self, target: DenId) -> DenId {
        self.map_layers(target, |inner, layer, target| {
            self.everyone_believes_layer(inner, layer, target)
        })
    }

    /// `C_B_N target` by frontier iteration, each layer running until its
    /// own frontier is empty.
    fn common_belief(&self, target: DenId) -> DenId {
        let result = self.alloc_reachable();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let mut rounds = 0;
        for layer in (0..inner.reachable.len()).filter(|&layer| self.is_active(layer)) {
            inner.maybe_gc(&mut []);
            let not_target = inner.bdd.not(inner.arena.get(target)[layer]);
            let mut delta = inner.bdd.and(inner.reachable[layer], not_target);
            let mut layer_rounds = 0;
            while delta != Ref::FALSE {
                let x = inner.arena.get(result)[layer];
                let next = self.block_believers(inner, x, delta);
                // `X_k` stayed rooted in the arena across the safe points
                // between agents; a collection there remapped it in place.
                let x = inner.arena.get(result)[layer];
                let not_next = inner.bdd.not(next);
                delta = inner.bdd.and(x, not_next);
                inner.arena.get_mut(result)[layer] = next;
                layer_rounds += 1;
            }
            inner.common_belief_layer_steps += layer_rounds;
            rounds = rounds.max(layer_rounds);
        }
        inner.common_belief_rounds += rounds;
        result
    }

    fn fixpoint(
        &self,
        var: u32,
        body: &Formula<ConsensusAtom>,
        env: &mut HashMap<u32, DenId>,
        mut session: Option<&mut EvalSession>,
        greatest: bool,
    ) -> DenId {
        let mut current = if greatest { self.alloc_reachable() } else { self.alloc_false() };
        loop {
            self.inner.borrow_mut().maybe_gc(&mut []);
            let saved = env.insert(var, current);
            // The variable is bound to bounded iterates, and convergence
            // compares handles: the body is a consumer position.
            let next = self.eval_bounded(body, env, session.as_deref_mut());
            match saved {
                Some(value) => {
                    env.insert(var, value);
                }
                None => {
                    env.remove(&var);
                }
            }
            if self.dens_equal(next, current) {
                self.release(next);
                return current;
            }
            self.release(current);
            current = next;
        }
    }

    // ------------------------------------------------------------------
    // Transition relations and temporal operators.
    //
    // Each round `t` has a *partitioned* relation, one conjunct `R_t^i` per
    // agent over current-state, adversary-choice and that agent's primed
    // variables (built by `extend_layer_relational` from the protocol's
    // symbolic contract).
    // The forward image conjoins the partitions onto `reachable[t]` and
    // quantifies current-state and choice variables as early as the
    // schedule allows (`Inner::round_schedule`).
    //
    // The temporal operators go backwards, and going backwards through the
    // bare partitions is what used to cost a cold request 87 % of its wall:
    // seeded with the primed target, the product ranges over *every*
    // current-state assignment, reachable or not (floodset n=8 t=3, round
    // 2: a 1 983-node target against partitions of 186–1 397 nodes grew a
    // 79 222-node intermediate, 370–495 ms per pre-image, for a result of
    // 1 982 nodes once intersected with the layer). Under the clock
    // semantics `reachable[t]` is the exact care set of round `t` — every
    // denotation is restricted to it — so the pre-image instead goes
    // through the round's **reachable relation**
    //
    //     T_t(cur, nxt) = ∃ choices . reachable[t] ∧ ⋀_i R_t^i
    //
    // which is the product the forward image already schedules with the
    // current-state variables kept, and
    //
    //     pre(S) ∧ reachable[t] = ∃ nxt . T_t ∧ S'
    //
    // is one `and_exists` against a diagram of a few thousand nodes (same
    // model: `T_1` is 7 122 nodes, built in 15 ms with intermediates of at
    // most 10 965 nodes, and queried in 1 ms). `T_t` stays small as models
    // grow: at most 23 737 nodes on floodset n=12 t=4, 35 405 on n=16 t=4.
    //
    // `T_t` is a cache entry that survives automatic collections. It is
    // exact for the model that has been built — `reachable[t]` and the
    // round's partitions never change once the round exists — so keeping
    // it is always sound; the question is only what it costs. Rooting it
    // like a model handle would let the cache inflate the GC trigger, which
    // doubles past the post-collection live count. Dropping it at every
    // collection instead — as the kernel's operation caches are — made
    // each temporal formula, which starts with a safe point, rebuild the
    // relations the previous one had built: the service's cold batch
    // (`EF decided[0]`, `AX AX decided[0]` and its inner `AX`) built
    // `T_t` 55 times for 25 distinct rounds across the six `serve_cold`
    // models, 4.9 M of a pass's 8.4 M kernel ops.
    //
    // So the collector keeps the cache as a second tier
    // (`Bdd::gc_with_cache`) that the trigger does not count:
    // `Inner::collect` sizes the next collection by the nodes the model's
    // roots reach, and adds the cache-only nodes on top. With an empty
    // cache every decision is the old one. A reorder drops the cache
    // (sifting is sized by the model, and the relations are rebuilt
    // under the new order), and so does `force_gc`, the full collection.
    // The relations count in `live_nodes` — and so in a server's node
    // budget — while they are held. Measured on `serve_cold`: one build
    // per round (25 per pass), kernel ops 8.36 M → 5.09 M, collections
    // 17 → 9, `pass_wall_s` 0.603 → 0.364 s (−40 %, medians of ten
    // alternating pairs), and an unchanged peak of live nodes.

    /// The reachable relation of round `t`,
    /// `T_t(cur, nxt) = ∃ choices . reachable[t] ∧ ⋀_i R_t^i`: exactly the
    /// round-`t` edges that leave a reachable state, with the adversary's
    /// choices quantified away. Taken from the per-round cache, or built by
    /// the forward image's conjunction schedule with only the choice
    /// variables quantifiable.
    ///
    /// The build has no safe point — callers hold unrooted handles
    /// (`temporal`'s finished layers) across it, and it peaks at a few
    /// ×10 k nodes — and the cache entry is written only once the product
    /// is complete, so a budget trip mid-build leaves nothing behind. It
    /// uses plain [`Bdd::and_exists`]: `relational_product_calls` keeps
    /// counting forward image steps only.
    fn reachable_relation(&self, inner: &mut Inner, t: usize) -> Ref {
        if let Some(&relation) = inner.reachable_relations.get(&t) {
            return relation;
        }
        let choices: Vec<u32> = self.choice.all_vars().iter().map(|var| var.index()).collect();
        let mut acc = inner.reachable[t];
        for (agent, freed) in inner.round_schedule(t, &choices) {
            let cube = inner.bdd.cube_of_vars(freed.into_iter().map(Var::new));
            let part = inner.relations[t][agent];
            acc = inner.bdd.and_exists(part, acc, cube);
        }
        inner.reachable_relations.insert(t, acc);
        inner.reachable_relations_built += 1;
        acc
    }

    /// Symbolic pre-image within the layer, which is `EX set_next` at layer
    /// `t`: the *reachable* layer-`t` states with a round-`t` successor in
    /// `set_next` (a BDD over current-state variables of layer `t + 1`), as
    /// `∃ nxt . T_t ∧ set_next'` — one `and_exists` against the round's
    /// reachable relation. The empty set is answered before any relation
    /// is demanded (an `AG` of an invariant never builds one).
    fn preimage(&self, inner: &mut Inner, t: usize, set_next: Ref) -> Ref {
        if set_next == Ref::FALSE {
            return Ref::FALSE;
        }
        let relation = self.reachable_relation(inner, t);
        let primed = inner.bdd.replace(set_next, inner.cur_to_nxt);
        inner.preimage_calls += 1;
        inner.bdd.and_exists(relation, primed, inner.all_quant_cube)
    }

    /// `AX target` at layer `t` (all successors in `target`).
    fn all_next(&self, inner: &mut Inner, t: usize, target_next: Ref) -> Ref {
        let bdd = &mut inner.bdd;
        let not_target = bdd.not(target_next);
        let bad_next = bdd.and(inner.reachable[t + 1], not_target);
        let pre_bad = self.preimage(inner, t, bad_next);
        let bdd = &mut inner.bdd;
        let safe = bdd.not(pre_bad);
        bdd.and(inner.reachable[t], safe)
    }

    /// Bounded temporal operators by backward induction over the layers,
    /// with the per-layer step computed as a symbolic pre-image through
    /// the round's reachable relation.
    fn temporal(&self, kind: TemporalKind, target: DenId) -> DenId {
        debug_assert!(
            self.focus.get().is_none(),
            "temporal operators couple layers and must not run under a layer focus"
        );
        let num_layers = self.num_layers();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.maybe_gc(&mut []);
        let target_layers: Vec<Ref> = inner.arena.get(target).to_vec();
        let last = num_layers - 1;
        let layers: Vec<Ref> = match kind {
            TemporalKind::AllNext | TemporalKind::ExistsNext => {
                let universal = kind == TemporalKind::AllNext;
                (0..num_layers)
                    .map(|t| {
                        if t == last {
                            // No successors beyond the horizon: the
                            // universal quantifier holds vacuously, the
                            // existential one fails.
                            if universal {
                                inner.reachable[t]
                            } else {
                                Ref::FALSE
                            }
                        } else if universal {
                            self.all_next(inner, t, target_layers[t + 1])
                        } else {
                            self.preimage(inner, t, target_layers[t + 1])
                        }
                    })
                    .collect()
            }
            _ => {
                let globally =
                    matches!(kind, TemporalKind::AllGlobally | TemporalKind::ExistsGlobally);
                let universal =
                    matches!(kind, TemporalKind::AllGlobally | TemporalKind::AllFinally);
                let mut layers = vec![Ref::FALSE; num_layers];
                layers[last] = target_layers[last];
                for t in (0..last).rev() {
                    let future = if universal {
                        self.all_next(inner, t, layers[t + 1])
                    } else {
                        self.preimage(inner, t, layers[t + 1])
                    };
                    let bdd = &mut inner.bdd;
                    layers[t] = if globally {
                        bdd.and(target_layers[t], future)
                    } else {
                        bdd.or(target_layers[t], future)
                    };
                }
                layers
            }
        };
        inner.arena.alloc(layers, true)
    }
}

impl<E, R> SymbolicChecker<E, R>
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    /// Builds the model **relationally**: no state is ever enumerated.
    /// Layer 0 is the initial-state cube of the protocol's
    /// [`SymbolicEncode`] contract; every further layer is the forward
    /// image of the previous one through the round's partitioned
    /// transition relation, with the adversary's choices quantified away.
    /// The resulting layer BDDs denote exactly the state sets an
    /// exploration of the same instance enumerates
    /// ([`SymbolicChecker::check_points`] reads denotations off against
    /// one), over a variable order that interleaves the adversary-choice
    /// variables with the state variables.
    pub fn relational(exchange: E, params: ModelParams, rule: R, options: SymbolicOptions) -> Self {
        let layers = params.horizon() as usize + 1;
        let checker = Self::relational_seed(exchange, params, rule, options);
        checker.extend_to(layers);
        checker
    }

    /// Builds only layer 0 of the relational model. The synthesis engine
    /// grows the model round by round from this seed via
    /// [`SymbolicChecker::extend_layer_relational`], passing the partial
    /// rule synthesized so far.
    pub fn relational_seed(
        exchange: E,
        params: ModelParams,
        rule: R,
        options: SymbolicOptions,
    ) -> Self {
        let layout = SlotLayout::new(&exchange, &params);
        let choice =
            ChoiceVars::new(params.failure().kind(), params.num_agents(), layout.num_slots);
        let num_slots = layout.num_slots;

        let mut bdd = Bdd::new();
        bdd.set_budget(options.budget);
        bdd.set_groups((0..num_slots).map(|slot| vec![cur(slot), nxt(slot)]).collect());
        let crash = params.failure().kind() == FailureKind::Crash;
        let n = params.num_agents();
        // Sender-interleaved initial order: each agent's (current, primed)
        // slot pairs are followed immediately by the adversary choices
        // gating that agent's outgoing messages — its crash variable and
        // the delivery variables it is the sender of. A receiver's
        // partition reads `deliver ∧ alive(sender) ∧ sender-state` per
        // sender, so each such product resolves locally under this order.
        // The index layout (every choice below every state pair) instead
        // forces the relation diagrams to carry all senders' state bits
        // across the whole choice block — exponential in the number of
        // agents, and beyond what sifting recovers from.
        let mut order: Vec<Var> = Vec::with_capacity(2 * num_slots + choice.count());
        for (agent, slots) in layout.agents.iter().enumerate() {
            for &slot in &slots.all_slots {
                order.push(cur(slot));
                order.push(nxt(slot));
            }
            if crash {
                order.push(choice.crash_var(agent));
            }
            order.extend((0..n).filter(|&r| r != agent).map(|r| choice.deliver_var(agent, r)));
        }
        bdd.set_order(order);

        let cubes = derived_cubes(&mut bdd, &layout, &choice);
        let init = initial_cube(&mut bdd, &layout, &exchange, &params);
        let frontier = decides_now_table::<E, R>(&mut bdd, &layout, &choice, &rule, &params, 0);
        let roots =
            ModelRoots { reachable: vec![init], relations: Vec::new(), dnow: vec![frontier] };
        let mut inner =
            Inner::new(bdd, num_slots, cubes, roots, options.gc_threshold, options.gc_threshold);
        inner.maybe_gc(&mut []);
        Self::from_parts(exchange, rule, layout, choice, params, inner)
    }

    /// Wraps a built or restored [`Inner`] with the model's code and
    /// layout, every per-checker cache empty.
    fn from_parts(
        exchange: E,
        rule: R,
        layout: SlotLayout,
        choice: ChoiceVars,
        params: ModelParams,
        inner: Inner,
    ) -> Self {
        SymbolicChecker {
            exchange,
            rule,
            layout,
            choice,
            params,
            inner: RefCell::new(inner),
            frontier_epoch: Cell::new(0),
            focus: Cell::new(None),
            reachable_obs: RefCell::new(HashMap::new()),
        }
    }

    /// Extends the relational model under the checker's own rule until
    /// `layers` layers are materialised (no-op when they already are) —
    /// how a warm checker is taken to a longer horizon, and the only place
    /// the local engine grows its model.
    pub fn extend_to(&self, layers: usize) {
        while self.num_layers() < layers {
            self.extend_layer_relational(&self.rule);
        }
    }

    /// Returns `true` when `formula` holds at every point of layer `t`,
    /// building only the layers that verdict reads. Knowledge and common
    /// belief at a layer depend on that layer alone under the clock
    /// semantics, so the model is extended through layer `t` for a
    /// temporal-free formula, however large the horizon; through `t` plus
    /// the `AX`/`EX` nesting depth when those are the only temporal
    /// operators; and through the horizon for an unbounded one (`AG`,
    /// `AF`, `EG`, `EF`) or a fixpoint with a temporal body. A
    /// temporal-free formula is then evaluated under a focus on layer `t`,
    /// any other over the built prefix. That is exact at `t`: a temporal
    /// operator reads layer `l + 1` for layer `l`, and the nesting never
    /// reads past the demanded layer.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the horizon.
    pub fn holds_in_layer(&self, formula: &Formula<ConsensusAtom>, t: usize) -> bool {
        let horizon = self.params.horizon() as usize;
        assert!(t <= horizon, "layer {t} exceeds horizon {horizon}");
        self.extend_to(layer_demand(formula, t, horizon) + 1);
        self.inner.borrow_mut().maybe_gc(&mut []);
        self.focus.set((!formula.is_temporal()).then_some(t));
        let den = self.eval_bounded(formula, &mut HashMap::new(), None);
        self.focus.set(None);
        let holds = {
            let inner = self.inner.borrow();
            inner.arena.get(den)[t] == inner.reachable[t]
        };
        self.release(den);
        self.inner.borrow_mut().maybe_gc(&mut []);
        holds
    }

    /// Grows the relational model by one layer: builds the next round's
    /// partitioned transition relation and guarded decides-now conditions
    /// from `rule`, roots them, and computes the new layer as the forward
    /// image of the frontier. The round's relation stays available to the
    /// temporal operators. A budget trip leaves the model at its old
    /// layer count, and the next call builds the round afresh.
    pub fn extend_layer_relational<S: SymbolicRule<E>>(&self, rule: &S) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let t = inner.reachable.len() - 1;
        // A trip during an earlier call's image may have left this round's
        // relation rooted without its layer.
        inner.relations.truncate(t);
        inner.relation_supports.truncate(t);
        // No collection can run while the round build's unrooted
        // intermediates are in flight; everything is rooted right below.
        let round = round_relation(
            &mut inner.bdd,
            &self.layout,
            &self.choice,
            &self.exchange,
            rule,
            &self.params,
            t as Round,
        );
        let supports: Vec<Vec<u32>> =
            round.partitions.iter().map(|&part| support_indices(&inner.bdd, part)).collect();
        inner.relations.push(round.partitions);
        inner.relation_supports.push(supports);
        // The round's conditions supersede the frontier entry (they are
        // what this round's decisions actually follow).
        inner.dnow[t] = round.dnow;
        inner.maybe_gc(&mut []);
        let image = self.relational_image(inner, t);
        // The new frontier answers `DecidesNow` from the extending rule
        // until it is refreshed or the next extension replaces it. No
        // collection runs before the image and its table are rooted
        // together, so a trip leaves no layer without its table.
        let frontier = self.dnow_table(inner, rule, t + 1);
        inner.reachable_nodes += inner.bdd.node_count(image);
        inner.reachable.push(image);
        inner.dnow.push(frontier);
        inner.maybe_gc(&mut []);
    }

    /// Recomputes the newest layer's decides-now table under `rule`, so
    /// `DecidesNow` at the frontier reads the decisions `rule` takes there.
    /// The synthesis engine calls this before each branch with the partial
    /// rule fixed so far, as the explicit engine re-points its model's
    /// rule. Every earlier layer keeps the table of the rule its round was
    /// built under. Existing sessions become stale and must not be used
    /// afterwards.
    pub fn set_frontier_rule<S: SymbolicRule<E>>(&self, rule: &S) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let frontier = self.dnow_table(inner, rule, inner.reachable.len() - 1);
        *inner.dnow.last_mut().expect("the checker always has a layer") = frontier;
        inner.maybe_gc(&mut []);
        self.frontier_epoch.set(self.frontier_epoch.get() + 1);
    }

    /// The guarded decides-now conditions of `rule` at layer `time`.
    /// Unrooted until the caller stores them.
    fn dnow_table<S: SymbolicRule<E>>(&self, inner: &mut Inner, rule: &S, time: usize) -> Vec<Ref> {
        decides_now_table::<E, S>(
            &mut inner.bdd,
            &self.layout,
            &self.choice,
            rule,
            &self.params,
            time as Round,
        )
    }

    /// One forward image: conjoins the frontier layer with the round's
    /// partitions in [`Inner::round_schedule`] order, quantifying each
    /// variable the moment no remaining conjunct mentions it (early
    /// quantification through the fused
    /// [`epimc_bdd::Bdd::relational_product`]), then renames the surviving
    /// primed variables back to their current-state copies. Delivery
    /// choices leave with their receiver's partition; current-state and
    /// crash-choice variables leave once their last mentioning partition
    /// is in.
    fn relational_image(&self, inner: &mut Inner, t: usize) -> Ref {
        // Everything that must leave the image: current-state copies and
        // the adversary's choices. (Already sorted: current-state indices
        // are the even numbers below 2·num_slots, choice indices follow.)
        let mut quantifiable: Vec<u32> =
            (0..self.layout.num_slots).map(|slot| cur(slot).index()).collect();
        quantifiable.extend(self.choice.all_vars().iter().map(|var| var.index()));
        let mut acc = inner.reachable[t];
        for (agent, freed) in inner.round_schedule(t, &quantifiable) {
            // Safe point between steps: partitions and layers are rooted,
            // only the accumulator needs carrying.
            let mut extra = [acc];
            inner.maybe_gc(&mut extra);
            acc = extra[0];
            let cube = inner.bdd.cube_of_vars(freed.into_iter().map(Var::new));
            // Read the partition from its rooted slot: a collection at the
            // safe point remaps rooted handles in place.
            let part = inner.relations[t][agent];
            acc = inner.bdd.relational_product(part, acc, cube);
        }
        inner.bdd.replace(acc, inner.nxt_to_cur)
    }

    /// Serializes the checker into one [`epimc_bdd::Bdd::snapshot`] stream
    /// that [`SymbolicChecker::restore_relational`] can resurrect in another
    /// process. The stream's roots are every built layer, round relation
    /// partition and decides-now table; its words are the model fingerprint,
    /// the length tables that split the roots back up, and the GC trigger
    /// state. The hidden-variable and quantification cubes are not stored:
    /// a restore derives them from the layout.
    ///
    /// The stream carries the model alone: unless the store holds nothing
    /// else already, the checker first runs the full collection of
    /// [`SymbolicChecker::force_gc`], which drops the reachable relations
    /// and whatever ended sessions left behind. So a checker writes the
    /// same bytes whether or not it was collected just before.
    ///
    /// The exchange and rule are *not* serialized (they are code, not
    /// data); the restoring process passes equal `params` and compatible
    /// implementations, and the fingerprint is verified on restore.
    ///
    /// # Errors
    ///
    /// Fails while evaluation sessions are still holding denotations.
    pub fn snapshot(&self) -> Result<Vec<u8>, String> {
        let mut inner = self.inner.borrow_mut();
        if inner.arena.live_count() != 0 {
            return Err("end all evaluation sessions before snapshotting".to_string());
        }
        if inner.model_only_at != Some(inner.bdd.stats().allocated_nodes) {
            inner.collect_to_model();
        }
        let (roots, words) = self.snapshot_parts(&inner);
        Ok(inner.bdd.snapshot(&roots, &words))
    }

    /// The roots and words [`SymbolicChecker::snapshot`] writes: the
    /// fingerprint, the layer count, the relation and decides-now length
    /// tables (each a count, then one length per list), and the GC trigger
    /// state; the roots in the order the tables describe.
    fn snapshot_parts(&self, inner: &Inner) -> (Vec<Ref>, Vec<u64>) {
        let mut words = fingerprint(&self.params, &self.layout, &self.choice).to_vec();
        words.push(inner.reachable.len() as u64);
        for lists in [&inner.relations, &inner.dnow] {
            words.push(lists.len() as u64);
            words.extend(lists.iter().map(|list| list.len() as u64));
        }
        words.extend([inner.gc_threshold as u64, inner.gc_base_threshold as u64]);
        let lists = inner.relations.iter().chain(&inner.dnow).flatten();
        (inner.reachable.iter().chain(lists).copied().collect(), words)
    }

    /// Decodes a stream produced by [`SymbolicChecker::snapshot`] into a
    /// working checker over the given exchange, parameters and rule.
    ///
    /// The manager is revalidated by [`epimc_bdd::Bdd::restore`]; the
    /// fingerprint in the stream must match `params` and the variable
    /// layout the exchange induces; the length tables must account for
    /// every root and every word; the cubes are derived from the layout;
    /// and the substitutions the relational machinery needs are
    /// re-registered (ids are deterministic, so the caches stay coherent).
    /// Answers are bit-identical to the checker that was snapshotted.
    ///
    /// # Errors
    ///
    /// Fails on corrupt, truncated or wrong-version input, on a fingerprint
    /// mismatch, on length tables that disagree with the stream, or when
    /// the manager fails revalidation.
    pub fn restore_relational(
        exchange: E,
        params: ModelParams,
        rule: R,
        bytes: &[u8],
    ) -> Result<Self, String> {
        let (mut bdd, mut roots, words) = Bdd::restore(bytes).map_err(|error| error.to_string())?;
        let layout = SlotLayout::new(&exchange, &params);
        let choice =
            ChoiceVars::new(params.failure().kind(), params.num_agents(), layout.num_slots);
        let expected = fingerprint(&params, &layout, &choice);
        let mut words = words.into_iter();
        let stored: Vec<u64> = words.by_ref().take(expected.len()).collect();
        if stored[..] != expected[..] {
            return Err(format!(
                "snapshot was taken for a different model instance (fingerprint \
                 {stored:?}; these params and exchange give {expected:?})"
            ));
        }
        let num_levels = 2 * layout.num_slots + choice.count();
        if bdd.num_levels() != num_levels {
            return Err(format!(
                "snapshot manager does not have the layout's {num_levels} variables"
            ));
        }
        let mut word = || -> Result<usize, String> {
            let word = words.next().ok_or("checker snapshot words end early")?;
            usize::try_from(word).map_err(|_| format!("checker snapshot word {word} overflows"))
        };
        let num_layers = word()?;
        if num_layers == 0 {
            return Err("snapshot has no layers".to_string());
        }
        let relation_rounds = word()?;
        if relation_rounds.checked_add(1) != Some(num_layers) {
            return Err(format!(
                "snapshot has {relation_rounds} relation rounds for {num_layers} layers"
            ));
        }
        let relation_lens = (0..relation_rounds).map(|_| word()).collect::<Result<Vec<_>, _>>()?;
        let dnow_layers = word()?;
        if dnow_layers != num_layers {
            return Err(format!(
                "snapshot has {dnow_layers} decides-now tables for {num_layers} layers"
            ));
        }
        let dnow_lens = (0..dnow_layers).map(|_| word()).collect::<Result<Vec<_>, _>>()?;
        let gc_threshold = word()?;
        let gc_base_threshold = word()?;
        if words.next().is_some() {
            return Err("checker snapshot has words left over".to_string());
        }

        // Expected root count from the length tables, which a crafted
        // stream may make overflow.
        let Some(expected) = relation_lens
            .iter()
            .chain(&dnow_lens)
            .try_fold(num_layers, |sum, &len| sum.checked_add(len))
        else {
            return Err("snapshot length tables overflow".to_string());
        };
        if roots.len() != expected {
            return Err(format!(
                "snapshot carries {} rooted handles, expected {expected}",
                roots.len()
            ));
        }
        // Every round has one partition per agent and every layer one
        // decides-now condition per agent and value, which the evaluator
        // indexes without a check.
        let n = params.num_agents();
        let table_len = n * params.num_values();
        if relation_lens.iter().any(|&len| len != n)
            || dnow_lens.iter().any(|&len| len != table_len)
        {
            return Err("snapshot length tables do not match the layout".to_string());
        }

        // Distribute the roots back, in the order `snapshot` flattened
        // them. Supports are derivable (they mention variable identities,
        // not refs), so `Inner::new` recomputes them rather than trusting
        // the stream.
        let mut take = |count: usize| -> Vec<Ref> { roots.drain(..count).collect() };
        let reachable = take(num_layers);
        let relations = relation_lens.iter().map(|&len| take(len)).collect();
        let dnow = dnow_lens.iter().map(|&len| take(len)).collect();
        let roots = ModelRoots { reachable, relations, dnow };
        let cubes = derived_cubes(&mut bdd, &layout, &choice);
        let inner =
            Inner::new(bdd, layout.num_slots, cubes, roots, gc_threshold, gc_base_threshold);
        Ok(Self::from_parts(exchange, rule, layout, choice, params, inner))
    }
}

#[cfg(test)]
#[path = "symbolic_preimage_tests.rs"]
mod preimage_tests;

#[cfg(test)]
#[path = "symbolic_belief_tests.rs"]
mod belief_tests;

#[cfg(test)]
#[path = "symbolic_restriction_tests.rs"]
mod restriction_tests;

/// The current layer focus (`None` between evaluations), for the budget
/// sweeps of the lazy façade.
#[cfg(test)]
impl<E: InformationExchange, R> SymbolicChecker<E, R> {
    pub(crate) fn focus(&self) -> Option<usize> {
        self.focus.get()
    }
}

#[cfg(test)]
mod tests {
    use super::restriction_tests::{explicit_values, rule_as_table};
    use super::*;
    use crate::explicit::Checker;
    use epimc_protocols::{CountFloodSet, FloodSet, FloodSetRule, TextbookRule};
    use epimc_system::{FailureKind, ModelParams, TableRule, Value};

    type F = Formula<ConsensusAtom>;

    fn exists(v: usize) -> F {
        F::atom(ConsensusAtom::ExistsInit(Value::new(v)))
    }

    fn sba_condition(agent: usize, v: usize) -> F {
        F::believes_nonfaulty(AgentId::new(agent), F::common_belief(exists(v)))
    }

    fn crash(agents: usize) -> ModelParams {
        ModelParams::builder()
            .agents(agents)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .build()
    }

    fn floodset(
        params: ModelParams,
        options: SymbolicOptions,
    ) -> SymbolicChecker<FloodSet, FloodSetRule> {
        SymbolicChecker::relational(FloodSet, params, FloodSetRule, options)
    }

    fn agreement_formulas() -> Vec<F> {
        vec![
            exists(0),
            F::knows(AgentId::new(0), exists(0)),
            sba_condition(0, 0),
            F::not(sba_condition(1, 1)),
            F::and([exists(0), F::not(F::knows(AgentId::new(2), exists(0)))]),
            F::everyone_believes(exists(1)),
            F::all_next(F::atom(ConsensusAtom::TimeIs(1))),
            F::all_globally(F::implies(
                F::atom(ConsensusAtom::Decided(AgentId::new(0))),
                exists(0),
            )),
            F::exists_finally(F::atom(ConsensusAtom::DecidesNow(AgentId::new(1), Value::ZERO))),
            F::exists_next(F::atom(ConsensusAtom::ObsAtMost(AgentId::new(0), 0, 1))),
        ]
    }

    #[test]
    fn symbolic_agrees_with_explicit_on_count_omissions() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        let model = ConsensusModel::explore(CountFloodSet, params, TextbookRule);
        let explicit = Checker::new(&model);
        let symbolic = SymbolicChecker::relational(
            CountFloodSet,
            params,
            TextbookRule,
            SymbolicOptions::default(),
        );
        for formula in [
            sba_condition(0, 0),
            sba_condition(1, 1),
            F::common_belief(exists(0)),
            F::implies(F::atom(ConsensusAtom::Nonfaulty(AgentId::new(0))), exists(1)),
            F::atom(ConsensusAtom::ObsEquals(AgentId::new(0), 0, 1)),
            F::atom(ConsensusAtom::ObsAtMost(AgentId::new(1), 0, 0)),
        ] {
            assert_eq!(
                explicit.check(&formula),
                symbolic.check_points(&model, &formula),
                "engines disagree on {formula}"
            );
        }
    }

    #[test]
    fn forced_gc_between_checks_preserves_results() {
        let params = crash(3);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let symbolic = floodset(params, SymbolicOptions::default());
        let formulas = agreement_formulas();
        let before: Vec<PointSet> =
            formulas.iter().map(|f| symbolic.check_points(&model, f)).collect();
        symbolic.force_gc();
        assert!(symbolic.stats().gc_runs >= 1);
        for (formula, expected) in formulas.iter().zip(&before) {
            assert_eq!(
                symbolic.check_points(&model, formula),
                *expected,
                "gc changed the answer to {formula}"
            );
        }
    }

    #[test]
    fn forced_reorders_agree_with_explicit() {
        // Group sifting mid-session, with a small GC threshold so
        // collections run through the build and the evaluations too: every
        // answer must stay the explicit engine's.
        let params = crash(3);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let symbolic =
            floodset(params, SymbolicOptions { gc_threshold: 1 << 10, ..Default::default() });
        for (case, formula) in agreement_formulas().iter().enumerate() {
            if case % 3 == 2 {
                symbolic.force_reorder();
            }
            assert_eq!(
                symbolic.check_points(&model, formula),
                explicit.check(formula),
                "{formula}"
            );
        }
        let stats = symbolic.stats();
        assert!(stats.reorder_runs >= 3, "every third case sifts");
        assert!(stats.reorder_swaps > 0);
        assert!(stats.gc_runs > 0, "the small threshold collects");
    }

    #[test]
    fn observation_values_survive_forced_reorders() {
        let params = crash(3);
        let symbolic = floodset(params, SymbolicOptions::default());
        let formula = sba_condition(0, 0);
        let all_values = || {
            let mut values = Vec::new();
            for agent in AgentId::all(3) {
                for time in 0..symbolic.num_layers() as Round {
                    let mut session = symbolic.session();
                    values.push(symbolic.observation_values(&mut session, &formula, agent, time));
                    symbolic.end_session(session);
                }
            }
            values
        };
        let before = all_values();
        symbolic.force_reorder();
        assert!(symbolic.stats().reorder_runs >= 1);
        assert_eq!(before, all_values(), "reordering changed observation values");
    }

    #[test]
    fn tiny_gc_threshold_still_answers_correctly() {
        // Force collections constantly — through the forward images of the
        // build as well; results must be unchanged.
        let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let stressed = floodset(params, SymbolicOptions { gc_threshold: 1, ..Default::default() });
        for formula in [sba_condition(0, 0), F::all_globally(exists(1)), exists(0)] {
            assert_eq!(
                explicit.check(&formula),
                stressed.check_points(&model, &formula),
                "on {formula}"
            );
        }
        assert!(stressed.stats().gc_runs > 0, "threshold 1 must trigger collections");
    }

    /// `observation_values` against the explicit grouping of the layer, for
    /// every agent and layer (one session per layer: the cached denotations
    /// are computed under that layer's focus).
    fn observation_values_match_grouping(agents: usize, formulas: &[F]) {
        let params = crash(agents);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let symbolic = floodset(params, SymbolicOptions::default());
        let explicit = Checker::new(&model);
        for formula in formulas {
            let holds = explicit.check(formula);
            for agent in AgentId::all(agents) {
                for time in 0..model.num_layers() as Round {
                    let mut session = symbolic.session();
                    let values = symbolic.observation_values(&mut session, formula, agent, time);
                    let expected = explicit_values(&model, &holds, agent, time);
                    assert_eq!(values, expected, "{formula} {agent} t={time}");
                    assert_eq!(symbolic.layer_observations(agent, time), expected.reachable);
                    assert!(!session.is_empty(), "closed formulas are memoised");
                    symbolic.end_session(session);
                }
            }
        }
    }

    #[test]
    fn observation_values_match_explicit_grouping() {
        observation_values_match_grouping(
            3,
            &[sba_condition(0, 0), F::knows(AgentId::new(1), exists(1)), exists(0)],
        );
    }

    #[test]
    fn relational_observation_values_match_explicit() {
        observation_values_match_grouping(2, &[sba_condition(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "different layer focus")]
    fn sessions_cannot_mix_layer_focuses() {
        let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
        let symbolic = floodset(params, SymbolicOptions::default());
        let mut session = symbolic.session();
        let _ = symbolic.observation_values(&mut session, &exists(0), AgentId::new(0), 0);
        let _ = symbolic.observation_values(&mut session, &exists(0), AgentId::new(0), 1);
    }

    #[test]
    fn session_checks_agree_with_plain_checks_across_gc() {
        let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let symbolic =
            floodset(params, SymbolicOptions { gc_threshold: 1 << 10, ..Default::default() });
        // `check_points` through a session: the denotation a session-backed
        // entry point is handed, read off on the model's points.
        let check_in_session = |session: &mut EvalSession, formula: &F| {
            let den = symbolic.eval_bounded(formula, &mut HashMap::new(), Some(session));
            let set = symbolic.read_points(&model, den);
            symbolic.release(den);
            set
        };
        let mut session = symbolic.session();
        for formula in agreement_formulas() {
            let expected = symbolic.check_points(&model, &formula);
            assert_eq!(check_in_session(&mut session, &formula), expected);
            // Second evaluation is served from the cache.
            assert_eq!(check_in_session(&mut session, &formula), expected);
        }
        symbolic.force_gc();
        for formula in agreement_formulas() {
            assert_eq!(
                check_in_session(&mut session, &formula),
                symbolic.check_points(&model, &formula)
            );
        }
        symbolic.end_session(session);
    }

    /// Grown the way synthesis grows it — seeded under an empty table,
    /// each frontier refreshed from the model's rule spelled as a table and
    /// then extended under that table — `DecidesNow` must denote what the
    /// explicit checker reads off the model's actions at every layer. A
    /// refresh from the empty table then empties the frontier's table only.
    fn frontier_rule_matches_scan(agents: usize) {
        // FloodSet decides at `t + 1`: end the model there, so the frontier
        // is the deciding layer.
        let params = crash(agents).with_horizon(2);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let table = rule_as_table(&model);
        let empty = TableRule::new("empty");
        let symbolic = SymbolicChecker::relational_seed(
            FloodSet,
            params,
            empty.clone(),
            SymbolicOptions::default(),
        );
        for _ in 1..model.num_layers() {
            symbolic.set_frontier_rule(&table);
            symbolic.extend_layer_relational(&table);
        }
        symbolic.set_frontier_rule(&table);
        let formulas: Vec<F> = (0..agents)
            .flat_map(|agent| {
                (0..2).map(move |value| {
                    F::atom(ConsensusAtom::DecidesNow(AgentId::new(agent), Value::new(value)))
                })
            })
            .collect();
        let last = model.num_layers() as Round - 1;
        for formula in &formulas {
            let scanned = explicit.check(formula);
            assert_eq!(symbolic.check_points(&model, formula), scanned, "{formula}");
            assert!(scanned.iter().any(|point| point.time == last), "{formula}: no frontier point");
        }
        symbolic.set_frontier_rule(&empty);
        for formula in &formulas {
            let before_the_frontier: Vec<PointId> =
                explicit.check(formula).iter().filter(|point| point.time < last).collect();
            let now: Vec<PointId> = symbolic.check_points(&model, formula).iter().collect();
            assert_eq!(now, before_the_frontier, "{formula} after the empty refresh");
        }
    }

    #[test]
    fn frontier_rule_matches_explicit_decides_now_scan() {
        frontier_rule_matches_scan(3);
    }

    #[test]
    fn relational_frontier_rule_matches_explicit_scan() {
        frontier_rule_matches_scan(2);
    }

    #[test]
    #[should_panic(expected = "outlived a frontier-rule change")]
    fn stale_sessions_are_rejected() {
        let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
        let symbolic = floodset(params, SymbolicOptions::default());
        let mut session = symbolic.session();
        symbolic.set_frontier_rule(&FloodSetRule);
        let _ = symbolic.holds_everywhere_in_session(&mut session, &exists(0));
    }

    #[test]
    fn knowledge_is_constant_on_observation_classes() {
        let params = ModelParams::builder().agents(2).max_faulty(1).values(2).build();
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let symbolic = floodset(params, SymbolicOptions::default());
        let k = F::knows(AgentId::new(0), exists(0));
        let holds = symbolic.check_points(&model, &k);
        for time in 0..model.num_layers() as Round {
            for a in 0..model.layer_size(time) {
                for b in 0..model.layer_size(time) {
                    let pa = PointId::new(time, a);
                    let pb = PointId::new(time, b);
                    if model.observation(AgentId::new(0), pa)
                        == model.observation(AgentId::new(0), pb)
                    {
                        assert_eq!(holds.contains(pa), holds.contains(pb));
                    }
                }
            }
        }
    }

    #[test]
    fn relational_layers_and_checks_match_explicit_on_floodset() {
        let params = crash(3);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let relational = floodset(params, SymbolicOptions::default());
        assert_eq!(relational.num_layers(), model.num_layers());
        // The relational layers are extensionally identical to the explored
        // ones: every explored point is reachable, and each layer has as
        // many states as the exploration has distinct state encodings (so
        // there is nothing extra either).
        assert_eq!(relational.check_points(&model, &F::tt()), PointSet::full(&model));
        for time in 0..model.num_layers() as Round {
            let encodings: std::collections::HashSet<Vec<bool>> = (0..model.layer_size(time))
                .map(|index| relational.encode_point(&model, PointId::new(time, index)))
                .collect();
            assert_eq!(
                relational.layer_state_count(time),
                encodings.len() as u128,
                "layer {time} state count"
            );
        }
        let mut formulas = agreement_formulas();
        formulas.push(F::atom(ConsensusAtom::DecidesNow(AgentId::new(0), Value::new(0))));
        for formula in formulas {
            let expected = explicit.check(&formula);
            assert_eq!(
                expected,
                relational.check_points(&model, &formula),
                "relational front-end disagrees on {formula}"
            );
            assert_eq!(
                relational.holds_everywhere(&formula),
                explicit.holds_everywhere(&formula),
                "holds_everywhere disagrees on {formula}"
            );
        }
        let stats = relational.stats();
        assert!(stats.num_state_vars > 0);
        assert!(stats.reachable_nodes > 0);
        assert!(stats.num_relation_vars > stats.num_state_vars);
        assert!(stats.relational_product_calls > 0, "images route through relational_product");
        assert!(
            stats.image_cache_hits + stats.image_cache_misses > 0,
            "image cache counters never moved"
        );
        assert_eq!(stats.reachable_nodes, walked_reachable_nodes(&relational));
    }

    #[test]
    fn relational_matches_explicit_on_count_omissions() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        let model = ConsensusModel::explore(CountFloodSet, params, TextbookRule);
        let explicit = Checker::new(&model);
        let relational = SymbolicChecker::relational(
            CountFloodSet,
            params,
            TextbookRule,
            SymbolicOptions::default(),
        );
        assert_eq!(relational.check_points(&model, &F::tt()), PointSet::full(&model));
        for formula in [
            sba_condition(0, 0),
            F::common_belief(exists(0)),
            F::all_next(F::atom(ConsensusAtom::TimeIs(1))),
            F::exists_finally(F::atom(ConsensusAtom::DecidesNow(AgentId::new(1), Value::new(0)))),
        ] {
            assert_eq!(
                explicit.check(&formula),
                relational.check_points(&model, &formula),
                "relational front-end disagrees on {formula}"
            );
        }
    }

    #[test]
    fn relational_seed_extends_to_the_full_build() {
        let params = ModelParams::builder()
            .agents(3)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let full =
            SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
        let grown = SymbolicChecker::relational_seed(
            FloodSet,
            params,
            FloodSetRule,
            SymbolicOptions::default(),
        );
        assert_eq!(grown.num_layers(), 1);
        while grown.num_layers() < full.num_layers() {
            grown.extend_layer_relational(&FloodSetRule);
        }
        for formula in agreement_formulas() {
            assert_eq!(
                full.check_points(&model, &formula),
                grown.check_points(&model, &formula),
                "seed-grown checker disagrees on {formula}"
            );
        }
    }

    /// Σ [`Bdd::node_count`] over the checker's layers, walked afresh.
    fn walked_reachable_nodes<E: InformationExchange, R>(checker: &SymbolicChecker<E, R>) -> usize {
        let inner = checker.inner.borrow();
        inner.reachable.iter().map(|&layer| inner.bdd.node_count(layer)).sum()
    }

    #[test]
    fn the_running_reachable_node_total_is_the_walked_sum() {
        let params = crash(3);
        let seed = || {
            SymbolicChecker::relational_seed(
                FloodSet,
                params,
                FloodSetRule,
                SymbolicOptions::default(),
            )
        };
        let agrees = |checker: &SymbolicChecker<FloodSet, FloodSetRule>, when: &str| {
            assert_eq!(checker.stats().reachable_nodes, walked_reachable_nodes(checker), "{when}");
        };
        let checker = seed();
        agrees(&checker, "after the seed");
        checker.extend_layer_relational(&FloodSetRule);
        agrees(&checker, "after the first extension");
        // Trip the second extension at several points of its op count — in
        // the round build, the image and the decides-now table — each on a
        // fresh twin, then retry it unbudgeted.
        let twin = seed();
        twin.extend_layer_relational(&FloodSetRule);
        twin.set_budget(Some(Budget::with_max_ops(u64::MAX)));
        twin.extend_layer_relational(&FloodSetRule);
        let needed = twin.inner.borrow().bdd.budget_ops();
        assert!(needed > 100, "the extension is too small to trip ({needed} ops)");
        for fuel in [1, needed / 3, needed / 2, needed - 1] {
            let tripped = seed();
            tripped.extend_layer_relational(&FloodSetRule);
            tripped.set_budget(Some(Budget::with_max_ops(fuel)));
            let trip = catch_budget(|| tripped.extend_layer_relational(&FloodSetRule));
            tripped.set_budget(None);
            assert!(trip.is_err(), "fuel {fuel} of {needed} did not trip");
            assert_eq!(tripped.num_layers(), 2, "fuel {fuel}: a tripped extension added a layer");
            agrees(&tripped, &format!("after an extension tripped at fuel {fuel}"));
            tripped.extend_layer_relational(&FloodSetRule);
            agrees(&tripped, &format!("after the retry of fuel {fuel}"));
            assert_eq!(tripped.stats().reachable_nodes, twin.stats().reachable_nodes);
        }
        while checker.num_layers() <= params.horizon() as usize {
            checker.extend_layer_relational(&FloodSetRule);
            agrees(&checker, &format!("after growing to {} layers", checker.num_layers()));
        }
        checker.compact();
        agrees(&checker, "after a compaction");
        checker.force_gc();
        agrees(&checker, "after a full collection");
        checker.force_reorder();
        agrees(&checker, "after a reorder");
        let bytes = checker.snapshot().expect("snapshot");
        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
            .expect("restore");
        agrees(&restored, "after a snapshot round trip");
        assert_eq!(restored.stats().reachable_nodes, checker.stats().reachable_nodes);
    }

    #[test]
    fn checker_snapshot_round_trips_into_an_identical_checker() {
        let params = ModelParams::builder()
            .agents(4)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        let original =
            SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
        let bytes = original.snapshot().expect("snapshot a fully built relational checker");
        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
            .expect("restore from the snapshot stream");

        // Bit-identical answers: layer counts and a seeded differential
        // formula set agree between the original and the restored checker.
        assert_eq!(restored.num_layers(), original.num_layers());
        for time in 0..original.num_layers() as Round {
            assert_eq!(
                original.layer_state_count(time),
                restored.layer_state_count(time),
                "layer {time} state count"
            );
        }
        let mut formulas = agreement_formulas();
        formulas.push(F::atom(ConsensusAtom::DecidesNow(AgentId::new(0), Value::new(0))));
        formulas.push(F::exists_finally(F::atom(ConsensusAtom::Decided(AgentId::new(1)))));
        let mut session = restored.session();
        for formula in &formulas {
            assert_eq!(
                original.holds_everywhere(formula),
                restored.holds_everywhere_in_session(&mut session, formula),
                "restored checker disagrees on {formula}"
            );
        }
        // The restored checker's session cache works: re-asking the same
        // closed formulas recalls denotations instead of recomputing.
        for formula in &formulas {
            restored.holds_everywhere_in_session(&mut session, formula);
        }
        assert!(session.hits() >= formulas.len() as u64, "second pass never hit the cache");
        restored.end_session(session);

        // Live sessions block snapshotting (their denotations are process-
        // local and would dangle).
        let held = restored.session();
        let mut held = held;
        restored.holds_everywhere_in_session(&mut held, &formulas[0]);
        assert!(restored.snapshot().is_err(), "snapshot with a live session must fail");
        restored.end_session(held);
        assert!(restored.snapshot().is_ok(), "snapshot after ending the session");

        // Damaged streams and mismatched instances are rejected as errors.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(
            SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &corrupt).is_err(),
            "bit-flipped stream must be rejected"
        );
        assert!(
            SymbolicChecker::restore_relational(
                FloodSet,
                params,
                FloodSetRule,
                &bytes[..bytes.len() - 3]
            )
            .is_err(),
            "truncated stream must be rejected"
        );
        let other = ModelParams::builder()
            .agents(3)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        assert!(
            SymbolicChecker::restore_relational(FloodSet, other, FloodSetRule, &bytes).is_err(),
            "snapshot for n=4 must not restore under n=3 params"
        );
    }

    #[test]
    fn a_snapshot_carries_the_model_alone() {
        // A temporal batch leaves reachable relations and ended-session
        // garbage behind; the snapshot must not carry either.
        let params = crash(4);
        let batch = [
            F::exists_finally(F::atom(ConsensusAtom::Decided(AgentId::new(0)))),
            F::all_next(F::all_next(F::atom(ConsensusAtom::Decided(AgentId::new(0))))),
            sba_condition(0, 0),
        ];
        let after_batch = || {
            let checker = floodset(params, SymbolicOptions::default());
            let mut session = checker.session();
            for formula in &batch {
                checker.holds_everywhere_in_session(&mut session, formula);
            }
            checker.end_session(session);
            assert!(checker.stats().reachable_relations_built > 0);
            checker
        };
        let checker = after_batch();
        let live_before = checker.stats().live_nodes;
        let bytes = checker.snapshot().expect("snapshot");
        assert!(checker.stats().live_nodes < live_before, "the snapshot collected nothing");
        assert_eq!(checker.snapshot().expect("snapshot again"), bytes, "a second snapshot");
        let collected = after_batch();
        collected.force_gc();
        assert_eq!(collected.snapshot().expect("snapshot"), bytes, "a snapshot after force_gc");

        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
            .expect("restore");
        assert_eq!(restored.stats().live_nodes, checker.stats().live_nodes);
        let reference = floodset(params, SymbolicOptions::default());
        for formula in batch.iter().chain(&agreement_formulas()) {
            let want = reference.holds_everywhere(formula);
            assert_eq!(restored.holds_everywhere(formula), want, "restored: {formula}");
            assert_eq!(checker.holds_everywhere(formula), want, "snapshotted: {formula}");
        }
    }

    #[test]
    fn pre_version_2_snapshots_are_rejected() {
        let params = crash(2);
        let bytes = floodset(params, SymbolicOptions::default()).snapshot().expect("snapshot");
        let restore = |bytes: &[u8]| {
            SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, bytes)
                .err()
                .expect("a pre-version-2 stream restored")
        };
        // An intact, correctly sealed kernel stream that claims version 1.
        let mut version_1 = bytes.clone();
        version_1[4..8].copy_from_slice(&1u32.to_le_bytes());
        epimc_bdd::reseal_snapshot(&mut version_1);
        let error = restore(&version_1);
        assert!(error.contains("unsupported snapshot version 1"), "{error}");
        // A sealed stream under another magic, as the retired checker
        // envelope had, is rejected by its magic.
        let mut foreign = bytes.clone();
        foreign[..4].copy_from_slice(b"XXXX");
        epimc_bdd::reseal_snapshot(&mut foreign);
        let error = restore(&foreign);
        assert!(error.contains("bad magic"), "{error}");
    }

    #[test]
    fn overflowing_relation_length_tables_are_rejected() {
        let params = crash(3);
        let checker = floodset(params, SymbolicOptions::default());
        let inner = checker.inner.borrow();
        let (roots, words) = checker.snapshot_parts(&inner);
        let restored = |words: &[u64]| {
            let bytes = inner.bdd.snapshot(&roots, words);
            SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
        };
        assert!(restored(&words).is_ok(), "the uncrafted words restore");
        // The relation length table follows the fingerprint, the layer
        // count and the relation round count.
        let first_len = fingerprint(&checker.params, &checker.layout, &checker.choice).len() + 2;
        assert!(words[first_len - 1] >= 2, "fewer than two relation rounds");
        // One length of u64::MAX overflows the sum; adding 2^63 to two
        // lengths wraps it back to the true root count.
        let mut saturated = words.clone();
        saturated[first_len] = u64::MAX;
        let mut wrapped = words.clone();
        for at in [first_len, first_len + 1] {
            wrapped[at] = wrapped[at].wrapping_add(1 << 63);
        }
        // Moving a partition from one round to the next keeps the sum but
        // not the layout; a missing word and a leftover word are errors too.
        let mut shifted = words.clone();
        shifted[first_len] += 1;
        shifted[first_len + 1] -= 1;
        let short = &words[..words.len() - 1];
        let long = [&words[..], &[0]].concat();
        for crafted in [&saturated[..], &wrapped, &shifted, short, &long] {
            assert!(restored(crafted).is_err(), "crafted words {crafted:?} restored");
        }
    }

    #[test]
    fn swapped_hidden_cubes_are_derived_again_on_restore() {
        // The cubes follow from the layout, so a snapshot does not carry
        // them: a checker whose cubes were swapped (as a stream editing
        // them would) restores with the right ones.
        let params = crash(3);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let checker = floodset(params, SymbolicOptions::default());
        checker.inner.borrow_mut().hidden_cubes.swap(0, 1);
        let bytes = checker.snapshot().expect("snapshot");
        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
            .expect("restore");
        for formula in agreement_formulas() {
            assert_eq!(
                restored.check_points(&model, &formula),
                explicit.check(&formula),
                "restored checker disagrees on {formula}"
            );
        }
    }

    #[test]
    fn a_sifted_order_survives_a_snapshot_round_trip() {
        // The order is static unless a caller sifts; a sifted checker's
        // snapshot carries the new order, and the restored checker answers
        // as the explicit engine does.
        let params = crash(3);
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        let explicit = Checker::new(&model);
        let sifted = floodset(params, SymbolicOptions::default());
        let seeded_order = sifted.inner.borrow().bdd.current_order();
        sifted.force_reorder();
        let order = sifted.inner.borrow().bdd.current_order();
        assert_ne!(order, seeded_order, "sifting moved no variable");
        let bytes = sifted.snapshot().expect("snapshot");
        let restored = SymbolicChecker::restore_relational(FloodSet, params, FloodSetRule, &bytes)
            .expect("restore");
        assert_eq!(restored.inner.borrow().bdd.current_order(), order);
        for formula in agreement_formulas() {
            assert_eq!(restored.check_points(&model, &formula), explicit.check(&formula));
        }
    }

    #[test]
    fn final_layer_settled_matches_explicit() {
        let params = ModelParams::builder()
            .agents(3)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::Crash)
            .build();
        let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
        assert!(model.final_layer_settled(), "FloodSet decides by the horizon");
        let relational =
            SymbolicChecker::relational(FloodSet, params, FloodSetRule, SymbolicOptions::default());
        assert!(relational.final_layer_settled());

        let idle = ConsensusModel::explore(FloodSet, params, TableRule::new("noop"));
        assert!(!idle.final_layer_settled());
        let relational_idle = SymbolicChecker::relational(
            FloodSet,
            params,
            TableRule::new("noop"),
            SymbolicOptions::default(),
        );
        assert!(!relational_idle.final_layer_settled());
    }
}

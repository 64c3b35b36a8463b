//! The **local** (on-the-fly) engine: [`LocalChecker`] compiles a formula
//! into an `epimc-local` fixpoint equation system and solves it against
//! the relational model, materialising only the layers the query
//! actually depends on.
//!
//! The checker owns a [`SymbolicChecker`] built from
//! [`SymbolicChecker::relational_seed`] — layer 0 only — and grows it via
//! the relational layer extension exactly when the solver's
//! `ensure_layer` demands a deeper layer (a `Next` child, or a requested
//! root layer). Because knowledge, belief and common belief are
//! layer-local under clock semantics, a purely epistemic query about
//! layer `t` settles after materialising `t + 1` layers, however large
//! the horizon; each `AX`/`EX` (and each unrolling step of `AG`/`AF`/…)
//! adds one layer of depth. [`LocalChecker::layers_expanded`] exposes the
//! resulting laziness measure, and `crates/local/tests/laziness.rs`
//! pins the contract: verdicts are invariant under forced full
//! expansion.
//!
//! Verdicts are memoised across calls keyed by
//! [`Formula::canonical_hash`], with a structural equality check on every
//! hit so a hash collision degrades to a miss instead of a wrong answer —
//! the same discipline as the evaluator's denotation cache.
//!
//! Alternating equation systems (a fixpoint body referencing an enclosing
//! fixpoint's variable) exceed the local solver's contract; those
//! formulas fall back to the global symbolic evaluator over the fully
//! expanded model, counted in [`LocalStats::fallbacks`].
//!
//! [`CheckBackend`] is the common seam over all three engines — explicit
//! [`Checker`], global [`SymbolicChecker`], and [`LocalChecker`] — used
//! by the differential tests. `epimc-serve` selects its per-request
//! backend through its own warm-checker handle, not through this seam.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use epimc_bdd::{catch_budget, Budget};
use epimc_local::{solve, EqSystem, Slot};
use epimc_logic::Formula;
use epimc_relational::{SymbolicEncode, SymbolicRule};
use epimc_system::{
    ConsensusAtom, ConsensusModel, DecisionRule, InformationExchange, ModelParams, PointModel,
    Round,
};

use crate::explicit::Checker;
use crate::pointset::PointSet;
use crate::symbolic::{BudgetAbort, SymbolicChecker, SymbolicOptions, SymbolicStats};

/// Cumulative counters for a [`LocalChecker`] (summed over all queries it
/// has answered; `layers_expanded` / `horizon` describe the current model
/// state). BDD-level counters live in [`LocalChecker::symbolic_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// (equation, layer) cells instantiated by the worklist solver.
    pub cells: usize,
    /// Worklist pops (cell recomputations).
    pub iterations: u64,
    /// Conservative fixpoint-cycle resets.
    pub resets: u64,
    /// Memo hits: compile-time hash-consing plus cross-call verdict hits.
    pub memo_hits: usize,
    /// Layers materialised so far (the laziness measure; `horizon + 1`
    /// after a forced full expansion).
    pub layers_expanded: usize,
    /// The model horizon (layers are `0..=horizon`).
    pub horizon: usize,
    /// Alternating formulas delegated to the global evaluator.
    pub fallbacks: u64,
}

/// Verdict memo bucket entry: the formula (structural collision guard),
/// the layer scope (`None` = everywhere) and the verdict.
type VerdictEntry = (Formula<ConsensusAtom>, Option<usize>, bool);

/// The local (on-the-fly) engine: a lazily grown relational model plus
/// the `epimc-local` equation-system solver. See the module docs.
pub struct LocalChecker<E: SymbolicEncode, R: SymbolicRule<E>> {
    checker: SymbolicChecker<E, R>,
    verdicts: RefCell<HashMap<u64, Vec<VerdictEntry>>>,
    stats: Cell<LocalStats>,
}

impl<E: SymbolicEncode, R: SymbolicRule<E>> LocalChecker<E, R> {
    /// Builds a local checker with layer 0 materialised and default
    /// symbolic options.
    pub fn new(exchange: E, params: ModelParams, rule: R) -> Self {
        let horizon = params.horizon() as usize;
        let checker =
            SymbolicChecker::relational_seed(exchange, params, rule, SymbolicOptions::default());
        let stats = LocalStats { layers_expanded: 1, horizon, ..LocalStats::default() };
        LocalChecker { checker, verdicts: RefCell::new(HashMap::new()), stats: Cell::new(stats) }
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        self.checker.params()
    }

    /// The model horizon; layers are `0..=horizon`.
    pub fn horizon(&self) -> usize {
        self.checker.params().horizon() as usize
    }

    /// Number of layers materialised so far — the laziness measure. A
    /// query that settles with `layers_expanded() < horizon() + 1` never
    /// paid for the rest of the model.
    pub fn layers_expanded(&self) -> usize {
        self.checker.num_layers()
    }

    /// Materialises every layer up to the horizon (the laziness
    /// property tests re-solve after this and demand identical
    /// verdicts).
    pub fn force_full_expansion(&self) {
        self.checker.extend_to(self.horizon() + 1);
        self.sync_expansion();
    }

    /// Cumulative solver counters.
    pub fn stats(&self) -> LocalStats {
        self.stats.get()
    }

    /// BDD-level counters of the underlying relational checker (live and
    /// peak live nodes, GC runs, …), in O(1).
    pub fn symbolic_stats(&self) -> SymbolicStats {
        self.checker.stats()
    }

    /// Arms (or disarms, with `None`) the BDD operation budget; use the
    /// `try_*` methods to observe trips.
    pub fn set_budget(&self, budget: Option<Budget>) {
        self.checker.set_budget(budget);
    }

    /// `formula` holds at every point of every layer.
    pub fn holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        if let Some(verdict) = self.memo_get(formula, None) {
            return verdict;
        }
        let layers: Vec<usize> = (0..=self.horizon()).collect();
        let verdict = match self.run(formula, &layers) {
            Some((store, roots)) => {
                let all = roots.iter().all(|&(layer, slot)| {
                    self.checker.seam_slot_equals_reachable(store, slot, layer)
                });
                self.checker.seam_release_store(store);
                all
            }
            None => self.checker.holds_everywhere(formula),
        };
        self.memo_put(formula, None, verdict);
        verdict
    }

    /// `formula` holds at every point of layer `layer` — the lazy entry
    /// point: only the fragment of the model below the query's modal
    /// depth is materialised.
    ///
    /// # Panics
    ///
    /// Panics if `layer` exceeds the horizon.
    pub fn holds_in_layer(&self, formula: &Formula<ConsensusAtom>, layer: usize) -> bool {
        assert!(layer <= self.horizon(), "layer {layer} exceeds horizon {}", self.horizon());
        if let Some(verdict) = self.memo_get(formula, Some(layer)) {
            return verdict;
        }
        let verdict = match self.run(formula, &[layer]) {
            Some((store, roots)) => {
                let (_, slot) = roots[0];
                let holds = self.checker.seam_slot_equals_reachable(store, slot, layer);
                self.checker.seam_release_store(store);
                holds
            }
            None => {
                // Global fallback: holds on all of layer `t` iff
                // `time == t → formula` holds everywhere.
                let bounded = Formula::implies(
                    Formula::atom(ConsensusAtom::TimeIs(layer as Round)),
                    formula.clone(),
                );
                self.checker.holds_everywhere(&bounded)
            }
        };
        self.memo_put(formula, Some(layer), verdict);
        verdict
    }

    /// `formula` holds at every initial point (layer 0).
    pub fn holds_initially(&self, formula: &Formula<ConsensusAtom>) -> bool {
        self.holds_in_layer(formula, 0)
    }

    /// Evaluates `formula` on the layers of `model` — an explicitly
    /// explored model of the *same instance* — and reads the result off
    /// as a [`PointSet`] directly comparable with the other engines'.
    pub fn check_points<R2: DecisionRule<E>>(
        &self,
        model: &ConsensusModel<E, R2>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet {
        let layers: Vec<usize> = (0..model.num_layers()).collect();
        match self.run(formula, &layers) {
            Some((store, roots)) => {
                let den = self.checker.seam_assemble_den(store, &roots);
                let set = self.checker.seam_read_points(model, den);
                self.checker.seam_release_store(den);
                self.checker.seam_release_store(store);
                set
            }
            None => self.checker.check_points(model, formula),
        }
    }

    /// Budgeted [`LocalChecker::holds_everywhere`]: on a budget trip the
    /// checker is restored to a clean state (focus cleared, partial
    /// denotations released) and the abort report is returned.
    pub fn try_holds_everywhere(
        &self,
        formula: &Formula<ConsensusAtom>,
    ) -> Result<bool, BudgetAbort> {
        let live_before = self.checker.seam_live_dens();
        let result = catch_budget(|| self.holds_everywhere(formula));
        result.map_err(|error| {
            self.sync_expansion();
            self.checker.seam_budget_abort(error, &live_before)
        })
    }

    /// Budgeted [`LocalChecker::holds_in_layer`].
    pub fn try_holds_in_layer(
        &self,
        formula: &Formula<ConsensusAtom>,
        layer: usize,
    ) -> Result<bool, BudgetAbort> {
        let live_before = self.checker.seam_live_dens();
        let result = catch_budget(|| self.holds_in_layer(formula, layer));
        result.map_err(|error| {
            self.sync_expansion();
            self.checker.seam_budget_abort(error, &live_before)
        })
    }

    /// Compiles and solves `formula` at the requested layers, returning
    /// the slot store and the `(layer, slot)` roots — or `None` when the
    /// system is alternating and the caller must use the global
    /// evaluator (the model is fully expanded on that path).
    fn run(
        &self,
        formula: &Formula<ConsensusAtom>,
        layers: &[usize],
    ) -> Option<(usize, Vec<(usize, Slot)>)> {
        let system = EqSystem::compile(formula);
        if system.is_alternating() {
            let mut stats = self.stats.get();
            stats.fallbacks += 1;
            self.stats.set(stats);
            self.checker.extend_to(self.horizon() + 1);
            self.sync_expansion();
            return None;
        }
        let store = self.checker.seam_alloc_store();
        let mut oracle = SeamOracle { checker: &self.checker, store, horizon: self.horizon() };
        let solution = solve(&system, &mut oracle, layers);
        let mut stats = self.stats.get();
        stats.cells += solution.stats.cells;
        stats.iterations += solution.stats.iterations;
        stats.resets += solution.stats.resets;
        stats.memo_hits += solution.stats.memo_hits;
        stats.layers_expanded = solution.stats.layers_expanded;
        self.stats.set(stats);
        Some((store, solution.roots))
    }

    fn sync_expansion(&self) {
        let mut stats = self.stats.get();
        stats.layers_expanded = self.checker.num_layers();
        self.stats.set(stats);
    }

    fn memo_get(&self, formula: &Formula<ConsensusAtom>, layer: Option<usize>) -> Option<bool> {
        let memo = self.verdicts.borrow();
        let bucket = memo.get(&formula.canonical_hash())?;
        // Structural comparison: a canonical-hash collision is a miss,
        // never a wrong verdict.
        let verdict = bucket
            .iter()
            .find(|(f, scope, _)| *scope == layer && f == formula)
            .map(|&(_, _, verdict)| verdict)?;
        drop(memo);
        let mut stats = self.stats.get();
        stats.memo_hits += 1;
        self.stats.set(stats);
        Some(verdict)
    }

    fn memo_put(&self, formula: &Formula<ConsensusAtom>, layer: Option<usize>, verdict: bool) {
        self.verdicts.borrow_mut().entry(formula.canonical_hash()).or_default().push((
            formula.clone(),
            layer,
            verdict,
        ));
    }
}

/// `epimc_local::LocalOracle` over the per-layer seams of a
/// [`SymbolicChecker`]: slots are entries of one rooted arena denotation,
/// `ensure_layer` is the relational layer extension.
struct SeamOracle<'c, E: SymbolicEncode, R: SymbolicRule<E>> {
    checker: &'c SymbolicChecker<E, R>,
    store: usize,
    horizon: usize,
}

impl<'c, E: SymbolicEncode, R: SymbolicRule<E>> epimc_local::LocalOracle<ConsensusAtom>
    for SeamOracle<'c, E, R>
{
    fn horizon(&self) -> usize {
        self.horizon
    }

    fn ensure_layer(&mut self, layer: usize) {
        self.checker.extend_to(layer + 1);
    }

    fn layers_expanded(&self) -> usize {
        self.checker.num_layers()
    }

    fn alloc_slot(&mut self, top: bool, layer: usize) -> Slot {
        self.checker.seam_push_slot(self.store, top, layer)
    }

    fn load_top(&mut self, dst: Slot, layer: usize) {
        self.checker.seam_load_top(self.store, dst, layer);
    }

    fn load_bottom(&mut self, dst: Slot, _layer: usize) {
        self.checker.seam_load_bottom(self.store, dst);
    }

    fn load_atom(&mut self, dst: Slot, atom: &ConsensusAtom, layer: usize) {
        self.checker.seam_load_atom(self.store, dst, atom, layer);
    }

    fn not_at(&mut self, dst: Slot, x: Slot, layer: usize) {
        self.checker.seam_not(self.store, dst, x, layer);
    }

    fn and_at(&mut self, dst: Slot, xs: &[Slot], layer: usize) {
        self.checker.seam_and(self.store, dst, xs, layer);
    }

    fn or_at(&mut self, dst: Slot, xs: &[Slot], layer: usize) {
        self.checker.seam_or(self.store, dst, xs, layer);
    }

    fn implies_at(&mut self, dst: Slot, a: Slot, b: Slot, layer: usize) {
        self.checker.seam_implies(self.store, dst, a, b, layer);
    }

    fn iff_at(&mut self, dst: Slot, a: Slot, b: Slot, layer: usize) {
        self.checker.seam_iff(self.store, dst, a, b, layer);
    }

    fn knows_at(
        &mut self,
        dst: Slot,
        agent: epimc_logic::AgentId,
        x: Slot,
        guarded: bool,
        layer: usize,
    ) {
        self.checker.seam_knows(self.store, dst, agent, x, guarded, layer);
    }

    fn everyone_believes_at(&mut self, dst: Slot, x: Slot, layer: usize) {
        self.checker.seam_everyone_believes(self.store, dst, x, layer);
    }

    fn next_at(&mut self, dst: Slot, universal: bool, x_next: Slot, layer: usize) {
        self.checker.seam_next(self.store, dst, universal, x_next, layer);
    }

    fn copy_slot(&mut self, dst: Slot, src: Slot) {
        self.checker.seam_copy(self.store, dst, src);
    }

    fn slots_equal(&self, a: Slot, b: Slot) -> bool {
        self.checker.seam_equal(self.store, a, b)
    }
}

/// The common seam over the three engines, for differential tests and
/// per-request backend selection: a backend answers global verdicts and
/// reads point sets off against an explicit oracle model of the same
/// instance.
pub trait CheckBackend<E: InformationExchange, R: DecisionRule<E>> {
    /// Stable engine name (`"explicit"`, `"symbolic"`, `"local"`).
    fn backend_name(&self) -> &'static str;
    /// `formula` holds at every point of the model.
    fn backend_holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool;
    /// The points of `model` at which `formula` holds; `model` must be an
    /// explicitly explored model of the same instance the backend was
    /// built from.
    fn backend_check_points(
        &self,
        model: &ConsensusModel<E, R>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet;
}

impl<'m, E, R> CheckBackend<E, R> for Checker<'m, ConsensusModel<E, R>>
where
    E: InformationExchange,
    R: DecisionRule<E>,
{
    fn backend_name(&self) -> &'static str {
        "explicit"
    }

    fn backend_holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        self.holds_everywhere(formula)
    }

    fn backend_check_points(
        &self,
        model: &ConsensusModel<E, R>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet {
        debug_assert_eq!(
            self.model().num_layers(),
            model.num_layers(),
            "the oracle model must be the instance the explicit checker was built from"
        );
        self.check(formula)
    }
}

impl<E, R> CheckBackend<E, R> for SymbolicChecker<E, R>
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    fn backend_name(&self) -> &'static str {
        "symbolic"
    }

    fn backend_holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        self.holds_everywhere(formula)
    }

    fn backend_check_points(
        &self,
        model: &ConsensusModel<E, R>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet {
        self.check_points(model, formula)
    }
}

impl<E, R> CheckBackend<E, R> for LocalChecker<E, R>
where
    E: SymbolicEncode,
    R: SymbolicRule<E>,
{
    fn backend_name(&self) -> &'static str {
        "local"
    }

    fn backend_holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        self.holds_everywhere(formula)
    }

    fn backend_check_points(
        &self,
        model: &ConsensusModel<E, R>,
        formula: &Formula<ConsensusAtom>,
    ) -> PointSet {
        self.check_points(model, formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epimc_bdd::BddError;
    use epimc_logic::AgentId;
    use epimc_protocols::{EMin, EMinRule, FloodSet, FloodSetRule};
    use epimc_system::{FailureKind, Value};

    type F = Formula<ConsensusAtom>;

    /// An op-fuel sweep of the budgeted entry points, with fuel growing by
    /// a quarter from one op until a query completes on a fresh checker:
    /// every query either returns the unbudgeted verdict or aborts with at
    /// most `horizon + 1` layers built, and the same checker then answers
    /// both queries identically with no budget.
    fn budgeted_queries_sweep<E, R>(exchange: E, rule: R, params: ModelParams, formula: &F)
    where
        E: SymbolicEncode + Clone,
        R: SymbolicRule<E> + Clone,
    {
        let fresh = || LocalChecker::new(exchange.clone(), params, rule.clone());
        let layer = 1;
        let want_everywhere = fresh().holds_everywhere(formula);
        let want_in_layer = fresh().holds_in_layer(formula, layer);
        for in_layer in [false, true] {
            let query = |checker: &LocalChecker<E, R>| {
                if in_layer {
                    checker.try_holds_in_layer(formula, layer)
                } else {
                    checker.try_holds_everywhere(formula)
                }
            };
            let want = if in_layer { want_in_layer } else { want_everywhere };
            let context = format!("{formula} in_layer={in_layer}");
            let mut aborts = 0;
            let mut fuel = 1u64;
            loop {
                let checker = fresh();
                checker.set_budget(Some(Budget::with_max_ops(fuel)));
                match query(&checker) {
                    Ok(verdict) => {
                        assert_eq!(verdict, want, "{context} fuel {fuel}");
                        break;
                    }
                    Err(abort) => {
                        assert!(
                            matches!(abort.error, BddError::BudgetExceeded { .. }),
                            "{context} fuel {fuel}"
                        );
                        assert!(abort.layers_built <= checker.horizon() + 1, "{context} {abort}");
                        checker.set_budget(None);
                        assert_eq!(query(&checker), Ok(want), "{context} fuel {fuel}: retry");
                        assert_eq!(checker.try_holds_in_layer(formula, layer), Ok(want_in_layer));
                        assert_eq!(checker.try_holds_everywhere(formula), Ok(want_everywhere));
                        aborts += 1;
                    }
                }
                fuel += fuel / 4 + 1;
            }
            assert!(aborts > 0, "{context}: the first op already answered");
        }
    }

    #[test]
    fn budgeted_queries_return_the_verdict_or_an_abort() {
        // The first branch condition of the SBA program for agent 0,
        // `B^N_0 C_B_N ∃0`, on FloodSet n = 3, t = 1.
        let crash = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
        let exists_zero =
            F::or((0..3).map(|j| F::atom(ConsensusAtom::InitIs(AgentId::new(j), Value::ZERO))));
        let sba = F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists_zero));
        budgeted_queries_sweep(FloodSet, FloodSetRule, crash, &sba);

        // The decide-1 branch condition of the EBA program P0 for agent 0,
        // `K_0 ⋀_j ¬decides_j(0)`, on E_min n = 2, t = 1 under omissions.
        let omissions = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        let nobody_deciding_zero = F::and(
            (0..2)
                .map(|j| F::not(F::atom(ConsensusAtom::DecidesNow(AgentId::new(j), Value::ZERO)))),
        );
        let eba = F::knows(AgentId::new(0), nobody_deciding_zero);
        budgeted_queries_sweep(EMin, EMinRule, omissions, &eba);
    }
}

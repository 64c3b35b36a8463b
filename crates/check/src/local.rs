//! The **local** (lazy) engine: [`LocalChecker`] answers through
//! [`SymbolicChecker::holds_in_layer`] over a model grown on demand.
//!
//! The checker owns a [`SymbolicChecker`] seeded with layer 0
//! ([`SymbolicChecker::relational_seed`]) and never builds a layer before
//! a query needs it. Knowledge, belief and common belief are layer-local
//! under the clock semantics, so the layers a query at layer `t` needs
//! can be read off the formula: a purely epistemic query settles with
//! `t + 1` layers built however large the horizon, each nested `AX`/`EX`
//! adds one, and an unbounded temporal operator needs them all.
//! [`LocalChecker::layers_expanded`] exposes the laziness, and
//! `tests/tests/laziness.rs` pins the contract: exact layer counts, and
//! verdicts invariant under forced full expansion. Queries about the
//! whole model ([`LocalChecker::holds_everywhere`],
//! [`LocalChecker::check_points`]) build every layer and go to the
//! global evaluator.
//!
//! Verdicts are memoised across calls keyed by
//! [`Formula::canonical_hash`], with a structural equality check on every
//! hit so a hash collision degrades to a miss instead of a wrong answer —
//! the same discipline as the evaluator's denotation cache.
//!
//! [`CheckBackend`] is the common seam over all three engines — explicit
//! [`Checker`], global [`SymbolicChecker`], and [`LocalChecker`] — used
//! by the differential tests. `epimc-serve` selects its per-request
//! backend through its own warm-checker handle, not through this seam.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use epimc_bdd::Budget;
use epimc_logic::Formula;
use epimc_relational::{SymbolicEncode, SymbolicRule};
use epimc_system::{
    ConsensusAtom, ConsensusModel, DecisionRule, InformationExchange, ModelParams, PointModel,
};

use crate::explicit::Checker;
use crate::pointset::PointSet;
use crate::symbolic::{layer_demand, BudgetAbort, SymbolicChecker, SymbolicOptions, SymbolicStats};

/// Cumulative counters for a [`LocalChecker`], summed over the queries it
/// has answered (`layers_expanded` describes the model as it stands).
/// BDD-level counters live in [`LocalChecker::symbolic_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Layer denotations evaluated: one for a temporal-free layer query
    /// (evaluated under a focus on its layer), and every built layer for
    /// any other evaluation.
    pub cells: usize,
    /// Layers built so far (the laziness measure; `horizon + 1` after a
    /// forced full expansion).
    pub layers_expanded: usize,
    /// Queries answered from the verdict memo.
    pub memo_hits: usize,
    /// Queries that demanded the whole horizon: global verdicts, point
    /// read-offs, and layer queries whose formula reaches the last layer.
    pub fallbacks: u64,
}

/// Verdict memo bucket entry: the formula (structural collision guard),
/// the layer scope (`None` = everywhere) and the verdict.
type VerdictEntry = (Formula<ConsensusAtom>, Option<usize>, bool);

/// The local (lazy) engine: a relational model grown as queries demand,
/// answered by the global evaluator, plus a verdict memo. See the module
/// docs.
pub struct LocalChecker<E: SymbolicEncode, R: SymbolicRule<E>> {
    checker: SymbolicChecker<E, R>,
    verdicts: RefCell<HashMap<u64, Vec<VerdictEntry>>>,
    stats: Cell<LocalStats>,
}

impl<E: SymbolicEncode, R: SymbolicRule<E>> LocalChecker<E, R> {
    /// Builds a local checker with layer 0 materialised and default
    /// symbolic options.
    pub fn new(exchange: E, params: ModelParams, rule: R) -> Self {
        let checker =
            SymbolicChecker::relational_seed(exchange, params, rule, SymbolicOptions::default());
        LocalChecker {
            checker,
            verdicts: RefCell::new(HashMap::new()),
            stats: Cell::new(LocalStats::default()),
        }
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
    /// property tests re-ask after this and demand identical verdicts).
    pub fn force_full_expansion(&self) {
        self.checker.extend_to(self.horizon() + 1);
    }

    /// Cumulative query counters.
    pub fn stats(&self) -> LocalStats {
        LocalStats { layers_expanded: self.layers_expanded(), ..self.stats.get() }
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

    /// `formula` holds at every point of every layer: the whole model is
    /// built and the global evaluator answers.
    pub fn holds_everywhere(&self, formula: &Formula<ConsensusAtom>) -> bool {
        if let Some(verdict) = self.memo_get(formula, None) {
            return verdict;
        }
        self.force_full_expansion();
        let verdict = self.checker.holds_everywhere(formula);
        self.count(self.layers_expanded(), true);
        self.memo_put(formula, None, verdict);
        verdict
    }

    /// `formula` holds at every point of layer `layer` — the lazy entry
    /// point: only the layers the formula reads from `layer` are
    /// materialised ([`SymbolicChecker::holds_in_layer`]).
    ///
    /// # Panics
    ///
    /// Panics if `layer` exceeds the horizon.
    pub fn holds_in_layer(&self, formula: &Formula<ConsensusAtom>, layer: usize) -> bool {
        if let Some(verdict) = self.memo_get(formula, Some(layer)) {
            return verdict;
        }
        let verdict = self.checker.holds_in_layer(formula, layer);
        let cells = if formula.is_temporal() { self.layers_expanded() } else { 1 };
        self.count(cells, layer_demand(formula, layer, self.horizon()) == self.horizon());
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
        self.force_full_expansion();
        let points = self.checker.check_points(model, formula);
        self.count(self.layers_expanded(), true);
        points
    }

    /// Budgeted [`LocalChecker::holds_everywhere`]: on a budget trip the
    /// checker is restored to a clean state (focus cleared, partial
    /// denotations released, budget disarmed) and the abort report is
    /// returned.
    pub fn try_holds_everywhere(
        &self,
        formula: &Formula<ConsensusAtom>,
    ) -> Result<bool, BudgetAbort> {
        self.checker.catch_abort(|| self.holds_everywhere(formula))
    }

    /// Budgeted [`LocalChecker::holds_in_layer`].
    pub fn try_holds_in_layer(
        &self,
        formula: &Formula<ConsensusAtom>,
        layer: usize,
    ) -> Result<bool, BudgetAbort> {
        self.checker.catch_abort(|| self.holds_in_layer(formula, layer))
    }

    /// Adds one evaluated query to the counters.
    fn count(&self, cells: usize, whole_horizon: bool) {
        let mut stats = self.stats.get();
        stats.cells += cells;
        stats.fallbacks += u64::from(whole_horizon);
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

    /// A budgeted query: a formula and its layer (`None`: everywhere).
    type Query = (F, Option<usize>);

    fn ask<E: SymbolicEncode, R: SymbolicRule<E>>(
        checker: &LocalChecker<E, R>,
        (formula, layer): &Query,
    ) -> Result<bool, BudgetAbort> {
        match layer {
            Some(layer) => checker.try_holds_in_layer(formula, *layer),
            None => checker.try_holds_everywhere(formula),
        }
    }

    /// An op-fuel sweep of the budgeted entry points, with fuel growing by
    /// a quarter from one op until a query completes on a fresh checker:
    /// every query either returns the unbudgeted verdict or aborts with
    /// the layer focus cleared and no layer built past the one it
    /// demands, and the same checker then answers the query again and
    /// every other query identically with no budget.
    fn budgeted_queries_sweep<E, R>(exchange: E, rule: R, params: ModelParams, queries: &[Query])
    where
        E: SymbolicEncode + Clone,
        R: SymbolicRule<E> + Clone,
    {
        let fresh = || LocalChecker::new(exchange.clone(), params, rule.clone());
        let horizon = params.horizon() as usize;
        let wants: Vec<bool> =
            queries.iter().map(|query| ask(&fresh(), query).expect("no budget")).collect();
        for (query, &want) in queries.iter().zip(&wants) {
            let (formula, layer) = query;
            let demand = layer.map_or(horizon, |layer| layer_demand(formula, layer, horizon));
            let context = format!("{formula} at {layer:?}");
            let mut aborts = 0;
            let mut fuel = 1u64;
            loop {
                let checker = fresh();
                checker.set_budget(Some(Budget::with_max_ops(fuel)));
                let result = ask(&checker, query);
                assert!(checker.layers_expanded() <= demand + 1, "{context} fuel {fuel}");
                match result {
                    Ok(verdict) => {
                        assert_eq!(verdict, want, "{context} fuel {fuel}");
                        break;
                    }
                    Err(abort) => {
                        assert!(
                            matches!(abort.error, BddError::BudgetExceeded { .. }),
                            "{context} fuel {fuel}"
                        );
                        assert_eq!(checker.checker.focus(), None, "{context} fuel {fuel}");
                        assert!(abort.layers_built <= demand + 1, "{context} {abort}");
                        checker.set_budget(None);
                        assert_eq!(ask(&checker, query), Ok(want), "{context} fuel {fuel}: retry");
                        for (other, &other_want) in queries.iter().zip(&wants) {
                            assert_eq!(ask(&checker, other), Ok(other_want), "{context}");
                        }
                        aborts += 1;
                    }
                }
                fuel += fuel / 4 + 1;
            }
            assert!(aborts > 0, "{context}: the first op already answered");
        }
    }

    /// Everywhere, focused on layer 1, and under `AX` at layer 0.
    fn queries(formula: F) -> Vec<Query> {
        vec![(formula.clone(), None), (formula.clone(), Some(1)), (F::all_next(formula), Some(0))]
    }

    #[test]
    fn budgeted_queries_return_the_verdict_or_an_abort() {
        // The first branch condition of the SBA program for agent 0,
        // `B^N_0 C_B_N ∃0`, on FloodSet n = 3, t = 1.
        let crash = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
        let exists_zero =
            F::or((0..3).map(|j| F::atom(ConsensusAtom::InitIs(AgentId::new(j), Value::ZERO))));
        let sba = F::believes_nonfaulty(AgentId::new(0), F::common_belief(exists_zero));
        budgeted_queries_sweep(FloodSet, FloodSetRule, crash, &queries(sba));

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
        budgeted_queries_sweep(EMin, EMinRule, omissions, &queries(eba));
    }
}

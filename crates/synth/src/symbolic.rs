//! The forward clock-semantics synthesis algorithm, driven by the symbolic
//! (OBDD) model checking engine.
//!
//! This is the scaling backend of the synthesis subsystem, following the
//! strategy of Huang & van der Meyden, *Symbolic Synthesis of
//! Knowledge-based Program Implementations with Synchronous Semantics*
//! (arXiv:1310.6423): every layer of the reachable state space and every
//! branch condition is represented as a BDD, and the per-observation-class
//! truth values are read off the condition's denotation by existentially
//! quantifying the variables the agent does not observe — never by
//! enumerating points.
//!
//! The induction is identical to the explicit engine's
//! ([`Synthesizer`](crate::Synthesizer)), so both produce the same
//! [`SynthesisOutcome`] (checked by `tests/synth_agreement.rs`); what
//! changes is the machinery per round `m`:
//!
//! 1. the model is grown one layer at a time under the partial rule fixed so
//!    far, never enumerating a state: one [`SymbolicChecker`] starts from
//!    the initial-state cube ([`SymbolicChecker::relational_seed`]) and
//!    each round appends the forward image of the frontier
//!    ([`SymbolicChecker::extend_layer_relational`]). The checker lives
//!    across the whole run, so the rooted arena, operation caches and
//!    garbage collector carry over — the static variable order is installed
//!    once, with the seed — and collections sweep the dead work of earlier
//!    rounds mid-run;
//! 2. `DecidesNow` atoms read each layer's decides-now table: the guarded
//!    deciding conditions of the rule the layer's round was built under.
//!    Before each branch the frontier's table is refreshed from the partial
//!    rule fixed so far ([`SymbolicChecker::set_frontier_rule`]), as the
//!    explicit engine re-points its model's rule. Earlier layers need no
//!    refresh: the induction only ever adds entries at the current time;
//! 3. each branch is evaluated once per round inside an
//!    [`EvalSession`](epimc_check::EvalSession): the per-agent conditions
//!    `B^N_i C_B_N φ` share the memoised common-belief fixpoint, so the
//!    expensive part runs once per (branch, time) instead of once per
//!    (branch, time, agent);
//! 4. the class values come from
//!    [`SymbolicChecker::observation_values`]: `∃ hidden_i . [[φ]]_m` and
//!    `∃ hidden_i . (Reach_m ∧ ¬[[φ]]_m)` projected onto agent `i`'s
//!    observable variables, with their set difference the holding classes
//!    and their intersection the (malformed) non-uniform ones.
//!
//! Per-round wall-clock and BDD statistics (peak live nodes, collections,
//! cache rates) are recorded in a [`SymbolicSynthesisProfile`] for the
//! `tables -- synthesis` ablation.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

use epimc_bdd::{catch_budget, BddError};
use epimc_check::{SymbolicChecker, SymbolicOptions, SymbolicStats};
use epimc_logic::AgentId;
use epimc_relational::SymbolicEncode;
use epimc_system::{InformationExchange, ModelParams, Round};

use crate::kbp::KnowledgeBasedProgram;
use crate::synthesize::{Induction, SynthesisOutcome};

/// Measurements of one round of the symbolic forward induction.
#[derive(Clone, Debug)]
pub struct SynthesisRound {
    /// The time (layer) the round synthesized templates for.
    pub time: Round,
    /// Number of states in that layer.
    pub layer_states: usize,
    /// Wall-clock time of the round (evaluating every branch condition and
    /// extracting the class values).
    pub wall: Duration,
    /// The symbolic engine's statistics at the end of the round, read in
    /// O(1) ([`epimc_check::SymbolicChecker::stats`]). The BDD manager
    /// persists across rounds, so the node/GC/cache counters are
    /// cumulative over the run so far, and `reachable_nodes` covers every
    /// layer built so far.
    pub stats: SymbolicStats,
}

/// Per-round timing and BDD statistics of a symbolic synthesis run, reported
/// by [`SymbolicSynthesizer::synthesize_profiled`] and consumed by the
/// `tables -- synthesis` ablation.
#[derive(Clone, Debug, Default)]
pub struct SymbolicSynthesisProfile {
    /// One entry per processed round, in time order.
    pub rounds: Vec<SynthesisRound>,
    /// Total wall-clock time of the synthesis run.
    pub total_wall: Duration,
}

impl SymbolicSynthesisProfile {
    /// The highest live-node count the run's BDD manager ever reached (the
    /// counters are cumulative, so this is the final round's peak).
    pub fn peak_live_nodes(&self) -> usize {
        self.rounds.iter().map(|round| round.stats.peak_live_nodes).max().unwrap_or(0)
    }

    /// Total garbage collections over the run (the counters are cumulative,
    /// so this is the final round's count).
    pub fn gc_runs(&self) -> u64 {
        self.rounds.iter().map(|round| round.stats.gc_runs).max().unwrap_or(0)
    }
}

/// The symbolic synthesis engine: computes the same unique clock-semantics
/// implementation as [`Synthesizer`](crate::Synthesizer), over the BDD
/// engine instead of explicit state enumeration.
pub struct SymbolicSynthesizer<E: InformationExchange> {
    exchange: E,
    params: ModelParams,
    options: SymbolicOptions,
    /// Rounds fully recorded by the most recent run — the partial-progress
    /// stat [`SymbolicSynthesizer::try_synthesize`] reports when a budget
    /// trip unwinds past the run's local profile.
    rounds_progress: Cell<usize>,
}

/// A budget trip during synthesis, translated into a structured error by
/// [`SymbolicSynthesizer::try_synthesize`]. Carries the partial progress
/// the run had made; the synthesizer itself stays reusable (each run
/// builds a fresh checker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthesisAbort {
    /// The underlying manager error (which limit, ops performed, live
    /// nodes at the trip point).
    pub error: BddError,
    /// Synthesis rounds fully completed before the abort.
    pub rounds_completed: usize,
}

impl fmt::Display for SynthesisAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {} completed rounds", self.error, self.rounds_completed)
    }
}

impl std::error::Error for SynthesisAbort {}

impl<E: InformationExchange> SymbolicSynthesizer<E> {
    /// Creates a symbolic synthesizer with default options.
    pub fn new(exchange: E, params: ModelParams) -> Self {
        Self::with_options(exchange, params, SymbolicOptions::default())
    }

    /// Creates a symbolic synthesizer whose checker runs under `options`.
    pub fn with_options(exchange: E, params: ModelParams, options: SymbolicOptions) -> Self {
        SymbolicSynthesizer { exchange, params, options, rounds_progress: Cell::new(0) }
    }
}

impl<E: InformationExchange + SymbolicEncode> SymbolicSynthesizer<E> {
    /// Runs the forward synthesis algorithm for `program`.
    pub fn synthesize(&self, program: &KnowledgeBasedProgram) -> SynthesisOutcome {
        self.synthesize_profiled(program).0
    }

    /// Fallible [`SymbolicSynthesizer::synthesize_profiled`]: when the
    /// installed budget (`options.budget`) trips mid-run, the
    /// abort is returned as a structured [`SynthesisAbort`] carrying the
    /// number of rounds that completed, instead of unwinding.
    pub fn try_synthesize(
        &self,
        program: &KnowledgeBasedProgram,
    ) -> Result<(SynthesisOutcome, SymbolicSynthesisProfile), SynthesisAbort> {
        self.rounds_progress.set(0);
        catch_budget(|| self.synthesize_profiled(program))
            .map_err(|error| SynthesisAbort { error, rounds_completed: self.rounds_progress.get() })
    }

    /// Runs the forward synthesis algorithm for `program`, additionally
    /// returning the per-round timing and BDD statistics. The reachable
    /// layers are built by forward image over the partitioned round
    /// relation, under the rule fixed by the earlier rounds, and no state is
    /// ever enumerated. The induction bookkeeping (`Induction`) is shared
    /// with the explicit [`Synthesizer`](crate::Synthesizer), so the outcome
    /// is identical by construction wherever the per-class values agree.
    pub fn synthesize_profiled(
        &self,
        program: &KnowledgeBasedProgram,
    ) -> (SynthesisOutcome, SymbolicSynthesisProfile) {
        let start = Instant::now();
        let mut induction = Induction::new(&program.name);
        let mut profile = SymbolicSynthesisProfile::default();
        let layout = self.exchange.observable_layout(&self.params);
        let horizon = self.params.horizon();

        // One checker lives across the whole run: each round grows it by
        // one layer in place, so the BDD manager, caches and learned
        // variable order carry over.
        let checker = SymbolicChecker::relational_seed(
            self.exchange.clone(),
            self.params,
            induction.rule.clone(),
            self.options,
        );
        let mut total_states = layer_states(&checker, 0);
        for time in 0..=horizon {
            let round_start = Instant::now();
            let states = layer_states(&checker, time);
            for branch in &program.branches {
                // `DecidesNow` at the frontier reads the rule as fixed by
                // earlier branches and rounds; earlier branches of this
                // very round matter for the EBA-style programs whose
                // conditions mention current-round decisions.
                checker.set_frontier_rule(&induction.rule);
                let mut session = checker.session();
                for agent in AgentId::all(self.params.num_agents()) {
                    let condition = branch.condition_for(agent, &self.params);
                    let values = checker.observation_values(&mut session, &condition, agent, time);
                    induction.record(&layout, agent, time, branch, &values);
                }
                checker.end_session(session);
            }
            profile.rounds.push(SynthesisRound {
                time,
                layer_states: states,
                wall: round_start.elapsed(),
                stats: checker.stats(),
            });
            self.rounds_progress.set(profile.rounds.len());
            if time < horizon {
                checker.extend_layer_relational(&induction.rule);
                total_states += layer_states(&checker, time + 1);
                if checker.final_layer_settled() {
                    induction.note_skipped_rounds(time, horizon);
                    break;
                }
            }
        }

        profile.total_wall = start.elapsed();
        (induction.finish(&program.name, total_states), profile)
    }
}

/// The number of states of one reachable layer, read off the layer's BDD by
/// model counting over the state variables.
fn layer_states<E, R>(checker: &SymbolicChecker<E, R>, time: Round) -> usize
where
    E: InformationExchange,
    R: epimc_system::DecisionRule<E>,
{
    usize::try_from(checker.layer_state_count(time)).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::Synthesizer;
    use epimc_bdd::Budget;
    use epimc_protocols::{EMin, FloodSet};
    use epimc_system::run::{simulate_run, Adversary};
    use epimc_system::{ConsensusModel, FailureKind, PointModel, Value};

    fn crash_params(n: usize, t: usize) -> ModelParams {
        ModelParams::builder().agents(n).max_faulty(t).values(2).failure(FailureKind::Crash).build()
    }

    #[test]
    fn symbolic_appendix_example_floodset_n3_t1() {
        let params = crash_params(3, 1);
        let outcome =
            SymbolicSynthesizer::new(FloodSet, params).synthesize(&KnowledgeBasedProgram::sba(2));
        assert_eq!(outcome.stats.non_uniform_classes, 0);
        for agent in AgentId::all(3) {
            let t1 = outcome.template(agent, 1, "sba-decide-0").unwrap();
            assert!(t1.predicate.is_false());
            let t2_zero = outcome.template(agent, 2, "sba-decide-0").unwrap();
            assert_eq!(format!("{}", t2_zero.predicate), "values_received[0]");
            assert_eq!(outcome.earliest_decision_time(agent), Some(2));
        }
        let inits = vec![Value::ONE, Value::ZERO, Value::ONE];
        let run =
            simulate_run(&FloodSet, &params, &outcome.rule, &inits, &Adversary::failure_free());
        for agent in AgentId::all(3) {
            assert_eq!(run.decision(agent).unwrap().value, Value::ZERO);
        }
    }

    fn assert_same_outcome(explicit: &SynthesisOutcome, symbolic: &SynthesisOutcome) {
        assert_eq!(explicit.rule.len(), symbolic.rule.len());
        for (key, action) in explicit.rule.iter() {
            assert_eq!(symbolic.rule.get(key.0, key.1, &key.2), *action, "at {key:?}");
        }
        assert_eq!(explicit.stats, symbolic.stats);
        assert_eq!(explicit.templates.len(), symbolic.templates.len());
        for (lhs, rhs) in explicit.templates.iter().zip(&symbolic.templates) {
            assert_eq!(
                lhs.predicate, rhs.predicate,
                "{} t={} {}",
                lhs.agent, lhs.time, lhs.branch_label
            );
        }
        assert_eq!(explicit.non_uniform.len(), symbolic.non_uniform.len());
    }

    #[test]
    fn symbolic_matches_explicit_on_emin_omissions() {
        let params = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        let program = KnowledgeBasedProgram::eba_p0();
        let explicit = Synthesizer::new(EMin, params).synthesize(&program);
        let symbolic = SymbolicSynthesizer::new(EMin, params).synthesize(&program);
        assert_same_outcome(&explicit, &symbolic);
    }

    #[test]
    fn relational_frontend_matches_explicit_on_floodset() {
        let params = crash_params(3, 1);
        let program = KnowledgeBasedProgram::sba(2);
        let explicit = Synthesizer::new(FloodSet, params).synthesize(&program);
        let symbolic = SymbolicSynthesizer::new(FloodSet, params).synthesize(&program);
        assert_same_outcome(&explicit, &symbolic);
    }

    #[test]
    fn relational_frontend_early_exit_matches_explicit() {
        // FloodSet n = 3, t = 2 settles two rounds short of the horizon; the
        // symbolic settledness test must skip the same rounds as the
        // explicit synthesizer, and every processed layer must have as many
        // states as an exploration under the synthesized rule has points
        // (under crash failures distinct points are distinct states).
        let params = crash_params(3, 2);
        let program = KnowledgeBasedProgram::sba(2);
        let explicit = Synthesizer::new(FloodSet, params).synthesize(&program);
        let (symbolic, profile) =
            SymbolicSynthesizer::new(FloodSet, params).synthesize_profiled(&program);
        assert_eq!(explicit.stats.skipped_rounds, 2);
        assert_same_outcome(&explicit, &symbolic);
        let model = ConsensusModel::explore(FloodSet, params, explicit.rule.clone());
        assert_eq!(profile.rounds.len() + explicit.stats.skipped_rounds, model.num_layers());
        for round in &profile.rounds {
            assert_eq!(round.layer_states, model.layer_size(round.time), "layer {}", round.time);
        }
        let last = profile.rounds.last().unwrap();
        assert!(
            last.stats.relational_product_calls > 0,
            "relational images route through relational_product"
        );
    }

    #[test]
    fn profile_records_rounds_and_peaks() {
        let params = crash_params(3, 1);
        let (outcome, profile) = SymbolicSynthesizer::new(FloodSet, params)
            .synthesize_profiled(&KnowledgeBasedProgram::sba(2));
        // Early exit: rounds 0..=2 processed, round 3 skipped.
        assert_eq!(outcome.stats.skipped_rounds, 1);
        assert_eq!(profile.rounds.len(), 3);
        assert!(profile.peak_live_nodes() > 0);
        assert!(profile.total_wall >= profile.rounds.iter().map(|r| r.wall).sum());
        for (expected_time, round) in profile.rounds.iter().enumerate() {
            assert_eq!(round.time, expected_time as Round);
            assert!(round.layer_states > 0);
        }
    }

    /// An op-fuel sweep of `try_synthesize`, with fuel growing by a
    /// quarter from one op until a run completes: every run either returns
    /// the unbudgeted outcome or aborts with progress within bounds, and
    /// the same synthesizer then answers identically with no budget.
    fn budgeted_synthesis_sweep<E: InformationExchange + SymbolicEncode>(
        exchange: E,
        params: ModelParams,
        program: &KnowledgeBasedProgram,
    ) {
        let (want, want_profile) =
            SymbolicSynthesizer::new(exchange.clone(), params).synthesize_profiled(program);
        let mut synthesizer = SymbolicSynthesizer::new(exchange, params);
        let mut aborts = 0;
        let mut fuel = 1u64;
        loop {
            synthesizer.options.budget = Some(Budget::with_max_ops(fuel));
            match synthesizer.try_synthesize(program) {
                Ok((outcome, profile)) => {
                    assert_same_outcome(&want, &outcome);
                    assert_eq!(profile.rounds.len(), want_profile.rounds.len(), "fuel {fuel}");
                    break;
                }
                Err(abort) => {
                    assert!(matches!(abort.error, BddError::BudgetExceeded { .. }), "fuel {fuel}");
                    assert!(abort.rounds_completed <= want_profile.rounds.len(), "fuel {fuel}");
                    aborts += 1;
                }
            }
            fuel += fuel / 4 + 1;
        }
        assert!(aborts > 0, "the first op already completed the run");
        synthesizer.options.budget = None;
        let (outcome, profile) = synthesizer.try_synthesize(program).expect("no budget, no abort");
        assert_same_outcome(&want, &outcome);
        assert_eq!(profile.rounds.len(), want_profile.rounds.len());
    }

    #[test]
    fn budgeted_synthesis_returns_the_outcome_or_an_abort() {
        budgeted_synthesis_sweep(FloodSet, crash_params(3, 1), &KnowledgeBasedProgram::sba(2));
        let omissions = ModelParams::builder()
            .agents(2)
            .max_faulty(1)
            .values(2)
            .failure(FailureKind::SendOmission)
            .build();
        budgeted_synthesis_sweep(EMin, omissions, &KnowledgeBasedProgram::eba_p0());
    }
}

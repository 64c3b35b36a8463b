//! Synthesis of implementations of knowledge-based programs under the clock
//! semantics of knowledge.
//!
//! A knowledge-based program (KBP) such as the SBA program
//!
//! ```text
//! do noop until ∃v. B^N_i C_B_N ∃v ; decide on the least such v
//! ```
//!
//! is not directly executable: the knowledge tests must be replaced by
//! concrete predicates of the agent's local state. Under the clock semantics
//! the implementation is **unique**: an agent's epistemic local state is the
//! pair of the global clock and its observation, so the truth of a knowledge
//! condition at time `m` depends only on the (agent, time, observation)
//! class — and because the reachable states at time `m` are determined by
//! the actions already fixed for earlier times, forward induction on time
//! pins every template value exactly once (the theorem of Fagin et al.
//! exploited by MCK's synthesis algorithms):
//!
//! 1. the reachable states at time `m` are generated using the actions
//!    already synthesized for earlier times (this matters for the EBA
//!    exchanges, whose messages depend on decisions);
//! 2. for every agent and every observation class at time `m`, each branch
//!    condition of the KBP is model-checked; because the conditions are
//!    knowledge conditions they are constant across a class, and their truth
//!    value defines the synthesized predicate at `(agent, m, observation)`;
//! 3. the first branch whose condition holds determines the action of the
//!    class, the next layer is generated, and the induction continues.
//!
//! The result is a [`TableRule`](epimc_system::TableRule) — an executable
//! protocol — together with, for every template variable (branch × time ×
//! agent), a simplified predicate over the agent's observable variables in
//! the same shape as the MCK output reproduced in the paper's appendix
//! (e.g. `values_received[0]` at `time == 2`).
//!
//! # Two backends
//!
//! * [`Synthesizer`] — the explicit-state backend. Branch conditions are
//!   checked with `epimc_check::Checker` and the class values are read off
//!   by enumerating each layer's points, grouped by observation. Simple,
//!   and the baseline the differential suite trusts; it dies where the
//!   layers grow to hundreds of thousands of states.
//! * [`SymbolicSynthesizer`] — the OBDD backend, after Huang & van der
//!   Meyden (arXiv:1310.6423). Layers, branch conditions and the partial
//!   rule live as BDDs in `epimc_check::SymbolicChecker`; class values are
//!   extracted by existentially quantifying the non-observable variables,
//!   the per-agent conditions share the common-belief fixpoint through an
//!   evaluation-session cache, and the manager garbage-collects between
//!   rounds. Use it wherever model checking already needs the symbolic
//!   engine (e.g. FloodSet past `n = 6`); it produces bit-identical
//!   [`SynthesisOutcome`]s (see `tests/synth_agreement.rs`).
//!
//! The symbolic backend grows one checker in place — layer 0 from the
//! protocol's `SymbolicEncode` contract, each further layer as the forward
//! image of the frontier under the partial rule fixed so far, the early
//! exit decided symbolically. No state is ever enumerated; the induction's
//! cost scales with BDD sizes, not state counts. The explicit
//! [`Synthesizer`] is its differential oracle: the grids of
//! `tests/synth_agreement.rs` assert both produce the same outcome on
//! every protocol family.
//!
//! Both backends exit the forward induction early once every agent has
//! decided (or crashed) in every reachable state — the remaining rounds
//! cannot change any decision — and report the skipped rounds in
//! [`SynthesisStats::skipped_rounds`]. Observation classes on which a
//! branch condition is not constant (a malformed program: the condition is
//! not a function of the agent's clock-semantics local state) are reported
//! per class in [`SynthesisOutcome::non_uniform`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kbp;
mod predicate;
mod symbolic;
mod synthesize;

pub use kbp::{KbpBranch, KnowledgeBasedProgram};
pub use predicate::{ObsLiteral, PredicateCube, PredicateReport};
pub use symbolic::{SymbolicSynthesisProfile, SymbolicSynthesizer, SynthesisAbort, SynthesisRound};
pub use synthesize::{
    NonUniformClass, SynthesisOutcome, SynthesisStats, Synthesizer, TemplateValuation,
};

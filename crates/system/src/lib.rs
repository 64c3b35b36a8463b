//! Interpreted systems, synchronous rounds and failure models for
//! fault-tolerant consensus.
//!
//! This crate is the semantic substrate of the `epimc` workspace. It follows
//! the two-layer protocol model of the paper (Section 3): an *information
//! exchange* protocol defines the agents' local states, the messages they
//! broadcast each round, and how states are updated; a *decision rule* maps
//! local states to `noop` / `decide(v)` actions. Both run inside a
//! synchronous, round-based environment that is subject to a *failure model*
//! (crash, sending omissions, receiving omissions or general omissions) with
//! an upper bound `t` on the number of faulty agents.
//!
//! The crate provides:
//!
//! * the traits [`InformationExchange`] and [`DecisionRule`] implemented by
//!   the concrete protocols in `epimc-protocols`;
//! * [`StateSpace`]: a layered (per-round), de-duplicated reachable state
//!   space, constructed by enumerating all adversary choices allowed by the
//!   failure model. Each layer is built in one pass over the previous one
//!   and sorted into a canonical order, so a state's index depends only on
//!   the model. Global states intern their initial-value and decision
//!   vectors behind reference-counted slices, eliminating the per-successor
//!   clone churn. Per-layer [`ExploreStats`] (state counts, de-duplication
//!   hits, wall time) are recorded and consumed by the `tables` binary;
//! * [`ConsensusModel`] and the [`PointModel`] trait: the Kripke-style view
//!   of the state space consumed by the model checking and synthesis crates,
//!   including the clock-semantics observations and the indexical nonfaulty
//!   set `N`. Explicit exploration is the workspace's *oracle* front-end:
//!   the symbolic engines build their layered models relationally (from the
//!   `SymbolicEncode` contract of `epimc-relational`, no state enumerated)
//!   and are differentially validated against explored models at small
//!   parameters, where point-level APIs and per-point diagnostics also
//!   live;
//! * [`ConsensusAtom`]: the vocabulary of atomic propositions used by the
//!   consensus specifications;
//! * explicit [`Adversary`] objects and a run simulator
//!   ([`run::simulate_run`]) used for testing, failure injection and the
//!   examples.
//!
//! # Example
//!
//! Exploring the state space of a trivial one-round exchange:
//!
//! ```
//! use epimc_system::{ModelParams, FailureKind};
//!
//! let params = ModelParams::builder()
//!     .agents(3)
//!     .max_faulty(1)
//!     .values(2)
//!     .failure(FailureKind::Crash)
//!     .build();
//! assert_eq!(params.horizon(), 3); // t + 2 rounds by default
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod atom;
mod decision;
mod exchange;
mod explore;
mod failure;
mod model;
mod params;
pub mod run;
mod state;
mod value;

pub use action::{Action, Decision};
pub use atom::ConsensusAtom;
pub use decision::{DecisionRule, NeverDecide, TableRule};
pub use exchange::{InformationExchange, ObservableVar, Observation, Received};
pub use explore::{ExploreStats, Layer, LayerStats, StateSpace};
pub use failure::{EnvState, FailureKind, FailureModel};
pub use model::{ConsensusModel, PointId, PointModel};
pub use params::{ModelParams, ModelParamsBuilder};
pub use run::{Adversary, RoundFailures, Run};
pub use state::GlobalState;
pub use value::{Round, Value};

pub use epimc_logic::{AgentId, AgentSet};

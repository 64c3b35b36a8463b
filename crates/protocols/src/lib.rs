//! Information-exchange and decision protocols for Simultaneous and Eventual
//! Byzantine Agreement.
//!
//! This crate contains Rust models of every protocol analysed in the paper:
//!
//! | Module | Protocol | Paper section |
//! |--------|----------|---------------|
//! | [`floodset`] | The FloodSet exchange of Lynch, and the standard decide-at-`t+1` rule as well as the optimised rule corresponding to condition (2) | §7.1 |
//! | [`count`] | FloodSet extended with a count of messages received in the last round (Castañeda et al.), with the decide-at-`t+1` rule and the optimal rule of condition (3) | §7.2 |
//! | [`diff`] | The exchange that additionally remembers the previous round's count | §7.3 |
//! | [`dwork_moses`] | The concrete protocol of Dwork and Moses derived from the full-information analysis for crash failures | §7.4 |
//! | [`emin`] | The minimal EBA exchange `E_min` of Alpturer, Halpern and van der Meyden, with the implementation of the knowledge-based program `P0` | §9.1 |
//! | [`ebasic`] | The EBA exchange `E_basic` with the `num1`-based early stopping rule | §9.2 |
//!
//! Each module provides the [`InformationExchange`](epimc_system::InformationExchange)
//! implementation, the decision rules from the literature, and unit tests of
//! the protocol's behaviour on hand-constructed runs.
//!
//! # The registry
//!
//! The table above exists once as code: [`ProtocolKind`] names the six
//! (exchange, literature rule) pairs as data, and [`with_protocol!`] is the
//! only place in the workspace that maps a kind to its concrete types — the
//! checking service, the experiment harness and the bench tables
//! instantiate their generic code through it (see [`registry`]). Adding a
//! seventh protocol means: its module here (the `InformationExchange`,
//! `SymbolicEncode`, `DecisionRule` and `SymbolicRule` impls), a
//! `ProtocolKind` variant with its entry in `ALL`, `wire_name` and
//! `paper_name` (and `is_eventual` for an EBA exchange), and one arm in
//! `with_protocol!`. Nothing downstream enumerates protocols.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod count;
pub mod diff;
pub mod dwork_moses;
pub mod ebasic;
pub mod emin;
pub mod floodset;
pub mod registry;
pub mod rules;
pub mod symbolic;

pub use common::ValueSet;
pub use count::{
    condition3_fallback_time, count_observable_index, CountFloodSet, CountOptimalRule, CountState,
};
pub use diff::{DiffFloodSet, DiffState};
pub use dwork_moses::{DworkMoses, DworkMosesMessage, DworkMosesRule, DworkMosesState};
pub use ebasic::{EBasic, EBasicMessage, EBasicRule, EBasicState};
pub use emin::{EMin, EMinRule, EMinState};
pub use floodset::{
    condition2_decision_time, FloodSet, FloodSetRule, FloodState, OptimalFloodSetRule,
};
pub use registry::ProtocolKind;
pub use rules::{DecideAtRound, HasSeenValues, TextbookRule};

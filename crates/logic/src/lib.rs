//! Epistemic and temporal logic formulas for knowledge-based consensus analysis.
//!
//! This crate provides the formula language used throughout the `epimc`
//! workspace: propositional connectives, the knowledge operator `K_i`, the
//! indexical belief operator `B^N_i` (belief relative to the set `N` of
//! nonfaulty agents), "everyone in `N` believes" `E_B_N`, common belief
//! `C_B_N` (a greatest fixpoint), explicit greatest/least fixpoint operators,
//! and bounded branching-time temporal operators over the layered state graph
//! of a synchronous protocol model.
//!
//! The formula type [`Formula<P>`] is generic over the atom type `P`, so each
//! protocol model can plug in its own vocabulary of atomic propositions
//! (initial values, decision status, failure status, observable variables,
//! the current time, ...).
//!
//! # Example
//!
//! Building the knowledge condition of the knowledge-based program for
//! Simultaneous Byzantine Agreement — "agent `i` believes (relative to the
//! nonfaulty set) that there is common belief that some agent started with
//! value `v`":
//!
//! ```
//! use epimc_logic::{AgentId, Formula};
//!
//! // A tiny atom vocabulary for the example.
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! enum Atom { InitIs(AgentId, u8) }
//!
//! let exists_v = Formula::or((0..3).map(|a| Formula::atom(Atom::InitIs(AgentId::new(a), 0))));
//! let condition = Formula::believes_nonfaulty(AgentId::new(0), Formula::common_belief(exists_v));
//! assert!(condition.is_epistemic());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod display;
mod formula;
mod parse;

pub use agent::{AgentId, AgentSet};
pub use formula::{FixpointVar, Formula, TemporalKind};
pub use parse::{parse_formula, ParseError};

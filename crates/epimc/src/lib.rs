//! Epistemic model checking and synthesis for optimal use of knowledge in
//! consensus protocols.
//!
//! This is the umbrella crate of the `epimc` workspace, a Rust reproduction
//! of *"Model Checking and Synthesis for Optimal Use of Knowledge in
//! Consensus Protocols"* (PODC 2025). It ties together
//!
//! * the protocol models of [`epimc_protocols`] (FloodSet, Count, Diff,
//!   Dwork–Moses, `E_min`, `E_basic`),
//! * the failure models and state-space exploration of [`epimc_system`],
//! * the epistemic model checking engines of [`epimc_check`],
//! * the knowledge-based-program synthesis of [`epimc_synth`], and
//! * the long-running checking service of [`epimc_serve`] (warm BDD
//!   managers, a cross-request denotation cache, snapshot persistence),
//!
//! and exposes the analyses the paper reports:
//!
//! * [`spec`] — the SBA and EBA correctness specifications (agreement,
//!   validity, termination, unique decision) as model-checked properties;
//! * [`optimality`] — the comparison between when a protocol decides and
//!   when the knowledge condition of the knowledge-based program first
//!   holds, identifying optimisation opportunities;
//! * [`hypotheses`] — the concrete stopping conditions (2) and (3) of the
//!   paper and their verification against the knowledge conditions;
//! * [`experiments`] — the parameterised experiment harness behind the
//!   benchmark tables (Tables 1–3) and the scaling studies.
//!
//! # Quickstart
//!
//! ```
//! use epimc::prelude::*;
//!
//! // FloodSet with 3 agents, at most 1 crash, binary decisions.
//! let params = ModelParams::builder().agents(3).max_faulty(1).values(2).build();
//! let model = ConsensusModel::explore(FloodSet, params, FloodSetRule);
//!
//! // The protocol satisfies Simultaneous Byzantine Agreement...
//! let spec = epimc::spec::check_sba(&model);
//! assert!(spec.all_hold());
//!
//! // ...and with t < n - 1 the textbook decide-at-t+1 rule is optimal for
//! // this information exchange.
//! let optimality = epimc::optimality::analyze_sba(&model);
//! assert!(optimality.is_optimal());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod hypotheses;
pub mod optimality;
pub mod spec;

pub use epimc_system::run;

/// Convenient re-exports of the most frequently used items from the whole
/// workspace.
pub mod prelude {
    pub use epimc_check::{
        CheckBackend, Checker, EvalSession, LocalChecker, LocalStats, ObservationValues, PointSet,
        ReorderMode, SymbolicChecker, SymbolicOptions, SymbolicStats,
    };
    pub use epimc_logic::{AgentId, AgentSet, Formula};
    pub use epimc_protocols::{
        with_protocol, CountFloodSet, CountOptimalRule, DecideAtRound, DiffFloodSet, DworkMoses,
        DworkMosesRule, EBasic, EBasicRule, EMin, EMinRule, FloodSet, FloodSetRule,
        OptimalFloodSetRule, ProtocolKind, TextbookRule,
    };
    pub use epimc_relational::{SymbolicEncode, SymbolicRule};
    pub use epimc_synth::{
        KnowledgeBasedProgram, NonUniformClass, SymbolicSynthesisProfile, SymbolicSynthesizer,
        SynthesisOutcome, SynthesisStats, Synthesizer,
    };
    pub use epimc_system::{
        Action, ConsensusAtom, ConsensusModel, Decision, DecisionRule, FailureKind,
        InformationExchange, ModelParams, NeverDecide, Observation, PointId, PointModel, Round,
        StateSpace, TableRule, Value,
    };

    pub use epimc_serve::{Client, ModelSpec, ServeOptions, Server};

    pub use crate::experiments::{Experiment, ExperimentMeasurement};
    pub use crate::hypotheses::{condition2, condition3, condition3_observed, HypothesisReport};
    pub use crate::optimality::{analyze_sba, OptimalityReport};
    pub use crate::spec::{check_eba, check_sba, SpecReport};
}

pub use prelude::*;

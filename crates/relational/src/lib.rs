//! Relational (purely symbolic) model construction: protocols as BDD
//! transition relations.
//!
//! Enumerating every reachable global state before the symbolic engines
//! see the model is an `O(states)` cost that dominates the wall clock at
//! paper scale (FloodSet `n = 12` has 22M reachable states). This crate
//! is how the symbolic checker avoids it: a protocol that implements
//! [`SymbolicEncode`] declares its per-round state update *as a relation*
//! over an interleaved variable layout, and the checker builds each layer
//! by forward image computation from an initial-state cube — no state is
//! ever enumerated.
//!
//! # The contract
//!
//! * [`SlotLayout`] fixes the state variables: per agent, the observable
//!   fields of the exchange, a nonfaulty flag, the initial preference, a
//!   decided flag and the decision value. `epimc_check::SymbolicChecker`
//!   uses this layout directly, and encodes the points of an explored
//!   model over it to read its denotations off against the explicit
//!   checker (the differential suite asserts per-layer state counts,
//!   observation classes and formula point sets agree).
//! * [`ChoiceVars`] adds the adversary's per-round nondeterminism as
//!   auxiliary variables: which agents crash, which messages of faulty or
//!   crashing agents get through. The image computation quantifies them
//!   away.
//! * [`SymbolicEncode::encode_update`] produces, per receiving agent, the
//!   conjunction of `next-observable-bit ↔ condition` constraints through
//!   the [`Enc`] context, which supplies the channel conditions
//!   ([`Enc::chan`]) and the guarded decides-now conditions of the decision
//!   rule ([`Enc::dnow`]) so message contents can depend on same-round
//!   decisions (the EBA exchanges need this).
//! * [`SymbolicRule::decides`] gives the decision rule's *raw* condition
//!   for deciding a value as a predicate over the agent's current
//!   observable variables and the time; the builder adds the "not yet
//!   decided" and liveness guards.
//!
//! [`initial_cube`] and [`round_relation`] assemble these into the pieces
//! the checker consumes, and [`atom_constraint`] / [`decides_now_table`]
//! build what its atoms denote, so the bit layout has one owner.
//! Housekeeping semantics (self-delivery never fails, crashing-now agents
//! still act and decide, crashed agents are frozen, the fault budget)
//! mirror the explicit explorer exactly — that equivalence is what the
//! relational ≡ explicit differential suite pins down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod choice;
mod enc;
mod layout;

use epimc_bdd::Ref;
use epimc_logic::AgentId;
use epimc_system::{Action, DecisionRule, InformationExchange, NeverDecide, TableRule, Value};

pub use build::{
    atom_constraint, decides_now_table, encode_state, initial_cube, naive_image, round_relation,
    RoundRelation,
};
pub use choice::ChoiceVars;
pub use enc::Enc;
pub use layout::{bits_for, cur, nxt, AgentSlots, SlotLayout};

/// An information exchange that can encode its round update symbolically.
///
/// `encode_update` must return, for `receiver`, the conjunction of
/// `next(bit) ↔ condition` constraints covering **every observable-field
/// bit** of that agent, where each condition is a predicate over
/// current-state variables, the channel conditions [`Enc::chan`], and the
/// decides-now conditions [`Enc::dnow`] of the round. The system-level
/// bits (nonfaulty, initial preference, decided, decision value) are
/// handled by the builder.
pub trait SymbolicEncode: InformationExchange {
    /// The observable-field update relation for `receiver` in the round at
    /// [`Enc::time`].
    fn encode_update(&self, enc: &mut Enc<'_>, receiver: AgentId) -> Ref;
}

/// A decision rule that can encode its deciding condition symbolically.
///
/// `decides` returns the raw condition under which the rule's action for
/// `agent` at time [`Enc::time`] is `decide(value)`, as a predicate over
/// the agent's current observable variables (and the time, which is a
/// per-round constant). Guards — the agent not having decided yet, and in
/// crash models being alive — are added by the builder; conditions for
/// distinct values must be mutually exclusive (a rule is a function).
pub trait SymbolicRule<E: SymbolicEncode>: DecisionRule<E> {
    /// The raw deciding condition for `(agent, value)` at the context's
    /// time.
    fn decides(&self, enc: &mut Enc<'_>, agent: AgentId, value: Value) -> Ref;
}

impl<E: SymbolicEncode> SymbolicRule<E> for NeverDecide {
    fn decides(&self, _enc: &mut Enc<'_>, _agent: AgentId, _value: Value) -> Ref {
        Ref::FALSE
    }
}

impl<E: SymbolicEncode> SymbolicRule<E> for TableRule {
    fn decides(&self, enc: &mut Enc<'_>, agent: AgentId, value: Value) -> Ref {
        let mut observations: Vec<_> = self
            .iter()
            .filter(|((a, t, _), action)| {
                *a == agent && *t == enc.time() && **action == Action::Decide(value)
            })
            .map(|((_, _, observation), _)| observation.clone())
            .collect();
        // The entry map iterates in hash order; sort for a deterministic
        // build (BDD results are order-independent, node allocation and
        // cache traffic are not).
        observations.sort();
        let cubes: Vec<Ref> =
            observations.iter().map(|observation| enc.obs_eq(agent, observation)).collect();
        enc.bdd().or_all(cubes)
    }
}

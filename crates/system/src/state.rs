//! Global states of a protocol model.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use epimc_logic::{AgentId, AgentSet};

use crate::action::Decision;
use crate::exchange::InformationExchange;
use crate::failure::EnvState;
use crate::value::Value;

/// A global state: the environment state (failure bookkeeping), the local
/// state of every agent, each agent's initial preference, and the decisions
/// recorded so far.
///
/// The initial preferences are part of the global state because the
/// consensus specifications (Validity) and the `∃v` propositions of the
/// knowledge-based program refer to them; they are not directly visible to
/// other agents.
///
/// The `inits` and `decisions` components are reference-counted slices:
/// initial preferences never change after time 0 and decision vectors change
/// at most once per agent per run, so every successor a state generates
/// shares them. This interning is what keeps frontier expansion cheap — the
/// explorer enumerates millions of candidate successors, and cloning a
/// state costs two reference-count bumps plus one local-state vector instead
/// of three deep vector copies.
pub struct GlobalState<E: InformationExchange> {
    /// Failure bookkeeping.
    pub env: EnvState,
    /// Initial preference of each agent (shared across the whole run tree).
    pub inits: Arc<[Value]>,
    /// Local state of each agent under the information exchange.
    pub locals: Vec<E::LocalState>,
    /// Decision recorded for each agent, if it has decided (shared between a
    /// state and its successors until some agent decides).
    pub decisions: Arc<[Option<Decision>]>,
}

impl<E: InformationExchange> GlobalState<E> {
    /// Number of agents in the state.
    pub fn num_agents(&self) -> usize {
        self.locals.len()
    }

    /// The local state of `agent`.
    pub fn local(&self, agent: AgentId) -> &E::LocalState {
        &self.locals[agent.index()]
    }

    /// The initial preference of `agent`.
    pub fn init(&self, agent: AgentId) -> Value {
        self.inits[agent.index()]
    }

    /// The decision recorded for `agent`, if any.
    pub fn decision(&self, agent: AgentId) -> Option<Decision> {
        self.decisions[agent.index()]
    }

    /// Returns `true` when `agent` has decided.
    pub fn has_decided(&self, agent: AgentId) -> bool {
        self.decisions[agent.index()].is_some()
    }

    /// Returns `true` when some agent has initial preference `value`.
    pub fn exists_init(&self, value: Value) -> bool {
        self.inits.contains(&value)
    }

    /// The indexical nonfaulty set `N` at this state.
    pub fn nonfaulty(&self) -> AgentSet {
        self.env.nonfaulty(self.num_agents())
    }

    fn key(&self) -> StateKey<'_, E> {
        (&self.env, &self.inits, &self.locals, &self.decisions)
    }
}

/// The comparison/hashing key of a global state: every component by
/// reference, so `Eq`/`Ord`/`Hash` agree and allocate nothing.
type StateKey<'a, E> = (
    &'a EnvState,
    &'a [Value],
    &'a [<E as InformationExchange>::LocalState],
    &'a [Option<Decision>],
);

// Manual trait implementations: deriving would put spurious bounds on `E`
// itself rather than on `E::LocalState`.

impl<E: InformationExchange> Clone for GlobalState<E> {
    fn clone(&self) -> Self {
        GlobalState {
            env: self.env,
            inits: self.inits.clone(),
            locals: self.locals.clone(),
            decisions: self.decisions.clone(),
        }
    }
}

impl<E: InformationExchange> PartialEq for GlobalState<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E: InformationExchange> Eq for GlobalState<E> {}

impl<E: InformationExchange> PartialOrd for GlobalState<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: InformationExchange> Ord for GlobalState<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E: InformationExchange> Hash for GlobalState<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl<E: InformationExchange> fmt::Debug for GlobalState<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalState")
            .field("env", &self.env)
            .field("inits", &self.inits)
            .field("locals", &self.locals)
            .field("decisions", &self.decisions)
            .finish()
    }
}

impl<E: InformationExchange> fmt::Display for GlobalState<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inits=[")?;
        for (pos, v) in self.inits.iter().enumerate() {
            if pos > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "] faulty={} crashed={}", self.env.faulty, self.env.crashed)?;
        for (idx, decision) in self.decisions.iter().enumerate() {
            if let Some(d) = decision {
                write!(f, " {}:{}", AgentId::new(idx), d)?;
            }
        }
        Ok(())
    }
}

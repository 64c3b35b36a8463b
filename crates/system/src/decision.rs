//! The decision-protocol layer.

use std::collections::HashMap;
use std::fmt;

use epimc_logic::AgentId;

use crate::action::Action;
use crate::exchange::{InformationExchange, Observation};
use crate::params::ModelParams;
use crate::value::Round;

/// A decision protocol `P`: a deterministic function from an agent's local
/// state (and the current time) to the action the agent performs in the next
/// round.
///
/// Implementations must be deterministic — together with the information
/// exchange and an adversary, they uniquely determine a run — and must be
/// insensitive to anything other than the agent's own local state, the time,
/// and whether the agent has already decided (the generator enforces the
/// Unique-Decision requirement by never asking again after a decision).
pub trait DecisionRule<E: InformationExchange> {
    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> String;

    /// The action `agent` performs in the round following time `time`, as a
    /// function of its local state at `time`.
    fn action(
        &self,
        exchange: &E,
        params: &ModelParams,
        agent: AgentId,
        time: Round,
        state: &E::LocalState,
    ) -> Action;
}

/// The decision rule that never decides. Used to explore the raw information
/// exchange (e.g. when computing the earliest time a knowledge condition
/// holds independently of any decision protocol).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NeverDecide;

impl<E: InformationExchange> DecisionRule<E> for NeverDecide {
    fn name(&self) -> String {
        "never-decide".to_string()
    }

    fn action(
        &self,
        _exchange: &E,
        _params: &ModelParams,
        _agent: AgentId,
        _time: Round,
        _state: &E::LocalState,
    ) -> Action {
        Action::Noop
    }
}

/// A decision rule given extensionally, as a table from `(agent, time,
/// observation)` to actions.
///
/// This is the representation produced by the synthesis engine: under the
/// clock semantics an implementation of a knowledge-based program is exactly
/// a function of the agent's time and observation, so a finite table is a
/// faithful (and executable) protocol.
///
/// Entries that are absent default to [`Action::Noop`].
///
/// Equality compares the name and the explicit entry map; the synthesis
/// differential suite relies on it to assert that the explicit and symbolic
/// engines produce the same table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableRule {
    name: String,
    entries: HashMap<(AgentId, Round, Observation), Action>,
}

impl TableRule {
    /// Creates an empty table rule with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableRule { name: name.into(), entries: HashMap::new() }
    }

    /// Sets the action for `(agent, time, observation)`.
    pub fn set(&mut self, agent: AgentId, time: Round, observation: Observation, action: Action) {
        self.entries.insert((agent, time, observation), action);
    }

    /// Looks up the action for `(agent, time, observation)`, defaulting to
    /// `Noop`.
    pub fn get(&self, agent: AgentId, time: Round, observation: &Observation) -> Action {
        self.entries.get(&(agent, time, observation.clone())).copied().unwrap_or(Action::Noop)
    }

    /// Number of explicit entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the table has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the explicit entries of the table.
    pub fn iter(&self) -> impl Iterator<Item = (&(AgentId, Round, Observation), &Action)> {
        self.entries.iter()
    }

    /// The earliest time at which any entry for `agent` decides, if any.
    pub fn earliest_decision_time(&self, agent: AgentId) -> Option<Round> {
        self.entries
            .iter()
            .filter(|((a, _, _), action)| *a == agent && action.is_decide())
            .map(|((_, time, _), _)| *time)
            .min()
    }
}

impl fmt::Display for TableRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} entries)", self.name, self.entries.len())
    }
}

impl<E: InformationExchange> DecisionRule<E> for TableRule {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn action(
        &self,
        exchange: &E,
        params: &ModelParams,
        agent: AgentId,
        time: Round,
        state: &E::LocalState,
    ) -> Action {
        let observation = exchange.observation(params, agent, state);
        self.get(agent, time, &observation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn table_rule_lookup_and_defaults() {
        let mut table = TableRule::new("synthesized");
        assert!(table.is_empty());
        let obs = Observation::new(vec![1, 0]);
        table.set(AgentId::new(0), 2, obs.clone(), Action::Decide(Value::ZERO));
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(AgentId::new(0), 2, &obs), Action::Decide(Value::ZERO));
        // Different observation or time falls back to noop.
        assert_eq!(table.get(AgentId::new(0), 1, &obs), Action::Noop);
        assert_eq!(table.get(AgentId::new(0), 2, &Observation::new(vec![0, 0])), Action::Noop);
        assert_eq!(table.earliest_decision_time(AgentId::new(0)), Some(2));
        assert_eq!(table.earliest_decision_time(AgentId::new(1)), None);
        assert_eq!(format!("{table}"), "synthesized (1 entries)");
    }
}

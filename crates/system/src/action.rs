//! Protocol actions and decision records.

use std::fmt;

use crate::value::{Round, Value};

/// The action performed by an agent in a round of the decision protocol.
///
/// Following the paper (Section 3), the only actions are `noop` and
/// `decide(v)` for a value `v` in the decision domain.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Action {
    /// No action this round.
    Noop,
    /// Decide on the given value.
    Decide(Value),
}

impl Action {
    /// Returns the decided value, if the action is a decision.
    pub fn decided_value(self) -> Option<Value> {
        match self {
            Action::Noop => None,
            Action::Decide(v) => Some(v),
        }
    }

    /// Returns `true` when the action is a decision.
    pub fn is_decide(self) -> bool {
        matches!(self, Action::Decide(_))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Noop => write!(f, "noop"),
            Action::Decide(v) => write!(f, "decide({v})"),
        }
    }
}

/// A recorded decision: which value was decided and at which time the
/// deciding action was taken (i.e. the decision was taken as a function of
/// the agent's state at time `round`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Decision {
    /// The decided value.
    pub value: Value,
    /// The time of the state from which the decision was made.
    pub round: Round,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decide({}) at time {}", self.value, self.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_queries() {
        assert_eq!(Action::Noop.decided_value(), None);
        assert_eq!(Action::Decide(Value::ONE).decided_value(), Some(Value::ONE));
        assert!(Action::Decide(Value::ZERO).is_decide());
        assert!(!Action::Noop.is_decide());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Action::Noop), "noop");
        assert_eq!(format!("{}", Action::Decide(Value::new(2))), "decide(2)");
        let d = Decision { value: Value::ZERO, round: 3 };
        assert_eq!(format!("{d}"), "decide(0) at time 3");
    }
}

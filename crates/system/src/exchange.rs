//! The information-exchange layer: local states, messages and observations.

use std::fmt;
use std::hash::Hash;

use epimc_logic::AgentId;

use crate::action::Action;
use crate::params::ModelParams;
use crate::value::Value;

/// The clock-semantics observation of an agent: the values of its observable
/// variables, in the order given by
/// [`InformationExchange::observable_layout`].
///
/// Under the clock semantics of knowledge used throughout the paper, an
/// agent's epistemic local state is the pair of the current time and this
/// observation; the model checker groups the states of a layer by
/// observation to compute what each agent knows.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Observation(Vec<u32>);

impl Observation {
    /// Creates an observation from the values of the observable variables.
    pub fn new(values: Vec<u32>) -> Self {
        Observation(values)
    }

    /// The values of the observable variables.
    pub fn values(&self) -> &[u32] {
        &self.0
    }

    /// The value of the observable variable at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the exchange's layout.
    pub fn value(&self, index: usize) -> u32 {
        self.0[index]
    }

    /// Number of observable variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty observation.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (pos, v) in self.0.iter().enumerate() {
            if pos > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// Description of one observable variable of an information exchange:
/// its name (used when reporting synthesized predicates) and the size of its
/// finite domain.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObservableVar {
    /// Human-readable name, e.g. `values_received[0]` or `count`.
    pub name: String,
    /// Number of values the variable ranges over (`2` for booleans).
    pub domain: u32,
}

impl ObservableVar {
    /// Creates a boolean observable variable.
    pub fn boolean(name: impl Into<String>) -> Self {
        ObservableVar { name: name.into(), domain: 2 }
    }

    /// Creates an observable variable over `0 .. domain`.
    pub fn ranged(name: impl Into<String>, domain: u32) -> Self {
        assert!(domain >= 1, "observable variable domain must be nonempty");
        ObservableVar { name: name.into(), domain }
    }
}

/// The messages received by one agent in a round, indexed by sender.
///
/// `received[j] = Some(m)` means the message `m` broadcast by agent `j` this
/// round was delivered; `None` means either that `j` sent nothing or that the
/// failure model dropped the message. Agents always receive their own
/// message (self-delivery is local and cannot fail).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Received<M> {
    messages: Vec<Option<M>>,
}

impl<M> Received<M> {
    /// Creates a received-message vector from per-sender options.
    pub fn new(messages: Vec<Option<M>>) -> Self {
        Received { messages }
    }

    /// The message received from `sender`, if any.
    pub fn from_sender(&self, sender: AgentId) -> Option<&M> {
        self.messages.get(sender.index()).and_then(Option::as_ref)
    }

    /// Number of messages received this round (counting the agent's own).
    pub fn count(&self) -> usize {
        self.messages.iter().filter(|m| m.is_some()).count()
    }

    /// Iterates over `(sender, message)` pairs for the delivered messages.
    pub fn iter(&self) -> impl Iterator<Item = (AgentId, &M)> {
        self.messages
            .iter()
            .enumerate()
            .filter_map(|(idx, m)| m.as_ref().map(|msg| (AgentId::new(idx), msg)))
    }

    /// The set of senders whose messages were delivered.
    pub fn senders(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.iter().map(|(sender, _)| sender)
    }
}

/// An information-exchange protocol `E`, the base layer of the two-layer
/// protocol model of Section 3 of the paper.
///
/// The exchange defines the agents' local states, the (broadcast) messages
/// they send each round — possibly depending on the action chosen by the
/// decision layer in the same round — how local states are updated from the
/// messages received, and which part of the local state is *observable* for
/// the purposes of the clock semantics of knowledge.
///
/// Exchanges and their local states are `Send` so that a checker built on
/// them can move to another thread (the checking server is moved, warm
/// checkers and all, into the thread that runs it); protocol state is
/// plain data, so implementations satisfy the bound automatically.
pub trait InformationExchange: Clone + Send {
    /// The local state of an agent.
    type LocalState: Clone + Eq + Ord + Hash + fmt::Debug + Send;
    /// The messages broadcast by agents.
    type Message: Clone + Eq + Hash + fmt::Debug + Send;

    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// The initial local state of `agent` with initial preference `init`.
    fn initial_local_state(
        &self,
        params: &ModelParams,
        agent: AgentId,
        init: Value,
    ) -> Self::LocalState;

    /// The message `agent` broadcasts this round, given its current local
    /// state and the action it performs this round. `None` means the agent
    /// does not broadcast anything this round.
    fn message(
        &self,
        params: &ModelParams,
        agent: AgentId,
        state: &Self::LocalState,
        action: Action,
    ) -> Option<Self::Message>;

    /// The local state of `agent` at the end of the round, given its state
    /// at the start of the round, the action it performed, and the messages
    /// delivered to it.
    fn update(
        &self,
        params: &ModelParams,
        agent: AgentId,
        state: &Self::LocalState,
        action: Action,
        received: &Received<Self::Message>,
    ) -> Self::LocalState;

    /// The observation an agent makes of its local state (the observable
    /// variables, in the order of [`InformationExchange::observable_layout`]).
    fn observation(
        &self,
        params: &ModelParams,
        agent: AgentId,
        state: &Self::LocalState,
    ) -> Observation;

    /// Names and domains of the observable variables, used when reporting
    /// synthesized predicates over the observables.
    fn observable_layout(&self, params: &ModelParams) -> Vec<ObservableVar>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_accessors() {
        let obs = Observation::new(vec![1, 0, 3]);
        assert_eq!(obs.len(), 3);
        assert!(!obs.is_empty());
        assert_eq!(obs.value(2), 3);
        assert_eq!(obs.values(), &[1, 0, 3]);
        assert_eq!(format!("{obs}"), "⟨1, 0, 3⟩");
        assert!(Observation::default().is_empty());
    }

    #[test]
    fn observable_var_constructors() {
        let b = ObservableVar::boolean("decided");
        assert_eq!(b.domain, 2);
        let r = ObservableVar::ranged("count", 5);
        assert_eq!(r.name, "count");
        assert_eq!(r.domain, 5);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn observable_var_rejects_empty_domain() {
        let _ = ObservableVar::ranged("bad", 0);
    }

    #[test]
    fn received_counting_and_lookup() {
        let received = Received::new(vec![Some("a"), None, Some("c")]);
        assert_eq!(received.count(), 2);
        assert_eq!(received.from_sender(AgentId::new(0)), Some(&"a"));
        assert_eq!(received.from_sender(AgentId::new(1)), None);
        let senders: Vec<_> = received.senders().map(|a| a.index()).collect();
        assert_eq!(senders, vec![0, 2]);
        let pairs: Vec<_> = received.iter().collect();
        assert_eq!(pairs.len(), 2);
    }
}

//! Failure models: crash failures and the omission failure family.

use std::fmt;

use epimc_logic::{AgentId, AgentSet};

/// The kind of failures that faulty agents may exhibit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureKind {
    /// Crash failures: a faulty agent crashes in some round, sending an
    /// arbitrary subset of the messages it was supposed to send in that
    /// round, and sends nothing thereafter.
    Crash,
    /// Sending omissions: a faulty agent may fail to send any message it was
    /// supposed to send, but receives every message sent to it.
    SendOmission,
    /// Receiving omissions: a faulty agent may fail to receive messages sent
    /// to it, but all its own messages are delivered.
    ReceiveOmission,
    /// General omissions: a faulty agent may fail both to send and to
    /// receive messages.
    GeneralOmission,
}

impl FailureKind {
    /// All supported failure kinds.
    pub const ALL: [FailureKind; 4] = [
        FailureKind::Crash,
        FailureKind::SendOmission,
        FailureKind::ReceiveOmission,
        FailureKind::GeneralOmission,
    ];

    /// Returns `true` for the omission-failure family (everything except
    /// crash failures).
    pub fn is_omission(self) -> bool {
        !matches!(self, FailureKind::Crash)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FailureKind::Crash => "crash",
            FailureKind::SendOmission => "sending omissions",
            FailureKind::ReceiveOmission => "receiving omissions",
            FailureKind::GeneralOmission => "general omissions",
        };
        write!(f, "{name}")
    }
}

/// A failure model: a failure kind together with the upper bound `t` on the
/// number of faulty agents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FailureModel {
    kind: FailureKind,
    max_faulty: usize,
}

impl FailureModel {
    /// Creates a failure model.
    pub fn new(kind: FailureKind, max_faulty: usize) -> Self {
        FailureModel { kind, max_faulty }
    }

    /// The failure kind.
    pub fn kind(&self) -> FailureKind {
        self.kind
    }

    /// The upper bound `t` on the number of faulty agents.
    pub fn max_faulty(&self) -> usize {
        self.max_faulty
    }
}

impl fmt::Display for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(t={})", self.kind, self.max_faulty)
    }
}

/// The environment component of a global state: which agents have crashed so
/// far and which agents are faulty.
///
/// * For **crash** failures the two sets coincide: an agent is considered
///   faulty once it has crashed, and the indexical nonfaulty set `N` contains
///   exactly the agents that are still alive, matching the `status == ALIVE`
///   encoding of the MCK scripts in the paper's appendix.
/// * For the **omission** failure models, the faulty set is chosen by the
///   adversary in the initial state (any set of at most `t` agents) and no
///   agent ever crashes; `N` is the complement of the faulty set throughout
///   the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EnvState {
    /// Agents that have crashed in the current or an earlier round.
    pub crashed: AgentSet,
    /// Agents that are faulty in this run (for crash failures: crashed so far).
    pub faulty: AgentSet,
}

impl EnvState {
    /// The environment state in which no agent has failed.
    pub fn pristine() -> Self {
        EnvState::default()
    }

    /// The initial environment state for an omission-failure run with the
    /// given faulty set.
    pub fn with_faulty(faulty: AgentSet) -> Self {
        EnvState { crashed: AgentSet::EMPTY, faulty }
    }

    /// The indexical nonfaulty set `N` at this state, for a system of `n`
    /// agents.
    pub fn nonfaulty(&self, n: usize) -> AgentSet {
        AgentSet::full(n).difference(self.faulty).difference(self.crashed)
    }

    /// Returns `true` when `agent` has crashed (in this or an earlier round).
    pub fn has_crashed(&self, agent: AgentId) -> bool {
        self.crashed.contains(agent)
    }

    /// Returns `true` when `agent` is faulty in this run.
    pub fn is_faulty(&self, agent: AgentId) -> bool {
        self.faulty.contains(agent) || self.crashed.contains(agent)
    }

    /// Records that the agents in `newly` crash in the current round.
    pub fn crash(&mut self, newly: AgentSet) {
        self.crashed = self.crashed.union(newly);
        self.faulty = self.faulty.union(newly);
    }
}

/// Iterates over every subset of `set` (including the empty set and `set`
/// itself). The number of subsets is `2^|set|`, so this is intended for the
/// small agent sets handled by the explicit-state engine.
pub(crate) fn subsets(set: AgentSet) -> impl Iterator<Item = AgentSet> {
    let bits = set.bits();
    let mut current: u64 = 0;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let result = AgentSet::from_bits(current);
        if current == bits {
            done = true;
        } else {
            // Standard sub-mask enumeration trick: step to the next subset of
            // `bits` in increasing numeric order.
            current = (current.wrapping_sub(bits)) & bits;
        }
        Some(result)
    })
}

/// Iterates over every subset of `set` with at most `max_size` elements.
pub(crate) fn subsets_up_to(set: AgentSet, max_size: usize) -> impl Iterator<Item = AgentSet> {
    subsets(set).filter(move |s| s.len() <= max_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agents(ids: &[usize]) -> AgentSet {
        ids.iter().copied().map(AgentId::new).collect()
    }

    #[test]
    fn failure_kind_classification_and_display() {
        assert!(!FailureKind::Crash.is_omission());
        assert!(FailureKind::SendOmission.is_omission());
        assert!(FailureKind::GeneralOmission.is_omission());
        assert_eq!(format!("{}", FailureKind::Crash), "crash");
        assert_eq!(
            format!("{}", FailureModel::new(FailureKind::SendOmission, 2)),
            "sending omissions(t=2)"
        );
        assert_eq!(FailureKind::ALL.len(), 4);
    }

    #[test]
    fn env_state_crash_bookkeeping() {
        let mut env = EnvState::pristine();
        assert_eq!(env.nonfaulty(3), AgentSet::full(3));
        env.crash(agents(&[1]));
        assert!(env.has_crashed(AgentId::new(1)));
        assert!(env.is_faulty(AgentId::new(1)));
        assert!(!env.is_faulty(AgentId::new(0)));
        assert_eq!(env.nonfaulty(3), agents(&[0, 2]));
    }

    #[test]
    fn env_state_omission_faulty_set() {
        let env = EnvState::with_faulty(agents(&[2]));
        assert!(env.is_faulty(AgentId::new(2)));
        assert!(!env.has_crashed(AgentId::new(2)));
        assert_eq!(env.nonfaulty(4), agents(&[0, 1, 3]));
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let set = agents(&[0, 2, 3]);
        let subs: Vec<AgentSet> = subsets(set).collect();
        assert_eq!(subs.len(), 8);
        // Every enumerated set is a subset, all are distinct, and both the
        // empty set and the full set appear.
        for s in &subs {
            assert!(s.is_subset(set));
        }
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        assert!(subs.contains(&AgentSet::EMPTY));
        assert!(subs.contains(&set));
    }

    #[test]
    fn subset_enumeration_of_empty_set() {
        let subs: Vec<AgentSet> = subsets(AgentSet::EMPTY).collect();
        assert_eq!(subs, vec![AgentSet::EMPTY]);
    }

    #[test]
    fn bounded_subsets_respect_size() {
        let set = agents(&[0, 1, 2, 3]);
        let subs: Vec<AgentSet> = subsets_up_to(set, 2).collect();
        assert!(subs.iter().all(|s| s.len() <= 2));
        // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6
        assert_eq!(subs.len(), 11);
    }
}

//! Agent identifiers and compact agent sets.

use std::fmt;

/// Identifier of an agent (process) in a multi-agent system.
///
/// Agents are numbered `0..n` within a model instance. The identifier is a
/// plain index; any richer naming (e.g. the `D0`, `D1`, ... names used in MCK
/// scripts) is a presentation concern handled by the model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(u8);

impl AgentId {
    /// The maximum number of agents supported by [`AgentSet`].
    pub const MAX_AGENTS: usize = 64;

    /// Creates an agent identifier from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= AgentId::MAX_AGENTS`.
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_AGENTS,
            "agent index {index} exceeds the supported maximum of {}",
            Self::MAX_AGENTS
        );
        AgentId(index as u8)
    }

    /// Returns the zero-based index of the agent.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the first `n` agent identifiers, `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = AgentId> + Clone {
        (0..n).map(AgentId::new)
    }
}

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl From<AgentId> for usize {
    fn from(value: AgentId) -> Self {
        value.index()
    }
}

/// A set of agents, stored as a 64-bit mask.
///
/// Used for indexical sets such as the set `N` of nonfaulty agents, the set of
/// agents an agent knows to have crashed, and adversary-selected faulty sets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentSet(u64);

impl AgentSet {
    /// The empty set of agents.
    pub const EMPTY: AgentSet = AgentSet(0);

    /// Creates an empty agent set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates the full set `{0, .., n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > AgentId::MAX_AGENTS`.
    pub fn full(n: usize) -> Self {
        assert!(n <= AgentId::MAX_AGENTS, "agent set capacity exceeded");
        if n == AgentId::MAX_AGENTS {
            AgentSet(u64::MAX)
        } else {
            AgentSet((1u64 << n) - 1)
        }
    }

    /// Creates a set containing a single agent.
    pub fn singleton(agent: AgentId) -> Self {
        AgentSet(1u64 << agent.index())
    }

    /// Returns the raw bit mask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Creates an agent set from a raw bit mask.
    pub fn from_bits(bits: u64) -> Self {
        AgentSet(bits)
    }

    /// Returns `true` when the set contains no agents.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of agents in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when `agent` is a member of the set.
    pub fn contains(self, agent: AgentId) -> bool {
        self.0 & (1u64 << agent.index()) != 0
    }

    /// Adds an agent to the set.
    pub fn insert(&mut self, agent: AgentId) {
        self.0 |= 1u64 << agent.index();
    }

    /// Removes an agent from the set.
    pub fn remove(&mut self, agent: AgentId) {
        self.0 &= !(1u64 << agent.index());
    }

    /// Returns the set with `agent` added.
    pub fn with(mut self, agent: AgentId) -> Self {
        self.insert(agent);
        self
    }

    /// Returns the set with `agent` removed.
    pub fn without(mut self, agent: AgentId) -> Self {
        self.remove(agent);
        self
    }

    /// Set union.
    pub fn union(self, other: AgentSet) -> Self {
        AgentSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: AgentSet) -> Self {
        AgentSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: AgentSet) -> Self {
        AgentSet(self.0 & !other.0)
    }

    /// Returns `true` when `self` is a subset of `other`.
    pub fn is_subset(self, other: AgentSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the members of the set in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = AgentId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(AgentId::new(idx))
            }
        })
    }

    /// Complement of the set relative to the universe `{0, .., n-1}`.
    pub fn complement(self, n: usize) -> Self {
        Self::full(n).difference(self)
    }
}

impl FromIterator<AgentId> for AgentSet {
    fn from_iter<T: IntoIterator<Item = AgentId>>(iter: T) -> Self {
        let mut set = AgentSet::new();
        for agent in iter {
            set.insert(agent);
        }
        set
    }
}

impl Extend<AgentId> for AgentSet {
    fn extend<T: IntoIterator<Item = AgentId>>(&mut self, iter: T) {
        for agent in iter {
            self.insert(agent);
        }
    }
}

impl fmt::Debug for AgentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for AgentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (pos, agent) in self.iter().enumerate() {
            if pos > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{agent}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_id_roundtrip() {
        let a = AgentId::new(5);
        assert_eq!(a.index(), 5);
        assert_eq!(format!("{a}"), "A5");
        assert_eq!(usize::from(a), 5);
    }

    #[test]
    #[should_panic(expected = "agent index")]
    fn agent_id_out_of_range_panics() {
        let _ = AgentId::new(64);
    }

    #[test]
    fn all_agents_enumerates_in_order() {
        let agents: Vec<_> = AgentId::all(4).map(|a| a.index()).collect();
        assert_eq!(agents, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_and_full_sets() {
        assert!(AgentSet::EMPTY.is_empty());
        assert_eq!(AgentSet::EMPTY.len(), 0);
        let full = AgentSet::full(5);
        assert_eq!(full.len(), 5);
        assert!(AgentId::all(5).all(|a| full.contains(a)));
        assert!(!full.contains(AgentId::new(5)));
        let max = AgentSet::full(AgentId::MAX_AGENTS);
        assert_eq!(max.len(), 64);
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = AgentSet::new();
        set.insert(AgentId::new(2));
        set.insert(AgentId::new(7));
        assert!(set.contains(AgentId::new(2)));
        assert!(set.contains(AgentId::new(7)));
        assert!(!set.contains(AgentId::new(3)));
        set.remove(AgentId::new(2));
        assert!(!set.contains(AgentId::new(2)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a: AgentSet = [0, 1, 2].into_iter().map(AgentId::new).collect();
        let b: AgentSet = [2, 3].into_iter().map(AgentId::new).collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), AgentSet::singleton(AgentId::new(2)));
        assert_eq!(a.difference(b).len(), 2);
        assert!(AgentSet::singleton(AgentId::new(1)).is_subset(a));
        assert!(!a.is_subset(b));
        assert_eq!(a.complement(4), AgentSet::singleton(AgentId::new(3)));
    }

    #[test]
    fn iteration_is_sorted() {
        let set: AgentSet = [5, 1, 3].into_iter().map(AgentId::new).collect();
        let indices: Vec<_> = set.iter().map(|a| a.index()).collect();
        assert_eq!(indices, vec![1, 3, 5]);
    }

    #[test]
    fn display_formats_sets() {
        let set: AgentSet = [0, 2].into_iter().map(AgentId::new).collect();
        assert_eq!(format!("{set}"), "{A0, A2}");
        assert_eq!(format!("{:?}", set), "{A0, A2}");
    }

    #[test]
    fn with_without_builder_style() {
        let set = AgentSet::new().with(AgentId::new(1)).with(AgentId::new(4));
        assert_eq!(set.len(), 2);
        assert_eq!(set.without(AgentId::new(1)), AgentSet::singleton(AgentId::new(4)));
    }
}

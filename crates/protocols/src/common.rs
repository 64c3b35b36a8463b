//! Shared helpers for the protocol models.

use std::fmt;

use epimc_system::Value;

/// A set of decision values, stored as a bitmask over the (small) decision
/// domain. This is the `w : Values -> Bool` array of the MCK scripts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ValueSet(u16);

impl ValueSet {
    /// The empty set of values.
    pub const EMPTY: ValueSet = ValueSet(0);

    /// The set containing only `value`.
    pub fn singleton(value: Value) -> Self {
        ValueSet(1 << value.index())
    }

    /// Returns `true` when the set contains `value`.
    pub fn contains(self, value: Value) -> bool {
        self.0 & (1 << value.index()) != 0
    }

    /// Adds `value` to the set.
    pub fn insert(&mut self, value: Value) {
        self.0 |= 1 << value.index();
    }

    /// Set union.
    pub fn union(self, other: ValueSet) -> Self {
        ValueSet(self.0 | other.0)
    }

    /// Number of values in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The least value in the set, if any — the value the FloodSet decision
    /// rule decides on.
    pub fn min_value(self) -> Option<Value> {
        if self.0 == 0 {
            None
        } else {
            Some(Value::new(self.0.trailing_zeros() as usize))
        }
    }

    /// Iterates over the members of the set in increasing order.
    pub fn iter(self) -> impl Iterator<Item = Value> {
        (0..16).map(Value::new).filter(move |v| self.contains(*v))
    }
}

impl FromIterator<Value> for ValueSet {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let mut set = ValueSet::EMPTY;
        for value in iter {
            set.insert(value);
        }
        set
    }
}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (pos, value) in self.iter().enumerate() {
            if pos > 0 {
                write!(f, ",")?;
            }
            write!(f, "{value}")?;
        }
        write!(f, "}}")
    }
}

/// Encodes the membership bits of a value set as one boolean observable per
/// value of the domain, in value order.
pub(crate) fn value_set_observation(set: ValueSet, num_values: usize) -> Vec<u32> {
    Value::all(num_values).map(|v| u32::from(set.contains(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_operations() {
        let mut set = ValueSet::EMPTY;
        assert!(set.is_empty());
        assert_eq!(set.min_value(), None);
        set.insert(Value::new(2));
        set.insert(Value::new(0));
        assert!(set.contains(Value::new(0)));
        assert!(!set.contains(Value::new(1)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.min_value(), Some(Value::ZERO));
        let other = ValueSet::singleton(Value::new(1));
        let union = set.union(other);
        assert_eq!(union.len(), 3);
        let collected: ValueSet = [Value::new(0), Value::new(2)].into_iter().collect();
        assert_eq!(collected, set);
        assert_eq!(format!("{set}"), "{0,2}");
    }

    #[test]
    fn observation_encoding_is_positional() {
        let set: ValueSet = [Value::new(0), Value::new(2)].into_iter().collect();
        assert_eq!(value_set_observation(set, 3), vec![1, 0, 1]);
        assert_eq!(value_set_observation(ValueSet::EMPTY, 2), vec![0, 0]);
    }
}

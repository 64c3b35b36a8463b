//! Decision values and round numbers.

use std::fmt;

/// A decision value, drawn from the finite set `V = {0, .., k-1}` of a model
/// instance.
///
/// The knowledge-based program for SBA decides on the *least* value for which
/// the knowledge condition holds, so values are ordered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(u8);

impl Value {
    /// Creates a value from its index in `V`.
    pub fn new(index: usize) -> Self {
        assert!(index < 256, "value index out of range");
        Value(index as u8)
    }

    /// The index of the value in `V`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all values of a domain of size `k`, in increasing order.
    pub fn all(k: usize) -> impl Iterator<Item = Value> + Clone {
        (0..k).map(Value::new)
    }

    /// The conventional value `0`, which plays a special role in the EBA
    /// knowledge-based program `P0`.
    pub const ZERO: Value = Value(0);
    /// The conventional value `1`.
    pub const ONE: Value = Value(1);
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Value> for usize {
    fn from(value: Value) -> Self {
        value.index()
    }
}

/// A round number (time). Round 0 is the initial point, before any messages
/// have been exchanged; the state at time `m` reflects the messages of the
/// first `m` rounds, matching the modelling convention of Section 7 of the
/// paper.
pub type Round = u32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_and_ordering() {
        let v = Value::new(3);
        assert_eq!(v.index(), 3);
        assert_eq!(usize::from(v), 3);
        assert!(Value::ZERO < Value::ONE);
        assert!(Value::new(1) < Value::new(2));
        assert_eq!(format!("{}", Value::new(7)), "7");
    }

    #[test]
    fn all_enumerates_domain_in_order() {
        let values: Vec<_> = Value::all(3).collect();
        assert_eq!(values, vec![Value::new(0), Value::new(1), Value::new(2)]);
        assert_eq!(Value::all(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_out_of_range_panics() {
        let _ = Value::new(256);
    }
}

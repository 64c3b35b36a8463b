//! The protocol registry: the one table of (information exchange, decision
//! rule) pairs the workspace analyses.
//!
//! [`ProtocolKind`] names the six pairs of the paper as data — what a model
//! spec, an experiment grid or a budget file can carry — and
//! [`with_protocol!`](crate::with_protocol) turns a kind back into the
//! concrete exchange and literature rule, so code generic over
//! `(E, R)` is instantiated in exactly one place. The checking service, the
//! experiment harness and the bench tables all dispatch through it.

use std::fmt;

/// The protocols (information exchange + literature decision rule) of the
/// paper: four for Simultaneous Byzantine Agreement (§7.1–7.4) and two for
/// Eventual Byzantine Agreement (§9.1–9.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// FloodSet: union of seen values ([`crate::FloodSet`], §7.1).
    FloodSet,
    /// FloodSet with a count of messages received
    /// ([`crate::CountFloodSet`], §7.2).
    CountFloodSet,
    /// The differential exchange with the previous count
    /// ([`crate::DiffFloodSet`], §7.3).
    DiffFloodSet,
    /// Dwork–Moses crash-failure exchange ([`crate::DworkMoses`], §7.4).
    DworkMoses,
    /// Minimal EBA exchange `E_min` ([`crate::EMin`], §9.1).
    EMin,
    /// EBA exchange `E_basic` with the `num1` counter ([`crate::EBasic`],
    /// §9.2).
    EBasic,
}

impl ProtocolKind {
    /// Every protocol kind, in wire-name order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::FloodSet,
        ProtocolKind::CountFloodSet,
        ProtocolKind::DiffFloodSet,
        ProtocolKind::DworkMoses,
        ProtocolKind::EMin,
        ProtocolKind::EBasic,
    ];

    /// The wire name: what `protocol=` takes in a model spec, and the stem
    /// of experiment ids and budget-file keys. [`fmt::Display`] prints it.
    pub fn wire_name(self) -> &'static str {
        match self {
            ProtocolKind::FloodSet => "floodset",
            ProtocolKind::CountFloodSet => "count",
            ProtocolKind::DiffFloodSet => "diff",
            ProtocolKind::DworkMoses => "dworkmoses",
            ProtocolKind::EMin => "emin",
            ProtocolKind::EBasic => "ebasic",
        }
    }

    /// The name the paper's tables use for the exchange.
    pub fn paper_name(self) -> &'static str {
        match self {
            ProtocolKind::FloodSet => "FloodSet",
            ProtocolKind::CountFloodSet => "Count FloodSet",
            ProtocolKind::DiffFloodSet => "Differential",
            ProtocolKind::DworkMoses => "Dwork-Moses",
            ProtocolKind::EMin => "E_min",
            ProtocolKind::EBasic => "E_basic",
        }
    }

    /// Whether the protocol solves *Eventual* Byzantine Agreement (checked
    /// against the EBA specification, synthesized from the program `P0`)
    /// rather than Simultaneous Byzantine Agreement.
    pub fn is_eventual(self) -> bool {
        matches!(self, ProtocolKind::EMin | ProtocolKind::EBasic)
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown token.
    pub fn parse(token: &str) -> Result<Self, String> {
        ProtocolKind::ALL
            .into_iter()
            .find(|kind| kind.wire_name() == token)
            .ok_or_else(|| format!("unknown protocol `{token}` (try `floodset`)"))
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Runs `$body` with `$exchange` and `$rule` bound to the information
/// exchange and literature decision rule of the [`ProtocolKind`] `$kind`.
///
/// The body is instantiated once per pair, so it must type-check for all
/// six — write it against the `InformationExchange` / `DecisionRule` /
/// `SymbolicEncode` / `SymbolicRule` bounds, not a concrete protocol. Name
/// a binding `_rule` (or `_exchange`) when the body does not use it.
///
/// ```
/// use epimc_protocols::{with_protocol, ProtocolKind};
/// use epimc_system::InformationExchange;
///
/// let name = with_protocol!(ProtocolKind::EMin, |exchange, _rule| exchange.name());
/// assert_eq!(name, epimc_protocols::EMin.name());
/// ```
#[macro_export]
macro_rules! with_protocol {
    ($kind:expr, |$exchange:ident, $rule:ident| $body:expr) => {
        match $kind {
            $crate::ProtocolKind::FloodSet => {
                let ($exchange, $rule) = ($crate::FloodSet, $crate::FloodSetRule);
                $body
            }
            $crate::ProtocolKind::CountFloodSet => {
                let ($exchange, $rule) = ($crate::CountFloodSet, $crate::TextbookRule);
                $body
            }
            $crate::ProtocolKind::DiffFloodSet => {
                let ($exchange, $rule) = ($crate::DiffFloodSet, $crate::TextbookRule);
                $body
            }
            $crate::ProtocolKind::DworkMoses => {
                let ($exchange, $rule) = ($crate::DworkMoses, $crate::DworkMosesRule);
                $body
            }
            $crate::ProtocolKind::EMin => {
                let ($exchange, $rule) = ($crate::EMin, $crate::EMinRule);
                $body
            }
            $crate::ProtocolKind::EBasic => {
                let ($exchange, $rule) = ($crate::EBasic, $crate::EBasicRule);
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use epimc_relational::{SymbolicEncode, SymbolicRule};
    use epimc_system::{DecisionRule, InformationExchange};

    #[test]
    fn every_kind_round_trips_through_its_wire_name() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.wire_name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.wire_name());
        }
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|kind| kind.wire_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::ALL.len(), "wire names are distinct");
        let error = ProtocolKind::parse("FloodSet").unwrap_err();
        assert_eq!(error, "unknown protocol `FloodSet` (try `floodset`)");
    }

    #[test]
    fn with_protocol_reaches_all_six_pairs() {
        /// The (exchange, rule) names of a pair, through exactly the bounds
        /// the engines instantiate it under.
        fn names<E, R>(exchange: &E, rule: &R) -> (&'static str, String)
        where
            E: InformationExchange + SymbolicEncode,
            R: DecisionRule<E> + SymbolicRule<E>,
        {
            (exchange.name(), rule.name())
        }
        let reached: Vec<(&str, String)> = ProtocolKind::ALL
            .into_iter()
            .map(|kind| with_protocol!(kind, |exchange, rule| names(&exchange, &rule)))
            .collect();
        let expected = [
            names(&crate::FloodSet, &crate::FloodSetRule),
            names(&crate::CountFloodSet, &crate::TextbookRule),
            names(&crate::DiffFloodSet, &crate::TextbookRule),
            names(&crate::DworkMoses, &crate::DworkMosesRule),
            names(&crate::EMin, &crate::EMinRule),
            names(&crate::EBasic, &crate::EBasicRule),
        ];
        assert_eq!(reached, expected);
        let exchanges: std::collections::HashSet<&str> =
            reached.iter().map(|(exchange, _)| *exchange).collect();
        assert_eq!(exchanges.len(), 6, "six distinct exchanges");
    }

    #[test]
    fn only_the_section_nine_exchanges_are_eventual() {
        let eventual: Vec<ProtocolKind> =
            ProtocolKind::ALL.into_iter().filter(|kind| kind.is_eventual()).collect();
        assert_eq!(eventual, [ProtocolKind::EMin, ProtocolKind::EBasic]);
        assert_eq!(ProtocolKind::DworkMoses.paper_name(), "Dwork-Moses");
    }
}

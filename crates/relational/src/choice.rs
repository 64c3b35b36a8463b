//! Adversary-choice variables for the relational transition relation.
//!
//! The environment's per-round nondeterminism — which agents crash this
//! round and which messages the failure model drops — is encoded in
//! auxiliary BDD variables whose *indices* are allocated after every
//! state-variable pair, keeping them out of the grouped (current, next)
//! state pairs and quantifiable by plain cubes. Their *levels* are another
//! matter: the relational checker installs an initial order that places
//! each agent's crash variable and outgoing delivery variables directly
//! below that agent's state pairs, so a receiver's `deliver ∧ alive ∧
//! sender-state` products resolve locally instead of carrying every
//! sender's state across a far-away choice block.
//!
//! * Crash models: one crash variable `c_j` per agent (agent `j` crashes
//!   during this round) plus one delivery variable `d_{j→i}` per ordered
//!   pair of distinct agents (the message from a crashing-now `j` to `i` is
//!   delivered anyway).
//! * Omission models: only the delivery variables `d_{j→i}` (a faulty
//!   sender/receiver gets the message through regardless).

use epimc_bdd::Var;
use epimc_system::FailureKind;

/// Layout of the adversary-choice variables of one model instance.
#[derive(Clone, Debug)]
pub struct ChoiceVars {
    kind: FailureKind,
    num_agents: usize,
    base: u32,
}

impl ChoiceVars {
    /// Allocates the choice layout after `num_slots` state slots.
    pub fn new(kind: FailureKind, num_agents: usize, num_slots: usize) -> Self {
        ChoiceVars { kind, num_agents, base: (num_slots as u32) * 2 }
    }

    /// The failure kind the layout was built for.
    pub fn kind(&self) -> FailureKind {
        self.kind
    }

    /// Total number of choice variables.
    pub fn count(&self) -> usize {
        let n = self.num_agents;
        match self.kind {
            FailureKind::Crash => n + n * (n - 1),
            _ => n * (n - 1),
        }
    }

    /// The crash variable `c_j` (crash models only).
    ///
    /// # Panics
    ///
    /// Panics on a non-crash layout or an out-of-range agent (the layout
    /// is flat, so a larger index would alias a delivery variable).
    pub fn crash_var(&self, agent: usize) -> Var {
        assert_eq!(self.kind, FailureKind::Crash, "crash variables exist only in crash models");
        assert!(
            agent < self.num_agents,
            "crash_var({agent}) out of range for {} agents",
            self.num_agents
        );
        Var::new(self.base + agent as u32)
    }

    /// The delivery variable `d_{sender→receiver}` (`sender != receiver`).
    ///
    /// # Panics
    ///
    /// Panics on `sender == receiver` or an out-of-range agent: the pair
    /// index is flat `sender × (n−1) + receiver'`, so an out-of-range
    /// receiver would silently alias *another sender's* delivery variable
    /// instead of faulting.
    pub fn deliver_var(&self, sender: usize, receiver: usize) -> Var {
        assert_ne!(sender, receiver, "self-delivery is deterministic");
        let n = self.num_agents;
        assert!(
            sender < n && receiver < n,
            "deliver_var({sender}, {receiver}) out of range for {n} agents"
        );
        let pair = sender * (n - 1) + if receiver < sender { receiver } else { receiver - 1 };
        let offset = match self.kind {
            FailureKind::Crash => n + pair,
            _ => pair,
        };
        Var::new(self.base + offset as u32)
    }

    /// Every choice variable, ascending.
    pub fn all_vars(&self) -> Vec<Var> {
        (0..self.count()).map(|k| Var::new(self.base + k as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_layout_is_dense_and_disjoint() {
        let cv = ChoiceVars::new(FailureKind::Crash, 3, 10);
        assert_eq!(cv.count(), 3 + 6);
        let mut seen: Vec<u32> = (0..3).map(|j| cv.crash_var(j).index()).collect();
        for s in 0..3 {
            for r in 0..3 {
                if s != r {
                    seen.push(cv.deliver_var(s, r).index());
                }
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], 20);
        assert_eq!(*seen.last().unwrap(), 28);
    }

    #[test]
    fn omission_layout_has_no_crash_vars() {
        let cv = ChoiceVars::new(FailureKind::SendOmission, 4, 8);
        assert_eq!(cv.count(), 12);
        assert_eq!(cv.all_vars().len(), 12);
    }

    #[test]
    #[should_panic(expected = "crash_var(3) out of range")]
    fn crash_var_rejects_out_of_range_agent() {
        let cv = ChoiceVars::new(FailureKind::Crash, 3, 10);
        cv.crash_var(3);
    }

    #[test]
    #[should_panic(expected = "deliver_var(1, 3) out of range")]
    fn deliver_var_rejects_out_of_range_receiver() {
        // Without the bound, receiver 3 in a 3-agent layout computes pair
        // index 1·2 + 2 = 4 — sender 2's slot for receiver 0 — and silently
        // aliases another pair's variable.
        let cv = ChoiceVars::new(FailureKind::Crash, 3, 10);
        cv.deliver_var(1, 3);
    }
}

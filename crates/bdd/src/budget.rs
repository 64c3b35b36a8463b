//! Cooperative cancellation: resource budgets and the typed abort error.
//!
//! A [`Budget`] installed on a manager via [`Bdd::set_budget`] bounds a
//! computation along three axes — a wall-clock deadline, a live-node
//! ceiling, and an operation-count fuel. The manager polls the budget at
//! its existing GC/reorder safe points and on op-cache misses; when a
//! limit trips it aborts by unwinding a typed [`BddError`] payload, which
//! [`catch_budget`] converts back into a `Result` at the engine boundary.
//!
//! The abort contract: polls happen only *between* complete node-store /
//! unique-table / op-cache updates — exactly the states in which the
//! manager's canonicity invariants hold — so after catching a
//! [`BddError::BudgetExceeded`] the manager is structurally valid and the
//! caller may keep using it (typically after releasing whatever external
//! references the aborted computation was building).
//!
//! [`Bdd::set_budget`]: crate::Bdd::set_budget

use std::time::{Duration, Instant};

/// Which limit of a [`Budget`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The live-node ceiling was exceeded at a safe point.
    LiveNodes,
    /// The operation-count fuel ran out.
    Ops,
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetReason::Deadline => write!(f, "deadline"),
            BudgetReason::LiveNodes => write!(f, "live-nodes"),
            BudgetReason::Ops => write!(f, "ops"),
        }
    }
}

/// A resource budget for manager operations. All limits are optional; an
/// empty budget never trips. Budgets are installed with
/// [`Bdd::set_budget`](crate::Bdd::set_budget) and polled cooperatively,
/// so a trip is detected at the next poll point after the limit passes,
/// not at the exact instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Abort once `Instant::now()` passes this point.
    pub deadline: Option<Instant>,
    /// Abort when the manager's live-node count exceeds this at a safe
    /// point (polled at GC triggers and periodically during operations).
    pub max_live_nodes: Option<usize>,
    /// Abort after this many budgeted operations (op-cache misses).
    pub max_ops: Option<u64>,
}

impl Budget {
    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget { deadline: Some(deadline), ..Budget::default() }
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A budget with only a live-node ceiling.
    pub fn with_max_live_nodes(max_live_nodes: usize) -> Self {
        Budget { max_live_nodes: Some(max_live_nodes), ..Budget::default() }
    }

    /// A budget with only an operation-count fuel.
    pub fn with_max_ops(max_ops: u64) -> Self {
        Budget { max_ops: Some(max_ops), ..Budget::default() }
    }
}

/// A typed error unwound out of the manager when a [`Budget`] trips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BddError {
    /// A budget limit tripped; the manager is structurally valid and the
    /// snapshot fields describe the state at the abort point.
    BudgetExceeded {
        /// Which limit tripped.
        reason: BudgetReason,
        /// Budgeted operations performed before the trip.
        ops: u64,
        /// Live nodes at the abort point.
        live_nodes: usize,
    },
}

impl std::fmt::Display for BddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BddError::BudgetExceeded { reason, ops, live_nodes } => {
                write!(f, "budget exceeded ({reason}) after {ops} ops with {live_nodes} live nodes")
            }
        }
    }
}

impl std::error::Error for BddError {}

/// Installs (once per process) a panic hook that stays silent for the
/// typed budget payload — a budget trip is control flow, not a crash —
/// and delegates everything else to the previous hook.
pub(crate) fn install_quiet_budget_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<BddError>() {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting a budget-trip unwind from inside it into
/// `Err(BddError)`. Panics that are not budget trips resume unwinding
/// unchanged. This is the engine-boundary half of the abort contract:
/// wrap the outermost call that may trip, then inspect the error.
pub fn catch_budget<T>(f: impl FnOnce() -> T) -> Result<T, BddError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => match payload.downcast::<BddError>() {
            Ok(error) => Err(*error),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bdd, Var};

    #[test]
    fn unlimited_budget_never_trips() {
        let mut bdd = Bdd::new();
        bdd.set_budget(Some(Budget::default()));
        let result = catch_budget(|| {
            let a = bdd.var(Var::new(0));
            let b = bdd.var(Var::new(1));
            bdd.and(a, b)
        });
        assert!(result.is_ok());
    }

    #[test]
    fn ops_fuel_trips_with_valid_manager() {
        let mut bdd = Bdd::new();
        // Build something real first so the manager has state to validate.
        let vars: Vec<_> = (0..24).map(|i| bdd.var(Var::new(i))).collect();
        bdd.set_budget(Some(Budget::with_max_ops(8)));
        let result = catch_budget(|| {
            // A parity chain generates plenty of distinct ite-cache misses.
            let mut acc = vars[0];
            for &v in &vars[1..] {
                acc = bdd.xor(acc, v);
                let n = bdd.not(acc);
                acc = bdd.xor(n, v);
            }
            acc
        });
        let error = result.expect_err("fuel must trip");
        let BddError::BudgetExceeded { reason, ops, .. } = error;
        assert_eq!(reason, BudgetReason::Ops);
        assert!(ops >= 8);
        // The manager stays structurally valid after the abort.
        bdd.set_budget(None);
        bdd.check_canonical_invariant().unwrap();
        let a = bdd.var(Var::new(2));
        let b = bdd.var(Var::new(3));
        let ab = bdd.and(a, b);
        assert_eq!(bdd.and(ab, a), ab);
    }

    #[test]
    fn deadline_in_the_past_trips_at_first_poll() {
        let mut bdd = Bdd::new();
        bdd.set_budget(Some(Budget::with_deadline(Instant::now() - Duration::from_millis(1))));
        let result = catch_budget(|| bdd.poll_budget());
        let BddError::BudgetExceeded { reason, .. } = result.expect_err("deadline must trip");
        assert_eq!(reason, BudgetReason::Deadline);
        bdd.set_budget(None);
        bdd.check_canonical_invariant().unwrap();
    }

    #[test]
    fn live_node_ceiling_trips() {
        let mut bdd = Bdd::new();
        bdd.set_budget(Some(Budget::with_max_live_nodes(4)));
        let result = catch_budget(|| {
            let vars: Vec<_> = (0..16).map(|i| bdd.var(Var::new(i))).collect();
            let mut acc = vars[0];
            for &v in &vars[1..] {
                acc = bdd.xor(acc, v);
            }
            bdd.poll_budget();
            acc
        });
        let BddError::BudgetExceeded { reason, live_nodes, .. } =
            result.expect_err("node ceiling must trip");
        assert_eq!(reason, BudgetReason::LiveNodes);
        assert!(live_nodes > 4);
    }

    #[test]
    fn foreign_panics_pass_through_catch_budget() {
        let caught = std::panic::catch_unwind(|| {
            let _ = catch_budget(|| panic!("not a budget trip"));
        });
        assert!(caught.is_err(), "foreign panic must resume unwinding");
    }
}

//! Model instance parameters.

use std::fmt;

use crate::failure::{FailureKind, FailureModel};
use crate::value::Round;

/// The parameters of a model instance: the number of agents `n`, the failure
/// model (kind and upper bound `t` on the number of faulty agents), the size
/// of the decision domain `|V|`, and the exploration horizon in rounds.
///
/// The default horizon is `t + 2`: well-known lower bounds mean a decision
/// cannot always be made before round `t + 1`, and in the modelling
/// convention of the paper decisions taken as a function of knowledge at time
/// `t + 1` are performed during round `t + 2`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelParams {
    n: usize,
    num_values: usize,
    failure: FailureModel,
    horizon: Round,
}

impl ModelParams {
    /// Starts building a parameter set.
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// Number of agents `n`.
    pub fn num_agents(&self) -> usize {
        self.n
    }

    /// Size of the decision domain `|V|`.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// The failure model.
    pub fn failure(&self) -> FailureModel {
        self.failure
    }

    /// Upper bound `t` on the number of faulty agents.
    pub fn max_faulty(&self) -> usize {
        self.failure.max_faulty()
    }

    /// The exploration horizon: the state space is built for times
    /// `0 ..= horizon`.
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// Returns a copy of the parameters with a different horizon. Used by
    /// the Table 2 experiments, which vary the number of rounds explored.
    pub fn with_horizon(mut self, horizon: Round) -> Self {
        self.horizon = horizon;
        self
    }
}

impl fmt::Display for ModelParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} t={} |V|={} {} horizon={}",
            self.n,
            self.max_faulty(),
            self.num_values,
            self.failure.kind(),
            self.horizon
        )
    }
}

/// Builder for [`ModelParams`].
#[derive(Clone, Debug, Default)]
pub struct ModelParamsBuilder {
    n: Option<usize>,
    num_values: Option<usize>,
    kind: Option<FailureKind>,
    max_faulty: Option<usize>,
    horizon: Option<Round>,
}

impl ModelParamsBuilder {
    /// Sets the number of agents `n`.
    pub fn agents(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the size of the decision domain `|V|` (default 2).
    pub fn values(mut self, num_values: usize) -> Self {
        self.num_values = Some(num_values);
        self
    }

    /// Sets the failure kind (default crash failures).
    pub fn failure(mut self, kind: FailureKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Sets the upper bound `t` on the number of faulty agents.
    pub fn max_faulty(mut self, t: usize) -> Self {
        self.max_faulty = Some(t);
        self
    }

    /// Sets the exploration horizon in rounds (default `t + 2`).
    pub fn horizon(mut self, horizon: Round) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the number of agents is missing or zero, if `t > n`, if the
    /// decision domain is empty, or if the horizon is zero.
    pub fn build(self) -> ModelParams {
        let n = self.n.expect("ModelParams requires the number of agents");
        assert!(n >= 1, "a model needs at least one agent");
        assert!(n <= 16, "explicit-state exploration supports at most 16 agents");
        let num_values = self.num_values.unwrap_or(2);
        assert!(num_values >= 1, "the decision domain must be nonempty");
        let kind = self.kind.unwrap_or(FailureKind::Crash);
        let t = self.max_faulty.unwrap_or(1);
        assert!(t <= n, "the failure bound t={t} exceeds the number of agents n={n}");
        let horizon = self.horizon.unwrap_or((t as Round) + 2);
        assert!(horizon >= 1, "the horizon must be at least one round");
        ModelParams { n, num_values, failure: FailureModel::new(kind, t), horizon }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let p = ModelParams::builder().agents(3).max_faulty(2).build();
        assert_eq!(p.num_agents(), 3);
        assert_eq!(p.max_faulty(), 2);
        assert_eq!(p.num_values(), 2);
        assert_eq!(p.failure().kind(), FailureKind::Crash);
        assert_eq!(p.horizon(), 4);
    }

    #[test]
    fn builder_explicit_settings() {
        let p = ModelParams::builder()
            .agents(4)
            .max_faulty(1)
            .values(3)
            .failure(FailureKind::SendOmission)
            .horizon(2)
            .build();
        assert_eq!(p.num_values(), 3);
        assert_eq!(p.failure().kind(), FailureKind::SendOmission);
        assert_eq!(p.horizon(), 2);
        assert_eq!(p.with_horizon(5).horizon(), 5);
        let display = format!("{p}");
        assert!(display.contains("n=4"));
        assert!(display.contains("sending omissions"));
    }

    #[test]
    #[should_panic(expected = "exceeds the number of agents")]
    fn rejects_t_larger_than_n() {
        let _ = ModelParams::builder().agents(2).max_faulty(3).build();
    }

    #[test]
    #[should_panic(expected = "requires the number of agents")]
    fn requires_agent_count() {
        let _ = ModelParams::builder().max_faulty(1).build();
    }
}

//! The encoding context handed to protocols and rules while one round's
//! transition relation is being built.
//!
//! [`Enc`] wraps the BDD manager together with the slot layout, the
//! adversary-choice layout, the model parameters and the source-layer time,
//! and memoizes the two denotations every protocol equation is built from:
//!
//! * [`Enc::chan`] — the channel condition "the message broadcast by
//!   `sender` this round is delivered to `receiver`", as a function of the
//!   fault state and the adversary-choice variables;
//! * [`Enc::dnow`] — the guarded condition "`agent` takes the action
//!   `decide(v)` this round", precomputed from the decision rule before the
//!   per-receiver update equations are encoded (EBA exchanges read it to
//!   encode message contents).
//!
//! All conditions are over **current-state** variables (plus choice
//! variables); the `next_*` helpers produce the `next ↔ condition`
//! constraints a transition partition is conjoined from.
//!
//! The [`Ref`]s produced while an `Enc` is alive are not rooted anywhere —
//! the caller must not garbage-collect the manager until the finished
//! partitions have been stored in a rooted structure.

use epimc_bdd::{Bdd, Ref};
use epimc_logic::AgentId;
use epimc_system::{FailureKind, ModelParams, Observation, Round};

use crate::choice::ChoiceVars;
use crate::layout::{cur, nxt, SlotLayout};

/// `bits(slots) = value` over current-state variables (`slots` low bit
/// first); `⊥` when `value` needs more bits than `slots` has.
pub(crate) fn cube_eq(bdd: &mut Bdd, slots: &[usize], value: u32) -> Ref {
    if slots.len() < 32 && u64::from(value) >> slots.len() != 0 {
        return Ref::FALSE;
    }
    bdd.cube_literals(
        slots.iter().enumerate().map(|(bit, &slot)| (cur(slot), (value >> bit) & 1 == 1)),
    )
}

/// Popcount rows over `conds`: `rows[k]` holds iff exactly `k` of them
/// hold, for `k` up to `cap`. Counts past `cap` are dropped (a branch that
/// exceeds it can never come back), so the intermediate BDDs stay
/// `O(cap)` wide.
fn count_rows(bdd: &mut Bdd, conds: &[Ref], cap: usize) -> Vec<Ref> {
    let mut rows = vec![Ref::TRUE];
    for &cond in conds {
        let width = (rows.len() + 1).min(cap + 1);
        let mut next_rows = Vec::with_capacity(width);
        for k in 0..width {
            let with = if k > 0 { rows[k - 1] } else { Ref::FALSE };
            let without = if k < rows.len() { rows[k] } else { Ref::FALSE };
            next_rows.push(bdd.ite(cond, with, without));
        }
        rows = next_rows;
    }
    rows
}

/// `|{c ∈ conds : c}| ≤ bound`, computed with a saturating counter.
pub(crate) fn count_at_most(bdd: &mut Bdd, conds: &[Ref], bound: usize) -> Ref {
    let rows = count_rows(bdd, conds, bound);
    bdd.or_all(rows)
}

/// The encoding context for one round's transition relation. See the module
/// docs for the contract.
pub struct Enc<'a> {
    bdd: &'a mut Bdd,
    layout: &'a SlotLayout,
    choice: &'a ChoiceVars,
    params: ModelParams,
    time: Round,
    chan_memo: Vec<Option<Ref>>,
    dnow: Vec<Option<Ref>>,
}

impl<'a> Enc<'a> {
    /// Creates a context for the round that maps layer `time` to layer
    /// `time + 1`. The decides-now table starts empty; the relation builder
    /// populates it via [`Enc::set_dnow`] before protocols run.
    pub fn new(
        bdd: &'a mut Bdd,
        layout: &'a SlotLayout,
        choice: &'a ChoiceVars,
        params: ModelParams,
        time: Round,
    ) -> Self {
        let n = params.num_agents();
        let num_values = params.num_values();
        Enc {
            bdd,
            layout,
            choice,
            params,
            time,
            chan_memo: vec![None; n * n],
            dnow: vec![None; n * num_values],
        }
    }

    /// The BDD manager, for raw operations.
    pub fn bdd(&mut self) -> &mut Bdd {
        self.bdd
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The source-layer time of the round being encoded (the decision rule
    /// acts on the state at this time).
    pub fn time(&self) -> Round {
        self.time
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.params.num_agents()
    }

    /// The failure kind.
    pub fn kind(&self) -> FailureKind {
        self.params.failure().kind()
    }

    /// The slot layout.
    pub fn layout(&self) -> &SlotLayout {
        self.layout
    }

    /// The choice-variable layout.
    pub fn choice(&self) -> &ChoiceVars {
        self.choice
    }

    // ---- current-state conditions -------------------------------------

    /// The agent's nonfaulty flag (current state).
    pub fn nonfaulty(&mut self, agent: AgentId) -> Ref {
        let slot = self.layout.agents[agent.index()].nonfaulty;
        self.bdd.var(cur(slot))
    }

    /// The agent's decided flag (current state).
    pub fn decided(&mut self, agent: AgentId) -> Ref {
        let slot = self.layout.agents[agent.index()].decided;
        self.bdd.var(cur(slot))
    }

    /// `init_agent = v` (current state).
    pub fn init_eq(&mut self, agent: AgentId, v: u32) -> Ref {
        cube_eq(self.bdd, &self.layout.agents[agent.index()].init_bits, v)
    }

    /// Bit `bit` of observable field `field` of `agent` (current state).
    /// For a ranged field the bits encode the value, lowest first; for a
    /// field holding an agent-set bitmask, bit `j` is agent `j`'s
    /// membership.
    pub fn obs_bit(&mut self, agent: AgentId, field: usize, bit: usize) -> Ref {
        let slot = self.layout.agents[agent.index()].obs_bits[field][bit];
        self.bdd.var(cur(slot))
    }

    /// `field_agent = val` (current state).
    pub fn field_eq(&mut self, agent: AgentId, field: usize, val: u32) -> Ref {
        cube_eq(self.bdd, &self.layout.agents[agent.index()].obs_bits[field], val)
    }

    /// The full observation-equality cube for `agent` (current state).
    pub fn obs_eq(&mut self, agent: AgentId, observation: &Observation) -> Ref {
        let fields = observation.len();
        debug_assert_eq!(fields, self.layout.obs_layout.len());
        let mut acc = Ref::TRUE;
        for field in 0..fields {
            let eq = self.field_eq(agent, field, observation.value(field));
            acc = self.bdd.and(acc, eq);
        }
        acc
    }

    // ---- channel and decision conditions ------------------------------

    /// The condition under which the message broadcast by `sender` this
    /// round reaches `receiver`. Self-delivery is local and never fails.
    /// The condition covers only the channel: whether the sender broadcasts
    /// anything (and what) is the protocol's to encode.
    ///
    /// * Crash: the sender must not have crashed already, and if it crashes
    ///   *this* round the adversary picks delivery per receiver.
    /// * Sending omissions: a faulty sender's messages may be dropped.
    /// * Receiving omissions: a faulty receiver's inbound messages may be
    ///   dropped.
    /// * General omissions: both.
    pub fn chan(&mut self, sender: AgentId, receiver: AgentId) -> Ref {
        if sender == receiver {
            return Ref::TRUE;
        }
        let n = self.num_agents();
        // The memo is a flat n×n table: an out-of-range agent would not
        // fault, it would silently alias another pair's cached condition.
        assert!(
            sender.index() < n && receiver.index() < n,
            "chan({sender:?}, {receiver:?}) out of range for {n} agents"
        );
        let key = sender.index() * n + receiver.index();
        if let Some(cached) = self.chan_memo[key] {
            return cached;
        }
        let nf_s = self.nonfaulty(sender);
        let result = match self.kind() {
            FailureKind::Crash => {
                let c_s = self.bdd.var(self.choice.crash_var(sender.index()));
                let d = self.bdd.var(self.choice.deliver_var(sender.index(), receiver.index()));
                let not_crashing = self.bdd.not(c_s);
                let through = self.bdd.or(not_crashing, d);
                self.bdd.and(nf_s, through)
            }
            FailureKind::SendOmission => {
                let d = self.bdd.var(self.choice.deliver_var(sender.index(), receiver.index()));
                self.bdd.or(nf_s, d)
            }
            FailureKind::ReceiveOmission => {
                let nf_r = self.nonfaulty(receiver);
                let d = self.bdd.var(self.choice.deliver_var(sender.index(), receiver.index()));
                self.bdd.or(nf_r, d)
            }
            FailureKind::GeneralOmission => {
                let nf_r = self.nonfaulty(receiver);
                let d = self.bdd.var(self.choice.deliver_var(sender.index(), receiver.index()));
                let both = self.bdd.and(nf_s, nf_r);
                self.bdd.or(both, d)
            }
        };
        self.chan_memo[key] = Some(result);
        result
    }

    /// The guarded condition "`agent` performs `decide(v)` this round":
    /// the rule's raw condition, conjoined with `¬decided` (the generator
    /// never asks again after a decision) and, in crash models, with the
    /// agent being alive at the start of the round.
    ///
    /// # Panics
    ///
    /// Panics when `agent` or `v` is out of range for the model parameters
    /// (the table is flat `agent × num_values + v`, so an out-of-range `v`
    /// would otherwise silently alias the *next agent's* slot and build a
    /// wrong relation), or when the table has not been populated — i.e.
    /// when called outside a relation build driven by a
    /// [`SymbolicRule`](crate::SymbolicRule).
    pub fn dnow(&mut self, agent: AgentId, v: u32) -> Ref {
        self.dnow[self.dnow_key(agent, v)].expect("decides-now table not populated for this round")
    }

    /// `∃v. decides-now(agent, v)` — the agent takes a deciding action this
    /// round.
    pub fn dnow_any(&mut self, agent: AgentId) -> Ref {
        let mut acc = Ref::FALSE;
        for v in 0..self.params.num_values() as u32 {
            let d = self.dnow(agent, v);
            acc = self.bdd.or(acc, d);
        }
        acc
    }

    /// Stores the guarded decides-now condition for `(agent, v)`. Called by
    /// the relation builder before protocol equations are encoded.
    ///
    /// # Panics
    ///
    /// Panics when `agent` or `v` is out of range (same flat-index aliasing
    /// hazard as [`Enc::dnow`]).
    pub fn set_dnow(&mut self, agent: AgentId, v: u32, cond: Ref) {
        let key = self.dnow_key(agent, v);
        self.dnow[key] = Some(cond);
    }

    /// Bounds-checked flat index into the decides-now table.
    fn dnow_key(&self, agent: AgentId, v: u32) -> usize {
        let num_values = self.params.num_values();
        assert!(
            agent.index() < self.layout.agents.len(),
            "decides-now agent {agent:?} out of range for {} agents",
            self.layout.agents.len()
        );
        assert!(
            (v as usize) < num_values,
            "decide value {v} out of range (the model has {num_values} values); \
             a larger value would alias the next agent's decides-now slot"
        );
        agent.index() * num_values + v as usize
    }

    // ---- next-state constraints ---------------------------------------

    /// `next(slot) ↔ cond`.
    pub fn next_slot_iff(&mut self, slot: usize, cond: Ref) -> Ref {
        let next = self.bdd.var(nxt(slot));
        self.bdd.iff(next, cond)
    }

    /// `next(bit of observable field) ↔ cond`.
    pub fn next_obs_bit_iff(&mut self, agent: AgentId, field: usize, bit: usize, cond: Ref) -> Ref {
        let slot = self.layout.agents[agent.index()].obs_bits[field][bit];
        self.next_slot_iff(slot, cond)
    }

    /// Encodes `next(field_agent) = v  ⟺  cases[v]` from a family of
    /// *disjoint and exhaustive* case conditions: for each bit of the
    /// field, the next-state bit holds iff some case with that bit set in
    /// its value holds.
    pub fn next_field_eq_cases(
        &mut self,
        agent: AgentId,
        field: usize,
        cases: &[(u32, Ref)],
    ) -> Ref {
        let bits = self.layout.agents[agent.index()].obs_bits[field].len();
        let mut acc = Ref::TRUE;
        for bit in 0..bits {
            let mut cond = Ref::FALSE;
            for &(value, case) in cases {
                if (value >> bit) & 1 == 1 {
                    cond = self.bdd.or(cond, case);
                }
            }
            let eq = self.next_obs_bit_iff(agent, field, bit, cond);
            acc = self.bdd.and(acc, eq);
        }
        acc
    }

    /// `next(field_agent) = field_agent` — the field is unchanged.
    pub fn next_field_frozen(&mut self, agent: AgentId, field: usize) -> Ref {
        let slots = self.layout.agents[agent.index()].obs_bits[field].clone();
        let mut acc = Ref::TRUE;
        for slot in slots {
            let cond = self.bdd.var(cur(slot));
            let eq = self.next_slot_iff(slot, cond);
            acc = self.bdd.and(acc, eq);
        }
        acc
    }

    // ---- counting ------------------------------------------------------

    /// Exact-popcount rows: `result[k]` holds iff exactly `k` of `conds`
    /// hold, for `k = 0 ..= conds.len()`.
    pub fn count_exact(&mut self, conds: &[Ref]) -> Vec<Ref> {
        count_rows(self.bdd, conds, conds.len())
    }
}

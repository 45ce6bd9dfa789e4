//! Data-Dependent Process (DDP) provenance (Example 5.2.2, \[17\]).
//!
//! A DDP models an application driven by a finite state machine *and* the
//! state of an underlying database. Its provenance is a sum over executions,
//! each a product of transitions:
//!
//! * user-dependent transitions `⟨c_k, 1⟩` carrying a cost (the user's
//!   effort), and
//! * database-dependent transitions `⟨0, [dᵢ·dⱼ] ≠ 0⟩` / `⟨0, [dᵢ·dⱼ] = 0⟩`
//!   conditioning on DB tuples being present/absent.
//!
//! Evaluation combines the tropical semiring `(ℕ^∞, min, +, ∞, 0)` over
//! costs with boolean satisfaction of the DB conditions: the outcome is
//! `⟨min feasible cost, true⟩`, or `⟨·, false⟩` when no execution is
//! feasible.

use std::collections::{BTreeMap, HashSet};

use crate::annot::AnnId;
use crate::eval::EvalOutcome;
use crate::mapping::Mapping;
use crate::merge::{KeyArena, MergePlan};
use crate::semiring::{Semiring, Tropical};
use crate::valuation::Truth;

/// Polarity of a database condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DbCondOp {
    /// `[dᵢ·dⱼ] ≠ 0` — all referenced tuples must be present.
    NonZero,
    /// `[dᵢ·dⱼ] = 0` — at least one referenced tuple must be absent.
    Zero,
}

impl DbCondOp {
    /// Symbol for rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            DbCondOp::NonZero => "≠ 0",
            DbCondOp::Zero => "= 0",
        }
    }
}

/// One transition of an execution.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DdpTransition {
    /// `⟨c_k, 1⟩`: a user choice with an associated cost variable.
    User {
        /// The cost variable annotation.
        cost_var: AnnId,
    },
    /// `⟨0, [∏ d] op 0⟩`: a database-dependent transition.
    Db {
        /// DB variable annotations whose product is conditioned on
        /// (kept sorted for structural comparison).
        vars: Vec<AnnId>,
        /// The condition polarity.
        op: DbCondOp,
    },
}

impl DdpTransition {
    /// Build a DB transition, sorting variables.
    pub fn db(mut vars: Vec<AnnId>, op: DbCondOp) -> Self {
        vars.sort_unstable();
        DdpTransition::Db { vars, op }
    }

    /// Build a user transition.
    pub fn user(cost_var: AnnId) -> Self {
        DdpTransition::User { cost_var }
    }

    /// Number of variable occurrences (contribution to provenance size).
    pub fn size(&self) -> usize {
        match self {
            DdpTransition::User { .. } => 1,
            DdpTransition::Db { vars, .. } => vars.len(),
        }
    }

    fn map(&self, h: &Mapping) -> DdpTransition {
        match self {
            DdpTransition::User { cost_var } => DdpTransition::user(h.image(*cost_var)),
            DdpTransition::Db { vars, op } => {
                let mut mapped: Vec<AnnId> = vars.iter().map(|&d| h.image(d)).collect();
                mapped.sort_unstable();
                // Within a boolean condition, a squared variable is the
                // variable itself: D·D ≡ D.
                mapped.dedup();
                DdpTransition::Db {
                    vars: mapped,
                    op: *op,
                }
            }
        }
    }
}

/// A single execution: a product of transitions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DdpExecution {
    /// The transitions, in FSM order.
    pub transitions: Vec<DdpTransition>,
}

impl DdpExecution {
    /// Build from transitions.
    pub fn new(transitions: Vec<DdpTransition>) -> Self {
        DdpExecution { transitions }
    }

    /// Variable occurrences.
    pub fn size(&self) -> usize {
        self.transitions.iter().map(DdpTransition::size).sum()
    }

    /// Does a transition mention one of `anns`?
    pub fn mentions(&self, anns: &[AnnId]) -> bool {
        self.transitions.iter().any(|t| match t {
            DdpTransition::User { cost_var } => anns.contains(cost_var),
            DdpTransition::Db { vars, .. } => vars.iter().any(|d| anns.contains(d)),
        })
    }

    /// Structural key for execution deduplication: transitions compared as
    /// a multiset (the `·` product is commutative).
    fn dedup_key(&self) -> Vec<DdpTransition> {
        let mut key = self.transitions.clone();
        key.sort_unstable();
        key
    }
}

/// A DDP provenance expression: a sum over executions, with a cost table
/// for cost variables.
#[derive(Clone, Debug, PartialEq)]
pub struct DdpExpr {
    pub(crate) executions: Vec<DdpExecution>,
    /// Cost value carried by each cost variable.
    pub(crate) costs: BTreeMap<AnnId, f64>,
    /// Maximum cost of a single transition (paper: 10) — used by the
    /// mismatch penalty of the DDP VAL-FUNC.
    pub max_cost_per_transition: f64,
    /// Maximum number of transitions per execution (paper: 5).
    pub max_transitions_per_execution: usize,
}

impl DdpExpr {
    /// Empty DDP expression with the paper's error-bound constants.
    pub fn new() -> Self {
        DdpExpr {
            executions: Vec::new(),
            costs: BTreeMap::new(),
            max_cost_per_transition: 10.0,
            max_transitions_per_execution: 5,
        }
    }

    /// Register a cost variable's cost.
    pub fn set_cost(&mut self, var: AnnId, cost: f64) {
        self.costs.insert(var, cost);
    }

    /// Cost of a cost variable (0 when unregistered).
    pub fn cost_of(&self, var: AnnId) -> f64 {
        self.costs.get(&var).copied().unwrap_or(0.0)
    }

    /// Add an execution.
    pub fn push(&mut self, execution: DdpExecution) {
        self.executions.push(execution);
    }

    /// The executions of the sum.
    pub fn executions(&self) -> &[DdpExecution] {
        &self.executions
    }

    /// Variable occurrences across all executions.
    pub fn size(&self) -> usize {
        self.executions.iter().map(DdpExecution::size).sum()
    }

    /// Distinct variables mentioned.
    pub fn annotations(&self) -> Vec<AnnId> {
        let mut out = Vec::new();
        for e in &self.executions {
            for t in &e.transitions {
                match t {
                    DdpTransition::User { cost_var } => out.push(*cost_var),
                    DdpTransition::Db { vars, .. } => out.extend_from_slice(vars),
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The maximum possible VAL-FUNC error for this structure: the paper's
    /// "maximum cost per single transition multiplied by the number of
    /// transitions per execution".
    pub fn max_error(&self) -> f64 {
        self.max_cost_per_transition * self.max_transitions_per_execution as f64
    }

    /// Apply a mapping. Merged cost variables take the MAX of their
    /// members' costs (transitions "have more or less the same cost");
    /// identical executions after mapping are deduplicated, which is how
    /// summaries shrink (Example 5.2.2).
    pub fn map(&self, h: &Mapping) -> DdpExpr {
        let mut out = DdpExpr {
            executions: Vec::with_capacity(self.executions.len()),
            costs: BTreeMap::new(),
            max_cost_per_transition: self.max_cost_per_transition,
            max_transitions_per_execution: self.max_transitions_per_execution,
        };
        for (&var, &cost) in &self.costs {
            let target = h.image(var);
            let slot = out.costs.entry(target).or_insert(cost);
            *slot = slot.max(cost);
        }
        let mut seen: HashSet<Vec<DdpTransition>> = HashSet::with_capacity(self.executions.len());
        for e in &self.executions {
            let mapped = DdpExecution::new(e.transitions.iter().map(|t| t.map(h)).collect());
            if seen.insert(mapped.dedup_key()) {
                out.executions.push(mapped);
            }
        }
        out
    }

    /// Plan the merge of `members` onto `members[0]` into `plan` (see
    /// [`crate::Summarizable::plan_merge`]). As in [`DdpExpr::map`], the
    /// merged cost variable costs the MAX over its members' costs, and
    /// executions that become equal are kept once.
    pub fn plan_merge(&self, members: &[AnnId], plan: &mut DdpMerge) {
        plan.members.clear();
        plan.members.extend_from_slice(members);
        plan.cost = self
            .costs
            .iter()
            .filter(|(var, _)| members.contains(var))
            .map(|(_, &cost)| cost)
            .reduce(f64::max)
            .unwrap_or(0.0);
        plan.truth_only = members.iter().all(|&m| self.cost_of(m) == plan.cost);
        plan.arena.clear();
        plan.sizes.clear();
        plan.removed = 0;
        for e in self.executions.iter().filter(|e| e.mentions(members)) {
            plan.removed += e.size();
            plan.sizes.push(plan.arena.push_execution(e, members));
        }
        plan.arena.first_seen(&mut plan.leaders);
        plan.added = (0..plan.arena.len())
            .filter(|&i| plan.leaders[i] == i)
            .map(|i| plan.sizes[i])
            .sum();
    }

    /// Evaluate the planned merge under `v`, a view in which every member
    /// reads as the merged annotation: this expression's executions with
    /// the members costing the merged cost. Executions the merge makes
    /// equal are feasible together and cost the same, so keeping them all
    /// leaves the minimum unchanged.
    pub fn eval_merged<T: Truth + ?Sized>(&self, plan: &DdpMerge, v: &T) -> EvalOutcome {
        self.eval_costed(v, |var| {
            if plan.members.contains(&var) {
                plan.cost
            } else {
                self.cost_of(var)
            }
        })
    }

    /// Evaluate under a valuation: DB variables read their truth value; a
    /// cost variable assigned `false` contributes 0 (its transition is
    /// "free"), assigned `true` contributes its registered cost. The result
    /// is the tropical sum over feasible executions.
    pub fn eval<T: Truth + ?Sized>(&self, v: &T) -> EvalOutcome {
        self.eval_costed(v, |var| self.cost_of(var))
    }

    /// [`DdpExpr::eval`] with the cost of each cost variable given by `cost`.
    fn eval_costed<T: Truth + ?Sized>(&self, v: &T, cost_of: impl Fn(AnnId) -> f64) -> EvalOutcome {
        let mut best = Tropical::Infinity;
        for e in &self.executions {
            let mut feasible = true;
            let mut cost = 0.0f64;
            for t in &e.transitions {
                match t {
                    DdpTransition::User { cost_var } => {
                        if v.truth(*cost_var) {
                            cost += cost_of(*cost_var);
                        }
                    }
                    DdpTransition::Db { vars, op } => {
                        let all_present = vars.iter().all(|&d| v.truth(d));
                        let holds = match op {
                            DbCondOp::NonZero => all_present,
                            DbCondOp::Zero => !all_present,
                        };
                        if !holds {
                            feasible = false;
                            break;
                        }
                    }
                }
            }
            if feasible {
                best = best.add(&Tropical::Cost(cost));
            }
        }
        EvalOutcome::Ddp { cost: best.cost() }
    }
}

/// A planned single-step merge of a [`DdpExpr`]: the merged cost and the
/// size of the executions that mention a member, before and after.
#[derive(Clone, Debug, Default)]
pub struct DdpMerge {
    members: Vec<AnnId>,
    cost: f64,
    truth_only: bool,
    removed: usize,
    added: usize,
    arena: KeyArena,
    sizes: Vec<usize>,
    leaders: Vec<usize>,
}

impl MergePlan for DdpMerge {
    fn merged_size(&self, size: usize) -> usize {
        size - self.removed + self.added
    }

    fn identifies_truths_only(&self) -> bool {
        self.truth_only
    }
}

impl Default for DdpExpr {
    fn default() -> Self {
        DdpExpr::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::Valuation;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    /// Example 5.2.2's expression:
    /// `⟨c₁,1⟩·⟨0,[d₁·d₂]≠0⟩ + ⟨0,[d₂·d₃]=0⟩·⟨c₂,1⟩`
    /// with c1=a0, c2=a1, d1=a2, d2=a3, d3=a4.
    fn example() -> DdpExpr {
        let mut p = DdpExpr::new();
        p.set_cost(a(0), 3.0);
        p.set_cost(a(1), 3.0);
        p.push(DdpExecution::new(vec![
            DdpTransition::user(a(0)),
            DdpTransition::db(vec![a(2), a(3)], DbCondOp::NonZero),
        ]));
        p.push(DdpExecution::new(vec![
            DdpTransition::db(vec![a(3), a(4)], DbCondOp::Zero),
            DdpTransition::user(a(1)),
        ]));
        p
    }

    #[test]
    fn example_5_2_2_valuation() {
        // Cancel both cost variables, all DB vars true:
        // exec 1 feasible with cost 0; exec 2 infeasible ([d2·d3]=0 fails).
        let p = example();
        let v = Valuation::cancel(&[a(0), a(1)]);
        assert_eq!(p.eval(&v), EvalOutcome::Ddp { cost: Some(0.0) });
    }

    #[test]
    fn infeasible_when_no_execution_satisfiable() {
        let p = example();
        // d1 false kills exec 1 ([d1·d2]≠0 fails); d2,d3 both true kill
        // exec 2 ([d2·d3]=0 fails) — no feasible execution remains.
        let v = Valuation::cancel(&[a(2)]);
        assert_eq!(p.eval(&v), EvalOutcome::Ddp { cost: None });
        // Cancelling d3 as well revives exec 2 (its product is now 0),
        // which costs c2 = 3.
        let v2 = Valuation::cancel(&[a(2), a(4)]);
        assert_eq!(p.eval(&v2), EvalOutcome::Ddp { cost: Some(3.0) });
    }

    #[test]
    fn tropical_min_over_feasible_executions() {
        let mut p = DdpExpr::new();
        p.set_cost(a(0), 7.0);
        p.set_cost(a(1), 2.0);
        p.push(DdpExecution::new(vec![DdpTransition::user(a(0))]));
        p.push(DdpExecution::new(vec![DdpTransition::user(a(1))]));
        assert_eq!(
            p.eval(&Valuation::all_true()),
            EvalOutcome::Ddp { cost: Some(2.0) }
        );
    }

    #[test]
    fn example_5_2_2_summary_dedups_executions() {
        // Map d1,d3 → D1 (a10) and c1,c2 → C1 (a11). With both conditions
        // NonZero the two executions become identical and deduplicate.
        let mut p = DdpExpr::new();
        p.set_cost(a(0), 3.0);
        p.set_cost(a(1), 4.0);
        p.push(DdpExecution::new(vec![
            DdpTransition::user(a(0)),
            DdpTransition::db(vec![a(2), a(3)], DbCondOp::NonZero),
        ]));
        p.push(DdpExecution::new(vec![
            DdpTransition::db(vec![a(3), a(4)], DbCondOp::NonZero),
            DdpTransition::user(a(1)),
        ]));
        let mut h = Mapping::identity();
        h.set(a(2), a(10));
        h.set(a(4), a(10));
        h.set(a(0), a(11));
        h.set(a(1), a(11));
        let summary = p.map(&h);
        assert_eq!(summary.executions().len(), 1);
        assert_eq!(summary.size(), 3); // C1 + D1·d2
        assert_eq!(summary.cost_of(a(11)), 4.0, "merged cost takes MAX");
    }

    #[test]
    fn permuted_executions_collapse_in_first_seen_order() {
        let c = DdpTransition::user(a(0));
        let d = DdpTransition::db(vec![a(2), a(3)], DbCondOp::NonZero);
        let z = DdpTransition::db(vec![a(4)], DbCondOp::Zero);
        let mut p = DdpExpr::new();
        p.push(DdpExecution::new(vec![z.clone()]));
        p.push(DdpExecution::new(vec![c.clone(), d.clone(), z.clone()]));
        p.push(DdpExecution::new(vec![z.clone(), c.clone(), d.clone()]));
        p.push(DdpExecution::new(vec![d.clone(), z.clone(), c.clone()]));
        p.push(DdpExecution::new(vec![c.clone()]));
        let m = p.map(&Mapping::identity());
        let kept: Vec<&[DdpTransition]> = m
            .executions()
            .iter()
            .map(|e| e.transitions.as_slice())
            .collect();
        assert_eq!(
            kept,
            vec![&[z.clone()][..], &[c.clone(), d, z][..], &[c][..]],
            "permutations collapse onto the first one seen"
        );
    }

    #[test]
    fn squared_db_var_collapses() {
        let mut p = DdpExpr::new();
        p.push(DdpExecution::new(vec![DdpTransition::db(
            vec![a(2), a(4)],
            DbCondOp::NonZero,
        )]));
        let mut h = Mapping::identity();
        h.set(a(2), a(10));
        h.set(a(4), a(10));
        let m = p.map(&h);
        assert_eq!(m.size(), 1, "D·D ≡ D inside a boolean condition");
    }

    #[test]
    fn size_and_annotations() {
        let p = example();
        assert_eq!(p.size(), 6);
        assert_eq!(p.annotations(), vec![a(0), a(1), a(2), a(3), a(4)]);
        assert_eq!(p.max_error(), 50.0);
    }
}

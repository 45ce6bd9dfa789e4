//! The [`Summarizable`] abstraction: everything the summarization algorithm
//! needs from a provenance expression, implemented by both the aggregated
//! vector provenance ([`ProvExpr`]) and DDP provenance ([`DdpExpr`]).

use crate::annot::AnnId;
use crate::ddp::{DdpExpr, DdpMerge};
use crate::eval::{EvalOutcome, EvalVector};
use crate::mapping::Mapping;
use crate::merge::MergePlan;
use crate::provexpr::{ProvExpr, ProvMerge};
use crate::valuation::{Truth, Valuation};

/// A provenance expression that can be summarized by annotation mappings.
pub trait Summarizable: Clone {
    /// A planned single-step merge (see [`Summarizable::plan_merge`]).
    type Merge: MergePlan;

    /// Provenance size: annotation occurrences, with repetitions
    /// (the quantity minimized by summarization).
    fn size(&self) -> usize;

    /// Distinct annotations mentioned.
    fn annotations(&self) -> Vec<AnnId>;

    /// Apply a mapping homomorphically and simplify.
    fn apply_mapping(&self, h: &Mapping) -> Self;

    /// Evaluate under a valuation.
    fn evaluate<T: Truth + ?Sized>(&self, v: &T) -> EvalOutcome;

    /// Plan the single-step merge of `members` onto `members[0]` — what
    /// `apply_mapping(&Mapping::group(&members[1..], members[0]))` would
    /// build — into `plan`, reusing its buffers. The expression must be
    /// simplified (any `apply_mapping` output is).
    fn plan_merge(&self, members: &[AnnId], plan: &mut Self::Merge);

    /// Evaluate the planned merge into `out`, exactly as the merged
    /// expression evaluates under the lifted valuation, where `v` is a view
    /// in which every member reads as the merged annotation. `current` is
    /// this expression's outcome under a valuation agreeing with `v` off
    /// the members; implementations may read unchanged parts from it.
    fn evaluate_merged<T: Truth + ?Sized>(
        &self,
        plan: &Self::Merge,
        v: &T,
        current: &EvalOutcome,
        out: &mut EvalOutcome,
    );

    /// The largest value the chosen VAL-FUNC can take on this expression,
    /// used to normalize distances into `[0,1]` (§6.3). Implementations
    /// return a structural upper bound (e.g. magnitude of the all-true
    /// evaluation for aggregates, the cost-mismatch constant for DDPs).
    fn max_error(&self) -> f64;
}

impl Summarizable for ProvExpr {
    type Merge = ProvMerge;

    fn size(&self) -> usize {
        ProvExpr::size(self)
    }

    fn annotations(&self) -> Vec<AnnId> {
        ProvExpr::annotations(self)
    }

    fn apply_mapping(&self, h: &Mapping) -> Self {
        self.map(h)
    }

    fn evaluate<T: Truth + ?Sized>(&self, v: &T) -> EvalOutcome {
        EvalOutcome::Vector(self.eval(v))
    }

    fn plan_merge(&self, members: &[AnnId], plan: &mut ProvMerge) {
        ProvExpr::plan_merge(self, members, plan);
    }

    fn evaluate_merged<T: Truth + ?Sized>(
        &self,
        plan: &ProvMerge,
        v: &T,
        current: &EvalOutcome,
        out: &mut EvalOutcome,
    ) {
        let current = match current {
            EvalOutcome::Vector(c) => c.coords(),
            _ => &[],
        };
        if !matches!(out, EvalOutcome::Vector(_)) {
            *out = EvalOutcome::Vector(EvalVector::new(Vec::new(), self.kind()));
        }
        if let EvalOutcome::Vector(out) = out {
            self.eval_merged(plan, v, current, out);
        }
    }

    fn max_error(&self) -> f64 {
        // Aggregate values are non-negative and, under φ = ∨ with MAX/SUM,
        // each coordinate's error is bounded by its full (all-true) value —
        // so the L2 norm of the all-true evaluation bounds the euclidean
        // VAL-FUNC and is the natural normalizer (§6.3).
        let full = self.eval(&Valuation::all_true());
        let l2 = full
            .coords()
            .iter()
            .map(|(_, v)| v.result() * v.result())
            .sum::<f64>()
            .sqrt();
        if l2 > 0.0 {
            l2
        } else {
            1.0
        }
    }
}

impl Summarizable for DdpExpr {
    type Merge = DdpMerge;

    fn size(&self) -> usize {
        DdpExpr::size(self)
    }

    fn annotations(&self) -> Vec<AnnId> {
        DdpExpr::annotations(self)
    }

    fn apply_mapping(&self, h: &Mapping) -> Self {
        self.map(h)
    }

    fn evaluate<T: Truth + ?Sized>(&self, v: &T) -> EvalOutcome {
        self.eval(v)
    }

    fn plan_merge(&self, members: &[AnnId], plan: &mut DdpMerge) {
        DdpExpr::plan_merge(self, members, plan);
    }

    fn evaluate_merged<T: Truth + ?Sized>(
        &self,
        plan: &DdpMerge,
        v: &T,
        _current: &EvalOutcome,
        out: &mut EvalOutcome,
    ) {
        *out = self.eval_merged(plan, v);
    }

    fn max_error(&self) -> f64 {
        DdpExpr::max_error(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{AggKind, AggValue};
    use crate::polynomial::Polynomial;
    use crate::tensor::Tensor;

    #[test]
    fn provexpr_summarizable_roundtrip() {
        let a0 = AnnId::from_index(0);
        let a1 = AnnId::from_index(1);
        let obj = AnnId::from_index(10);
        let mut p = ProvExpr::new(AggKind::Max);
        p.push(obj, Tensor::new(Polynomial::var(a0), AggValue::single(3.0)));
        p.push(obj, Tensor::new(Polynomial::var(a1), AggValue::single(5.0)));

        assert_eq!(Summarizable::size(&p), 2);
        assert!(Summarizable::annotations(&p).contains(&obj));
        let g = AnnId::from_index(20);
        let mapped = p.apply_mapping(&Mapping::group(&[a0, a1], g));
        assert_eq!(Summarizable::size(&mapped), 1);
        match mapped.evaluate(&Valuation::all_true()) {
            EvalOutcome::Vector(v) => assert_eq!(v.scalar_for(obj), Some(5.0)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(Summarizable::max_error(&p), 5.0);
    }

    #[test]
    fn max_error_floor_is_one() {
        let p = ProvExpr::new(AggKind::Max);
        assert_eq!(Summarizable::max_error(&p), 1.0);
    }
}

//! Aggregated provenance expressions: formal sums `⊕ᵢ tᵢ ⊗ vᵢ` (§2.2)
//! together with the congruence simplification that powers summarization
//! (§3.1): after a mapping identifies annotations, tensors whose provenance
//! coincides merge, combining their values under the aggregation monoid —
//! `Female ⊗ (3,1) ⊕ Female ⊗ (5,1) ≡ Female ⊗ (5,2)` under MAX.

use std::collections::HashMap;

use crate::annot::AnnId;
use crate::mapping::Mapping;
use crate::monoid::{AggKind, AggValue};
use crate::polynomial::Polynomial;
use crate::tensor::Tensor;
use crate::valuation::Truth;

/// An aggregated value: a formal sum of tensors plus the aggregation used
/// to interpret it.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    pub(crate) tensors: Vec<Tensor>,
    pub(crate) kind: AggKind,
}

impl AggExpr {
    /// Empty aggregation.
    pub fn new(kind: AggKind) -> Self {
        AggExpr {
            tensors: Vec::new(),
            kind,
        }
    }

    /// Build from tensors, simplifying immediately.
    pub fn from_tensors(tensors: Vec<Tensor>, kind: AggKind) -> Self {
        let mut e = AggExpr { tensors, kind };
        e.simplify();
        e
    }

    /// Append one tensor (no simplification; call [`AggExpr::simplify`]).
    pub fn push(&mut self, t: Tensor) {
        self.tensors.push(t);
    }

    /// The aggregation kind.
    pub fn kind(&self) -> AggKind {
        self.kind
    }

    /// The tensors of the formal sum.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Provenance size: annotation occurrences across all tensors, with
    /// repetitions (the measure minimized by summarization).
    pub fn size(&self) -> usize {
        self.tensors.iter().map(Tensor::size).sum()
    }

    /// Distinct annotations mentioned.
    pub fn annotations(&self) -> Vec<AnnId> {
        let mut out: Vec<AnnId> = self.tensors.iter().flat_map(|t| t.annotations()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Apply congruences: merge tensors with identical provenance & guards,
    /// combining values under the aggregation monoid. Tensors with zero
    /// provenance are dropped (`0 ⊗ m ≡ 0`).
    pub fn simplify(&mut self) {
        if self.tensors.len() <= 1 {
            self.tensors.retain(|t| !t.prov.is_zero());
            return;
        }
        // Group by structural key while preserving first-seen order for
        // deterministic output.
        let mut index: HashMap<(Polynomial, Vec<crate::guard::Guard>), usize> = HashMap::new();
        let mut merged: Vec<Tensor> = Vec::with_capacity(self.tensors.len());
        for t in self.tensors.drain(..) {
            if t.prov.is_zero() {
                continue;
            }
            let key = (t.prov.clone(), t.guards.clone());
            match index.get(&key) {
                Some(&ix) => {
                    let slot = &mut merged[ix];
                    slot.value = slot.value.combine(t.value, self.kind);
                }
                None => {
                    index.insert(key, merged.len());
                    merged.push(t);
                }
            }
        }
        self.tensors = merged;
    }

    /// Apply an annotation mapping and re-simplify.
    pub fn map(&self, h: &Mapping) -> AggExpr {
        AggExpr::from_tensors(self.tensors.iter().map(|t| t.map(h)).collect(), self.kind)
    }

    /// Evaluate under a valuation: fold the values of live tensors; an empty
    /// fold yields the neutral [`AggValue::empty`] (result 0).
    pub fn eval<T: Truth + ?Sized>(&self, v: &T) -> AggValue {
        fold_live(self.kind, self.tensors.iter().map(|t| (t, t.value)), v)
    }

    /// Number of tensors in the formal sum.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when the formal sum is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

/// Fold, in order, the values paired with the tensors that are live under
/// `v`. A merged tensor is evaluated through any tensor it was merged
/// from, paired with the merged value.
pub(crate) fn fold_live<'t, T: Truth + ?Sized>(
    kind: AggKind,
    tensors: impl Iterator<Item = (&'t Tensor, AggValue)>,
    v: &T,
) -> AggValue {
    let mut acc = AggValue::empty();
    for (t, value) in tensors {
        if t.live(v) {
            acc = acc.combine(value, kind);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::Valuation;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    fn rating(user: usize, score: f64) -> Tensor {
        Tensor::new(Polynomial::var(a(user)), AggValue::single(score))
    }

    /// Example 3.1.1: Pₛ = U₁⊗(3,1) ⊕ U₂⊗(5,1) ⊕ U₃⊗(3,1).
    fn p_s() -> AggExpr {
        AggExpr::from_tensors(
            vec![rating(1, 3.0), rating(2, 5.0), rating(3, 3.0)],
            AggKind::Max,
        )
    }

    #[test]
    fn example_3_1_1_female_summary() {
        // Map U1,U2 -> Female (a9): P'ₛ = Female⊗(5,2) ⊕ U₃⊗(3,1).
        let h = Mapping::group(&[a(1), a(2)], a(9));
        let p = p_s().map(&h);
        assert_eq!(p.len(), 2);
        assert_eq!(p.tensors()[0].value, AggValue::new(5.0, 2));
        assert_eq!(p.tensors()[1].value, AggValue::new(3.0, 1));
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn example_3_1_1_audience_summary() {
        // Map U1,U3 -> Audience (a8): P''ₛ = Audience⊗(3,2) ⊕ U₂⊗(5,1).
        let h = Mapping::group(&[a(1), a(3)], a(8));
        let p = p_s().map(&h);
        assert_eq!(p.len(), 2);
        let audience = p
            .tensors()
            .iter()
            .find(|t| t.annotations() == vec![a(8)])
            .unwrap();
        assert_eq!(audience.value, AggValue::new(3.0, 2));
    }

    #[test]
    fn eval_max_with_cancellation() {
        let p = p_s();
        assert_eq!(p.eval(&Valuation::all_true()).result(), 5.0);
        let v = Valuation::cancel(&[a(2)]);
        assert_eq!(p.eval(&v).result(), 3.0);
        let v_all = Valuation::cancel(&[a(1), a(2), a(3)]);
        assert_eq!(p.eval(&v_all).result(), 0.0);
        assert!(p.eval(&v_all).is_empty());
    }

    #[test]
    fn size_decreases_under_merging() {
        let orig = p_s();
        assert_eq!(orig.size(), 3);
        let h = Mapping::group(&[a(1), a(2), a(3)], a(9));
        let merged = orig.map(&h);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.size(), 1);
        assert_eq!(merged.tensors()[0].value, AggValue::new(5.0, 3));
    }

    #[test]
    fn zero_provenance_tensors_are_dropped() {
        let mut e = AggExpr::new(AggKind::Sum);
        e.push(Tensor::new(Polynomial::zero(), AggValue::single(9.0)));
        e.push(rating(1, 2.0));
        e.simplify();
        assert_eq!(e.len(), 1);
        assert_eq!(e.eval(&Valuation::all_true()).result(), 2.0);
    }

    #[test]
    fn sum_aggregation_adds_values_on_merge() {
        let e = AggExpr::from_tensors(vec![rating(1, 2.0), rating(2, 4.0)], AggKind::Sum);
        let h = Mapping::group(&[a(1), a(2)], a(9));
        let merged = e.map(&h);
        assert_eq!(merged.tensors()[0].value, AggValue::new(6.0, 2));
    }
}

//! Tensors: provenance ⊗ value pairs (§2.2).
//!
//! A tensor couples an `N[Ann]` provenance term (optionally guarded by
//! comparison expressions) with an aggregation-monoid value, e.g.
//! `U₁ · [S₁·U₁ ⊗ 5 > 2] ⊗ (3, 1)`.

use crate::annot::AnnId;
use crate::guard::Guard;
use crate::mapping::Mapping;
use crate::monoid::AggValue;
use crate::polynomial::Polynomial;
use crate::valuation::Truth;

/// One summand of an aggregated value's formal sum.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    /// Tuple provenance (the `tᵢ` part).
    pub prov: Polynomial,
    /// Conditional guards multiplied into the provenance.
    pub guards: Vec<Guard>,
    /// The paired monoid value (the `vᵢ` part).
    pub value: AggValue,
}

impl Tensor {
    /// Unguarded tensor.
    pub fn new(prov: Polynomial, value: AggValue) -> Self {
        Tensor {
            prov,
            guards: Vec::new(),
            value,
        }
    }

    /// Guarded tensor.
    pub fn guarded(prov: Polynomial, guards: Vec<Guard>, value: AggValue) -> Self {
        Tensor {
            prov,
            guards,
            value,
        }
    }

    /// Is this tensor live under `v`? (Its provenance evaluates truthy and
    /// every guard is satisfied: `0 ⊗ m ≡ 0`.)
    pub fn live<T: Truth + ?Sized>(&self, v: &T) -> bool {
        self.prov.eval_bool(v) && self.guards.iter().all(|g| g.eval(v))
    }

    /// Apply an annotation mapping (`h(k ⊗ m) = h(k) ⊗ m`).
    pub fn map(&self, h: &Mapping) -> Tensor {
        Tensor {
            prov: self.prov.map(h),
            guards: self.guards.iter().map(|g| g.map(h)).collect(),
            value: self.value,
        }
    }

    /// Does the provenance or a guard mention one of `anns`?
    pub fn mentions(&self, anns: &[AnnId]) -> bool {
        self.prov.mentions(anns)
            || self
                .guards
                .iter()
                .any(|g| g.lhs.iter().any(|(p, _)| p.mentions(anns)))
    }

    /// Annotation occurrences (provenance + guards), with repetitions.
    pub fn size(&self) -> usize {
        self.prov.size() + self.guards.iter().map(Guard::size).sum::<usize>()
    }

    /// Distinct annotations mentioned.
    pub fn annotations(&self) -> Vec<AnnId> {
        let mut out = self.prov.annotations();
        for g in &self.guards {
            out.extend(g.annotations());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::CmpOp;
    use crate::valuation::Valuation;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    #[test]
    fn liveness_requires_prov_and_guards() {
        let t = Tensor::guarded(
            Polynomial::var(a(0)),
            vec![Guard::single(Polynomial::var(a(1)), 5.0, CmpOp::Gt, 2.0)],
            AggValue::single(3.0),
        );
        assert!(t.live(&Valuation::all_true()));

        let mut v = Valuation::all_true();
        v.set(a(0), false);
        assert!(!t.live(&v), "dead provenance kills the tensor");

        let mut v = Valuation::all_true();
        v.set(a(1), false);
        assert!(!t.live(&v), "failed guard kills the tensor");
    }

    #[test]
    fn mapping_preserves_value() {
        let t = Tensor::new(Polynomial::var(a(0)), AggValue::single(4.0));
        let mapped = t.map(&Mapping::group(&[a(0)], a(7)));
        assert_eq!(mapped.value, AggValue::single(4.0));
        assert_eq!(mapped.annotations(), vec![a(7)]);
    }

    #[test]
    fn size_includes_guards() {
        let t = Tensor::guarded(
            Polynomial::var(a(0)),
            vec![Guard::single(
                Polynomial::var(a(1)).mul(&Polynomial::var(a(2))),
                5.0,
                CmpOp::Gt,
                2.0,
            )],
            AggValue::single(1.0),
        );
        assert_eq!(t.size(), 3);
    }
}

//! Comparison guards: equation/inequality elements of [7, 17] (§2.2).
//!
//! An expression such as `[S₁·U₁ ⊗ 5 > 2]` is kept as an abstract token and
//! multiplied into tensor provenance as a conditional. Under a concrete
//! valuation, the tensor sum on the left-hand side collapses to a number
//! (`0⊗m ≡ 0`, `1⊗m ≡ m` — more generally a counting evaluation of the
//! provenance times the value), the comparison is tested, and the guard
//! becomes 1 (satisfied) or 0 (not).

use std::fmt;

use crate::mapping::Mapping;
use crate::polynomial::Polynomial;
use crate::valuation::Truth;

/// Comparison operators allowed in guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `≥`
    Ge,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
}

impl CmpOp {
    /// Test the comparison on concrete numbers.
    #[inline]
    pub fn test(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => (lhs - rhs).abs() < f64::EPSILON,
            CmpOp::Ne => (lhs - rhs).abs() >= f64::EPSILON,
        }
    }

    /// Symbol for rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A guard `[ Σᵢ pᵢ ⊗ wᵢ  cmp  threshold ]`.
///
/// The left-hand side is a formal sum of provenance-weighted tensors; each
/// `pᵢ` evaluates to a count under the valuation and contributes
/// `count · wᵢ` to the compared value.
#[derive(Clone, Debug, PartialEq)]
pub struct Guard {
    /// `(provenance, weight)` tensors on the left-hand side.
    pub lhs: Vec<(Polynomial, f64)>,
    /// The comparison operator.
    pub op: CmpOp,
    /// The right-hand constant.
    pub rhs: f64,
}

impl Guard {
    /// Guard over a single tensor, e.g. `[p ⊗ w > t]`.
    pub fn single(p: Polynomial, w: f64, op: CmpOp, rhs: f64) -> Self {
        Guard {
            lhs: vec![(p, w)],
            op,
            rhs,
        }
    }

    /// Evaluate the guard under a valuation.
    pub fn eval<T: Truth + ?Sized>(&self, v: &T) -> bool {
        let lhs: f64 = self
            .lhs
            .iter()
            .map(|(p, w)| p.eval_count(v) as f64 * w)
            .sum();
        self.op.test(lhs, self.rhs)
    }

    /// Apply an annotation mapping to the embedded provenance.
    pub fn map(&self, h: &Mapping) -> Guard {
        Guard {
            lhs: self.lhs.iter().map(|(p, w)| (p.map(h), *w)).collect(),
            op: self.op,
            rhs: self.rhs,
        }
    }

    /// Annotation occurrences inside the guard (counts toward provenance
    /// size).
    pub fn size(&self) -> usize {
        self.lhs.iter().map(|(p, _)| p.size()).sum()
    }

    /// Distinct annotations mentioned by the guard.
    pub fn annotations(&self) -> Vec<crate::annot::AnnId> {
        let mut out: Vec<_> = self.lhs.iter().flat_map(|(p, _)| p.annotations()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

// Guards participate in HashMap keys during congruence simplification.
// They contain f64 weights, so we hash/compare their bit patterns: guards
// are only compared for *structural identity* (same bits in = same guard),
// never for numeric equivalence, and no constructor admits NaN-producing
// arithmetic, so reflexivity holds in practice.
impl Eq for Guard {}

impl std::hash::Hash for Guard {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for (p, w) in &self.lhs {
            p.terms().len().hash(state);
            for (m, c) in p.terms() {
                m.factors().hash(state);
                c.hash(state);
            }
            w.to_bits().hash(state);
        }
        self.op.hash(state);
        self.rhs.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::AnnId;
    use crate::valuation::Valuation;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    #[test]
    fn cmp_ops_test_correctly() {
        assert!(CmpOp::Gt.test(5.0, 2.0));
        assert!(!CmpOp::Gt.test(2.0, 2.0));
        assert!(CmpOp::Ge.test(2.0, 2.0));
        assert!(CmpOp::Lt.test(1.0, 2.0));
        assert!(CmpOp::Le.test(2.0, 2.0));
        assert!(CmpOp::Eq.test(2.0, 2.0));
        assert!(CmpOp::Ne.test(2.0, 3.0));
    }

    #[test]
    fn paper_example_2_3_1() {
        // [S1·U1 ⊗ 5 > 2]: with S1↦0, U1↦1 the tensor evaluates to 0 and
        // the inequality fails; with S1↦1 it evaluates to 5 and holds.
        let s1 = a(0);
        let u1 = a(1);
        let prov = Polynomial::var(s1).mul(&Polynomial::var(u1));
        let g = Guard::single(prov, 5.0, CmpOp::Gt, 2.0);

        let mut v = Valuation::all_true();
        v.set(s1, false);
        assert!(!g.eval(&v));

        v.set(s1, true);
        assert!(g.eval(&v));
    }

    #[test]
    fn guard_maps_provenance() {
        let g = Guard::single(Polynomial::var(a(0)), 1.0, CmpOp::Ne, 0.0);
        let h = Mapping::group(&[a(0)], a(5));
        let mapped = g.map(&h);
        assert_eq!(mapped.annotations(), vec![a(5)]);
        assert_eq!(mapped.size(), 1);
    }

    #[test]
    fn multi_tensor_lhs_sums_contributions() {
        // [x⊗2 ⊕ y⊗3 ≥ 5]
        let g = Guard {
            lhs: vec![(Polynomial::var(a(0)), 2.0), (Polynomial::var(a(1)), 3.0)],
            op: CmpOp::Ge,
            rhs: 5.0,
        };
        assert!(g.eval(&Valuation::all_true()));
        let mut v = Valuation::all_true();
        v.set(a(1), false);
        assert!(!g.eval(&v)); // 2 < 5
    }
}

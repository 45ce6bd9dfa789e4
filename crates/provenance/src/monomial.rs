//! Monomials over annotations: finite multisets of `AnnId` factors.
//!
//! A monomial is the `·` (joint use) part of an `N[Ann]` polynomial, e.g.
//! `UserID · MovieTitle · MovieYear`. Factors are kept sorted so structural
//! equality coincides with semiring equality under commutativity.

use std::fmt;

use crate::annot::AnnId;
use crate::mapping::Mapping;
use crate::valuation::Truth;

/// A product of annotations (with multiplicity), `1` when empty.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial {
    factors: Vec<AnnId>, // sorted
}

impl Monomial {
    /// The multiplicative unit `1` (empty product).
    pub fn one() -> Self {
        Monomial::default()
    }

    /// Monomial with a single factor.
    pub fn var(a: AnnId) -> Self {
        Monomial { factors: vec![a] }
    }

    /// Build from arbitrary factors (sorted internally).
    pub fn from_factors(mut factors: Vec<AnnId>) -> Self {
        factors.sort_unstable();
        Monomial { factors }
    }

    /// Sorted factors, with multiplicity.
    pub fn factors(&self) -> &[AnnId] {
        &self.factors
    }

    /// Total number of annotation occurrences (the monomial's contribution
    /// to provenance size).
    pub fn degree(&self) -> usize {
        self.factors.len()
    }

    /// True for the unit monomial.
    pub fn is_one(&self) -> bool {
        self.factors.is_empty()
    }

    /// Multiply two monomials (merge sorted factor lists).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut out = Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            if self.factors[i] <= other.factors[j] {
                out.push(self.factors[i]);
                i += 1;
            } else {
                out.push(other.factors[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&self.factors[i..]);
        out.extend_from_slice(&other.factors[j..]);
        Monomial { factors: out }
    }

    /// Apply a homomorphic annotation mapping, re-sorting (and deduplicating
    /// under the boolean interpretation is NOT done here: `N[Ann]` keeps
    /// multiplicities — `h(a)·h(b)` stays a square when `h(a)=h(b)`).
    pub fn map(&self, h: &Mapping) -> Monomial {
        Monomial::from_factors(self.factors.iter().map(|&a| h.image(a)).collect())
    }

    /// Boolean evaluation: true iff every factor is assigned true.
    pub fn eval_bool<T: Truth + ?Sized>(&self, v: &T) -> bool {
        self.factors.iter().all(|&a| v.truth(a))
    }

    /// Does this monomial mention annotation `a`?
    pub fn contains(&self, a: AnnId) -> bool {
        self.factors.binary_search(&a).is_ok()
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        for (ix, a) in self.factors.iter().enumerate() {
            if ix > 0 {
                write!(f, "·")?;
            }
            write!(f, "{a:?}")?;
        }
        Ok(())
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
    fn one_is_unit() {
        let m = Monomial::var(a(3));
        assert_eq!(Monomial::one().mul(&m), m);
        assert_eq!(m.mul(&Monomial::one()), m);
        assert!(Monomial::one().is_one());
        assert_eq!(Monomial::one().degree(), 0);
    }

    #[test]
    fn multiplication_is_commutative_and_keeps_multiplicity() {
        let x = Monomial::var(a(1));
        let y = Monomial::var(a(2));
        assert_eq!(x.mul(&y), y.mul(&x));
        let sq = x.mul(&x);
        assert_eq!(sq.degree(), 2);
        assert_eq!(sq.factors(), &[a(1), a(1)]);
    }

    #[test]
    fn from_factors_sorts() {
        let m = Monomial::from_factors(vec![a(5), a(1), a(3)]);
        assert_eq!(m.factors(), &[a(1), a(3), a(5)]);
        assert!(m.contains(a(3)));
        assert!(!m.contains(a(2)));
    }

    #[test]
    fn eval_bool_is_conjunction() {
        let m = Monomial::from_factors(vec![a(0), a(1)]);
        let mut v = Valuation::all_true();
        assert!(m.eval_bool(&v));
        v.set(a(1), false);
        assert!(!m.eval_bool(&v));
        assert!(Monomial::one().eval_bool(&v));
    }
}

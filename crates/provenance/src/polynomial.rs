//! Polynomials with natural coefficients over annotations: the provenance
//! semiring `N[Ann]` of [Green, Karvounarakis, Tannen 2007] (§2.2).
//!
//! `+` records alternative use of data (union/projection), `·` joint use
//! (join). Terms are kept sorted by monomial so structural equality equals
//! semiring equality modulo the commutative-semiring axioms.

use std::fmt;

use crate::annot::AnnId;
use crate::mapping::Mapping;
use crate::monomial::Monomial;
use crate::semiring::{Bool, Count, Semiring};
use crate::valuation::Truth;

/// An `N[Ann]` polynomial: a formal sum of monomials with coefficients in ℕ.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Polynomial {
    /// Sorted by monomial, coefficients strictly positive.
    terms: Vec<(Monomial, u64)>,
}

impl Polynomial {
    /// The zero polynomial (absent data).
    pub fn zero() -> Self {
        Polynomial::default()
    }

    /// The unit polynomial (present data).
    pub fn one() -> Self {
        Polynomial {
            terms: vec![(Monomial::one(), 1)],
        }
    }

    /// A single annotation variable.
    pub fn var(a: AnnId) -> Self {
        Polynomial {
            terms: vec![(Monomial::var(a), 1)],
        }
    }

    /// A single monomial with coefficient 1.
    pub fn from_monomial(m: Monomial) -> Self {
        Polynomial {
            terms: vec![(m, 1)],
        }
    }

    /// Build from arbitrary `(monomial, coeff)` pairs, normalizing.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, u64)>) -> Self {
        let mut v: Vec<(Monomial, u64)> = terms.into_iter().filter(|&(_, c)| c > 0).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(Monomial, u64)> = Vec::with_capacity(v.len());
        for (m, c) in v {
            match out.last_mut() {
                Some((last, lc)) if *last == m => *lc += c,
                _ => out.push((m, c)),
            }
        }
        Polynomial { terms: out }
    }

    /// Normalized terms: sorted monomials with positive coefficients.
    pub fn terms(&self) -> &[(Monomial, u64)] {
        &self.terms
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// True for the unit polynomial.
    pub fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].0.is_one() && self.terms[0].1 == 1
    }

    /// Add two polynomials.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        Polynomial::from_terms(
            self.terms
                .iter()
                .chain(other.terms.iter())
                .map(|(m, c)| (m.clone(), *c)),
        )
    }

    /// Multiply two polynomials (full convolution).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut out = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                out.push((m1.mul(m2), c1 * c2));
            }
        }
        Polynomial::from_terms(out)
    }

    /// Apply an annotation mapping homomorphically:
    /// `h(a+b)=h(a)+h(b)`, `h(a·b)=h(a)·h(b)`.
    pub fn map(&self, h: &Mapping) -> Polynomial {
        Polynomial::from_terms(self.terms.iter().map(|(m, c)| (m.map(h), *c)))
    }

    /// All distinct annotations mentioned.
    pub fn annotations(&self) -> Vec<AnnId> {
        let mut out: Vec<AnnId> = self
            .terms
            .iter()
            .flat_map(|(m, _)| m.factors().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does any monomial mention one of `anns`?
    pub fn mentions(&self, anns: &[AnnId]) -> bool {
        self.terms
            .iter()
            .any(|(m, _)| m.factors().iter().any(|a| anns.contains(a)))
    }

    /// Number of annotation occurrences, with repetitions (the polynomial's
    /// contribution to provenance size).
    pub fn size(&self) -> usize {
        self.terms.iter().map(|(m, _)| m.degree()).sum()
    }

    /// Boolean evaluation under a valuation: `+`↦∨, `·`↦∧.
    pub fn eval_bool<T: Truth + ?Sized>(&self, v: &T) -> bool {
        self.terms.iter().any(|(m, _)| m.eval_bool(v))
    }

    /// Counting evaluation: annotations map to 0/1, coefficients and
    /// multiplicities count derivations.
    pub fn eval_count<T: Truth + ?Sized>(&self, v: &T) -> u64 {
        self.terms
            .iter()
            .map(|(m, c)| if m.eval_bool(v) { *c } else { 0 })
            .sum()
    }

    /// Generic evaluation into any semiring through a variable assignment.
    pub fn eval_in<K: Semiring>(&self, assign: impl Fn(AnnId) -> K) -> K {
        let mut acc = K::zero();
        for (m, c) in &self.terms {
            let mut term = K::one();
            for &a in m.factors() {
                term = term.mul(&assign(a));
            }
            // coefficient c acts as c-fold addition
            for _ in 0..*c {
                acc = acc.add(&term);
            }
        }
        acc
    }

    /// Render with a name resolver (used by the display module).
    pub fn render(&self, name: &dyn Fn(AnnId) -> String) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut parts = Vec::with_capacity(self.terms.len());
        for (m, c) in &self.terms {
            let mono = if m.is_one() {
                "1".to_owned()
            } else {
                m.factors()
                    .iter()
                    .map(|&a| name(a))
                    .collect::<Vec<_>>()
                    .join("·")
            };
            if *c == 1 {
                parts.push(mono);
            } else {
                parts.push(format!("{c}{mono}"));
            }
        }
        parts.join(" + ")
    }
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(&|a| format!("{a:?}")))
    }
}

impl From<AnnId> for Polynomial {
    fn from(a: AnnId) -> Self {
        Polynomial::var(a)
    }
}

/// Evaluate a polynomial into the boolean semiring via a valuation, exposed
/// as a free function for symmetry with [`eval_count`].
pub fn eval_bool<T: Truth + ?Sized>(p: &Polynomial, v: &T) -> Bool {
    Bool(p.eval_bool(v))
}

/// Evaluate a polynomial into the counting semiring via a valuation.
pub fn eval_count<T: Truth + ?Sized>(p: &Polynomial, v: &T) -> Count {
    Count(p.eval_count(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::Valuation;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    fn x() -> Polynomial {
        Polynomial::var(a(0))
    }
    fn y() -> Polynomial {
        Polynomial::var(a(1))
    }
    fn z() -> Polynomial {
        Polynomial::var(a(2))
    }

    #[test]
    fn zero_and_one_identities() {
        let p = x().add(&y());
        assert_eq!(p.add(&Polynomial::zero()), p);
        assert_eq!(p.mul(&Polynomial::one()), p);
        assert_eq!(p.mul(&Polynomial::zero()), Polynomial::zero());
        assert!(Polynomial::zero().is_zero());
        assert!(Polynomial::one().is_one());
    }

    #[test]
    fn addition_collects_like_terms() {
        let p = x().add(&x());
        assert_eq!(p.terms().len(), 1);
        assert_eq!(p.terms()[0].1, 2);
        assert_eq!(p.size(), 1);
    }

    #[test]
    fn multiplication_distributes() {
        let lhs = x().mul(&y().add(&z()));
        let rhs = x().mul(&y()).add(&x().mul(&z()));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mapping_is_homomorphic() {
        // (x+y)·z mapped with {x,y}->g equals (g+g)·z = 2g·z
        let g = a(9);
        let h = Mapping::group(&[a(0), a(1)], g);
        let p = x().add(&y()).mul(&z());
        let mapped = p.map(&h);
        assert_eq!(
            mapped,
            Polynomial::from_terms([(Monomial::from_factors(vec![g, a(2)]), 2)])
        );
    }

    #[test]
    fn eval_bool_and_count_agree_on_positivity() {
        let p = x().mul(&y()).add(&z());
        let mut v = Valuation::all_true();
        v.set(a(2), false);
        assert!(p.eval_bool(&v));
        assert_eq!(p.eval_count(&v), 1);
        v.set(a(0), false);
        assert!(!p.eval_bool(&v));
        assert_eq!(p.eval_count(&v), 0);
    }

    #[test]
    fn eval_in_generic_matches_specialized() {
        let p = x().mul(&y()).add(&z().mul(&z()));
        let mut v = Valuation::all_true();
        v.set(a(1), false);
        let b = p.eval_in(|ann| Bool(v.truth(ann)));
        assert_eq!(b.0, p.eval_bool(&v));
        let c = p.eval_in(|ann| Count(u64::from(v.truth(ann))));
        assert_eq!(c.0, p.eval_count(&v));
    }

    #[test]
    fn size_counts_occurrences_with_repetition() {
        // x·y + z has 3 occurrences; x^2 has 2.
        assert_eq!(x().mul(&y()).add(&z()).size(), 3);
        assert_eq!(x().mul(&x()).size(), 2);
    }

    #[test]
    fn annotations_are_deduped_and_sorted() {
        let p = z().mul(&x()).add(&x());
        assert_eq!(p.annotations(), vec![a(0), a(2)]);
    }

    #[test]
    fn render_pretty_prints() {
        let p = x().mul(&y()).add(&x()).add(&x());
        let s = p.render(&|ann| format!("A{}", ann.index()));
        assert_eq!(s, "2A0 + A0·A1");
    }
}

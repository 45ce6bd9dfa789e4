//! The distance between a provenance expression and its summary
//! (Definition 3.2.2), computed exactly over an explicit valuation class.
//!
//! `dist^{h,φ}(p, p') = (Σ_{v∈V_Ann} VAL-FUNC(v, v^{h,φ}, p, p')) / |V_Ann|`
//!
//! The engine caches the original expression's evaluation under every
//! valuation — candidates share those. [`DistanceEngine::distance`] is the
//! one-shot reference: it lifts each valuation to the summary's annotations
//! via φ and evaluates the whole summary. The greedy loop scores its
//! candidates with a [`StepScorer`] instead, which gives the same distances
//! and sizes without building the candidates' expressions.
//! Reported distances are normalized by the maximum possible error so they
//! lie in `[0,1]` (§6.3).

use std::collections::BTreeMap;

use prox_obs::Counter;
use prox_provenance::{
    AnnId, AnnKind, AnnStore, EvalOutcome, Mapping, MergePlan, MergedTruth, PhiMap, Summarizable,
    Truth, TruthBits, Valuation,
};

use crate::candidates::Candidate;
use crate::score::CandidateMeasure;
use crate::val_func::{ValFuncCtx, ValFuncKind};

/// Distance computations: one per [`DistanceEngine::distance`] call and
/// one per candidate a [`StepScorer`] scores.
static DISTANCE_EVALUATIONS: Counter = Counter::new("distance/evaluations");
/// (candidate, valuation) pairs whose VAL-FUNC term a [`StepScorer`] took
/// unchanged from the current summary.
static VALUATIONS_REUSED: Counter = Counter::new("distance/valuations_reused");
/// (candidate, valuation) pairs a [`StepScorer`] evaluated.
static VALUATIONS_EVALUATED: Counter = Counter::new("distance/valuations_evaluated");

/// Overrides the member set of candidate target annotations during
/// evaluation, so candidates can be scored without interning a summary
/// annotation per candidate (the winner is interned once per step).
pub type MemberOverride = BTreeMap<AnnId, Vec<AnnId>>;

/// Distance engine for one summarization run.
pub struct DistanceEngine<'a, E: Summarizable> {
    original: &'a E,
    valuations: &'a [Valuation],
    phis: PhiMap,
    val_func: ValFuncKind,
    /// Cached `v(p₀)` per valuation.
    orig_outcomes: Vec<EvalOutcome>,
    /// Normalizer: the maximum possible error of the chosen VAL-FUNC on
    /// the original expression.
    max_error: f64,
    ctx: ValFuncCtx,
}

impl<'a, E: Summarizable> DistanceEngine<'a, E> {
    /// Build an engine, evaluating the original under every valuation once.
    pub fn new(
        original: &'a E,
        valuations: &'a [Valuation],
        phis: PhiMap,
        val_func: ValFuncKind,
    ) -> Self {
        let orig_outcomes: Vec<EvalOutcome> =
            valuations.iter().map(|v| original.evaluate(v)).collect();
        let max_error = original.max_error().max(f64::MIN_POSITIVE);
        let ctx = ValFuncCtx {
            weight: 1.0,
            mismatch_penalty: max_error,
        };
        DistanceEngine {
            original,
            valuations,
            phis,
            val_func,
            orig_outcomes,
            max_error,
            ctx,
        }
    }

    /// The valuation class size.
    pub fn num_valuations(&self) -> usize {
        self.valuations.len()
    }

    /// The normalization constant in use.
    pub fn max_error(&self) -> f64 {
        self.max_error
    }

    /// The original expression this engine measures against.
    pub fn original(&self) -> &E {
        self.original
    }

    /// Lift a valuation to the summary's annotation space: every summary
    /// (or member-overridden) annotation gets `φ` of its base members'
    /// truth values.
    fn lift(
        &self,
        v: &Valuation,
        summary_anns: &[AnnId],
        store: &AnnStore,
        overrides: &MemberOverride,
    ) -> Valuation {
        let mut out = v.clone();
        for &a in summary_anns {
            let ann = store.get(a);
            let phi = self.phis.for_domain(ann.domain);
            if let Some(members) = overrides.get(&a) {
                out.set(a, phi.combine_bool(members.iter().map(|&m| v.truth(m))));
            } else if ann.kind.is_summary() {
                out.set(
                    a,
                    phi.combine_bool(ann.base_members().iter().map(|&m| v.truth(m))),
                );
            }
        }
        out
    }

    /// Normalized distance (in `[0,1]`) between the original and `summary`,
    /// where `h` is the *cumulative* mapping that produced `summary` and
    /// `overrides` supplies member sets for not-yet-interned candidate
    /// targets.
    pub fn distance(
        &self,
        summary: &E,
        h: &Mapping,
        store: &AnnStore,
        overrides: &MemberOverride,
    ) -> f64 {
        (self.distance_raw(summary, h, store, overrides) / self.max_error).min(1.0)
    }

    /// Unnormalized average VAL-FUNC value over the valuation class.
    pub fn distance_raw(
        &self,
        summary: &E,
        h: &Mapping,
        store: &AnnStore,
        overrides: &MemberOverride,
    ) -> f64 {
        DISTANCE_EVALUATIONS.incr();
        self.raw(summary, h, store, overrides)
    }

    /// [`DistanceEngine::distance`] without touching the counters — the
    /// check of a committed step against the scorer.
    pub(crate) fn distance_uncounted(&self, summary: &E, h: &Mapping, store: &AnnStore) -> f64 {
        (self.raw(summary, h, store, &MemberOverride::new()) / self.max_error).min(1.0)
    }

    fn raw(&self, summary: &E, h: &Mapping, store: &AnnStore, overrides: &MemberOverride) -> f64 {
        if self.valuations.is_empty() {
            return 0.0;
        }
        let summary_anns = summary.annotations();
        let mut acc = 0.0f64;
        for (v, orig_out) in self.valuations.iter().zip(&self.orig_outcomes) {
            let lifted = self.lift(v, &summary_anns, store, overrides);
            let summ_out = summary.evaluate(&lifted);
            // Project vector outcomes into the summary key space
            // (Example 5.2.1's dimension alignment).
            let projected;
            let orig_ref = match orig_out {
                EvalOutcome::Vector(vec) => {
                    projected = EvalOutcome::Vector(vec.project(h));
                    &projected
                }
                other => other,
            };
            acc += self.val_func.eval(orig_ref, &summ_out, self.ctx);
        }
        acc / self.valuations.len() as f64
    }
}

/// Scores the candidate merges of one greedy step, exactly as
/// [`DistanceEngine::distance`] and `size` would on each candidate's
/// expression, without building it.
///
/// Built once per step from the current summary and the cumulative
/// mapping, it keeps per valuation: the lift to the summary's annotations
/// (dense bits), the original's outcome projected into the summary's key
/// space, and the summary's outcome with its VAL-FUNC term. A candidate
/// `M ↦ M[0]` changes only what mentions `M`: a valuation under which
/// every member already has the merged truth keeps its term when the merge
/// only identifies truths ([`MergePlan::identifies_truths_only`]); every
/// other valuation evaluates the planned merge through a view reading `M`
/// as the merged truth. Terms are summed in valuation order, as the
/// reference sums them, so distances agree bit for bit.
pub struct StepScorer<'s, 'a, E: Summarizable> {
    engine: &'s DistanceEngine<'a, E>,
    current: &'s E,
    store: &'s AnnStore,
    size: usize,
    /// Per valuation: its lift to the current summary's annotations.
    lifted: Vec<TruthBits>,
    /// Per valuation: the original's outcome in the current key space.
    projected: Vec<EvalOutcome>,
    /// Per valuation: the current summary's outcome and VAL-FUNC term.
    outcomes: Vec<EvalOutcome>,
    terms: Vec<f64>,
    /// The image under the cumulative mapping of each coordinate of the
    /// original's (vector) outcomes.
    keys: Vec<AnnId>,
    plan: E::Merge,
    /// Scratch for one candidate: its base members, the merged outcome,
    /// and the original re-projected when the merge joins object keys.
    base: Vec<AnnId>,
    merged: EvalOutcome,
    reprojected: EvalOutcome,
}

impl<'s, 'a, E: Summarizable> StepScorer<'s, 'a, E> {
    /// Prepare to score merges of `current`, the summary the cumulative
    /// mapping `h` made of the engine's original.
    pub fn new(
        engine: &'s DistanceEngine<'a, E>,
        current: &'s E,
        h: &Mapping,
        store: &'s AnnStore,
    ) -> Self {
        let anns = current.annotations();
        let lifted: Vec<TruthBits> = engine
            .valuations
            .iter()
            .map(|v| {
                let mut bits = TruthBits::new(store.len());
                for &a in &anns {
                    let ann = store.get(a);
                    let value = match &ann.kind {
                        AnnKind::Base => v.truth(a),
                        AnnKind::Summary { members } => engine
                            .phis
                            .for_domain(ann.domain)
                            .combine_bool(members.iter().map(|&m| v.truth(m))),
                    };
                    bits.set(a, value);
                }
                bits
            })
            .collect();
        let projected: Vec<EvalOutcome> = engine
            .orig_outcomes
            .iter()
            .map(|o| match o {
                EvalOutcome::Vector(vec) => EvalOutcome::Vector(vec.project(h)),
                other => other.clone(),
            })
            .collect();
        let outcomes: Vec<EvalOutcome> = lifted.iter().map(|l| current.evaluate(l)).collect();
        let terms = projected
            .iter()
            .zip(&outcomes)
            .map(|(p, c)| engine.val_func.eval(p, c, engine.ctx))
            .collect();
        let keys = match engine.orig_outcomes.first() {
            Some(EvalOutcome::Vector(vec)) => {
                vec.coords().iter().map(|&(o, _)| h.image(o)).collect()
            }
            _ => Vec::new(),
        };
        let scratch = projected
            .first()
            .cloned()
            .unwrap_or(EvalOutcome::Scalar(0.0));
        StepScorer {
            engine,
            current,
            store,
            size: current.size(),
            lifted,
            projected,
            outcomes,
            terms,
            keys,
            plan: E::Merge::default(),
            base: Vec::new(),
            merged: scratch.clone(),
            reprojected: scratch,
        }
    }

    /// Distance and size of `cand`, the merge of its members (current
    /// annotations) onto the first one.
    pub fn measure(&mut self, cand: &Candidate) -> CandidateMeasure {
        DISTANCE_EVALUATIONS.incr();
        let members = &cand.members;
        self.current.plan_merge(members, &mut self.plan);
        let size = self.plan.merged_size(self.size);
        let engine = self.engine;
        if engine.valuations.is_empty() {
            return CandidateMeasure {
                distance: 0.0,
                size,
            };
        }
        // The merged annotation's truth is φ over its base members, as the
        // reference's member override lifts it.
        cand.base_members_into(self.store, &mut self.base);
        let phi = engine.phis.for_domain(self.store.get(members[0]).domain);
        let truth_only = self.plan.identifies_truths_only();
        let reproject = self.keys.iter().any(|k| members.contains(k));
        let mut acc = 0.0f64;
        let mut reused = 0u64;
        for (ix, v) in engine.valuations.iter().enumerate() {
            let value = phi.combine_bool(self.base.iter().map(|&b| v.truth(b)));
            let lifted = &self.lifted[ix];
            if truth_only && members.iter().all(|&m| lifted.truth(m) == value) {
                acc += self.terms[ix];
                reused += 1;
                continue;
            }
            let view = MergedTruth {
                base: lifted,
                members: members.as_slice(),
                value,
            };
            self.current
                .evaluate_merged(&self.plan, &view, &self.outcomes[ix], &mut self.merged);
            let orig = match (
                &self.projected[ix],
                &engine.orig_outcomes[ix],
                &mut self.reprojected,
            ) {
                (EvalOutcome::Vector(p), EvalOutcome::Vector(o), EvalOutcome::Vector(out))
                    if reproject =>
                {
                    o.project_merged(&self.keys, p, members, out);
                    &self.reprojected
                }
                (p, _, _) => p,
            };
            acc += engine.val_func.eval(orig, &self.merged, engine.ctx);
        }
        let n = engine.valuations.len() as u64;
        VALUATIONS_REUSED.add(reused);
        VALUATIONS_EVALUATED.add(n - reused);
        CandidateMeasure {
            distance: (acc / n as f64 / engine.max_error).min(1.0),
            size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_provenance::{AggKind, AggValue, Phi, Polynomial, ProvExpr, Tensor, ValuationClass};

    /// Build Example 4.2.3's P₀ and the two single-step candidates.
    fn setup() -> (AnnStore, ProvExpr, Vec<AnnId>) {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F"), ("role", "audience")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F"), ("role", "critic")]);
        let u3 = s.add_base_with("U3", "users", &[("gender", "M"), ("role", "audience")]);
        let mp = s.add_base_with("MatchPoint", "movies", &[]);
        let bj = s.add_base_with("BlueJasmine", "movies", &[]);

        let mut p = ProvExpr::new(AggKind::Max);
        for (u, score) in [(u1, 3.0), (u2, 5.0), (u3, 3.0)] {
            p.push(mp, Tensor::new(Polynomial::var(u), AggValue::single(score)));
        }
        p.push(bj, Tensor::new(Polynomial::var(u2), AggValue::single(4.0)));
        (s, p, vec![u1, u2, u3])
    }

    #[test]
    fn example_4_2_3_audience_beats_female() {
        let (mut s, p0, users) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let engine =
            DistanceEngine::new(&p0, &vals, PhiMap::uniform(Phi::Or), ValFuncKind::Euclidean);

        let users_dom = s.domain("users");
        // Candidate 1: {U1,U2} -> Female
        let female = s.add_summary("Female", users_dom, &[users[0], users[1]]);
        let h_female = Mapping::group(&[users[0], users[1]], female);
        let p_female = p0.map(&h_female);
        let d_female = engine.distance(&p_female, &h_female, &s, &BTreeMap::new());

        // Candidate 2: {U1,U3} -> Audience
        let audience = s.add_summary("Audience", users_dom, &[users[0], users[2]]);
        let h_audience = Mapping::group(&[users[0], users[2]], audience);
        let p_audience = p0.map(&h_audience);
        let d_audience = engine.distance(&p_audience, &h_audience, &s, &BTreeMap::new());

        // Paper: P₀'' (Audience) is at distance 0; P₀' (Female) differs for
        // the valuation cancelling U2.
        assert_eq!(d_audience, 0.0);
        assert!(d_female > 0.0);
    }

    #[test]
    fn member_override_matches_interned_summary() {
        // Scoring a candidate by mapping U2 -> U1 with an override must
        // give the same distance as interning the summary annotation.
        let (mut s, p0, users) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let engine =
            DistanceEngine::new(&p0, &vals, PhiMap::uniform(Phi::Or), ValFuncKind::Euclidean);

        // Via override: map U2 onto U1, overriding U1's members.
        let h_over = Mapping::group(&[users[1]], users[0]);
        let p_over = p0.map(&h_over);
        let mut overrides = BTreeMap::new();
        overrides.insert(users[0], vec![users[0], users[1]]);
        let d_over = engine.distance(&p_over, &h_over, &s, &overrides);

        // Via interned summary.
        let dom = s.domain("users");
        let g = s.add_summary("Female", dom, &[users[0], users[1]]);
        let h_real = Mapping::group(&[users[0], users[1]], g);
        let p_real = p0.map(&h_real);
        let d_real = engine.distance(&p_real, &h_real, &s, &BTreeMap::new());

        assert!((d_over - d_real).abs() < 1e-12);
    }

    #[test]
    fn identity_summary_has_zero_distance() {
        let (s, p0, users) = setup();
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[]);
        let engine =
            DistanceEngine::new(&p0, &vals, PhiMap::uniform(Phi::Or), ValFuncKind::Euclidean);
        let d = engine.distance(&p0, &Mapping::identity(), &s, &BTreeMap::new());
        assert_eq!(d, 0.0);
    }

    #[test]
    fn distance_is_normalized() {
        let (mut s, p0, users) = setup();
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[]);
        let engine =
            DistanceEngine::new(&p0, &vals, PhiMap::uniform(Phi::Or), ValFuncKind::Euclidean);
        // Merge everything (users and movies) — worst realistic summary.
        let dom = s.domain("users");
        let g = s.add_summary("All", dom, &[users[0], users[1], users[2]]);
        let h = Mapping::group(&users, g);
        let p = p0.map(&h);
        let d = engine.distance(&p, &h, &s, &BTreeMap::new());
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn empty_valuation_class_yields_zero() {
        let (s, p0, _) = setup();
        let vals: Vec<Valuation> = Vec::new();
        let engine =
            DistanceEngine::new(&p0, &vals, PhiMap::uniform(Phi::Or), ValFuncKind::Euclidean);
        assert_eq!(
            engine.distance(&p0, &Mapping::identity(), &s, &BTreeMap::new()),
            0.0
        );
    }
}

//! The provenance summarization algorithm (Algorithm 1, "Prov-Approx").
//!
//! Starting from the original annotations, the greedy algorithm constructs
//! the homomorphism gradually:
//!
//! 1. group annotations that are equivalent w.r.t. the valuation class
//!    (`GroupEquivalent`, Prop 4.2.1) — free distance-0 shrinkage;
//! 2. repeatedly examine every constraint-satisfying single-step mapping of
//!    `k` annotations to one new annotation, measure each candidate's
//!    approximated distance from the *original* expression and its size,
//!    and commit the candidate with the minimal `CandidateScore`
//!    (Definition 3.2.4), breaking ties by taxonomy distance;
//! 3. stop on `TARGET-SIZE`, `TARGET-DIST` (backing off one step, as in the
//!    algorithm's final lines), the step budget, or candidate exhaustion.

use prox_obs::{Counter, SpanTimer, StepTimer};
use prox_provenance::{AnnStore, Mapping, Summarizable, Valuation};
use prox_robust::{BudgetStop, ProxError};
use prox_taxonomy::{group_distance, Taxonomy, TaxonomyFold};

use crate::candidates::{enumerate_with, Candidate};
use crate::config::{SummarizeConfig, TieBreak};
use crate::constraints::{concepts_of, ConstraintConfig};
use crate::distance::{DistanceEngine, MemberOverride, StepScorer};
use crate::equivalence::group_equivalent;
use crate::history::{History, StepRecord, StopReason};
use crate::score::{minimal_indices, score_all};

/// Whole `summarize` runs.
static SPAN_SUMMARIZE: SpanTimer = SpanTimer::new("summarize");
/// One committed greedy step (records exactly the `StepRecord::step_time`).
static SPAN_STEP: SpanTimer = SpanTimer::new("summarize/step");
/// Candidate enumeration within a step.
static SPAN_ENUMERATE: SpanTimer = SpanTimer::new("summarize/step/enumerate");
/// Candidate measurement (distance and size) within a step.
static SPAN_EVALUATE: SpanTimer = SpanTimer::new("summarize/step/evaluate");
/// Scoring + tie-breaking within a step.
static SPAN_SCORE: SpanTimer = SpanTimer::new("summarize/step/score");
/// Steps committed across all runs.
static STEPS_COMMITTED: Counter = Counter::new("summarize/steps_committed");
/// Steps undone by the TARGET-DIST back-off rule.
static STEPS_BACKED_OFF: Counter = Counter::new("summarize/steps_backed_off");

/// The result of a summarization run.
#[derive(Clone, Debug)]
pub struct SummaryResult<E> {
    /// The summary expression.
    pub summary: E,
    /// The cumulative homomorphism from original to summary annotations.
    pub mapping: Mapping,
    /// Per-step records.
    pub history: History,
    /// Expression snapshots: index 0 is the post-`GroupEquivalent` start,
    /// then one per step. Populated only with `record_snapshots`.
    pub snapshots: Vec<E>,
    /// Size of the original expression.
    pub initial_size: usize,
    /// Normalized distance of the returned summary from the original.
    pub final_distance: f64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

impl<E: Summarizable> SummaryResult<E> {
    /// Final expression size.
    pub fn final_size(&self) -> usize {
        self.summary.size()
    }
}

/// The summarizer: owns the configuration and borrows the annotation store
/// (which grows by one summary annotation per committed step).
pub struct Summarizer<'a> {
    store: &'a mut AnnStore,
    taxonomy: Option<&'a Taxonomy>,
    constraints: ConstraintConfig,
    config: SummarizeConfig,
}

impl<'a> Summarizer<'a> {
    /// Create a summarizer.
    pub fn new(
        store: &'a mut AnnStore,
        constraints: ConstraintConfig,
        config: SummarizeConfig,
    ) -> Self {
        Summarizer {
            store,
            taxonomy: None,
            constraints,
            config,
        }
    }

    /// Attach a taxonomy (constraints + tie-breaking).
    pub fn with_taxonomy(mut self, taxonomy: &'a Taxonomy) -> Self {
        self.taxonomy = Some(taxonomy);
        self
    }

    /// Run Algorithm 1 on `p0` with the given valuation class.
    ///
    /// Anytime contract: if the configured [`prox_robust::ExecutionBudget`]
    /// is exhausted *mid-run*, the best-so-far valid summary is returned
    /// with a budget [`StopReason`] (`DeadlineExceeded`, `BudgetExhausted`,
    /// or `Cancelled`). Only a budget that is already exhausted before any
    /// work starts yields `Err(ProxError::Budget)`.
    pub fn summarize<E: Summarizable>(
        &mut self,
        p0: &E,
        valuations: &[Valuation],
    ) -> Result<SummaryResult<E>, ProxError> {
        self.config.validate()?;
        let mut session = self.config.budget.start();
        // An already-exhausted budget (deadline in the past, pre-raised
        // cancel flag) means no work at all: that is an error, not an
        // empty summary.
        if let Err(stop) = session.check() {
            return Err(stop.into());
        }
        // The memo cap bounds distance-evaluation memory by truncating the
        // valuation class (silent degradation, recorded in obs counters).
        let valuations = &valuations[..session.memo_cap(valuations.len())];
        let _run_span = SPAN_SUMMARIZE.start();
        // Request-scoped trace: the "summarize" span stays open for the
        // whole run (so the final stop_reason lands on it); each phase
        // below opens a child span via the same session.
        let _trace_run = session.span("summarize");
        let initial_size = p0.size();

        // Line 1: GroupEquivalent.
        let (mut current, mut cumulative) = if self.config.skip_group_equivalent {
            (p0.clone(), Mapping::identity())
        } else {
            let _trace_cluster = session.span("cluster");
            let res =
                group_equivalent(p0, valuations, self.store, &self.constraints, self.taxonomy);
            session.trace_note(
                "groups_merged",
                p0.size().saturating_sub(res.expr.size()) as u64,
            );
            (res.expr, res.mapping)
        };
        // Candidates are planned against a simplified summary; every
        // `apply_mapping` output is one, the unmapped input may not be.
        if cumulative.is_identity() {
            current = current.apply_mapping(&cumulative);
        }

        let engine = DistanceEngine::new(
            p0,
            valuations,
            self.config.phi.clone(),
            self.config.val_func,
        );
        let no_override: MemberOverride = MemberOverride::new();
        let mut current_dist = engine.distance(&current, &cumulative, self.store, &no_override);

        let mut history = History::default();
        let mut snapshots = Vec::new();
        if self.config.record_snapshots {
            snapshots.push(current.clone());
        }

        // Back-off state for the TARGET-DIST rule.
        let mut prev: Option<(E, Mapping, f64)> = None;
        let mut break_reason: Option<StopReason> = None;

        let mut step = 0usize;
        // Line 2 of Algorithm 1 reads "while Size > TARGET-SIZE *or*
        // dist < TARGET-DIST", but the flavor settings of §3.2 ("set
        // TARGET-DIST to 1 to cancel its effect") only make sense for a
        // conjunction — with an `or`, a disabled bound would keep the loop
        // alive forever. We therefore loop while *both* bounds are slack,
        // which reproduces all three problem flavors.
        while current.size() > self.config.target_size && current_dist < self.config.target_dist {
            if step >= self.config.max_steps {
                break_reason = Some(StopReason::MaxSteps);
                break;
            }
            if let Err(stop) = session.note_step() {
                break_reason = Some(stop.into());
                break;
            }
            let mut timer = StepTimer::start();
            let size_before = current.size();

            // Lines 3-8: examine candidates, keep the minimal score.
            let anns = current.annotations();
            let (cands, enum_stop) = {
                let _span = SPAN_ENUMERATE.start();
                let _trace_enum = session.span("enumerate");
                let out = enumerate_with(
                    &anns,
                    self.store,
                    &self.constraints,
                    self.taxonomy,
                    self.config.k,
                    Some(&mut session),
                );
                session.trace_note("candidates", out.0.len() as u64);
                out
            };
            if let Some(stop) = enum_stop {
                break_reason = Some(stop.into());
                break;
            }
            if cands.is_empty() {
                break_reason = Some(StopReason::NoCandidates);
                break;
            }

            // Candidate measurement dominates step time, so poll the budget
            // every few candidates; a mid-measure trip abandons the step
            // (the best-so-far summary from prior steps stands). Each
            // candidate is scored as the merge of its members onto the
            // first one, whose lift is φ over the candidate's base members.
            let mut measure_stop: Option<BudgetStop> = None;
            let eval_span = SPAN_EVALUATE.start();
            let trace_eval = session.span("evaluate");
            let measures = timer.candidates(|| {
                let mut scorer = StepScorer::new(&engine, &current, &cumulative, self.store);
                let mut measures = Vec::with_capacity(cands.len());
                for (ix, cand) in cands.iter().enumerate() {
                    if ix % 32 == 31 {
                        if let Err(stop) = session.check() {
                            measure_stop = Some(stop);
                            break;
                        }
                    }
                    measures.push(scorer.measure(cand));
                }
                measures
            });
            session.trace_note("measured", measures.len() as u64);
            drop(trace_eval);
            eval_span.finish();
            if let Some(stop) = measure_stop {
                break_reason = Some(stop.into());
                break;
            }

            let score_span = SPAN_SCORE.start();
            let trace_score = session.span("score");
            let mut scores = score_all(
                &measures,
                self.config.score_mode,
                self.config.w_dist,
                self.config.w_size,
                initial_size,
            );
            // §3.2: taxonomy distances may enter the score itself, not only
            // break ties — rank the candidates' member-to-concept distances
            // and add the weighted rank.
            if self.config.w_tax > 0.0 {
                if let Some(taxonomy) = self.taxonomy {
                    let fold = match self.config.tie_break {
                        TieBreak::TaxonomySum => TaxonomyFold::Sum,
                        _ => TaxonomyFold::Max,
                    };
                    let tax_dists: Vec<f64> = cands
                        .iter()
                        .map(|cand| {
                            match (cand.concept, concepts_of(&cand.members, self.store)) {
                                (Some(target), Some(member_concepts)) => {
                                    group_distance(taxonomy, &member_concepts, target, fold)
                                }
                                // Concept-free candidates rank worst.
                                _ => f64::MAX,
                            }
                        })
                        .collect();
                    let tax_ranks = crate::score::normalized_ranks(tax_dists);
                    for (score, rank) in scores.iter_mut().zip(tax_ranks) {
                        *score += self.config.w_tax * rank;
                    }
                }
            }
            let ties = minimal_indices(&scores, 1e-9);
            let chosen_ix = self.break_ties(&cands, &ties);
            drop(trace_score);
            score_span.finish();
            let chosen = &cands[chosen_ix];
            let chosen_measure = measures[chosen_ix];

            // Commit: intern the real summary annotation and remap.
            let summary_ann = self
                .store
                .add_summary(&chosen.name, chosen.domain, &chosen.members);
            if let Some(c) = chosen.concept {
                self.store.set_concept(summary_ann, c.0);
            }
            let real_map = Mapping::group(&chosen.members, summary_ann);
            let next = current.apply_mapping(&real_map);
            if next.size() != chosen_measure.size {
                return Err(ProxError::internal(format!(
                    "step {}: committed size {} differs from the scored size {}",
                    step + 1,
                    next.size(),
                    chosen_measure.size
                )));
            }

            prev = Some((current, cumulative.clone(), current_dist));
            cumulative.compose_with(&real_map);
            debug_assert_eq!(
                engine
                    .distance_uncounted(&next, &cumulative, self.store)
                    .to_bits(),
                chosen_measure.distance.to_bits(),
                "the scored distance of the committed step"
            );
            current = next;
            current_dist = chosen_measure.distance;
            step += 1;

            STEPS_COMMITTED.incr();
            let step_time = timer.step_time();
            SPAN_STEP.record(step_time);
            history.steps.push(StepRecord {
                step,
                merged: chosen.members.clone(),
                target: summary_ann,
                score: scores[chosen_ix],
                distance: current_dist,
                size: current.size(),
                candidates: cands.len(),
                candidate_time: timer.candidate_time(),
                step_time,
                size_before,
            });
            if self.config.record_snapshots {
                snapshots.push(current.clone());
            }
        }

        // Final lines of Algorithm 1: if the distance bound was crossed
        // (and is actually enabled), return p'_prev.
        if self.config.target_dist < 1.0 && current_dist >= self.config.target_dist {
            if let Some((prev_expr, prev_map, prev_dist)) = prev {
                // Drop the last step's record and snapshot — it was undone.
                STEPS_BACKED_OFF.incr();
                history.steps.pop();
                if self.config.record_snapshots {
                    snapshots.pop();
                }
                session.trace_note("stop_reason", StopReason::TargetDist.name());
                session.trace_note("steps", history.len() as u64);
                return Ok(SummaryResult {
                    summary: prev_expr,
                    mapping: prev_map,
                    history,
                    snapshots,
                    initial_size,
                    final_distance: prev_dist,
                    stop_reason: StopReason::TargetDist,
                });
            }
        }

        let stop_reason = break_reason.unwrap_or({
            if current.size() <= self.config.target_size {
                StopReason::TargetSize
            } else {
                StopReason::TargetDist
            }
        });
        session.trace_note("stop_reason", stop_reason.name());
        session.trace_note("steps", history.len() as u64);

        Ok(SummaryResult {
            summary: current,
            mapping: cumulative,
            history,
            snapshots,
            initial_size,
            final_distance: current_dist,
            stop_reason,
        })
    }

    /// Choose among equal-score candidates using taxonomy distances (§4.2):
    /// compute the MAX (or SUM) of the members' Wu–Palmer distances to the
    /// candidate's target concept and take the minimum; candidates without
    /// concepts rank last. Falls back to the first tie.
    fn break_ties(&self, cands: &[Candidate], ties: &[usize]) -> usize {
        debug_assert!(!ties.is_empty());
        if ties.len() == 1 {
            return ties[0];
        }
        let (Some(taxonomy), fold) = (
            self.taxonomy,
            match self.config.tie_break {
                TieBreak::TaxonomyMax => Some(TaxonomyFold::Max),
                TieBreak::TaxonomySum => Some(TaxonomyFold::Sum),
                TieBreak::First => None,
            },
        ) else {
            return ties[0];
        };
        let Some(fold) = fold else {
            return ties[0];
        };
        let mut best = ties[0];
        let mut best_d = f64::INFINITY;
        for &ix in ties {
            let cand = &cands[ix];
            let d = match (cand.concept, concepts_of(&cand.members, self.store)) {
                (Some(target), Some(member_concepts)) => {
                    group_distance(taxonomy, &member_concepts, target, fold)
                }
                _ => f64::INFINITY,
            };
            if d < best_d {
                best_d = d;
                best = ix;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreMode;
    use crate::constraints::MergeRule;
    use crate::val_func::ValFuncKind;
    use prox_provenance::{AggKind, AggValue, AnnId, Polynomial, ProvExpr, Tensor, ValuationClass};

    /// Example 4.2.3's setting: U1,U2 female; U1,U3 audience; ratings for
    /// two movies. The algorithm with wDist=1 must pick Audience first.
    fn setup() -> (AnnStore, ProvExpr, Vec<AnnId>, ConstraintConfig) {
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
        let users = s.domain("users");
        let cfg =
            ConstraintConfig::new().allow(users, MergeRule::SharedAttribute { attrs: vec![] });
        (s, p, vec![u1, u2, u3], cfg)
    }

    #[test]
    fn example_4_2_3_first_step_chooses_audience() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            w_dist: 1.0,
            w_size: 0.0,
            max_steps: 1,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert_eq!(res.history.len(), 1);
        let step = &res.history.steps[0];
        assert_eq!(step.merged, vec![users[0], users[2]], "U1,U3 → Audience");
        assert_eq!(s.name(step.target), "audience");
        assert_eq!(res.final_distance, 0.0);
    }

    #[test]
    fn target_size_stops_at_bound() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig::target_size(3);
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert!(res.final_size() <= 3);
        assert_eq!(res.stop_reason, StopReason::TargetSize);
    }

    #[test]
    fn target_dist_backs_off_one_step() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        // A tiny positive bound: the first nonzero-distance step must be
        // undone.
        let config = SummarizeConfig {
            target_dist: 1e-6,
            target_size: 1,
            w_dist: 0.0,
            w_size: 1.0,
            max_steps: 100,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert_eq!(res.stop_reason, StopReason::TargetDist);
        assert!(res.final_distance < 1e-6);
    }

    #[test]
    fn monotonicity_holds_along_the_run() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            w_dist: 1.0,
            w_size: 0.0,
            max_steps: 10,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert!(res.history.check_monotone().is_ok());
    }

    #[test]
    fn runs_until_no_candidates() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            max_steps: 100,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        // U1,U2 merge (gender), or U1,U3 (role); after one merge the summary
        // shares no attribute with the remaining user... except via shared
        // attrs. Eventually candidates dry up.
        assert_eq!(res.stop_reason, StopReason::NoCandidates);
        assert!(res.final_size() < p0.size());
    }

    #[test]
    fn snapshots_track_steps() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            max_steps: 2,
            record_snapshots: true,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert_eq!(res.snapshots.len(), res.history.len() + 1);
        assert_eq!(res.snapshots.last().unwrap().size(), res.final_size());
    }

    #[test]
    fn normalized_score_mode_also_works() {
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            score_mode: ScoreMode::Normalized,
            val_func: ValFuncKind::Euclidean,
            w_dist: 1.0,
            w_size: 0.0,
            max_steps: 1,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert_eq!(res.history.steps[0].merged, vec![users[0], users[2]]);
    }

    #[test]
    fn taxonomy_weight_prefers_close_concepts() {
        use prox_taxonomy::Taxonomy;
        // Two page pairs tie on distance and size; only taxonomy proximity
        // separates them: {singer, guitarist} (lcs musician, close) vs
        // {singer, city} — the latter shares only the remote root.
        let mut t = Taxonomy::new();
        t.subclass("musician", "entity");
        t.subclass("singer", "musician");
        t.subclass("guitarist", "musician");
        t.subclass("city", "entity");
        let mut s = AnnStore::new();
        let pages_dom = s.domain("pages");
        let p1 = s.add_base("Adele", pages_dom, vec![]);
        let p2 = s.add_base("LoriBlack", pages_dom, vec![]);
        let p3 = s.add_base("TelAviv", pages_dom, vec![]);
        s.set_concept(p1, t.by_name("singer").unwrap().0);
        s.set_concept(p2, t.by_name("guitarist").unwrap().0);
        s.set_concept(p3, t.by_name("city").unwrap().0);
        let u = s.add_base_with("U", "users", &[]);
        let mut p0 = ProvExpr::new(AggKind::Sum);
        for &page in &[p1, p2, p3] {
            p0.push(
                page,
                Tensor::new(
                    Polynomial::var(u).mul(&Polynomial::var(page)),
                    AggValue::single(1.0),
                ),
            );
        }
        let constraints = ConstraintConfig::new().allow(pages_dom, MergeRule::TaxonomyAncestor);
        // No valuations: every candidate has distance 0; sizes tie too, so
        // only the taxonomy term separates candidates.
        let config = SummarizeConfig {
            w_tax: 0.5,
            max_steps: 1,
            tie_break: crate::config::TieBreak::First,
            // With an empty valuation class GroupEquivalent would merge
            // everything at distance 0; skip it so the greedy step (and
            // its taxonomy term) is what decides.
            skip_group_equivalent: true,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config).with_taxonomy(&t);
        let res = summarizer.summarize(&p0, &[]).unwrap();
        assert_eq!(res.history.len(), 1);
        let mut merged = res.history.steps[0].merged.clone();
        merged.sort();
        assert_eq!(merged, vec![p1, p2], "singer+guitarist beat singer+city");
    }

    #[test]
    fn invalid_w_tax_rejected() {
        let (mut s, p0, _, constraints) = setup();
        let config = SummarizeConfig {
            w_tax: 1.5,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        assert!(summarizer.summarize(&p0, &[]).is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (mut s, p0, _, constraints) = setup();
        let config = SummarizeConfig {
            w_dist: 0.9,
            w_size: 0.9,
            ..Default::default()
        };
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        assert!(summarizer.summarize(&p0, &[]).is_err());
    }

    #[test]
    fn expired_deadline_before_any_work_is_an_error() {
        use prox_robust::ExecutionBudget;
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig::default()
            .with_budget(ExecutionBudget::unlimited().with_deadline_at(std::time::Instant::now()));
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        match summarizer.summarize(&p0, &vals) {
            Err(ProxError::Budget(BudgetStop::Deadline)) => {}
            other => panic!("expected upfront budget error, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_returns_best_so_far() {
        use prox_robust::ExecutionBudget;
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        let config = SummarizeConfig {
            w_dist: 1.0,
            w_size: 0.0,
            max_steps: 100,
            ..Default::default()
        }
        .with_budget(ExecutionBudget::unlimited().with_max_steps(1));
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert_eq!(res.stop_reason, StopReason::BudgetExhausted);
        // Exactly one step was allowed; its summary is valid and monotone.
        assert_eq!(res.history.len(), 1);
        assert!(res.final_size() < p0.size());
        assert!(res.history.check_monotone().is_ok());
    }

    #[test]
    fn pre_raised_cancel_flag_is_an_upfront_error() {
        use prox_robust::{CancelFlag, ExecutionBudget};
        let (mut s, p0, _, constraints) = setup();
        let flag = CancelFlag::new();
        flag.cancel();
        let config =
            SummarizeConfig::default().with_budget(ExecutionBudget::unlimited().with_cancel(flag));
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        match summarizer.summarize(&p0, &[]) {
            Err(ProxError::Budget(BudgetStop::Cancelled)) => {}
            other => panic!("expected cancelled error, got {other:?}"),
        }
    }

    #[test]
    fn trace_context_records_phase_spans_and_stop_reason() {
        use prox_obs::{Json, TraceContext};
        use prox_robust::ExecutionBudget;
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        prox_obs::set_enabled(true);
        let trace = TraceContext::new(0x51ab);
        let config = SummarizeConfig {
            max_steps: 100,
            ..Default::default()
        }
        .with_budget(ExecutionBudget::unlimited().with_trace(trace.clone()));
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        let res = summarizer.summarize(&p0, &vals).unwrap();

        let tree = trace.to_json();
        let spans = match tree.get("spans") {
            Some(Json::Arr(spans)) => spans,
            other => panic!("spans not an array: {other:?}"),
        };
        let root = &spans[0];
        assert_eq!(root.get("name").and_then(Json::as_str), Some("summarize"));
        assert_eq!(
            root.get("attrs")
                .and_then(|a| a.get("stop_reason"))
                .and_then(Json::as_str),
            Some(res.stop_reason.name())
        );
        let children = match root.get("children") {
            Some(Json::Arr(children)) => children,
            other => panic!("children missing: {other:?}"),
        };
        let phase_names: Vec<&str> = children
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        for phase in ["cluster", "enumerate", "evaluate", "score"] {
            assert!(
                phase_names.contains(&phase),
                "missing {phase}: {phase_names:?}"
            );
        }
        // The evaluate phase performs distance evaluations, so its counter
        // deltas must be non-empty.
        let evaluate = children
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("evaluate"))
            .expect("evaluate span");
        assert!(
            evaluate.get("counters").is_some(),
            "evaluate span should carry counter deltas: {evaluate:?}"
        );
    }

    #[test]
    fn memo_cap_truncates_the_valuation_class() {
        use prox_robust::ExecutionBudget;
        let (mut s, p0, users, constraints) = setup();
        let users_dom = s.domain("users");
        let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);
        assert!(vals.len() > 1);
        let config = SummarizeConfig {
            max_steps: 2,
            ..Default::default()
        }
        .with_budget(ExecutionBudget::unlimited().with_memo_cap(1));
        let mut summarizer = Summarizer::new(&mut s, constraints, config);
        // Degraded but valid: the run completes on the truncated class.
        let res = summarizer.summarize(&p0, &vals).unwrap();
        assert!(res.final_size() <= p0.size());
    }
}

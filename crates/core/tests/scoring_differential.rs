//! Differential test: the step scorer against the one-shot reference.
//!
//! Every candidate of every step of seeded summarization runs is scored
//! twice: by the [`StepScorer`] the greedy loop uses, and by
//! [`DistanceEngine::distance`] on the materialized candidate expression
//! (the candidate's members mapped onto the first one, whose lift is
//! overridden by the candidate's base members). Distances must agree to
//! 1e-12 and sizes exactly; how many distances are bit-identical is
//! printed. Each run is replayed from its history, so every step is
//! checked against the cumulative mapping the run really had — summary
//! annotations and GroupEquivalent groups included — and the run must
//! commit candidates the reference scores would choose and return the
//! summary, mapping and distance the replay rebuilds.
//!
//! Inputs cover MovieLens (MAX), Wikipedia (SUM, page objects merging
//! through the taxonomy), DDP, and random SUM expressions with fractional
//! values, guards and multi-term provenance; every VAL-FUNC that applies,
//! φ ∈ {OR, AND} and k ∈ {2, 3}. Random inputs come from the workspace's
//! deterministic [`DetRng`].

use prox_core::candidates::{enumerate, Candidate};
use prox_core::score::{minimal_indices, score_all};
use prox_core::{
    group_equivalent, CandidateMeasure, ConstraintConfig, DistanceEngine, MemberOverride,
    MergeRule, StepScorer, SummarizeConfig, Summarizer, ValFuncKind,
};
use prox_datasets::{Ddp, DdpConfig, MovieLens, MovieLensConfig, Wikipedia, WikipediaConfig};
use prox_provenance::{
    AggKind, AggValue, AnnId, AnnStore, CmpOp, DomainId, Guard, Mapping, Phi, PhiMap, Polynomial,
    ProvExpr, Summarizable, Tensor, Valuation, ValuationClass,
};
use prox_robust::fault::DetRng;
use prox_taxonomy::Taxonomy;

const PROV_FUNCS: [ValFuncKind; 3] = [
    ValFuncKind::Euclidean,
    ValFuncKind::AbsDiff,
    ValFuncKind::Disagreement,
];
const DDP_FUNCS: [ValFuncKind; 3] = [
    ValFuncKind::DdpDiff,
    ValFuncKind::AbsDiff,
    ValFuncKind::Disagreement,
];

/// One summarization run to check.
struct Case<E> {
    name: String,
    store: AnnStore,
    p0: E,
    valuations: Vec<Valuation>,
    constraints: ConstraintConfig,
    taxonomy: Option<Taxonomy>,
    config: SummarizeConfig,
    /// Domain of the object keys, when those may merge.
    objects: Option<DomainId>,
}

#[derive(Debug, Default)]
struct Tally {
    runs: usize,
    steps: usize,
    candidates: usize,
    bit_identical: usize,
    object_merges: usize,
    grouped_runs: usize,
}

fn config(phi: PhiMap, k: usize, val_func: ValFuncKind) -> SummarizeConfig {
    SummarizeConfig {
        max_steps: 6,
        phi,
        val_func,
        k,
        ..Default::default()
    }
}

/// The reference measure of one candidate: materialize and measure it.
fn reference<E: Summarizable>(
    engine: &DistanceEngine<'_, E>,
    current: &E,
    cumulative: &Mapping,
    store: &AnnStore,
    cand: &Candidate,
) -> CandidateMeasure {
    let rep = cand.members[0];
    let step_map = Mapping::group(&cand.members[1..], rep);
    let expr = current.apply_mapping(&step_map);
    let mut h = cumulative.clone();
    h.compose_with(&step_map);
    let mut overrides = MemberOverride::new();
    overrides.insert(rep, cand.base_members(store));
    CandidateMeasure {
        distance: engine.distance(&expr, &h, store, &overrides),
        size: expr.size(),
    }
}

fn check<E: Summarizable + PartialEq + std::fmt::Debug>(case: &Case<E>, tally: &mut Tally) {
    let name = &case.name;
    let taxonomy = case.taxonomy.as_ref();
    let mut run_store = case.store.clone();
    let mut summarizer = Summarizer::new(
        &mut run_store,
        case.constraints.clone(),
        case.config.clone(),
    );
    if let Some(t) = taxonomy {
        summarizer = summarizer.with_taxonomy(t);
    }
    let result = summarizer
        .summarize(&case.p0, &case.valuations)
        .unwrap_or_else(|e| panic!("{name}: {e}"));

    let mut store = case.store.clone();
    let grouped = group_equivalent(
        &case.p0,
        &case.valuations,
        &mut store,
        &case.constraints,
        taxonomy,
    );
    let (mut current, mut cumulative) = (grouped.expr, grouped.mapping);
    if cumulative.is_identity() {
        current = current.apply_mapping(&cumulative);
    } else {
        tally.grouped_runs += 1;
    }
    let engine = DistanceEngine::new(
        &case.p0,
        &case.valuations,
        case.config.phi.clone(),
        case.config.val_func,
    );
    for step in &result.history.steps {
        let cands = enumerate(
            &current.annotations(),
            &store,
            &case.constraints,
            taxonomy,
            case.config.k,
        );
        assert_eq!(cands.len(), step.candidates, "{name}: step {}", step.step);
        let mut scorer = StepScorer::new(&engine, &current, &cumulative, &store);
        let mut want = Vec::with_capacity(cands.len());
        for cand in &cands {
            let got = scorer.measure(cand);
            let expected = reference(&engine, &current, &cumulative, &store, cand);
            assert_eq!(
                got.size, expected.size,
                "{name}: step {} size of {:?}",
                step.step, cand.members
            );
            assert!(
                (got.distance - expected.distance).abs() <= 1e-12,
                "{name}: step {} distance of {:?}: scorer {} reference {}",
                step.step,
                cand.members,
                got.distance,
                expected.distance
            );
            tally.candidates += 1;
            tally.bit_identical +=
                usize::from(got.distance.to_bits() == expected.distance.to_bits());
            tally.object_merges += usize::from(case.objects == Some(cand.domain));
            want.push(expected);
        }

        // The committed candidate is one the reference scores pick.
        let chosen = cands
            .iter()
            .position(|c| c.members == step.merged)
            .unwrap_or_else(|| panic!("{name}: step {} merged an unlisted candidate", step.step));
        let scores = score_all(
            &want,
            case.config.score_mode,
            case.config.w_dist,
            case.config.w_size,
            case.p0.size(),
        );
        assert!(
            minimal_indices(&scores, 1e-9).contains(&chosen),
            "{name}: step {} chose a candidate the reference does not rank first",
            step.step
        );
        assert!((step.distance - want[chosen].distance).abs() <= 1e-12);

        let cand = &cands[chosen];
        let target = store.add_summary(&cand.name, cand.domain, &cand.members);
        assert_eq!(target, step.target, "{name}: step {}", step.step);
        if let Some(c) = cand.concept {
            store.set_concept(target, c.0);
        }
        let real = Mapping::group(&cand.members, target);
        current = current.apply_mapping(&real);
        cumulative.compose_with(&real);
        assert_eq!(current.size(), step.size, "{name}: step {}", step.step);
        tally.steps += 1;
    }
    assert_eq!(result.summary, current, "{name}: summary");
    assert_eq!(result.mapping, cumulative, "{name}: mapping");
    let final_distance = engine.distance(&current, &cumulative, &store, &MemberOverride::new());
    assert!(
        (result.final_distance - final_distance).abs() <= 1e-12,
        "{name}: final distance {} vs {final_distance}",
        result.final_distance
    );
    tally.runs += 1;
}

fn movielens(
    seed: u64,
    class: ValuationClass,
) -> (MovieLens, ProvExpr, Vec<Valuation>, ConstraintConfig) {
    let mut ml = MovieLens::generate(MovieLensConfig {
        users: 14,
        movies: 4,
        ratings_per_user: 2,
        seed,
    });
    let p0 = ml.provenance(AggKind::Max);
    let constraints = ml.constraints();
    let valuations = ml.valuations(class);
    (ml, p0, valuations, constraints)
}

/// A SUM expression over 8 users and 4 objects with fractional values,
/// guards, squared factors and two-monomial provenance; users and objects
/// both merge freely, and three users are equivalent.
fn random_sum(seed: u64) -> (AnnStore, ProvExpr, Vec<Valuation>, ConstraintConfig) {
    let mut rng = DetRng::new(seed);
    let mut store = AnnStore::new();
    let users: Vec<AnnId> = (0..8)
        .map(|i| store.add_base_with(&format!("u{i}"), "users", &[]))
        .collect();
    let objects: Vec<AnnId> = (0..4)
        .map(|i| store.add_base_with(&format!("o{i}"), "objects", &[]))
        .collect();
    let mut p0 = ProvExpr::new(AggKind::Sum);
    for &o in &objects {
        for _ in 0..3 + rng.below(4) {
            let u = users[rng.below(users.len())];
            let mut prov = Polynomial::var(u).mul(&Polynomial::var(o));
            if rng.bool(0.3) {
                prov = prov.mul(&Polynomial::var(users[rng.below(users.len())]));
            }
            if rng.bool(0.3) {
                prov = prov.add(&Polynomial::var(users[rng.below(users.len())]));
            }
            let guards = if rng.bool(0.3) {
                let g = Polynomial::var(users[rng.below(users.len())]);
                vec![Guard::single(g, rng.range_f64(0.5, 2.0), CmpOp::Gt, 0.4)]
            } else {
                Vec::new()
            };
            let value = AggValue::single(rng.below(1000) as f64 / 7.0);
            p0.push(o, Tensor::guarded(prov, guards, value));
        }
    }
    p0.simplify();
    // The last three users are never cancelled, so GroupEquivalent merges
    // them before the greedy steps start.
    let mut anns = users[..5].to_vec();
    anns.extend_from_slice(&objects);
    let valuations = ValuationClass::CancelSingleAnnotation.generate(&store, &anns, &[]);
    let constraints = ConstraintConfig::new()
        .allow(store.domain("users"), MergeRule::Any)
        .allow(store.domain("objects"), MergeRule::Any);
    (store, p0, valuations, constraints)
}

#[test]
fn step_scorer_matches_the_reference_on_every_candidate() {
    let mut tally = Tally::default();
    for phi in [Phi::Or, Phi::And] {
        for k in [2, 3] {
            for (ix, class) in [
                ValuationClass::CancelSingleAttribute,
                ValuationClass::CancelSingleAnnotation,
            ]
            .into_iter()
            .enumerate()
            {
                for (jx, val_func) in PROV_FUNCS.into_iter().enumerate() {
                    let (ml, p0, valuations, constraints) =
                        movielens(40 + ix as u64 + jx as u64, class);
                    check(
                        &Case {
                            name: format!(
                                "movielens {phi} k={k} {} {}",
                                class.name(),
                                val_func.name()
                            ),
                            store: ml.store,
                            p0,
                            valuations,
                            constraints,
                            taxonomy: None,
                            config: config(PhiMap::uniform(phi), k, val_func),
                            objects: None,
                        },
                        &mut tally,
                    );
                }
            }

            for val_func in PROV_FUNCS {
                let mut wiki = Wikipedia::generate(WikipediaConfig {
                    users: 10,
                    pages: 8,
                    edits_per_user: 3,
                    major_prob: 0.6,
                    seed: 7 + k as u64,
                });
                let constraints = wiki.constraints();
                check(
                    &Case {
                        name: format!("wikipedia {phi} k={k} {}", val_func.name()),
                        p0: wiki.provenance(),
                        valuations: wiki.valuations(ValuationClass::CancelSingleAnnotation),
                        objects: Some(wiki.pages_domain()),
                        store: wiki.store,
                        constraints,
                        taxonomy: Some(wiki.taxonomy),
                        config: config(PhiMap::uniform(phi), k, val_func),
                    },
                    &mut tally,
                );

                let (store, p0, valuations, constraints) = random_sum(0x5eed_d1ff + k as u64);
                let objects = store.get(p0.entries()[0].0).domain;
                check(
                    &Case {
                        name: format!("random SUM {phi} k={k} {}", val_func.name()),
                        store,
                        p0,
                        valuations,
                        constraints,
                        taxonomy: None,
                        config: config(PhiMap::uniform(phi), k, val_func),
                        objects: Some(objects),
                    },
                    &mut tally,
                );
            }

            for val_func in DDP_FUNCS {
                let mut ddp = Ddp::generate(DdpConfig {
                    db_vars: 10,
                    cost_vars: 6,
                    executions: 10,
                    seed: 3 + k as u64,
                    ..Default::default()
                });
                let constraints = ddp.constraints();
                // φ = OR is the dataset's own assignment (MAX on costs).
                let phis = match phi {
                    Phi::Or => ddp.phi(),
                    _ => PhiMap::uniform(phi),
                };
                check(
                    &Case {
                        name: format!("ddp {phi} k={k} {}", val_func.name()),
                        p0: ddp.provenance.clone(),
                        valuations: ddp.valuations(ValuationClass::CancelSingleAnnotation),
                        store: ddp.store,
                        constraints,
                        taxonomy: None,
                        config: config(phis, k, val_func),
                        objects: None,
                    },
                    &mut tally,
                );
            }
        }
    }
    println!("{tally:?}");
    assert_eq!(tally.runs, 2 * 2 * (6 + 3 + 3 + 3));
    assert!(
        tally.steps >= tally.runs,
        "runs must commit steps: {tally:?}"
    );
    assert!(
        tally.object_merges > 0,
        "object keys must be merge candidates"
    );
    assert!(
        tally.grouped_runs > 0,
        "some run must start from GroupEquivalent groups"
    );
    assert_eq!(
        tally.bit_identical, tally.candidates,
        "every distance bit-identical: {tally:?}"
    );
}

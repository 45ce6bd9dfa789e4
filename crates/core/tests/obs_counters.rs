//! Integration test: observability counters against run history.
//!
//! Lives in its own test file (= its own process) because the registry is
//! process-global: unit tests of other crates would pollute the deltas if
//! they shared the binary.

use prox_core::{ConstraintConfig, MergeRule, StopReason, SummarizeConfig, Summarizer};
use prox_provenance::{AggKind, AggValue, AnnStore, Polynomial, ProvExpr, Tensor, ValuationClass};

fn counter(name: &str) -> u64 {
    prox_obs::counter_value(name).unwrap_or(0)
}

/// MovieLens-flavoured input with enough users that the greedy loop runs
/// several steps before candidates dry up.
fn setup() -> (
    AnnStore,
    ProvExpr,
    Vec<prox_provenance::AnnId>,
    ConstraintConfig,
) {
    let mut s = AnnStore::new();
    let genders = ["F", "F", "M", "M", "F", "M"];
    let roles = [
        "audience", "critic", "audience", "critic", "critic", "audience",
    ];
    let users: Vec<_> = (0..6)
        .map(|ix| {
            s.add_base_with(
                &format!("U{ix}"),
                "users",
                &[("gender", genders[ix]), ("role", roles[ix])],
            )
        })
        .collect();
    let movies: Vec<_> = (0..3)
        .map(|ix| s.add_base_with(&format!("M{ix}"), "movies", &[]))
        .collect();
    let mut p = ProvExpr::new(AggKind::Max);
    for (ix, &u) in users.iter().enumerate() {
        let m = movies[ix % movies.len()];
        p.push(
            m,
            Tensor::new(Polynomial::var(u), AggValue::single(1.0 + ix as f64)),
        );
    }
    let users_dom = s.domain("users");
    let cfg =
        ConstraintConfig::new().allow(users_dom, MergeRule::SharedAttribute { attrs: vec![] });
    (s, p, users, cfg)
}

#[test]
fn counters_reconcile_with_history() {
    prox_obs::set_enabled(true);
    let (mut s, p0, users, constraints) = setup();
    let users_dom = s.domain("users");
    let vals = ValuationClass::CancelSingleAnnotation.generate(&s, &users, &[users_dom]);

    let before_enumerated = counter("candidates/enumerated");
    let before_reused = counter("distance/valuations_reused");
    let before_evaluated = counter("distance/valuations_evaluated");
    let before_evals = counter("distance/evaluations");
    let before_committed = counter("summarize/steps_committed");

    // Default target_dist = 1.0: the TARGET-DIST back-off never pops a
    // step, so every non-empty enumeration commits exactly one record.
    let config = SummarizeConfig {
        max_steps: 100,
        ..Default::default()
    };
    let mut summarizer = Summarizer::new(&mut s, constraints, config);
    let res = summarizer.summarize(&p0, &vals).expect("valid config");
    assert!(
        matches!(
            res.stop_reason,
            StopReason::NoCandidates | StopReason::TargetSize
        ),
        "no back-off expected, got {:?}",
        res.stop_reason
    );
    assert!(!res.history.steps.is_empty(), "run must commit steps");

    // Candidate accounting: the counter sums every `enumerate` output; an
    // exhausted final enumeration contributes zero, and each non-empty one
    // matches its StepRecord's `candidates` field.
    let recorded: u64 = res.history.steps.iter().map(|s| s.candidates as u64).sum();
    assert_eq!(
        counter("candidates/enumerated") - before_enumerated,
        recorded,
        "candidates/enumerated delta must equal the history's candidate sum"
    );

    assert_eq!(
        counter("summarize/steps_committed") - before_committed,
        res.history.steps.len() as u64
    );

    // Scorer accounting: every scored candidate either reuses or
    // evaluates each valuation's term, and both kinds occur here.
    let reused = counter("distance/valuations_reused") - before_reused;
    let evaluated = counter("distance/valuations_evaluated") - before_evaluated;
    assert_eq!(
        reused + evaluated,
        recorded * vals.len() as u64,
        "reused + evaluated == scored candidates × |V|"
    );
    assert!(
        reused > 0 && evaluated > 0,
        "reused {reused}, evaluated {evaluated}"
    );

    // One distance evaluation per scored candidate, plus the start
    // summary's.
    assert_eq!(
        counter("distance/evaluations") - before_evals,
        recorded + 1,
        "distance/evaluations counts scored candidates"
    );

    // StepTimer semantics: candidate measurement is a sub-interval of the
    // whole step.
    for step in &res.history.steps {
        assert!(
            step.candidate_time <= step.step_time,
            "step {}: candidate_time {:?} > step_time {:?}",
            step.step,
            step.candidate_time,
            step.step_time
        );
    }
}

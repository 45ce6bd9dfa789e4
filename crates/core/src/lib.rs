//! # prox-core
//!
//! The PROX summarization algorithm (*Approximated Summarization of Data
//! Provenance*, EDBT 2016): everything between a provenance expression and
//! its compact, approximately-equivalent summary.
//!
//! * [`distance::DistanceEngine`] — the distance of Definition 3.2.2 over an
//!   explicit valuation class, with the VAL-FUNC family of §3.2
//!   ([`val_func::ValFuncKind`]);
//! * [`sampler`] — the (ε,δ) sampling approximation over all `2ⁿ`
//!   valuations (Prop 4.1.2), plus an exhaustive reference;
//! * [`hardness`] — the executable #DNF reduction behind the #P-hardness of
//!   exact distance computation (Prop 4.1.1);
//! * [`equivalence`] — `GroupEquivalent`, the distance-0 pre-pass
//!   (Prop 4.2.1);
//! * [`constraints`], [`candidates`] — the semantic constraints on mappings
//!   and the per-step candidate enumeration;
//! * [`score`] — `CandidateScore` (Definition 3.2.4);
//! * [`summarize::Summarizer`] — Algorithm 1 itself, generic over
//!   expression kinds (aggregated vector provenance and DDP provenance).
//!
//! ```
//! use prox_core::{
//!     ConstraintConfig, MergeRule, SummarizeConfig, Summarizer,
//! };
//! use prox_provenance::{
//!     AggKind, AggValue, AnnStore, Polynomial, ProvExpr, Tensor, ValuationClass,
//! };
//!
//! let mut store = AnnStore::new();
//! let u1 = store.add_base_with("U1", "users", &[("gender", "F")]);
//! let u2 = store.add_base_with("U2", "users", &[("gender", "F")]);
//! let movie = store.add_base_with("MatchPoint", "movies", &[]);
//! let mut p0 = ProvExpr::new(AggKind::Max);
//! p0.push(movie, Tensor::new(Polynomial::var(u1), AggValue::single(3.0)));
//! p0.push(movie, Tensor::new(Polynomial::var(u2), AggValue::single(5.0)));
//!
//! let users = store.domain("users");
//! let constraints =
//!     ConstraintConfig::new().allow(users, MergeRule::SharedAttribute { attrs: vec![] });
//! let valuations =
//!     ValuationClass::CancelSingleAnnotation.generate(&store, &[u1, u2], &[users]);
//! let mut summarizer = Summarizer::new(
//!     &mut store,
//!     constraints,
//!     SummarizeConfig::weighted(0.5, 10),
//! );
//! let result = summarizer.summarize(&p0, &valuations).unwrap();
//! assert!(result.final_size() <= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod candidates;
pub mod config;
pub mod constraints;
pub mod distance;
pub mod equivalence;
pub mod hardness;
pub mod history;
pub mod optimal;
pub mod sampler;
pub mod score;
pub mod summarize;
pub mod val_func;

pub use candidates::{enumerate_with, Candidate};
pub use config::{ScoreMode, SummarizeConfig, TieBreak};
// Re-exported so downstream crates keep a single import surface for the
// robustness types threaded through the summarization APIs.
pub use constraints::{ConstraintConfig, MergeRule};
pub use distance::{DistanceEngine, MemberOverride, StepScorer};
pub use equivalence::{equivalence_classes, group_equivalent};
pub use history::{History, StepRecord, StopReason};
pub use optimal::{greedy_gap, optimal_summary, Objective, OptimalResult};
pub use prox_robust::{
    BudgetSession, BudgetStop, CancelFlag, ErrorKind, ExecutionBudget, ProxError,
};
pub use sampler::{approx_distance, exact_distance_all, SampleEstimate, SamplerConfig};
pub use score::CandidateMeasure;
pub use summarize::{Summarizer, SummaryResult};
pub use val_func::{ValFuncCtx, ValFuncKind};

//! # prox-system
//!
//! The PROX system (Chapter 7): selection, summarization, and provisioning
//! services over a MovieLens-style ratings workload, plus a step-through
//! session model and text renderers backing the `prox` CLI (the terminal
//! rendition of the paper's web UI).
//!
//! The original system is a Java/Spring server with an AngularJS client;
//! the services' responsibilities are reproduced here as a library:
//!
//! * [`selection`] — restrict provenance by title / genre / year;
//! * [`summarization`] — run Algorithm 1 with the UI's parameters;
//! * [`evaluator`] — apply hypothetical assignments (provisioning) to the
//!   original or summary provenance and report values with timings;
//! * [`session`] — navigate the algorithm's steps and inspect groups.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic hygiene (clippy::unwrap_used/expect_used) comes from
// [workspace.lints]; test code is exempt via clippy.toml.

pub mod evaluator;
pub mod insights;
pub mod render;
pub mod selection;
pub mod session;
pub mod summarization;

pub use evaluator::{evaluate, evaluate_both, resolve_assignment, Assignment, Evaluation};
pub use insights::{group_insights, insights, Insight};
pub use selection::{select, Selected, Selection};
pub use session::{GroupView, Session};
pub use summarization::{summarize, summarize_workload, SummarizationRequest, Summarized};

//! `POST /summarize/store` over a real socket, against a small segment
//! store built in a temp dir.
//!
//! The reference for a complete read is the full fold the route used to
//! run: `SegmentStore::collect`, the first `objects` entries, then the
//! summarizer configured the way the route configures it. The route's
//! selective read must produce the same body.
//!
//! Own test binary: tracing is gated on the process-global prox-obs
//! enabled flag. Every test holds a `FaultGuard` so no fault plan from a
//! sibling leaks in.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use prox_core::{ConstraintConfig, MergeRule, SummarizeConfig, Summarizer};
use prox_obs::Json;
use prox_provenance::{ProvExpr, ValuationClass};
use prox_robust::fault::FaultGuard;
use prox_robust::ExecutionBudget;
use prox_serve::http::client_request_full;
use prox_serve::{Server, ServerConfig, ServerHandle};
use prox_store::{build_synthetic, SegmentStore, SynthSpec};

const SPEC: SynthSpec = SynthSpec {
    users: 60,
    movies: 30,
    unique_frames: 600,
    logical: 12_000,
    seed: 3,
};

fn build_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-serve-store-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
    }
    build_synthetic(&dir, &SPEC).expect("store builds");
    dir
}

fn start(store: Option<&Path>) -> ServerHandle {
    prox_obs::set_enabled(true);
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 16,
        default_budget_ms: 30_000,
        io_deadline_ms: 30_000,
        trace_sample_rate: 1.0,
        trace_capacity: 64,
        store_dir: store.map(|d| d.display().to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

/// POST a body; returns status, body, and the response's trace tree.
fn post(handle: &ServerHandle, body: &str) -> (u16, String, Json) {
    let addr = handle.addr().to_string();
    let (status, headers, text) = client_request_full(
        &addr,
        "POST",
        "/summarize/store",
        &[],
        body.as_bytes(),
        30_000,
    )
    .expect("request completes");
    let id = headers
        .iter()
        .find(|(n, _)| n == "x-prox-trace-id")
        .map(|(_, v)| v.clone())
        .expect("trace id on every response");
    let (_, _, tree) = client_request_full(
        &addr,
        "GET",
        &format!("/debug/traces/{id}"),
        &[],
        b"",
        10_000,
    )
    .expect("trace fetch");
    (status, text, Json::parse(&tree).expect("trace is JSON"))
}

fn request_span(tree: &Json) -> &Json {
    match tree.get("spans") {
        Some(Json::Arr(spans)) => spans.first().expect("a request span"),
        other => panic!("spans missing: {other:?}"),
    }
}

fn child<'a>(span: &'a Json, name: &str) -> Option<&'a Json> {
    match span.get("children") {
        Some(Json::Arr(children)) => children
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name)),
        _ => None,
    }
}

fn cache_note(tree: &Json) -> Option<String> {
    request_span(tree)
        .get("attrs")
        .and_then(|a| a.get("cache"))
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// The body fields a complete read must reproduce, computed the way the
/// full-fold route computed them.
fn reference(dir: &Path, objects: usize, steps: usize, w_dist: f64) -> Json {
    let mut store = SegmentStore::open(dir).expect("store opens");
    let mut session = ExecutionBudget::unlimited().start();
    let (expr, outcome) = store.collect(&mut session).expect("full fold");
    let mut selection = ProvExpr::new(expr.kind());
    let mut frames = 0u64;
    for (object, agg) in expr.entries().iter().take(objects) {
        for tensor in agg.tensors() {
            selection.push(*object, tensor.clone());
            frames += 1;
        }
    }
    let mut anns = store.anns().clone();
    let mut domains = Vec::new();
    for (_, ann) in anns.iter() {
        if !domains.contains(&ann.domain) {
            domains.push(ann.domain);
        }
    }
    let mut constraints = ConstraintConfig::new();
    for &d in &domains {
        constraints = constraints.allow(d, MergeRule::SharedAttribute { attrs: vec![] });
    }
    let valuations =
        ValuationClass::CancelSingleAttribute.generate(&anns, &selection.annotations(), &domains);
    let config = SummarizeConfig {
        w_dist,
        w_size: 1.0 - w_dist,
        target_dist: 1.0,
        target_size: 1,
        max_steps: steps,
        ..SummarizeConfig::default()
    };
    let result = Summarizer::new(&mut anns, constraints, config)
        .summarize(&selection, &valuations)
        .expect("reference summarizes");
    let names: Vec<Json> = result
        .summary
        .annotations()
        .into_iter()
        .map(|a| Json::from(anns.name(a)))
        .collect();
    Json::obj()
        .with(
            "fold",
            Json::obj()
                .with("logical_seen", outcome.logical_seen)
                .with("records_seen", outcome.records_seen)
                .with("stopped", false)
                .with("objects", expr.num_objects())
                .with("frames_read", frames),
        )
        .with("selected_objects", objects)
        .with("stop_reason", result.stop_reason.name())
        .with("initial_size", result.initial_size)
        .with("final_size", result.final_size())
        .with("final_distance", result.final_distance)
        .with("steps", result.history.len())
        .with("summary", Json::Arr(names))
}

fn body(objects: usize, steps: usize, w_dist: f64) -> String {
    format!(
        r#"{{"objects": {objects}, "steps": {steps}, "w_dist": {w_dist}, "target_dist": 1.0, "target_size": 1}}"#
    )
}

#[test]
fn complete_reads_match_the_full_fold_reference() {
    let _clean = FaultGuard::disabled();
    let dir = build_store("reference");
    let handle = start(Some(&dir));
    for (objects, steps, w_dist) in [(1, 2, 0.5), (2, 3, 0.3), (4, 4, 0.7), (1_000, 2, 0.5)] {
        let (status, text, tree) = post(&handle, &body(objects, steps, w_dist));
        assert_eq!(status, 200, "{text}");
        let got = Json::parse(&text).expect("body is JSON");
        let want = reference(&dir, objects, steps, w_dist);
        for field in [
            "fold",
            "selected_objects",
            "stop_reason",
            "initial_size",
            "final_size",
            "final_distance",
            "steps",
            "summary",
        ] {
            assert_eq!(
                got.get(field),
                want.get(field),
                "objects {objects}: field {field} in {text}"
            );
        }
        let fold = got.get("fold").expect("fold section");
        assert_eq!(
            fold.get("logical_seen").and_then(Json::as_u64),
            Some(SPEC.logical)
        );

        // The store layers appear under the request: the log pass, and
        // the frame reads and decodes tallied beneath it.
        let log = child(request_span(&tree), "store_log").expect("store_log span");
        for tally in ["store_read", "store_decode"] {
            let node = child(log, tally).unwrap_or_else(|| panic!("{tally} under store_log"));
            assert_eq!(
                node.get("attrs")
                    .and_then(|a| a.get("count"))
                    .and_then(Json::as_u64),
                fold.get("frames_read").and_then(Json::as_u64),
                "{tally} counts one interval per frame read"
            );
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_miss_then_a_byte_identical_hit() {
    let _clean = FaultGuard::disabled();
    let dir = build_store("cache");
    let handle = start(Some(&dir));
    let request = body(2, 3, 0.5);
    let (s1, b1, t1) = post(&handle, &request);
    let (s2, b2, t2) = post(&handle, &request);
    assert_eq!((s1, s2), (200, 200), "{b1} / {b2}");
    assert_eq!(cache_note(&t1).as_deref(), Some("miss"));
    assert_eq!(cache_note(&t2).as_deref(), Some("hit"));
    assert_eq!(b1, b2, "a cache hit replays the miss byte for byte");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_step_budget_trip_is_a_partial_200_that_is_not_cached() {
    let _clean = FaultGuard::disabled();
    let dir = build_store("budget");
    let handle = start(Some(&dir));
    let records = SegmentStore::open(&dir)
        .expect("store opens")
        .info()
        .log_entries;
    for budget_steps in [1, records / 2] {
        let request = format!(r#"{{"objects": 3, "steps": 2, "budget_steps": {budget_steps}}}"#);
        for _ in 0..2 {
            let (status, text, tree) = post(&handle, &request);
            assert_eq!(status, 200, "{text}");
            assert_eq!(cache_note(&tree).as_deref(), Some("miss"), "never cached");
            let got = Json::parse(&text).expect("body is JSON");
            let fold = got.get("fold").expect("fold section");
            assert_eq!(fold.get("stopped"), Some(&Json::Bool(true)), "{text}");
            assert_eq!(
                fold.get("records_seen").and_then(Json::as_u64),
                Some(budget_steps)
            );
            assert!(fold.get("logical_seen").and_then(Json::as_u64) < Some(SPEC.logical));
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_store_attached_is_a_client_error() {
    let _clean = FaultGuard::disabled();
    let handle = start(None);
    let (status, text, _) = post(&handle, &body(1, 1, 0.5));
    assert!((400..500).contains(&status), "{status}: {text}");
    handle.shutdown();
}

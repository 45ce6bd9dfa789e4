//! `/summarize/store` on the shared summarize skeleton, in process: knobs
//! are validated before the store is read, each route rejects the other
//! route's fields, and the store route sits behind the circuit breaker
//! and the `panic` fault site like `/summarize`.
//!
//! Own test binary: the fault plan is process-global, so every test holds
//! a `FaultGuard`.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::path::PathBuf;

use prox_obs::Json;
use prox_robust::fault::FaultGuard;
use prox_robust::CancelFlag;
use prox_serve::http::{Request, Response};
use prox_serve::service::{route, ServiceCtx, StoreState};
use prox_serve::BreakerConfig;
use prox_store::{build_synthetic, SynthSpec};

struct Store {
    dir: PathBuf,
    ctx: ServiceCtx,
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A small store behind a context whose breaker trips on one failure.
fn store(tag: &str) -> Store {
    let dir =
        std::env::temp_dir().join(format!("prox-store-pipeline-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
    }
    build_synthetic(
        &dir,
        &SynthSpec {
            users: 20,
            movies: 8,
            unique_frames: 120,
            logical: 1_000,
            seed: 4,
        },
    )
    .expect("store builds");
    let state = StoreState::open(&dir.display().to_string()).expect("store opens");
    let ctx = ServiceCtx::new(8, 30_000, CancelFlag::new())
        .with_store(state)
        .with_resilience(
            50.0,
            20.0,
            BreakerConfig {
                threshold: 1,
                ..BreakerConfig::default()
            },
        );
    Store { dir, ctx }
}

fn call(ctx: &ServiceCtx, method: &str, path: &str, body: &str) -> Response {
    route(
        &Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        },
        ctx,
    )
}

fn bytes_read(ctx: &ServiceCtx) -> u64 {
    let stats = call(ctx, "GET", "/store/stats", "");
    assert_eq!(stats.status, 200, "{}", stats.body);
    Json::parse(&stats.body)
        .expect("stats are JSON")
        .get("bytes_read")
        .and_then(Json::as_u64)
        .expect("bytes_read")
}

fn kind(resp: &Response) -> Option<String> {
    Json::parse(&resp.body)
        .ok()?
        .get("kind")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

#[test]
fn an_invalid_knob_is_a_400_before_the_store_is_read() {
    let _clean = FaultGuard::disabled();
    let s = store("validate");
    let before = bytes_read(&s.ctx);
    for body in [
        r#"{"w_dist": 1.5}"#,
        r#"{"target_dist": 2}"#,
        r#"{"target_size": 0}"#,
        r#"{"objects": 0}"#,
    ] {
        let resp = call(&s.ctx, "POST", "/summarize/store", body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert_eq!(kind(&resp).as_deref(), Some("input"), "{}", resp.body);
    }
    let resp = call(&s.ctx, "POST", "/summarize/store", r#"{"w_dist": 1.5}"#);
    assert!(
        resp.body.contains("wDist must lie in [0,1]"),
        "the summarizer's own validation message: {}",
        resp.body
    );
    assert_eq!(bytes_read(&s.ctx), before, "no store byte was read");
    // A valid request on the same context does read the store.
    let ok = call(&s.ctx, "POST", "/summarize/store", r#"{"objects": 1}"#);
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert!(bytes_read(&s.ctx) > before);
}

#[test]
fn each_route_rejects_the_other_routes_fields() {
    let _clean = FaultGuard::disabled();
    let s = store("fields");
    for body in [
        r#"{"dataset": "demo"}"#,
        r#"{"selection": {"all": true}}"#,
        r#"{"agg": "MAX"}"#,
        r#"{"cancel": {"annotations": ["u1"]}}"#,
    ] {
        let resp = call(&s.ctx, "POST", "/summarize/store", body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert!(resp.body.contains("unknown field"), "{}", resp.body);
    }
    for path in ["/summarize", "/provision"] {
        let resp = call(&s.ctx, "POST", path, r#"{"objects": 2}"#);
        assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        assert!(resp.body.contains("unknown field"), "{}", resp.body);
    }
}

#[test]
fn an_open_breaker_sheds_the_store_route_with_503_and_retry_after() {
    let _clean = FaultGuard::disabled();
    let s = store("breaker");
    let before = bytes_read(&s.ctx);
    s.ctx.breaker.record_failure();
    let resp = call(&s.ctx, "POST", "/summarize/store", r#"{"objects": 2}"#);
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.retry_after, Some(1));
    assert_eq!(kind(&resp).as_deref(), Some("overload"));
    assert_eq!(bytes_read(&s.ctx), before, "shed before any read");
}

#[test]
fn the_panic_fault_site_covers_the_store_route() {
    let _g = FaultGuard::install("panic@1:3").expect("valid spec");
    let s = store("panic");
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        call(&s.ctx, "POST", "/summarize/store", r#"{"objects": 1}"#)
    }));
    assert!(
        unwound.is_err(),
        "an armed panic clause fires on the store route"
    );
}

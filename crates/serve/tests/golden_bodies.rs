//! Golden response bodies: the exact bytes, `request_fingerprint`
//! included, of one request per summarize-family route. A change to
//! parsing, canonical keys, or the summarize pipeline that alters any
//! byte a client sees fails here.
//!
//! Requests run in process through [`route`], so no socket or obs state
//! is involved. The store body's fingerprint covers the store directory,
//! which is a per-process temp path; its key is pinned as a template
//! with the directory substituted.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use prox_robust::CancelFlag;
use prox_serve::fingerprint;
use prox_serve::http::Request;
use prox_serve::service::{route, ServiceCtx, StoreState};
use prox_store::{build_synthetic, SynthSpec};

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn ctx() -> ServiceCtx {
    ServiceCtx::new(8, 30_000, CancelFlag::new())
}

fn answer(ctx: &ServiceCtx, path: &str, body: &str) -> String {
    let resp = route(&post(path, body), ctx);
    assert_eq!(resp.status, 200, "{path} {body}: {}", resp.body);
    resp.body
}

#[test]
fn summarize_preset_body_is_pinned() {
    let got = answer(
        &ctx(),
        "/summarize",
        r#"{"dataset": "small", "steps": 3, "agg": "SUM", "w_dist": 0.7}"#,
    );
    assert_eq!(got, PRESET_BODY);
}

#[test]
fn summarize_inline_dataset_body_is_pinned() {
    let got = answer(
        &ctx(),
        "/summarize",
        r#"{"dataset": {"users": 12, "movies": 4, "ratings_per_user": 2, "seed": 5},
            "selection": {"all": true}, "steps": 4, "budget_steps": 2}"#,
    );
    assert_eq!(got, INLINE_BODY);
}

#[test]
fn provision_body_is_pinned() {
    let got = answer(
        &ctx(),
        "/provision",
        r#"{"dataset": "small", "steps": 3, "cancel": {"attributes": [["gender", "M"]]}}"#,
    );
    assert_eq!(got, PROVISION_BODY);
}

#[test]
fn summarize_store_body_is_pinned() {
    let dir = std::env::temp_dir().join(format!("prox-golden-store-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
    }
    build_synthetic(
        &dir,
        &SynthSpec {
            users: 30,
            movies: 12,
            unique_frames: 200,
            logical: 2_000,
            seed: 9,
        },
    )
    .expect("store builds");
    let dir_str = dir.display().to_string();
    let ctx = ctx().with_store(StoreState::open(&dir_str).expect("store opens"));
    let got = answer(
        &ctx,
        "/summarize/store",
        r#"{"objects": 2, "steps": 3, "w_dist": 0.6}"#,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let key = KEY.replace("{DIR}", &dir_str);
    let want = STORE_BODY.replace("{FP}", &fingerprint(&key));
    assert_eq!(got, want);
}

const PRESET_BODY: &str = r#"{"request_fingerprint":"25b27b1f147b4d98","dataset":"small","stop_reason":"max_steps","initial_size":111,"final_size":102,"final_distance":0.020774657896638238,"steps":3,"summary":["MatchPoint","Y1999","BlueJasmine","Y1997","PartyGirl","Y1998","ByeByeLove","Y2000","Sleepover","UID1","UID2","UID3","UID5","UID6","UID8","UID10","UID11","UID12","UID13","sales","F#2"]}"#;

const INLINE_BODY: &str = r#"{"request_fingerprint":"698f1672f994a51d","dataset":"custom","stop_reason":"budget_exhausted","initial_size":99,"final_size":75,"final_distance":0.0,"steps":2,"summary":["MatchPoint","Y2000","BlueJasmine","Y1999","PartyGirl","Y1991","ByeByeLove","Y2003","UID1","UID2","UID3","UID6","UID9","UID10","UID11","UID12","30xxx","45-49"]}"#;

const PROVISION_BODY: &str = r#"{"request_fingerprint":"78903941c7ce00e3","stop_reason":"max_steps","original":[{"title":"BlueJasmine","aggregated":4.0},{"title":"MatchPoint","aggregated":4.0},{"title":"PartyGirl","aggregated":4.0},{"title":"ByeByeLove","aggregated":4.0},{"title":"Sleepover","aggregated":4.0}],"summary":[{"title":"BlueJasmine","aggregated":4.0},{"title":"MatchPoint","aggregated":4.0},{"title":"PartyGirl","aggregated":4.0},{"title":"ByeByeLove","aggregated":4.0},{"title":"Sleepover","aggregated":4.0}]}"#;

/// The store route's canonical key, with `{DIR}` for the store directory.
const KEY: &str = r#"{"budget_steps":null,"objects":2,"steps":3,"store_dir":"{DIR}","target_dist":1.0,"target_size":1,"w_dist":0.6}"#;

/// `{FP}` is the fingerprint of [`KEY`].
const STORE_BODY: &str = r#"{"request_fingerprint":"{FP}","fold":{"logical_seen":2000,"records_seen":200,"stopped":false,"objects":12,"frames_read":36},"selected_objects":2,"stop_reason":"max_steps","initial_size":36,"final_size":21,"final_distance":0.0,"steps":3,"summary":["u1","u3","u4","u8","u9","u10","u12","u16","u18","u22","u25","u27","u29","m0","m1","M","M#2","M#3","F"]}"#;

//! Request handling: routing, parameter parsing, canonical request keys,
//! and the endpoint handlers.
//!
//! ## Endpoint contracts
//!
//! * `POST /summarize` — body (all fields optional): `dataset` (a preset
//!   name from [`presets`] or an inline `{users, movies, ratings_per_user,
//!   seed}` object), `selection` (`{"all": true}`, `{"search": s}`,
//!   `{"genre": g, "year": y}`, or `{"titles": [..]}`), `w_dist`,
//!   `target_dist`, `target_size`, `steps`, `agg` (`"MAX"|"MIN"|"SUM"|
//!   "COUNT"`), and `budget_steps` (a deterministic step cap). The
//!   wall-clock budget comes from the `X-Prox-Budget-Ms` header (server
//!   default otherwise); a mid-run budget trip returns `200` with the
//!   best-so-far summary and its `stop_reason`, only *upfront* exhaustion
//!   is `408`.
//! * `POST /provision` — the same fields plus a required `cancel`:
//!   `{"annotations": [names..]}` or `{"attributes": [[attr, value]..]}`;
//!   evaluates the assignment on both the original provenance and the
//!   summary (§7's provisioning view).
//! * `POST /summarize/store` — `objects` (how many of the attached
//!   store's objects to select, default 4) plus the shared knobs `w_dist`,
//!   `target_dist`, `target_size`, `steps` and `budget_steps`.
//! * `GET /store/stats` — the attached store's reader statistics.
//! * `GET /datasets` — the preset catalog with titles.
//! * `GET /healthz`, `GET /metrics` — liveness and the prox-obs snapshot.
//!
//! The two summarize routes share one parser ([`parse_params`]), one key
//! ([`canonical_key`]) and one skeleton: circuit-breaker admission, the
//! `panic` fault site, the budget, a cache probe, the compute step, and
//! caching of complete results. Invalid knobs are rejected while parsing,
//! before any dataset is generated or store page read.
//!
//! ## Error → status mapping
//!
//! [`ErrorKind::Input`] → 400, [`ErrorKind::Budget`] → 408,
//! [`ErrorKind::Internal`] → 500; unknown path → 404, wrong method → 405;
//! a full admission queue is shed by the server with 503 + `Retry-After`.
//!
//! ## Cache keying
//!
//! [`canonical_key`] renders every result-determining parameter — the
//! dataset generator config (including seed), selection and `agg`, or the
//! store directory and `objects`; weights, bounds, `budget_steps` — as
//! sorted JSON. Wall-clock budgets are deliberately excluded: they do not
//! change what a *completed* run returns, and runs cut short by
//! wall-clock (`deadline_exceeded`/`cancelled`) are never cached.
//! Identical seeded requests therefore produce byte-identical bodies
//! whether computed or served from cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prox_core::StopReason;
use prox_datasets::{MovieLens, MovieLensConfig};
use prox_obs::{
    keep_sampled, trace_id_from, window, Counter, Json, RetainReason, RetainedTrace, TraceContext,
    TraceRing, PROMETHEUS_CONTENT_TYPE,
};
use prox_provenance::{AggKind, ValuationClass};
use prox_robust::{CancelFlag, ErrorKind, ExecutionBudget, ProxError};
use prox_store::SegmentStore;
use prox_system::evaluator::{evaluate_both, Assignment, Evaluation};
use prox_system::selection::{select, Selection};
use prox_system::summarization::{summarize, summarize_workload, SummarizationRequest, Summarized};

use crate::breaker::{BreakerAdmission, BreakerConfig, CircuitBreaker};
use crate::cache::{fingerprint, SummaryCache};
use crate::health::{Health, HealthState};
use crate::http::{Request, Response};
use crate::lock;
use crate::ratelimit::{self, Admission, RateLimiter};

static REQUESTS: Counter = Counter::new("serve/requests");
static ERRORS: Counter = Counter::new("serve/errors");

/// Shared per-server state handed to every worker.
pub struct ServiceCtx {
    /// The response cache (LRU over canonical request keys).
    pub cache: Mutex<SummaryCache>,
    /// Wall-clock budget applied when no `X-Prox-Budget-Ms` is sent.
    pub default_budget_ms: u64,
    /// Cancelled on shutdown; every request budget carries a clone so
    /// in-flight runs degrade to best-so-far promptly.
    pub shutdown: CancelFlag,
    /// Process health (`healthy`/`degraded`/`draining`), fed by worker
    /// supervision and surfaced on `/healthz`.
    pub health: Health,
    /// Circuit breaker around the summarize path.
    pub breaker: CircuitBreaker,
    /// Per-tenant token buckets (`X-Prox-Tenant`).
    pub limiter: Mutex<RateLimiter>,
    /// Retained request traces, tail-sampled (`/debug/traces`).
    pub traces: TraceRing,
    /// Seed feeding both deterministic trace ids and the sampling hash.
    pub trace_seed: u64,
    /// Retention rate for *healthy* requests in `[0,1]`; errored,
    /// degraded, and slow requests are always retained.
    pub trace_sample_rate: f64,
    /// Slow-request threshold in milliseconds (`PROX_SLOW_MS`); `0`
    /// disables the slow classification and the slow-request log.
    pub slow_ms: u64,
    /// Optional segment store (`--store <dir>`): summaries on
    /// `/summarize/store` are served straight off its pages.
    pub store: Option<StoreState>,
    /// Process-local request sequence number (trace-id input).
    seq: AtomicU64,
}

/// An attached segment store and the directory it was opened from.
/// Reads mutate the page cache, so handlers lock the store per request.
pub struct StoreState {
    dir: String,
    store: Mutex<SegmentStore>,
}

impl StoreState {
    /// Open the store under `dir` with the default page-cache bounds.
    pub fn open(dir: &str) -> Result<StoreState, ProxError> {
        let store = SegmentStore::open(std::path::Path::new(dir))?;
        Ok(StoreState {
            dir: dir.to_owned(),
            store: Mutex::new(store),
        })
    }

    /// The directory the store was opened from.
    pub fn dir(&self) -> &str {
        &self.dir
    }
}

impl ServiceCtx {
    /// Fresh context with an empty cache and default trace settings
    /// (seed 0, retain every trace, ring of 128). The slow threshold
    /// comes from `PROX_SLOW_MS`.
    pub fn new(cache_capacity: usize, default_budget_ms: u64, shutdown: CancelFlag) -> Self {
        let deterministic = prox_obs::deterministic_mode();
        ServiceCtx {
            cache: Mutex::new(SummaryCache::new(cache_capacity)),
            default_budget_ms,
            shutdown,
            health: Health::new(),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            limiter: Mutex::new(RateLimiter::new(50.0, 20.0, deterministic)),
            traces: TraceRing::new(128),
            trace_seed: 0,
            trace_sample_rate: 1.0,
            slow_ms: slow_ms_from_env(),
            store: None,
            seq: AtomicU64::new(0),
        }
    }

    /// Attach an opened segment store (see [`StoreState::open`]); enables
    /// the `/summarize/store` and `/store/stats` endpoints.
    pub fn with_store(mut self, store: StoreState) -> Self {
        self.store = Some(store);
        self
    }

    /// Override the trace seed, healthy-request sample rate, and ring
    /// capacity (see [`crate::server::ServerConfig`]).
    pub fn with_trace_settings(mut self, seed: u64, sample_rate: f64, capacity: usize) -> Self {
        self.trace_seed = seed;
        self.trace_sample_rate = sample_rate;
        self.traces = TraceRing::new(capacity);
        self
    }

    /// Override the per-tenant bucket and circuit-breaker tunables (see
    /// [`crate::server::ServerConfig`]). The limiter's clock follows
    /// `PROX_DETERMINISTIC`.
    pub fn with_resilience(
        mut self,
        tenant_rate: f64,
        tenant_burst: f64,
        breaker: BreakerConfig,
    ) -> Self {
        let deterministic = prox_obs::deterministic_mode();
        self.limiter = Mutex::new(RateLimiter::new(tenant_rate, tenant_burst, deterministic));
        self.breaker = CircuitBreaker::new(breaker);
        self
    }
}

/// The slow-request threshold (`PROX_SLOW_MS`, milliseconds); unset,
/// empty, or unparseable means disabled.
fn slow_ms_from_env() -> u64 {
    std::env::var("PROX_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The built-in dataset catalog: `(name, generator config)`. `demo` is
/// [`MovieLensConfig::DEMO`], the CLI's default dataset.
pub fn presets() -> Vec<(&'static str, MovieLensConfig)> {
    vec![
        ("demo", MovieLensConfig::DEMO),
        (
            "small",
            MovieLensConfig {
                users: 15,
                movies: 5,
                ratings_per_user: 2,
                seed: 3,
            },
        ),
        (
            "dense",
            MovieLensConfig {
                users: 40,
                movies: 8,
                ratings_per_user: 3,
                seed: 11,
            },
        ),
        (
            "wide",
            MovieLensConfig {
                users: 20,
                movies: 14,
                ratings_per_user: 3,
                seed: 11,
            },
        ),
    ]
}

/// The summarize-family route a body is parsed for; each accepts only
/// its own source fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `/summarize` and `/provision`: a generated MovieLens dataset.
    Dataset,
    /// `/summarize/store`: the attached segment store.
    Store,
}

/// Where a request's provenance comes from.
#[derive(Clone, Debug)]
pub enum Source {
    /// A generated MovieLens dataset and a selection over its movies.
    Dataset {
        /// Generator config (from a preset or inline).
        config: MovieLensConfig,
        /// Catalog name, or `"custom"` for inline configs.
        name: String,
        /// What to select before summarizing.
        selection: Selection,
    },
    /// The attached segment store's first `objects` objects.
    Store {
        /// How many objects to select, in the store's object order.
        objects: usize,
    },
}

/// A fully resolved `/summarize`, `/provision` or `/summarize/store`
/// request.
#[derive(Clone, Debug)]
pub struct Params {
    /// The provenance to summarize.
    pub source: Source,
    /// The summarization knobs. Parsing leaves the budget unlimited; the
    /// route sets it from the request headers and `budget_steps`.
    pub request: SummarizationRequest,
    /// Optional deterministic budget step cap.
    pub budget_steps: Option<usize>,
    /// Provisioning assignment (`/provision` only).
    pub cancel: Option<Assignment>,
}

impl Params {
    /// Every field at its default for `route`.
    fn defaults(route: Route) -> Params {
        let mut request = SummarizationRequest::default();
        let source = match route {
            Route::Dataset => Source::Dataset {
                config: MovieLensConfig::DEMO,
                name: "demo".to_owned(),
                selection: Selection::All,
            },
            Route::Store => {
                request.valuation_class = ValuationClass::CancelSingleAttribute;
                Source::Store { objects: 4 }
            }
        };
        Params {
            source,
            request,
            budget_steps: None,
            cancel: None,
        }
    }
}

fn bad(message: impl Into<String>) -> ProxError {
    ProxError::config(message)
}

fn f64_of(value: &Json, what: &str) -> Result<f64, ProxError> {
    match value {
        Json::Float(f) => Ok(*f),
        Json::UInt(u) => Ok(*u as f64),
        Json::Int(i) => Ok(*i as f64),
        other => Err(bad(format!("{what} must be a number, got {other:?}"))),
    }
}

fn usize_of(value: &Json, what: &str) -> Result<usize, ProxError> {
    value
        .as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| bad(format!("{what} must be a non-negative integer")))
}

fn str_of<'a>(value: &'a Json, what: &str) -> Result<&'a str, ProxError> {
    value
        .as_str()
        .ok_or_else(|| bad(format!("{what} must be a string")))
}

fn agg_of(name: &str) -> Result<AggKind, ProxError> {
    match name {
        "MAX" => Ok(AggKind::Max),
        "MIN" => Ok(AggKind::Min),
        "SUM" => Ok(AggKind::Sum),
        "COUNT" => Ok(AggKind::Count),
        other => Err(bad(format!(
            "unknown agg {other:?} (expected MAX|MIN|SUM|COUNT)"
        ))),
    }
}

fn dataset_of(value: &Json) -> Result<(MovieLensConfig, String), ProxError> {
    if let Json::Str(name) = value {
        return presets()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(n, cfg)| (cfg, n.to_owned()))
            .ok_or_else(|| {
                bad(format!(
                    "unknown dataset preset {name:?} (see GET /datasets)"
                ))
            });
    }
    let entries = match value {
        Json::Obj(entries) => entries,
        other => {
            return Err(bad(format!(
                "dataset must be a preset name or an object, got {other:?}"
            )))
        }
    };
    let mut cfg = MovieLensConfig::DEMO;
    for (key, v) in entries {
        match key.as_str() {
            "users" => cfg.users = usize_of(v, "dataset.users")?,
            "movies" => cfg.movies = usize_of(v, "dataset.movies")?,
            "ratings_per_user" => cfg.ratings_per_user = usize_of(v, "dataset.ratings_per_user")?,
            "seed" => {
                cfg.seed = v
                    .as_u64()
                    .ok_or_else(|| bad("dataset.seed must be a non-negative integer"))?
            }
            other => return Err(bad(format!("unknown dataset field {other:?}"))),
        }
    }
    // Sanity caps: the generator is synthetic and cheap, but a service
    // endpoint must bound the work a single request can demand.
    if cfg.users == 0 || cfg.users > 2_000 {
        return Err(bad("dataset.users must be in 1..=2000"));
    }
    if cfg.movies == 0 || cfg.movies > 500 {
        return Err(bad("dataset.movies must be in 1..=500"));
    }
    if cfg.ratings_per_user == 0 || cfg.ratings_per_user > 50 {
        return Err(bad("dataset.ratings_per_user must be in 1..=50"));
    }
    Ok((cfg, "custom".to_owned()))
}

fn selection_of(value: &Json) -> Result<Selection, ProxError> {
    let entries = match value {
        Json::Obj(entries) => entries,
        other => return Err(bad(format!("selection must be an object, got {other:?}"))),
    };
    let mut genre: Option<String> = None;
    let mut year: Option<i32> = None;
    let mut picked: Option<Selection> = None;
    let mut saw_genre_year = false;
    for (key, v) in entries {
        match key.as_str() {
            "all" => picked = Some(Selection::All),
            "search" => picked = Some(Selection::Search(str_of(v, "selection.search")?.to_owned())),
            "titles" => picked = Some(Selection::Titles(strings_of(v, "selection.titles")?)),
            "genre" => {
                genre = Some(str_of(v, "selection.genre")?.to_owned());
                saw_genre_year = true;
            }
            "year" => {
                let y = f64_of(v, "selection.year")?;
                year = Some(y as i32);
                saw_genre_year = true;
            }
            other => return Err(bad(format!("unknown selection field {other:?}"))),
        }
    }
    match (picked, saw_genre_year) {
        (Some(_), true) => Err(bad("selection mixes genre/year with another form")),
        (Some(selection), false) => Ok(selection),
        (None, true) => Ok(Selection::GenreYear { genre, year }),
        (None, false) => Err(bad("selection object is empty")),
    }
}

/// Parse a JSON array of strings, naming `ctx` in any error.
fn strings_of(value: &Json, ctx: &str) -> Result<Vec<String>, ProxError> {
    let items = match value {
        Json::Arr(items) => items,
        other => return Err(bad(format!("{ctx} must be an array, got {other:?}"))),
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(str_of(item, ctx)?.to_owned());
    }
    Ok(out)
}

fn cancel_of(value: &Json) -> Result<Assignment, ProxError> {
    let entries = match value {
        Json::Obj(entries) => entries,
        other => return Err(bad(format!("cancel must be an object, got {other:?}"))),
    };
    if entries.len() != 1 {
        return Err(bad(
            "cancel must have exactly one of annotations|attributes",
        ));
    }
    let (key, v) = &entries[0];
    match key.as_str() {
        "annotations" => Ok(Assignment::FalseAnnotations(strings_of(
            v,
            "cancel.annotations",
        )?)),
        "attributes" => {
            let items = match v {
                Json::Arr(items) => items,
                other => {
                    return Err(bad(format!(
                        "cancel.attributes must be an array, got {other:?}"
                    )))
                }
            };
            let mut pairs = Vec::with_capacity(items.len());
            for pair in items {
                let parts = match pair {
                    Json::Arr(parts) if parts.len() == 2 => parts,
                    other => {
                        return Err(bad(format!(
                            "cancel.attributes[] must be [attr, value] pairs, got {other:?}"
                        )))
                    }
                };
                pairs.push((
                    str_of(&parts[0], "cancel.attributes[].attr")?.to_owned(),
                    str_of(&parts[1], "cancel.attributes[].value")?.to_owned(),
                ));
            }
            Ok(Assignment::FalseAttributes(pairs))
        }
        other => Err(bad(format!("unknown cancel form {other:?}"))),
    }
}

/// Parse a request body for `route` into [`Params`]. An empty body means
/// defaults; unknown fields, and fields of the other route, are rejected
/// so typos surface as `400`s. The knobs are validated here, before any
/// work: an invalid `w_dist` never generates a dataset or reads a store.
pub fn parse_params(body: &[u8], route: Route) -> Result<Params, ProxError> {
    let mut params = Params::defaults(route);
    let text = std::str::from_utf8(body)
        .map_err(|e| bad(format!("body is not UTF-8 at byte {}", e.valid_up_to())))?;
    if !text.trim().is_empty() {
        let value = Json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
        let entries = match &value {
            Json::Obj(entries) => entries,
            other => return Err(bad(format!("body must be a JSON object, got {other:?}"))),
        };
        for (key, v) in entries {
            let request = &mut params.request;
            match (key.as_str(), &mut params.source) {
                ("w_dist", _) => request.w_dist = f64_of(v, "w_dist")?,
                ("target_dist", _) => request.target_dist = f64_of(v, "target_dist")?,
                ("target_size", _) => request.target_size = usize_of(v, "target_size")?,
                ("steps", _) => request.steps = usize_of(v, "steps")?,
                ("budget_steps", _) => params.budget_steps = Some(usize_of(v, "budget_steps")?),
                ("dataset", Source::Dataset { config, name, .. }) => {
                    (*config, *name) = dataset_of(v)?;
                }
                ("selection", Source::Dataset { selection, .. }) => *selection = selection_of(v)?,
                ("agg", Source::Dataset { .. }) => request.aggregation = agg_of(str_of(v, "agg")?)?,
                ("cancel", Source::Dataset { .. }) => params.cancel = Some(cancel_of(v)?),
                ("objects", Source::Store { objects }) => *objects = usize_of(v, "objects")?,
                (other, _) => return Err(bad(format!("unknown field {other:?}"))),
            }
        }
    }
    if let Source::Store { objects: 0 } = params.source {
        return Err(bad("objects must be at least 1"));
    }
    params.request.config().validate()?;
    Ok(params)
}

fn selection_json(selection: &Selection) -> Json {
    match selection {
        Selection::All => Json::obj().with("all", true),
        Selection::Search(s) => Json::obj().with("search", s.as_str()),
        Selection::Titles(titles) => Json::obj().with(
            "titles",
            Json::Arr(titles.iter().map(|t| Json::from(t.as_str())).collect()),
        ),
        Selection::GenreYear { genre, year } => {
            let mut obj = Json::obj();
            if let Some(g) = genre {
                obj.set("genre", g.as_str());
            }
            if let Some(y) = year {
                obj.set("year", i64::from(*y));
            }
            obj
        }
    }
}

/// The canonical cache key: every result-determining parameter, sorted
/// and rendered. Both sources key on the shared knobs and
/// `budget_steps`; a dataset adds its generator config, selection and
/// `agg`, and a store adds `objects` and `store_dir`, the attached store's
/// directory, so restarting against a different store never replays stale
/// bodies. Wall-clock budgets are excluded by design (see module docs).
pub fn canonical_key(params: &Params, store_dir: Option<&str>) -> String {
    let request = &params.request;
    let mut key = Json::obj()
        .with("w_dist", request.w_dist)
        .with("target_dist", request.target_dist)
        .with("target_size", request.target_size)
        .with("steps", request.steps)
        .with(
            "budget_steps",
            match params.budget_steps {
                Some(n) => Json::from(n),
                None => Json::Null,
            },
        );
    match &params.source {
        Source::Dataset {
            config, selection, ..
        } => {
            key.set(
                "dataset",
                Json::obj()
                    .with("users", config.users)
                    .with("movies", config.movies)
                    .with("ratings_per_user", config.ratings_per_user)
                    .with("seed", config.seed),
            );
            key.set("selection", selection_json(selection));
            key.set("agg", request.aggregation.name());
        }
        Source::Store { objects } => {
            key.set("store_dir", store_dir.unwrap_or_default());
            key.set("objects", *objects);
        }
    }
    key.sorted().render()
}

/// Whether a result may be cached: runs cut short by wall-clock or
/// cancellation are not reproducible from the request alone.
fn cacheable(reason: StopReason) -> bool {
    !matches!(reason, StopReason::DeadlineExceeded | StopReason::Cancelled)
}

/// The typed 500 a supervised worker writes after catching a panicking
/// handler: the connection is still answered (never hung or reset), the
/// worker lives on, and the panic is visible in `serve/worker_panics`.
pub fn panic_response() -> Response {
    ERRORS.incr();
    Response::json(
        500,
        Json::obj()
            .with("error", "request handler panicked; worker recovered")
            .with("kind", "internal")
            .render(),
    )
}

/// Map a typed error onto the HTTP surface.
pub fn error_response(e: &ProxError) -> Response {
    ERRORS.incr();
    let status = match e.kind() {
        ErrorKind::Input => 400,
        ErrorKind::Budget => 408,
        ErrorKind::Internal => 500,
    };
    Response::json(
        status,
        Json::obj()
            .with("error", e.to_string())
            .with("kind", e.kind().to_string())
            .render(),
    )
}

fn budget_for(
    req: &Request,
    ctx: &ServiceCtx,
    budget_steps: Option<usize>,
    trace: Option<&TraceContext>,
) -> Result<ExecutionBudget, ProxError> {
    let ms = match req.header("x-prox-budget-ms") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| bad(format!("X-Prox-Budget-Ms must be an integer, got {v:?}")))?,
        None => ctx.default_budget_ms,
    };
    let mut budget = ExecutionBudget::unlimited()
        .with_deadline_ms(ms)
        .with_cancel(ctx.shutdown.clone());
    if let Some(steps) = budget_steps {
        budget = budget.with_max_steps(steps);
    }
    // The trace rides the budget into the summarizer, HAC, and candidate
    // enumeration — it is not a limit (see `ExecutionBudget::with_trace`).
    if let Some(t) = trace {
        budget = budget.with_trace(t.clone());
    }
    Ok(budget)
}

const NO_STORE: &str = "no segment store attached — start with --store <dir>";

/// Generate a dataset source, select from it, and summarize the selection.
fn run_summarize(params: &Params) -> Result<(MovieLens, Summarized), ProxError> {
    let Source::Dataset {
        config, selection, ..
    } = &params.source
    else {
        return Err(bad("expected a dataset request"));
    };
    let mut data = MovieLens::generate(*config);
    let selected = select(&mut data, selection, params.request.aggregation);
    if selected.movies.is_empty() {
        return Err(bad("selection matched no movies"));
    }
    let out = summarize(&mut data, &selected, params.request.clone())?;
    Ok((data, out))
}

/// Read the store's first `objects` objects, summarize them, and render
/// the `/summarize/store` body. The read streams and checksums the whole
/// log under the request budget but reads only the selected objects'
/// frames through the page cache (`fold.frames_read`). A budget trip
/// mid-log is still a `200` over the selected frames replayed so far,
/// with `fold.stopped: true`. Returns the body and whether it may be
/// cached.
fn store_summary(
    state: &StoreState,
    objects: usize,
    request: &SummarizationRequest,
    fp: &str,
) -> Result<(String, bool), ProxError> {
    // The store guard is scoped to the read and dropped before the
    // response cache is touched again: cache and store locks are never
    // held together, in either order.
    let mut session = request.budget.start();
    let (selection, outcome, num_objects, mut anns) = {
        let mut store = lock(&state.store);
        let (selection, outcome) = store.collect_objects(&mut session, objects)?;
        (
            selection,
            outcome,
            store.num_objects(),
            store.anns().clone(),
        )
    };
    let result = summarize_workload(&mut anns, &selection, request)?;
    let names: Vec<Json> = result
        .summary
        .annotations()
        .into_iter()
        .map(|a| Json::from(anns.name(a)))
        .collect();
    let body = Json::obj()
        .with("request_fingerprint", fp)
        .with(
            "fold",
            Json::obj()
                .with("logical_seen", outcome.logical_seen)
                .with("records_seen", outcome.records_seen)
                .with("stopped", outcome.stopped.is_some())
                .with("objects", num_objects)
                .with("frames_read", outcome.frames_read),
        )
        .with("selected_objects", objects)
        .with("stop_reason", result.stop_reason.name())
        .with("initial_size", result.initial_size)
        .with("final_size", result.final_size())
        .with("final_distance", result.final_distance)
        .with("steps", result.history.len())
        .with("summary", Json::Arr(names))
        .render();
    // A read cut short by wall-clock is not reproducible from the
    // request alone.
    Ok((
        body,
        outcome.stopped.is_none() && cacheable(result.stop_reason),
    ))
}

/// The compute step of the summarize skeleton: the rendered `200` body
/// and whether it may be cached.
fn compute(
    params: &Params,
    store: Option<&StoreState>,
    fp: &str,
) -> Result<(String, bool), ProxError> {
    match &params.source {
        Source::Dataset { name, .. } => {
            let (data, out) = run_summarize(params)?;
            let names: Vec<Json> = out
                .result
                .summary
                .annotations()
                .into_iter()
                .map(|a| Json::from(data.store.name(a)))
                .collect();
            let body = Json::obj()
                .with("request_fingerprint", fp)
                .with("dataset", name.as_str())
                .with("stop_reason", out.result.stop_reason.name())
                .with("initial_size", out.result.initial_size)
                .with("final_size", out.result.final_size())
                .with("final_distance", out.result.final_distance)
                .with("steps", out.result.history.len())
                .with("summary", Json::Arr(names))
                .render();
            Ok((body, cacheable(out.result.stop_reason)))
        }
        Source::Store { objects } => {
            let state = store.ok_or_else(|| bad(NO_STORE))?;
            store_summary(state, *objects, &params.request, fp)
        }
    }
}

/// The `503` an open circuit breaker answers with.
fn breaker_shed_response(retry_after_secs: u64) -> Response {
    let mut resp = Response::json(
        503,
        Json::obj()
            .with("error", "summarize circuit breaker open")
            .with("kind", "overload")
            .render(),
    );
    resp.retry_after = Some(retry_after_secs);
    resp
}

/// `POST /summarize` and `POST /summarize/store`: parse, then one
/// skeleton for both sources — breaker admission, the `panic` fault
/// site, the budget, a cache probe, the compute step, and caching of a
/// complete result.
fn summarize_route(
    req: &Request,
    ctx: &ServiceCtx,
    route: Route,
    trace: Option<&TraceContext>,
) -> Result<Response, ProxError> {
    // Without an attached store the store route is a 400 before parsing.
    let store = match route {
        Route::Dataset => None,
        Route::Store => Some(ctx.store.as_ref().ok_or_else(|| bad(NO_STORE))?),
    };
    let mut params = parse_params(&req.body, route)?;
    // Circuit breaker: while open, shed fast — before budgets, cache
    // probes, or any summarization work is queued.
    if let BreakerAdmission::Shed { retry_after_secs } = ctx.breaker.admit() {
        if let Some(t) = trace {
            t.note("breaker", "shed");
        }
        return Ok(breaker_shed_response(retry_after_secs));
    }
    // Fault site: an armed `panic` clause unwinds from here through the
    // worker supervision boundary, which answers a typed 500.
    prox_robust::fault::maybe_panic();
    params.request.budget = budget_for(req, ctx, params.budget_steps, trace)?;
    let key = canonical_key(&params, store.map(StoreState::dir));
    if let Some(body) = lock(&ctx.cache).get(&key) {
        if let Some(t) = trace {
            t.note("cache", "hit");
        }
        ctx.breaker.record_success();
        return Ok(Response::json(200, body));
    }
    if let Some(t) = trace {
        t.note("cache", "miss");
    }
    let (body, cacheable) = match compute(&params, store, &fingerprint(&key)) {
        Ok(v) => v,
        Err(e) => {
            // Only internal faults feed the breaker: client errors (400)
            // and budget exhaustion (408) say nothing about path health.
            if e.kind() == ErrorKind::Internal {
                ctx.breaker.record_failure();
            }
            return Err(e);
        }
    };
    ctx.breaker.record_success();
    if cacheable {
        lock(&ctx.cache).put(key, body.clone());
    }
    Ok(Response::json(200, body))
}

fn rows_json(eval: &Evaluation) -> Json {
    // `eval_time_ns` is wall-clock and deliberately omitted: response
    // bodies must be byte-stable for identical seeded requests (rule L2).
    Json::Arr(
        eval.rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("title", r.title.as_str())
                    .with("aggregated", r.aggregated)
            })
            .collect(),
    )
}

fn provision_route(
    req: &Request,
    ctx: &ServiceCtx,
    trace: Option<&TraceContext>,
) -> Result<Response, ProxError> {
    let mut params = parse_params(&req.body, Route::Dataset)?;
    let assignment = params
        .cancel
        .clone()
        .ok_or_else(|| bad("/provision requires a cancel field"))?;
    params.request.budget = budget_for(req, ctx, params.budget_steps, trace)?;
    let key = canonical_key(&params, None);
    let (data, out) = run_summarize(&params)?;
    let (orig, summ) = evaluate_both(&out.original, &out.result.summary, &assignment, &data.store);
    let body = Json::obj()
        .with("request_fingerprint", fingerprint(&key).as_str())
        .with("stop_reason", out.result.stop_reason.name())
        .with("original", rows_json(&orig))
        .with("summary", rows_json(&summ))
        .render();
    Ok(Response::json(200, body))
}

/// `GET /store/stats`: the attached store's reader statistics (segment
/// counts, dedup ratio, page-cache hit rate) — the data behind the
/// `prox stats` store section.
fn store_stats_response(ctx: &ServiceCtx) -> Response {
    match &ctx.store {
        Some(state) => Response::json(200, lock(&state.store).stats_json().sorted().render()),
        None => Response::json(404, Json::obj().with("error", NO_STORE).render()),
    }
}

fn datasets_response() -> Response {
    let mut items = Vec::new();
    for (name, cfg) in presets() {
        let data = MovieLens::generate(cfg);
        let titles: Vec<Json> = data
            .movies
            .iter()
            .map(|&m| Json::from(data.store.name(m)))
            .collect();
        items.push(
            Json::obj()
                .with("name", name)
                .with("users", cfg.users)
                .with("movies", cfg.movies)
                .with("ratings_per_user", cfg.ratings_per_user)
                .with("seed", cfg.seed)
                .with("titles", Json::Arr(titles)),
        );
    }
    Response::json(200, Json::obj().with("datasets", Json::Arr(items)).render())
}

/// Dispatch one parsed request (untraced; see [`respond`] for the worker
/// loop's traced entry point).
pub fn route(req: &Request, ctx: &ServiceCtx) -> Response {
    route_traced(req, ctx, None)
}

/// The resilience snapshot served on `/metrics.json` and rendered by
/// `prox stats`: health state, breaker state, panic/denial counters, and
/// the per-tenant 429 tally.
pub fn resilience_json(ctx: &ServiceCtx) -> Json {
    let mut tenants = Json::obj();
    for (tenant, denied) in ratelimit::tenant_denials() {
        tenants.set(tenant.as_str(), denied);
    }
    Json::obj()
        .with("health", ctx.health.state().name())
        .with("breaker", ctx.breaker.state().name())
        .with(
            "worker_panics",
            prox_obs::counter_value("serve/worker_panics").unwrap_or(0),
        )
        .with(
            "rate_limited",
            prox_obs::counter_value("serve/rate_limited").unwrap_or(0),
        )
        .with("tenant_429", tenants)
}

/// Gate a tenant-labelled mutation through the token-bucket limiter;
/// `Some` is the finished `429` + `Retry-After` response.
fn tenant_gate(req: &Request, ctx: &ServiceCtx, trace: Option<&TraceContext>) -> Option<Response> {
    let tenant = req.header("x-prox-tenant")?;
    match lock(&ctx.limiter).admit(tenant) {
        Admission::Admit => None,
        Admission::Deny { retry_after_secs } => {
            if let Some(t) = trace {
                t.note("rate_limited", tenant);
            }
            let mut resp = Response::json(
                429,
                Json::obj()
                    .with("error", format!("tenant {tenant:?} rate limited"))
                    .with("kind", "rate_limited")
                    .render(),
            );
            resp.retry_after = Some(retry_after_secs);
            Some(resp)
        }
    }
}

fn route_traced(req: &Request, ctx: &ServiceCtx, trace: Option<&TraceContext>) -> Response {
    REQUESTS.incr();
    // Per-tenant admission runs before any handler work: a hot tenant is
    // answered 429 on the spot, without touching budgets or the cache.
    if matches!(
        (req.method.as_str(), req.path.as_str()),
        ("POST", "/summarize") | ("POST", "/provision") | ("POST", "/summarize/store")
    ) {
        if let Some(denied) = tenant_gate(req, ctx, trace) {
            return denied;
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let state = ctx.health.state();
            let body = Json::obj()
                .with(
                    "status",
                    if state == HealthState::Draining {
                        "draining"
                    } else {
                        "ok"
                    },
                )
                .with("state", state.name())
                .render();
            if state == HealthState::Draining {
                // Load balancers must stop routing to a dying process.
                let mut resp = Response::json(503, body);
                resp.retry_after = Some(1);
                resp
            } else {
                Response::json(200, body)
            }
        }
        // Prometheus text exposition; the JSON snapshot moved to
        // `/metrics.json`. Deterministic mode omits wall-clock series.
        ("GET", "/metrics") => Response::text(
            200,
            PROMETHEUS_CONTENT_TYPE,
            prox_obs::render_prometheus(prox_obs::deterministic_mode()),
        ),
        ("GET", "/metrics.json") => Response::json(
            200,
            prox_obs::snapshot()
                .with(
                    "window",
                    window::window_json(prox_obs::deterministic_mode()),
                )
                .with(
                    "memory",
                    prox_obs::alloc::memory_json(prox_obs::deterministic_mode()),
                )
                .with("resilience", resilience_json(ctx))
                .sorted()
                .render(),
        ),
        ("GET", "/datasets") => datasets_response(),
        ("GET", "/debug/traces") => Response::json(200, ctx.traces.list_json().render()),
        ("POST", "/summarize") => {
            summarize_route(req, ctx, Route::Dataset, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("POST", "/provision") => {
            provision_route(req, ctx, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("POST", "/summarize/store") => {
            summarize_route(req, ctx, Route::Store, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("GET", "/store/stats") => store_stats_response(ctx),
        ("GET", path) if path.starts_with("/debug/traces/") => {
            let id = &path["/debug/traces/".len()..];
            match ctx.traces.get_json(id) {
                Some(tree) => Response::json(200, tree.render()),
                None => Response::json(
                    404,
                    Json::obj()
                        .with("error", format!("no retained trace {id:?}"))
                        .render(),
                ),
            }
        }
        (
            _,
            "/healthz" | "/metrics" | "/metrics.json" | "/datasets" | "/summarize" | "/provision"
            | "/summarize/store" | "/store/stats" | "/debug/traces",
        ) => Response::json(
            405,
            Json::obj()
                .with("error", format!("method {} not allowed here", req.method))
                .render(),
        ),
        (_, path) => Response::json(
            404,
            Json::obj()
                .with("error", format!("no such path {path:?}"))
                .render(),
        ),
    }
}

/// Handle one connection's parse result end to end. While observability
/// is enabled this creates the request's [`TraceContext`] (root span
/// `"request"`), routes, classifies the finished request for
/// tail-sampling (error > degraded > slow > sampled), records it in the
/// sliding window, logs slow requests to the JSONL sink, and stamps
/// `X-Prox-Trace-Id` on the response. Disabled cost is one relaxed
/// atomic load (the workspace cost model).
pub fn respond(parsed: Result<Request, ProxError>, ctx: &ServiceCtx) -> Response {
    if !prox_obs::enabled() {
        return match &parsed {
            Ok(req) => route_traced(req, ctx, None),
            Err(e) => error_response(e),
        };
    }
    let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
    let trace = TraceContext::new(trace_id_from(ctx.trace_seed, seq));
    let endpoint = match &parsed {
        // Query strings never reach routing decisions, so strip them from
        // the metrics endpoint label to bound cardinality.
        Ok(req) => req
            .path
            .split('?')
            .next()
            .unwrap_or(req.path.as_str())
            .to_owned(),
        Err(_) => "<unparsed>".to_owned(),
    };
    let t0 = Instant::now();
    let response = {
        let root = trace.span("request");
        trace.note("endpoint", endpoint.as_str());
        if let Ok(req) = &parsed {
            trace.note("method", req.method.as_str());
        }
        let response = match &parsed {
            Ok(req) => route_traced(req, ctx, Some(&trace)),
            Err(e) => error_response(e),
        };
        trace.note("status", u64::from(response.status));
        drop(root);
        response
    };
    let dur_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);

    let stop = trace.find_attr("stop_reason");
    let degraded = matches!(
        stop.as_ref().and_then(Json::as_str),
        Some("deadline_exceeded" | "budget_exhausted" | "cancelled")
    );
    let cache = trace.find_attr("cache");
    window::record_request(&window::RequestObservation {
        endpoint: &endpoint,
        status: response.status,
        dur_us,
        degraded,
        cache: cache.as_ref().and_then(Json::as_str).map(|v| v == "hit"),
    });

    let slow = ctx.slow_ms > 0 && dur_us >= ctx.slow_ms.saturating_mul(1_000);
    if slow {
        prox_obs::emit_event(
            Json::obj()
                .with("type", "slow_request")
                .with("endpoint", endpoint.as_str())
                .with("dur_us", dur_us)
                .with("trace", trace.to_json()),
        );
    }
    let reason = if response.status >= 400 {
        Some(RetainReason::Error)
    } else if degraded {
        Some(RetainReason::Degraded)
    } else if slow {
        Some(RetainReason::Slow)
    } else if keep_sampled(ctx.trace_seed, trace.trace_id(), ctx.trace_sample_rate) {
        Some(RetainReason::Sampled)
    } else {
        None
    };
    let id_hex = trace.id_hex();
    if let Some(reason) = reason {
        ctx.traces.push(RetainedTrace {
            trace_id: id_hex.clone(),
            endpoint,
            status: response.status,
            dur_us,
            reason,
            tree: trace.to_json(),
        });
    }
    response.with_header("X-Prox-Trace-Id", id_hex)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn ctx() -> ServiceCtx {
        ServiceCtx::new(8, 5_000, CancelFlag::new())
    }

    #[test]
    fn defaults_parse_from_empty_body() {
        let p = parse_params(b"", Route::Dataset).unwrap();
        assert!(matches!(
            &p.source,
            Source::Dataset { name, selection: Selection::All, .. } if name == "demo"
        ));
        assert_eq!(p.request.steps, 10);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(parse_params(br#"{"wdist": 0.5}"#, Route::Dataset).is_err());
        assert!(parse_params(br#"{"dataset": {"zap": 1}}"#, Route::Dataset).is_err());
        assert!(parse_params(br#"{"selection": {"nope": 1}}"#, Route::Dataset).is_err());
    }

    #[test]
    fn dataset_caps_are_enforced() {
        assert!(parse_params(br#"{"dataset": {"users": 0}}"#, Route::Dataset).is_err());
        assert!(parse_params(br#"{"dataset": {"users": 100000}}"#, Route::Dataset).is_err());
        assert!(parse_params(br#"{"dataset": "nope"}"#, Route::Dataset).is_err());
        let p = parse_params(br#"{"dataset": "small"}"#, Route::Dataset).unwrap();
        assert!(matches!(
            &p.source,
            Source::Dataset { config, name, .. } if config.users == 15 && name == "small"
        ));
    }

    #[test]
    fn selection_forms_parse() {
        let selection = |body: &[u8]| match parse_params(body, Route::Dataset).unwrap().source {
            Source::Dataset { selection, .. } => selection,
            other => panic!("not a dataset source: {other:?}"),
        };
        assert!(matches!(
            selection(br#"{"selection": {"search": "the"}}"#),
            Selection::Search(_)
        ));
        assert!(matches!(
            selection(br#"{"selection": {"genre": "Drama", "year": 1995}}"#),
            Selection::GenreYear { .. }
        ));
        assert!(matches!(
            selection(br#"{"selection": {"titles": ["Sleepover"]}}"#),
            Selection::Titles(_)
        ));
        assert!(parse_params(
            br#"{"selection": {"all": true, "year": 1}}"#,
            Route::Dataset
        )
        .is_err());
        assert!(parse_params(br#"{"selection": {}}"#, Route::Dataset).is_err());
    }

    #[test]
    fn canonical_key_ignores_field_order_and_separates_requests() {
        let a = parse_params(br#"{"w_dist": 0.7, "steps": 8}"#, Route::Dataset).unwrap();
        let b = parse_params(br#"{"steps": 8, "w_dist": 0.7}"#, Route::Dataset).unwrap();
        assert_eq!(canonical_key(&a, None), canonical_key(&b, None));
        let c = parse_params(br#"{"w_dist": 0.7, "steps": 9}"#, Route::Dataset).unwrap();
        assert_ne!(canonical_key(&a, None), canonical_key(&c, None));
    }

    #[test]
    fn summarize_route_is_deterministic_and_cached() {
        let ctx = ctx();
        let req = post("/summarize", r#"{"steps": 4}"#);
        let first = route(&req, &ctx);
        assert_eq!(first.status, 200, "{}", first.body);
        let second = route(&req, &ctx);
        assert_eq!(first.body, second.body, "cache hit must be byte-identical");
        assert_eq!(lock(&ctx.cache).len(), 1);
    }

    #[test]
    fn malformed_body_is_a_400() {
        let resp = route(&post("/summarize", "{nope"), &ctx());
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"kind\""));
    }

    #[test]
    fn invalid_wdist_is_a_400() {
        let resp = route(&post("/summarize", r#"{"w_dist": 1.5}"#), &ctx());
        assert_eq!(resp.status, 400, "{}", resp.body);
    }

    #[test]
    fn deterministic_step_budget_degrades_to_200() {
        let resp = route(
            &post("/summarize", r#"{"budget_steps": 2, "steps": 8}"#),
            &ctx(),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(
            body.get("stop_reason").and_then(Json::as_str),
            Some("budget_exhausted")
        );
    }

    #[test]
    fn upfront_exhausted_budget_is_a_408() {
        let mut req = post("/summarize", "");
        req.headers.push(("x-prox-budget-ms".into(), "0".into()));
        let resp = route(&req, &ctx());
        assert_eq!(resp.status, 408, "{}", resp.body);
    }

    #[test]
    fn provision_requires_cancel_and_reports_both_tables() {
        let ctx = ctx();
        let resp = route(&post("/provision", "{}"), &ctx);
        assert_eq!(resp.status, 400);
        let resp = route(
            &post(
                "/provision",
                r#"{"cancel": {"attributes": [["gender", "M"]]}}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert!(matches!(body.get("original"), Some(Json::Arr(_))));
        assert!(matches!(body.get("summary"), Some(Json::Arr(_))));
        assert!(
            body.get("eval_time_ns").is_none(),
            "wall-clock must not leak"
        );
    }

    #[test]
    fn routing_covers_known_paths_and_methods() {
        let ctx = ctx();
        let get = |path: &str| Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(route(&get("/healthz"), &ctx).status, 200);
        assert_eq!(route(&get("/datasets"), &ctx).status, 200);
        assert_eq!(route(&get("/summarize"), &ctx).status, 405);
        assert_eq!(route(&get("/nope"), &ctx).status, 404);
        let datasets = Json::parse(&route(&get("/datasets"), &ctx).body).unwrap();
        let items = match datasets.get("datasets") {
            Some(Json::Arr(items)) => items,
            other => panic!("datasets not an array: {other:?}"),
        };
        assert_eq!(items.len(), presets().len());
        assert!(matches!(items[0].get("titles"), Some(Json::Arr(_))));
    }
}

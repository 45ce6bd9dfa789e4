//! Differential test: the selective read (`SegmentStore::collect_objects`)
//! against the full fold (`SegmentStore::collect`) it replaces on the
//! `/summarize/store` path.
//!
//! Random stores come from the workspace's splitmix64 generator
//! ([`prox_robust::fault::DetRng`]), so every failure replays from its
//! seed. Each store mixes fingerprints that recur across non-adjacent log
//! runs, objects whose ids interleave with non-object annotations, and
//! frames spread over all sixteen shards; it is read through a page cache
//! far smaller than its segments.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use prox_provenance::{AggKind, AggValue, AnnId, AnnStore, Polynomial, ProvExpr, Tensor};
use prox_robust::fault::{DetRng, FaultGuard};
use prox_robust::{BudgetStop, ExecutionBudget};
use prox_store::{SegmentStore, StoreBuilder};

/// Random stores per aggregation kind.
const STORES: u64 = 6;
const PAGE_BYTES: usize = 256;
const CACHE_BYTES: usize = 1024;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-store-sel-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
    }
    dir
}

/// Build a random store: 4–12 objects whose ids interleave with user
/// annotations, a pool of distinct `(object, tensor)` entries, and a log
/// that revisits pool entries in random order with random run lengths.
/// Returns the store's logical size.
fn build_random(dir: &Path, agg: AggKind, rng: &mut DetRng) -> u64 {
    let mut anns = AnnStore::new();
    let mut users = Vec::new();
    let mut objects = Vec::new();
    let n_objects = 4 + rng.below(9);
    for i in 0..3 * n_objects {
        if i % 3 == 1 {
            objects.push(anns.add_base_with(&format!("m{i}"), "movie", &[("genre", "g")]));
        } else {
            let gender = ["F", "M"][rng.below(2)];
            users.push(anns.add_base_with(&format!("u{i}"), "user", &[("gender", gender)]));
        }
    }
    let pool: Vec<(AnnId, Tensor)> = (0..40 + rng.below(80))
        .map(|_| {
            let object = objects[rng.below(objects.len())];
            let user = users[rng.below(users.len())];
            let value = AggValue::single(0.5 * (1 + rng.below(10)) as f64);
            (object, Tensor::new(Polynomial::var(user), value))
        })
        .collect();
    let mut builder = StoreBuilder::create(dir, &anns, agg).expect("store dir is creatable");
    let mut logical = 0;
    for _ in 0..3 * pool.len() {
        let (object, tensor) = &pool[rng.below(pool.len())];
        let n = 1 + rng.below(4) as u64;
        builder.append(*object, tensor, n).expect("append succeeds");
        logical += n;
    }
    builder.finish().expect("store finishes");
    logical
}

/// The first `n` entries of `full`, as their own expression.
fn first_objects(full: &ProvExpr, n: usize) -> ProvExpr {
    let mut out = ProvExpr::new(full.kind());
    for (object, agg) in full.entries().iter().take(n) {
        for tensor in agg.tensors() {
            out.push(*object, tensor.clone());
        }
    }
    out
}

fn tensors(expr: &ProvExpr) -> u64 {
    expr.entries()
        .iter()
        .map(|(_, agg)| agg.tensors().len() as u64)
        .sum()
}

#[test]
fn selective_read_equals_the_prefix_of_a_full_fold() {
    let _clean = FaultGuard::disabled();
    let mut rng = DetRng::new(0x005E_1EC7);
    for agg in [AggKind::Max, AggKind::Sum] {
        for case in 0..STORES {
            let dir = scratch(&format!("{}-{case}", agg.name()));
            let logical = build_random(&dir, agg, &mut rng);
            let mut store =
                SegmentStore::open_with(&dir, PAGE_BYTES, CACHE_BYTES).expect("fresh store opens");
            let mut session = ExecutionBudget::unlimited().start();
            let (full, full_outcome) = store.collect(&mut session).expect("full fold");
            assert_eq!(full_outcome.logical_seen, logical);
            assert_eq!(full_outcome.frames_read, store.info().unique);
            assert_eq!(store.num_objects(), full.num_objects(), "index objects");
            assert!(
                store.info().segments.len() >= 8,
                "frames spread over shards"
            );
            let all = full.num_objects();
            for n in [0, 1, 2, 4, all, all + 3] {
                let mut session = ExecutionBudget::unlimited().start();
                let (selected, outcome) = store
                    .collect_objects(&mut session, n)
                    .expect("selective read");
                let want = first_objects(&full, n);
                assert_eq!(
                    selected,
                    want,
                    "{} case {case}: first {n} objects",
                    agg.name()
                );
                assert_eq!(outcome.logical_seen, full_outcome.logical_seen);
                assert_eq!(outcome.records_seen, full_outcome.records_seen);
                assert!(outcome.stopped.is_none());
                assert_eq!(outcome.frames_read, tensors(&want), "each frame once");
            }
            let cache = store.cache_stats();
            assert!(
                cache.peak_bytes <= cache.capacity_bytes,
                "page cache peaked at {} over its {}-byte ceiling",
                cache.peak_bytes,
                cache.capacity_bytes
            );
            assert!(cache.evictions > 0, "the cache is smaller than the store");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A step budget that trips mid-log returns a partial outcome, not an
/// error: the selected objects' frames among the records replayed before
/// the trip, which is the same restriction of a full fold stopped at the
/// same record.
#[test]
fn step_budget_trip_returns_the_selected_part_of_the_replayed_prefix() {
    let _clean = FaultGuard::disabled();
    let mut rng = DetRng::new(0x00B0_D6E7);
    let dir = scratch("budget");
    build_random(&dir, AggKind::Sum, &mut rng);
    let mut store =
        SegmentStore::open_with(&dir, PAGE_BYTES, CACHE_BYTES).expect("fresh store opens");
    let mut session = ExecutionBudget::unlimited().start();
    let (full, full_outcome) = store.collect(&mut session).expect("full fold");
    let records = full_outcome.records_seen as usize;
    for n in [1, 2, 4] {
        let wanted: Vec<AnnId> = full.entries().iter().take(n).map(|(o, _)| *o).collect();
        for steps in [0, 1, records / 3, records - 1] {
            let budget = ExecutionBudget::unlimited().with_max_steps(steps);
            let mut session = budget.start();
            let (partial, outcome) = store
                .collect_objects(&mut session, n)
                .expect("a budget trip is not an error");
            assert_eq!(outcome.stopped, Some(BudgetStop::Steps));
            assert_eq!(outcome.records_seen, steps as u64);
            assert!(outcome.logical_seen < full_outcome.logical_seen);

            let mut session = budget.start();
            let (prefix, prefix_outcome) = store.collect(&mut session).expect("partial fold");
            assert_eq!(prefix_outcome.records_seen, steps as u64);
            let mut want = ProvExpr::new(prefix.kind());
            for (object, agg) in prefix.entries() {
                if wanted.contains(object) {
                    for tensor in agg.tensors() {
                        want.push(*object, tensor.clone());
                    }
                }
            }
            assert_eq!(partial, want, "first {n} objects, {steps} steps");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Property tests for the store's binary framing and file formats.
//!
//! Random cases come from the workspace's deterministic splitmix64
//! generator ([`prox_robust::fault::DetRng`]), same discipline as the
//! provenance property suite: every failure replays from its fixed seed
//! and the harness runs identically offline.
//!
//! The properties: encode→decode is the identity on canonical entries;
//! truncated frames and checksum-damaged blobs are typed
//! [`prox_robust::ProxError`]s — never panics; a `PROX_FAULT=corrupt`
//! read path degrades to typed errors; same-seed synthetic builds are
//! byte-identical on disk; and hand-damaged fixtures (an index entry
//! filed under the wrong object, a frame no log record names, a v1
//! manifest) are typed errors from `verify` and the reader alike.

use std::path::PathBuf;

use prox_provenance::{AggValue, AnnId, CmpOp, Guard, Monomial, Polynomial, Tensor};
use prox_robust::fault::{DetRng, FaultGuard};
use prox_robust::{ErrorKind, ExecutionBudget, ProxError};
use prox_store::codec::entry_fingerprint;
use prox_store::{
    build_synthetic, decode_annstore, decode_entry, encode_annstore, encode_entry, fnv64,
    verify_store, SegmentStore, SynthSpec,
};

/// Cases per property.
const CASES: usize = 64;
/// Annotation universe for random entries (also the decoder bound).
const MAX_ANN: usize = 32;

const OPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ne,
];

fn ann(rng: &mut DetRng) -> AnnId {
    AnnId::from_index(rng.below(MAX_ANN))
}

/// A random canonical polynomial: 1–4 terms of degree 0–3, coefficients
/// 1–5. Built through `from_terms` so it is already in the normal form
/// the decoder produces.
fn random_poly(rng: &mut DetRng) -> Polynomial {
    let n_terms = rng.below(4) + 1;
    Polynomial::from_terms((0..n_terms).map(|_| {
        let degree = rng.below(4);
        let factors: Vec<AnnId> = (0..degree).map(|_| ann(rng)).collect();
        (Monomial::from_factors(factors), rng.next_u64() % 5 + 1)
    }))
}

/// A value with two decimal digits — round-trips bit-exactly.
fn random_value(rng: &mut DetRng) -> f64 {
    (rng.next_u64() % 10_000) as f64 / 100.0
}

fn random_guard(rng: &mut DetRng) -> Guard {
    let n_lhs = rng.below(2) + 1;
    Guard {
        lhs: (0..n_lhs)
            .map(|_| (random_poly(rng), random_value(rng)))
            .collect(),
        op: OPS[rng.below(OPS.len())],
        rhs: random_value(rng),
    }
}

/// A random entry: object id, canonical polynomial, 0–3 guards covering
/// every comparison op over the cases, and an aggregation value.
fn random_entry(rng: &mut DetRng) -> (AnnId, Tensor) {
    let object = ann(rng);
    let prov = random_poly(rng);
    let guards: Vec<Guard> = (0..rng.below(4)).map(|_| random_guard(rng)).collect();
    let value = AggValue::new(random_value(rng), rng.next_u64() % 7 + 1);
    let tensor = if guards.is_empty() {
        Tensor::new(prov, value)
    } else {
        Tensor::guarded(prov, guards, value)
    };
    (object, tensor)
}

/// A unique scratch dir under the system temp dir.
#[allow(clippy::expect_used)] // test helper: a stale dir must fail loudly
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-store-prop-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
    }
    dir
}

/// Encoding then decoding a canonical entry is the identity, and the
/// frame's content address is exactly the FNV of its bytes.
#[test]
fn entry_encode_decode_roundtrip() {
    let mut rng = DetRng::new(0x57_0123);
    for case in 0..CASES {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        let (object2, tensor2) =
            decode_entry(&payload, MAX_ANN).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(object, object2, "case {case}: object survives");
        assert_eq!(tensor, tensor2, "case {case}: tensor survives");
        assert_eq!(
            entry_fingerprint(object, &tensor),
            fnv64(&payload),
            "case {case}: the content address is the FNV of the frame bytes"
        );
    }
}

/// Every strict prefix of a valid frame decodes to a typed error (the
/// payload is self-delimiting, so losing tail bytes is always caught) —
/// and never panics.
#[test]
fn truncated_frames_are_typed_errors() {
    let mut rng = DetRng::new(0x57_4444);
    for case in 0..16 {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        for len in 0..payload.len() {
            let err =
                decode_entry(&payload[..len], MAX_ANN).expect_err("a strict prefix never decodes");
            assert_eq!(
                err.kind(),
                ErrorKind::Input,
                "case {case} prefix {len}: truncation is an input error: {err}"
            );
        }
    }
}

/// Single-bit damage to a frame payload either still decodes (the flip
/// landed in a value) or yields a typed input error — never a panic.
/// The segment layer's per-frame checksum is what catches the silent
/// decodes; this property pins down the codec's own behaviour.
#[test]
fn bitflipped_frames_never_panic() {
    let mut rng = DetRng::new(0x57_9999);
    for _ in 0..16 {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut damaged = payload.clone();
                damaged[byte] ^= 1 << bit;
                match decode_entry(&damaged, MAX_ANN) {
                    Ok(_) => {} // flipped a value bit; the frame checksum layer catches these
                    Err(e) => assert_eq!(
                        e.kind(),
                        ErrorKind::Input,
                        "byte {byte} bit {bit}: corruption is an input error: {e}"
                    ),
                }
            }
        }
    }
}

/// The annotation-store blob round-trips through its canonical encoding,
/// and its embedded checksum catches every single-bit flip and every
/// truncation with a typed error.
#[test]
fn annstore_blob_roundtrip_and_checksum() {
    let _clean = FaultGuard::disabled();
    let dir = scratch("anns");
    let spec = SynthSpec {
        users: 12,
        movies: 6,
        unique_frames: 60,
        logical: 600,
        seed: 5,
    };
    build_synthetic(&dir, &spec).expect("small build succeeds");
    let store = SegmentStore::open(&dir).expect("fresh store opens");
    let blob = encode_annstore(store.anns()).expect("base annotations encode");
    let decoded = decode_annstore(&blob).expect("canonical blob decodes");
    assert_eq!(
        encode_annstore(&decoded).expect("decoded store re-encodes"),
        blob,
        "decode is a section of encode"
    );

    for len in 0..blob.len() {
        let err = decode_annstore(&blob[..len]).expect_err("a strict prefix never decodes");
        assert_eq!(err.kind(), ErrorKind::Input, "truncation at {len}: {err}");
    }
    let mut rng = DetRng::new(0x57_AAAA);
    for _ in 0..256 {
        let byte = rng.below(blob.len());
        let bit = rng.below(8);
        let mut damaged = blob.clone();
        damaged[byte] ^= 1 << bit;
        let err =
            decode_annstore(&damaged).expect_err("the checksum catches every single-bit flip");
        assert_eq!(err.kind(), ErrorKind::Input, "flip {byte}.{bit}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `PROX_FAULT=corrupt`, opening, folding, and verifying a store
/// degrade to typed input errors (or survive when the flip lands in a
/// value the checksums re-validate) — never panics, never silent trash.
#[test]
fn fault_corrupt_reads_degrade_to_typed_errors() {
    let dir = scratch("fault");
    {
        let _clean = FaultGuard::disabled();
        build_synthetic(&dir, &SynthSpec::quick(2016)).expect("clean build succeeds");
        verify_store(&dir).expect("clean store verifies");
    }
    for seed in [1u64, 2, 3, 42, 99] {
        let _g = FaultGuard::install(&format!("corrupt@0.02:{seed}")).expect("valid spec");
        match SegmentStore::open(&dir) {
            Ok(mut store) => {
                let budget = ExecutionBudget::unlimited();
                let mut session = budget.start();
                match store.collect(&mut session) {
                    Ok((expr, outcome)) => {
                        assert!(outcome.logical_seen > 0, "a full fold saw the log");
                        assert!(expr.size() > 0, "a full fold produced tensors");
                    }
                    Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "fold: {e}"),
                }
            }
            Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "open: {e}"),
        }
        match verify_store(&dir) {
            Ok(report) => assert!(report.frames > 0),
            Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "verify: {e}"),
        }
    }
    let _clean = FaultGuard::disabled();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two same-seed synthetic builds are byte-identical file for file, and
/// the fold off either sees exactly the spec's logical stream.
#[test]
fn same_seed_builds_are_byte_identical() {
    let _clean = FaultGuard::disabled();
    let spec = SynthSpec {
        users: 30,
        movies: 15,
        unique_frames: 300,
        logical: 20_000,
        seed: 7,
    };
    let dir_a = scratch("det-a");
    let dir_b = scratch("det-b");
    build_synthetic(&dir_a, &spec).expect("build a succeeds");
    build_synthetic(&dir_b, &spec).expect("build b succeeds");

    let mut names: Vec<String> = std::fs::read_dir(&dir_a)
        .expect("store dir lists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "the build wrote files");
    for name in &names {
        let a = std::fs::read(dir_a.join(name)).expect("file a reads");
        let b = std::fs::read(dir_b.join(name)).expect("file b reads");
        assert_eq!(a, b, "{name}: same-seed builds are byte-identical");
    }

    let mut store = SegmentStore::open(&dir_a).expect("store opens");
    let budget = ExecutionBudget::unlimited();
    let mut session = budget.start();
    let (expr, outcome) = store.collect(&mut session).expect("fold succeeds");
    assert_eq!(outcome.logical_seen, spec.logical);
    assert!(outcome.stopped.is_none(), "an unlimited budget never trips");
    assert!(expr.num_objects() > 0);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A small synthetic store for the damaged-fixture tests.
#[allow(clippy::expect_used)] // test helper: a failed build must fail loudly
fn fixture(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let spec = SynthSpec {
        users: 20,
        movies: 10,
        unique_frames: 120,
        logical: 2_000,
        seed: 11,
    };
    build_synthetic(&dir, &spec).expect("fixture builds");
    verify_store(&dir).expect("undamaged fixture verifies");
    dir
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(a)
}

fn assert_corrupt(result: Result<impl std::fmt::Debug, ProxError>, what: &str, needle: &str) {
    match result {
        Err(e @ ProxError::Corrupt { .. }) => {
            assert!(e.to_string().contains(needle), "{what}: {e}");
        }
        other => panic!("{what}: want a Corrupt error naming {needle:?}, got {other:?}"),
    }
}

/// Re-file the first index entry of a segment under another object, with
/// the index checksum rewritten so only the object cross-checks can see
/// it: `verify` (index vs payload) and the selective read (decoded
/// object vs index) both report `Corrupt`.
#[test]
fn index_entry_under_the_wrong_object_is_corrupt() {
    let _clean = FaultGuard::disabled();
    let dir = fixture("wrong-object");
    let seg = std::fs::read_dir(&dir)
        .expect("store dir lists")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("the fixture has a segment");
    let mut bytes = std::fs::read(&seg).expect("segment reads");
    let foot = bytes.len() - 24;
    let index_offset = read_u64(&bytes, foot) as usize;
    // Entry 0: [u64 fp][u64 offset][u32 len][u32 object] after the count.
    let at = index_offset + 4 + 20;
    let mut c = [0u8; 4];
    c.copy_from_slice(&bytes[at..at + 4]);
    let object = u32::from_le_bytes(c);
    let other = if object > 0 { object - 1 } else { object + 1 };
    bytes[at..at + 4].copy_from_slice(&other.to_le_bytes());
    let sum = fnv64(&bytes[index_offset..foot]);
    bytes[foot + 8..foot + 16].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&seg, &bytes).expect("segment rewrites");

    assert_corrupt(verify_store(&dir), "verify", "payload holds object");
    let mut store = SegmentStore::open(&dir).expect("the index itself is well-formed");
    let mut session = ExecutionBudget::unlimited().start();
    assert_corrupt(
        store.collect_objects(&mut session, usize::MAX),
        "selective read",
        "is indexed under object",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Point one log record at another frame (checksums and counts fixed up)
/// so the frame it named is referenced by no record: `verify` reports it.
#[test]
fn indexed_frame_without_a_log_record_is_corrupt() {
    let _clean = FaultGuard::disabled();
    let dir = fixture("unreferenced");
    let log_path = dir.join("log.bin");
    let mut log = std::fs::read(&log_path).expect("log reads");
    let foot = log.len() - 24;
    let body = 8..foot;
    let records: Vec<u64> = log[body.clone()]
        .chunks_exact(16)
        .map(|r| read_u64(r, 0))
        .collect();
    // A record whose fingerprint no other record repeats.
    let lone = (0..records.len())
        .find(|&i| records.iter().filter(|&&fp| fp == records[i]).count() == 1)
        .expect("some frame appears in one record");
    let donor = records[(lone + 1) % records.len()];
    let at = 8 + 16 * lone;
    log[at..at + 8].copy_from_slice(&donor.to_le_bytes());
    let old_sum = read_u64(&log, foot + 8);
    let sum = fnv64(&log[body]);
    log[foot + 8..foot + 16].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&log_path, &log).expect("log rewrites");
    // The manifest repeats the log checksum.
    let manifest_path = dir.join("store.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest reads");
    let (old_hex, new_hex) = (format!("{old_sum:016x}"), format!("{sum:016x}"));
    assert!(manifest.contains(&old_hex), "{manifest}");
    std::fs::write(&manifest_path, manifest.replace(&old_hex, &new_hex))
        .expect("manifest rewrites");

    assert_corrupt(verify_store(&dir), "verify", "never referenced");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written in the v1 layout (20-byte index entries) is refused
/// at open with a typed `Unsupported` error, not read with the wrong
/// layout.
#[test]
fn v1_store_is_unsupported() {
    let _clean = FaultGuard::disabled();
    let dir = fixture("v1");
    let manifest_path = dir.join("store.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest reads");
    assert!(manifest.contains("prox-store/v2"), "{manifest}");
    std::fs::write(
        &manifest_path,
        manifest.replace("prox-store/v2", "prox-store/v1"),
    )
    .expect("manifest rewrites");
    match SegmentStore::open(&dir) {
        Err(e @ ProxError::Unsupported(_)) => assert_eq!(e.kind().exit_code(), 2),
        Err(e) => panic!("want Unsupported, got {e}"),
        Ok(_) => panic!("a v1 store opened"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

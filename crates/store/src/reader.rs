//! Reading a segment store: paged lazy loads, budget-polled scans, and
//! offline verification.
//!
//! [`SegmentStore::open`] loads only the manifest, the annotation table,
//! and the per-segment offset indexes (one fingerprint-sorted array of
//! fixed-size entries, each naming its frame's object); frame payloads
//! stay on disk and are faulted in page-by-page through the bounded
//! [`PageCache`], so a store far larger than memory can be summarized
//! under a fixed cache ceiling. Scans, full folds, and selective folds of
//! the first N objects share one log-replay loop that polls its
//! [`BudgetSession`] per record — deadlines, step budgets, and cancel
//! flags all interrupt a replay between page loads, and the partial fold
//! is returned as the anytime best-so-far. A selective fold still streams
//! and checksums the whole log but reads only the selected objects'
//! frames.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use prox_obs::store_metrics::BYTES_READ;
use prox_obs::{Json, TraceTally};
use prox_provenance::{AggKind, AnnId, AnnStore, ProvExpr, Tensor};
use prox_robust::{fault, BudgetSession, BudgetStop, ProxError};

use crate::builder::{
    agg_from_name, ANNS_FILE, FORMAT, LOG_ENTRY_BYTES, LOG_FILE, LOG_MAGIC, MANIFEST_FILE,
};
use crate::codec::{decode_annstore, decode_entry};
use crate::fp::{fnv64_update, shard_of, FNV_OFFSET};
use crate::pagecache::{CacheStats, PageCache, PageKey, DEFAULT_CACHE_BYTES, DEFAULT_PAGE_BYTES};
use crate::segment::{
    parse_footer, parse_index_region, segment_file, IndexEntry, FOOTER_BYTES, SEG_MAGIC,
};

/// One segment as described by the manifest.
#[derive(Clone, Debug)]
pub struct SegInfo {
    pub shard: u8,
    pub file: String,
    pub frames: u64,
    pub payload_bytes: u64,
    pub file_bytes: u64,
}

/// Parsed `store.json`.
#[derive(Clone, Debug)]
pub struct StoreInfo {
    pub agg: AggKind,
    pub logical: u64,
    pub unique: u64,
    pub log_entries: u64,
    pub annotations: u64,
    pub payload_bytes: u64,
    pub log_checksum: u64,
    pub segments: Vec<SegInfo>,
}

impl StoreInfo {
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.logical as f64 / self.unique as f64
        }
    }
}

fn manifest_field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, ProxError> {
    j.get(key)
        .ok_or_else(|| ProxError::corrupt("store manifest", format!("missing field '{key}'")))
}

fn manifest_u64(j: &Json, key: &str) -> Result<u64, ProxError> {
    manifest_field(j, key)?.as_u64().ok_or_else(|| {
        ProxError::corrupt("store manifest", format!("field '{key}' is not an integer"))
    })
}

fn manifest_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, ProxError> {
    manifest_field(j, key)?.as_str().ok_or_else(|| {
        ProxError::corrupt("store manifest", format!("field '{key}' is not a string"))
    })
}

/// Read and parse `<dir>/store.json`.
pub fn read_info(dir: &Path) -> Result<StoreInfo, ProxError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ProxError::io(format!("read {}", path.display()), &e))?;
    let j = Json::parse(&text).map_err(|e| {
        ProxError::corrupt(
            "store manifest",
            format!("{}: {}", path.display(), e.message()),
        )
    })?;
    let format = manifest_str(&j, "format")?;
    if format != FORMAT {
        return Err(ProxError::unsupported(format!(
            "store format '{format}' (this build reads '{FORMAT}')"
        )));
    }
    let counts = manifest_field(&j, "counts")?;
    let log = manifest_field(&j, "log")?;
    let checksum_hex = manifest_str(log, "checksum")?;
    let log_checksum = u64::from_str_radix(checksum_hex, 16).map_err(|e| {
        ProxError::corrupt(
            "store manifest",
            format!("bad log checksum '{checksum_hex}': {e}"),
        )
    })?;
    let mut segments = Vec::new();
    match manifest_field(&j, "segments")? {
        Json::Arr(items) => {
            for item in items {
                let shard_hex = manifest_str(item, "shard")?;
                let shard = u8::from_str_radix(shard_hex, 16).map_err(|e| {
                    ProxError::corrupt("store manifest", format!("bad shard '{shard_hex}': {e}"))
                })?;
                segments.push(SegInfo {
                    shard,
                    file: manifest_str(item, "file")?.to_string(),
                    frames: manifest_u64(item, "frames")?,
                    payload_bytes: manifest_u64(item, "payload_bytes")?,
                    file_bytes: manifest_u64(item, "file_bytes")?,
                });
            }
        }
        _ => {
            return Err(ProxError::corrupt(
                "store manifest",
                "field 'segments' is not an array",
            ))
        }
    }
    Ok(StoreInfo {
        agg: agg_from_name(manifest_str(&j, "agg")?)?,
        logical: manifest_u64(counts, "logical")?,
        unique: manifest_u64(counts, "unique")?,
        log_entries: manifest_u64(counts, "log_entries")?,
        annotations: manifest_u64(counts, "annotations")?,
        payload_bytes: manifest_u64(counts, "payload_bytes")?,
        log_checksum,
        segments,
    })
}

/// How far a scan got before returning.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanOutcome {
    /// Logical expressions delivered (multiplicities included).
    pub logical_seen: u64,
    /// Log records consumed.
    pub records_seen: u64,
    /// Frames read from a segment and decoded.
    pub frames_read: u64,
    /// `Some` when the budget interrupted the scan (anytime partial).
    pub stopped: Option<BudgetStop>,
}

/// Decodes the frame of the log record being replayed (see
/// [`SegmentStore::replay`]).
type DecodeFrame<'a> = dyn FnMut() -> Result<(AnnId, Tensor), ProxError> + 'a;

/// An open store: manifest + annotation table + offset indexes in
/// memory, frame data paged in on demand.
pub struct SegmentStore {
    dir: PathBuf,
    info: StoreInfo,
    anns: AnnStore,
    files: BTreeMap<u8, File>,
    /// Every segment's index entries, concatenated in shard order. Shards
    /// are the fingerprint's top nibble, so this is sorted by fingerprint.
    index: Vec<IndexEntry>,
    /// Lookup directory over `index`: fingerprints whose top bits are `b`
    /// sit in `index[buckets[b]..buckets[b + 1]]`.
    buckets: Buckets,
    /// The distinct objects the index names, ascending.
    objects: Vec<u32>,
    cache: PageCache,
    bytes_read: u64,
}

impl SegmentStore {
    /// Open a store with the default page size and cache ceiling.
    pub fn open(dir: &Path) -> Result<SegmentStore, ProxError> {
        SegmentStore::open_with(dir, DEFAULT_PAGE_BYTES, DEFAULT_CACHE_BYTES)
    }

    /// Open a store with an explicit page size and page-cache ceiling
    /// (bytes). Only indexes are loaded eagerly.
    pub fn open_with(
        dir: &Path,
        page_bytes: usize,
        cache_bytes: usize,
    ) -> Result<SegmentStore, ProxError> {
        let info = read_info(dir)?;
        let ann_path = dir.join(ANNS_FILE);
        let mut ann_bytes = std::fs::read(&ann_path)
            .map_err(|e| ProxError::io(format!("read {}", ann_path.display()), &e))?;
        BYTES_READ.add(ann_bytes.len() as u64);
        fault::corrupt_bytes(&mut ann_bytes);
        let anns = decode_annstore(&ann_bytes)?;
        if anns.len() as u64 != info.annotations {
            return Err(ProxError::corrupt(
                "store manifest",
                format!(
                    "manifest says {} annotations, anns.bin holds {}",
                    info.annotations,
                    anns.len()
                ),
            ));
        }
        let mut files = BTreeMap::new();
        let mut index = Vec::new();
        let mut named = vec![false; anns.len()];
        let mut bytes_read = ann_bytes.len() as u64;
        for seg in &info.segments {
            let path = dir.join(&seg.file);
            let mut file = File::open(&path)
                .map_err(|e| ProxError::io(format!("open {}", path.display()), &e))?;
            let read = load_segment_index(&mut file, seg.shard, &mut named, &mut index)?;
            bytes_read += read;
            files.insert(seg.shard, file);
        }
        if index.len() as u64 != info.unique {
            return Err(ProxError::corrupt(
                "store manifest",
                format!(
                    "manifest says {} unique frames, indexes hold {}",
                    info.unique,
                    index.len()
                ),
            ));
        }
        let objects = (0..named.len())
            .filter(|&o| named[o])
            .map(|o| o as u32)
            .collect();
        let buckets = Buckets::new(&index)?;
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            info,
            anns,
            files,
            index,
            buckets,
            objects,
            cache: PageCache::new(page_bytes, cache_bytes),
            bytes_read,
        })
    }

    pub fn info(&self) -> &StoreInfo {
        &self.info
    }

    pub fn anns(&self) -> &AnnStore {
        &self.anns
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct objects the store's frames belong to.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn load_page(&mut self, shard: u8, page_start: u64) -> Result<Vec<u8>, ProxError> {
        let file = self.files.get_mut(&shard).ok_or_else(|| {
            ProxError::corrupt(
                "segment read",
                format!("no open file for shard {shard:02x}"),
            )
        })?;
        let page_bytes = self.cache.page_bytes();
        file.seek(SeekFrom::Start(page_start))
            .map_err(|e| ProxError::io(format!("seek {}", segment_file(shard)), &e))?;
        let mut buf = vec![0u8; page_bytes];
        let mut filled = 0;
        while filled < page_bytes {
            let n = file
                .read(&mut buf[filled..])
                .map_err(|e| ProxError::io(format!("read {}", segment_file(shard)), &e))?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        BYTES_READ.add(filled as u64);
        self.bytes_read += filled as u64;
        Ok(buf)
    }

    /// Assemble `len` bytes starting at `offset` in `shard`, going
    /// through the page cache.
    fn read_range(&mut self, shard: u8, offset: u64, len: usize) -> Result<Vec<u8>, ProxError> {
        let mut out = Vec::with_capacity(len);
        let page_bytes = self.cache.page_bytes() as u64;
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let page_no = pos / page_bytes;
            let page_start = page_no * page_bytes;
            let within = (pos - page_start) as usize;
            let want = (end - pos) as usize;
            let key = PageKey {
                shard,
                page: page_no,
            };
            let mut taken = None;
            if let Some(bytes) = self.cache.get(key) {
                let avail = bytes.len().saturating_sub(within);
                let take = want.min(avail);
                out.extend_from_slice(&bytes[within..within + take]);
                taken = Some(take);
            }
            let take = match taken {
                Some(t) => t,
                None => {
                    let page = self.load_page(shard, page_start)?;
                    let bytes = self.cache.insert(key, page);
                    let avail = bytes.len().saturating_sub(within);
                    let take = want.min(avail);
                    out.extend_from_slice(&bytes[within..within + take]);
                    take
                }
            };
            if take == 0 {
                return Err(ProxError::corrupt(
                    "segment read",
                    format!(
                        "{}: range {offset}+{len} runs past end of file",
                        segment_file(shard)
                    ),
                ));
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// The index entry of a content address.
    fn entry(&self, fp: u64) -> Result<IndexEntry, ProxError> {
        let bucket = &self.index[self.buckets.range(fp)];
        match bucket.binary_search_by_key(&fp, |e| e.fp) {
            Ok(ix) => Ok(bucket[ix]),
            Err(_) => Err(ProxError::corrupt(
                "segment read",
                format!("log references unknown fingerprint {fp:016x}"),
            )),
        }
    }

    /// Fetch and checksum-verify the payload of an indexed frame.
    fn read_payload(&mut self, e: IndexEntry) -> Result<Vec<u8>, ProxError> {
        let shard = shard_of(e.fp);
        let len = e.len as usize;
        let frame = self.read_range(shard, e.offset, 4 + len + 8)?;
        let corrupt = |detail: String| {
            ProxError::corrupt(
                "segment frame",
                format!("{} frame {:016x}: {detail}", segment_file(shard), e.fp),
            )
        };
        if frame.len() != 4 + len + 8 {
            return Err(corrupt(format!("short read ({} bytes)", frame.len())));
        }
        let mut c = [0u8; 4];
        c.copy_from_slice(&frame[..4]);
        let declared = u32::from_le_bytes(c);
        if declared != e.len {
            return Err(corrupt(format!(
                "index says {} bytes, frame header says {declared}",
                e.len
            )));
        }
        let mut payload = frame[4..4 + len].to_vec();
        // Fault-injection hook: `PROX_FAULT=corrupt` flips bits here and
        // must surface as a typed checksum error, never a panic.
        fault::corrupt_bytes(&mut payload);
        let mut a = [0u8; 8];
        a.copy_from_slice(&frame[4 + len..]);
        let want = u64::from_le_bytes(a);
        let got = crate::fp::fnv64(&payload);
        if got != want {
            return Err(corrupt(format!(
                "payload checksum mismatch (stored {want:016x}, computed {got:016x})"
            )));
        }
        Ok(payload)
    }

    /// Read and decode an indexed frame, timing the read and the decode
    /// into their trace tallies, and check the decoded object against the
    /// object the index files the frame under.
    fn decode_frame(
        &mut self,
        e: IndexEntry,
        reads: &mut TraceTally,
        decodes: &mut TraceTally,
    ) -> Result<(AnnId, Tensor), ProxError> {
        let payload = reads.time(|| self.read_payload(e))?;
        let (object, tensor) = decodes.time(|| decode_entry(&payload, self.anns.len()))?;
        if object.index() != e.object as usize {
            return Err(ProxError::corrupt(
                "segment index",
                format!(
                    "{}: frame {:016x} is indexed under object {} but holds object {}",
                    segment_file(shard_of(e.fp)),
                    e.fp,
                    e.object,
                    object.index()
                ),
            ));
        }
        Ok((object, tensor))
    }

    fn open_log(&self) -> Result<(File, u64), ProxError> {
        let path = self.dir.join(LOG_FILE);
        let mut file =
            File::open(&path).map_err(|e| ProxError::io(format!("open {}", path.display()), &e))?;
        let len = file
            .metadata()
            .map_err(|e| ProxError::io(format!("stat {}", path.display()), &e))?
            .len();
        let corrupt =
            |detail: String| ProxError::corrupt("store log", format!("{LOG_FILE}: {detail}"));
        let header_and_footer = (LOG_MAGIC.len() + FOOTER_BYTES) as u64;
        if len < header_and_footer {
            return Err(corrupt(format!("file too short ({len} bytes)")));
        }
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|e| ProxError::io("read log magic", &e))?;
        if &magic != LOG_MAGIC {
            return Err(corrupt("bad header magic".into()));
        }
        let body = len - header_and_footer;
        if !body.is_multiple_of(LOG_ENTRY_BYTES as u64) {
            return Err(corrupt(format!(
                "record region is {body} bytes, not a multiple of {LOG_ENTRY_BYTES}"
            )));
        }
        let records = body / LOG_ENTRY_BYTES as u64;
        if records != self.info.log_entries {
            return Err(corrupt(format!(
                "manifest says {} records, file holds {records}",
                self.info.log_entries
            )));
        }
        Ok((file, records))
    }

    /// The one log-replay loop behind [`SegmentStore::scan`],
    /// [`SegmentStore::collect`] and [`SegmentStore::collect_objects`].
    /// For every run-length record it polls the budget session — before
    /// any page load the record may trigger — advances the running log
    /// checksum and the outcome's counters, resolves the fingerprint
    /// through the index, and hands `visit` the index entry, the run
    /// length, and a decoder for the entry's frame; the visitor decides
    /// whether the frame is read at all. A budget trip returns the partial
    /// outcome (anytime contract); a complete replay verifies the log
    /// checksum against the manifest.
    ///
    /// Traced requests see the replay as a `store_log` span with two
    /// tallies under it: `store_read` (page loads and frame checksums)
    /// and `store_decode` (payload decoding).
    fn replay(
        &mut self,
        session: &mut BudgetSession,
        visit: &mut dyn FnMut(IndexEntry, u64, &mut DecodeFrame<'_>) -> Result<(), ProxError>,
    ) -> Result<ScanOutcome, ProxError> {
        let _log_span = session.span("store_log");
        let mut reads = session.tally("store_read");
        let mut decodes = session.tally("store_decode");
        let (file, records) = self.open_log()?;
        let mut reader = std::io::BufReader::new(file);
        let mut outcome = ScanOutcome::default();
        let mut checksum = FNV_OFFSET;
        let mut rec = [0u8; LOG_ENTRY_BYTES];
        for _ in 0..records {
            if let Err(stop) = session.note_step() {
                outcome.stopped = Some(stop);
                return Ok(outcome);
            }
            reader
                .read_exact(&mut rec)
                .map_err(|e| ProxError::io("read log record", &e))?;
            BYTES_READ.add(LOG_ENTRY_BYTES as u64);
            self.bytes_read += LOG_ENTRY_BYTES as u64;
            checksum = fnv64_update(checksum, &rec);
            let mut a = [0u8; 8];
            a.copy_from_slice(&rec[..8]);
            let fp = u64::from_le_bytes(a);
            a.copy_from_slice(&rec[8..]);
            let count = u64::from_le_bytes(a);
            let entry = self.entry(fp)?;
            visit(entry, count, &mut || {
                let decoded = self.decode_frame(entry, &mut reads, &mut decodes)?;
                outcome.frames_read += 1;
                Ok(decoded)
            })?;
            outcome.records_seen += 1;
            outcome.logical_seen += count;
        }
        if checksum != self.info.log_checksum {
            return Err(ProxError::corrupt(
                "store log",
                format!(
                    "record checksum mismatch: manifest {:016x}, computed {checksum:016x}",
                    self.info.log_checksum
                ),
            ));
        }
        Ok(outcome)
    }

    /// Stream the logical log, delivering `(object, tensor, count)` for
    /// every run-length record (a fingerprint that recurs is read again,
    /// through the page cache). Budget polling and the log checksum are
    /// those of the shared replay loop.
    pub fn scan(
        &mut self,
        session: &mut BudgetSession,
        f: &mut dyn FnMut(AnnId, Tensor, u64) -> Result<(), ProxError>,
    ) -> Result<ScanOutcome, ProxError> {
        self.replay(session, &mut |_, count, decode| {
            let (object, tensor) = decode()?;
            f(object, tensor, count)
        })
    }

    /// Fold the whole store into one in-memory [`ProvExpr`]. Duplicate
    /// fingerprints are *not* re-read or re-decoded: each unique frame
    /// is materialized once and its logical multiplicity folded into the
    /// aggregation value, so live memory is proportional to the number
    /// of unique frames, never to the logical size of the store.
    pub fn collect(
        &mut self,
        session: &mut BudgetSession,
    ) -> Result<(ProvExpr, ScanOutcome), ProxError> {
        self.collect_objects(session, usize::MAX)
    }

    /// Fold only the store's first `objects` objects (in object-id order,
    /// the entry order of [`SegmentStore::collect`]'s expression). The
    /// whole log is still replayed and checksum-verified, so the outcome's
    /// `logical_seen`/`records_seen` cover the whole store, but only the
    /// selected objects' frames are read and decoded: the result equals
    /// the first `objects` entries of a full fold. On a budget trip the
    /// partial fold holds the selected objects' frames among the records
    /// replayed before the trip.
    pub fn collect_objects(
        &mut self,
        session: &mut BudgetSession,
        objects: usize,
    ) -> Result<(ProvExpr, ScanOutcome), ProxError> {
        // Highest wanted object id; `None` selects nothing.
        let last = self.objects[..objects.min(self.objects.len())]
            .last()
            .copied();
        let mut fold: BTreeMap<u64, (AnnId, Tensor, u64)> = BTreeMap::new();
        let outcome = self.replay(session, &mut |entry, count, decode| {
            if !matches!(last, Some(l) if entry.object <= l) {
                return Ok(());
            }
            match fold.get_mut(&entry.fp) {
                Some((_, _, n)) => *n += count,
                None => {
                    let (object, tensor) = decode()?;
                    fold.insert(entry.fp, (object, tensor, count));
                }
            }
            Ok(())
        })?;
        Ok((fold_to_expr(self.info.agg, fold), outcome))
    }

    /// Store + cache statistics as JSON (the shape `prox store stat`,
    /// `/metrics.json`, and the bench manifest all share).
    pub fn stats_json(&self) -> Json {
        let cache = self.cache_stats();
        let mut cj = Json::obj();
        cj.set("capacity_bytes", cache.capacity_bytes);
        cj.set("page_bytes", self.cache.page_bytes());
        cj.set("hits", cache.hits);
        cj.set("misses", cache.misses);
        cj.set("evictions", cache.evictions);
        cj.set("live_bytes", cache.live_bytes);
        cj.set("peak_bytes", cache.peak_bytes);
        cj.set("hit_rate", round6(cache.hit_rate()));

        let mut j = Json::obj();
        j.set("dir", self.dir.display().to_string());
        j.set("agg", self.info.agg.name());
        j.set("logical_expressions", self.info.logical);
        j.set("unique_frames", self.info.unique);
        j.set("dedup_ratio", round6(self.info.dedup_ratio()));
        j.set("log_entries", self.info.log_entries);
        j.set("annotations", self.info.annotations);
        j.set("segments", self.info.segments.len());
        j.set("payload_bytes", self.info.payload_bytes);
        j.set("bytes_read", self.bytes_read);
        j.set("page_cache", cj);
        j
    }
}

/// Round to 6 decimal places so ratios render identically across runs.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn fold_to_expr(agg: AggKind, fold: BTreeMap<u64, (AnnId, Tensor, u64)>) -> ProvExpr {
    // Group by object id so the expression's entry order is the object
    // order, independent of fingerprint order.
    let mut by_object: BTreeMap<usize, Vec<(u64, Tensor, u64)>> = BTreeMap::new();
    for (fp, (object, tensor, n)) in fold {
        by_object
            .entry(object.index())
            .or_default()
            .push((fp, tensor, n));
    }
    let mut expr = ProvExpr::new(agg);
    for (object_ix, tensors) in by_object {
        let object = AnnId::from_index(object_ix);
        for (_fp, mut tensor, n) in tensors {
            tensor.value = tensor.value.scaled(n, agg);
            expr.push(object, tensor);
        }
    }
    expr
}

/// A directory over the fingerprint-sorted index by the fingerprint's top
/// bits. Fingerprints are FNV-1a hashes, spread evenly, so with two to
/// four entries per bucket on average a lookup is one directory read and
/// a search within a cache line or two, instead of a binary search whose
/// last steps each miss the cache across the whole index.
struct Buckets {
    /// Right shift taking a fingerprint to its bucket.
    shift: u32,
    /// Bucket `b` spans `index[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
}

impl Buckets {
    /// Counting pass over the (already sorted) index; no sort.
    fn new(index: &[IndexEntry]) -> Result<Buckets, ProxError> {
        if u32::try_from(index.len()).is_err() {
            return Err(ProxError::unsupported(format!(
                "store of {} frames (the index addresses at most 2^32)",
                index.len()
            )));
        }
        let bits = (usize::BITS - index.len().leading_zeros()).saturating_sub(2);
        let mut buckets = Buckets {
            shift: u64::BITS - bits,
            starts: vec![0; (1 << bits) + 1],
        };
        for e in index {
            let b = buckets.bucket(e.fp);
            buckets.starts[b + 1] += 1;
        }
        for b in 1..buckets.starts.len() {
            buckets.starts[b] += buckets.starts[b - 1];
        }
        Ok(buckets)
    }

    fn bucket(&self, fp: u64) -> usize {
        fp.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// The index positions whose fingerprints share `fp`'s bucket.
    fn range(&self, fp: u64) -> std::ops::Range<usize> {
        let b = self.bucket(fp);
        self.starts[b] as usize..self.starts[b + 1] as usize
    }
}

/// Load one segment's index, appending its entries to `index` and marking
/// the objects they name in `named` (one flag per annotation). Every
/// entry must belong to `shard`, name an annotation, and sort after the
/// entry before it: segments are loaded in shard order, so `index` stays
/// sorted by fingerprint without a sort, and a duplicate fingerprint
/// anywhere in the store fails the order check.
fn load_segment_index(
    file: &mut File,
    shard: u8,
    named: &mut [bool],
    index: &mut Vec<IndexEntry>,
) -> Result<u64, ProxError> {
    let len = file
        .metadata()
        .map_err(|e| ProxError::io(format!("stat {}", segment_file(shard)), &e))?
        .len();
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment index",
            format!("{}: {detail}", segment_file(shard)),
        )
    };
    if len < (SEG_MAGIC.len() + FOOTER_BYTES) as u64 {
        return Err(corrupt(format!("file too short ({len} bytes)")));
    }
    let io = |what: &str, e: &std::io::Error| {
        ProxError::io(format!("{what} {}", segment_file(shard)), e)
    };
    let mut magic = [0u8; 8];
    file.seek(SeekFrom::Start(0)).map_err(|e| io("seek", &e))?;
    file.read_exact(&mut magic).map_err(|e| io("read", &e))?;
    if &magic != SEG_MAGIC {
        return Err(corrupt("bad header magic".into()));
    }
    let mut tail = [0u8; FOOTER_BYTES];
    file.seek(SeekFrom::Start(len - FOOTER_BYTES as u64))
        .map_err(|e| io("seek", &e))?;
    file.read_exact(&mut tail).map_err(|e| io("read", &e))?;
    let (index_offset, want_sum) = parse_footer(&tail, len, shard)?;
    let index_len = (len - FOOTER_BYTES as u64 - index_offset) as usize;
    let mut index_bytes = vec![0u8; index_len];
    file.seek(SeekFrom::Start(index_offset))
        .map_err(|e| io("seek", &e))?;
    file.read_exact(&mut index_bytes)
        .map_err(|e| io("read", &e))?;
    let read = (magic.len() + tail.len() + index_len) as u64;
    BYTES_READ.add(read);
    let entries = parse_index_region(&index_bytes, want_sum, index_offset, shard)?;
    index.reserve(entries.len());
    for e in entries {
        if shard_of(e.fp) != shard {
            return Err(corrupt(format!(
                "frame {:016x} belongs to shard {:02x}",
                e.fp,
                shard_of(e.fp)
            )));
        }
        let Some(flag) = named.get_mut(e.object as usize) else {
            return Err(corrupt(format!(
                "frame {:016x} names object {} of {} annotations",
                e.fp,
                e.object,
                named.len()
            )));
        };
        *flag = true;
        if index.last().is_some_and(|prev| prev.fp >= e.fp) {
            return Err(corrupt(format!(
                "frame {:016x} is out of fingerprint order (duplicate, or segments out of shard order)",
                e.fp
            )));
        }
        index.push(e);
    }
    Ok(read)
}

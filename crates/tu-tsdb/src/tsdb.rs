//! A Prometheus-tsdb-like baseline storage engine (§2.2/§2.4), with the
//! cloud-storage extension the paper uses for its "tsdb" baseline.
//!
//! Architecture, faithfully including its pathologies:
//!
//! * All samples of the current time window (2 hours by default) are
//!   batched **on the heap**: an open raw chunk plus completed
//!   Gorilla-compressed chunks per series.
//! * The inverted index of the head is built on the fly in **nested hash
//!   maps** (tag key → tag value → postings) — the memory hog Figure 3
//!   dissects.
//! * When the window closes, everything is flushed into a *self-contained
//!   block* (chunks file + index file). With cloud storage enabled the
//!   chunks file is uploaded to the object store.
//! * Every persisted block's metadata (its full per-block index) is
//!   **kept in memory** for query acceleration — the second memory hog.
//! * Out-of-order samples are rejected, as in Prometheus (§2.2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_cloud::StorageEnv;
use tu_common::lockdep::{self, RwLock};
use tu_common::{Error, Labels, Result, Sample, SeriesId, TimeRange, Timestamp, Value};
use tu_compress::gorilla;

use tu_lsm::cache::BlockCache;

/// Configuration of the tsdb baseline.
#[derive(Debug, Clone)]
pub struct TsdbOptions {
    /// Head block time range (Prometheus: 2 hours).
    pub block_range_ms: i64,
    /// Samples per chunk (Prometheus: 120).
    pub chunk_samples: usize,
    /// Store persisted blocks on the slow object store (the paper's cloud
    /// extension); otherwise they stay on the fast block store.
    pub slow_storage: bool,
    /// LRU cache for chunk bytes fetched from storage (1 GiB in §4.1).
    pub chunk_cache_bytes: usize,
}

impl Default for TsdbOptions {
    fn default() -> Self {
        TsdbOptions {
            block_range_ms: 2 * 60 * 60 * 1000,
            chunk_samples: 120,
            slow_storage: true,
            chunk_cache_bytes: 64 << 20,
        }
    }
}

/// Memory breakdown matching Figure 3b's categories.
#[derive(Debug, Default, Clone, Copy)]
pub struct TsdbMemory {
    /// Head inverted index (nested hash maps).
    pub index_bytes: usize,
    /// Persisted blocks' metadata held in memory.
    pub block_meta_bytes: usize,
    /// Head data samples (open raw chunks + completed compressed chunks).
    pub samples_bytes: usize,
}

impl TsdbMemory {
    pub fn total(&self) -> usize {
        self.index_bytes + self.block_meta_bytes + self.samples_bytes
    }
}

struct HeadSeries {
    labels: Labels,
    /// Open chunk, raw.
    open: Vec<Sample>,
    /// Completed chunks of the current window, compressed, with their
    /// first timestamps.
    full: Vec<(Timestamp, Vec<u8>)>,
    last_ts: Timestamp,
}

/// Per-block chunk reference kept in memory.
#[derive(Debug, Clone)]
struct ChunkRef {
    first_ts: Timestamp,
    offset: u64,
    len: u32,
}

/// A persisted block's in-memory metadata (its whole index).
struct BlockMeta {
    range: TimeRange,
    storage_name: String,
    /// tag key -> tag value -> series ids (the nested hash tables).
    index: HashMap<String, HashMap<String, Vec<SeriesId>>>,
    series: HashMap<SeriesId, (Labels, Vec<ChunkRef>)>,
    /// Size of the serialized index file (Table 3's index size).
    index_file_len: u64,
    chunks_file_len: u64,
}

struct Head {
    range: TimeRange,
    series: HashMap<SeriesId, HeadSeries>,
    index: HashMap<String, HashMap<String, Vec<SeriesId>>>,
}

impl Head {
    fn new(range: TimeRange) -> Self {
        Head {
            range,
            series: HashMap::new(),
            index: HashMap::new(),
        }
    }
}

/// The tsdb baseline engine.
pub struct Tsdb {
    env: StorageEnv,
    opts: TsdbOptions,
    head: RwLock<Head>,
    blocks: RwLock<Vec<Arc<BlockMeta>>>,
    by_labels: RwLock<HashMap<Vec<u8>, SeriesId>>,
    labels_of: RwLock<HashMap<SeriesId, Labels>>,
    next_series: AtomicU64,
    next_block: AtomicU64,
    cache: Arc<BlockCache>,
    obs_samples: tu_obs::TracedCounter,
    obs_queries: tu_obs::TracedCounter,
}

impl Tsdb {
    pub fn open(env: StorageEnv, opts: TsdbOptions) -> Result<Self> {
        let cache = Arc::new(BlockCache::new(opts.chunk_cache_bytes));
        Ok(Tsdb {
            env,
            head: RwLock::new(&lockdep::TSDB_HEAD, Head::new(TimeRange::empty())),
            blocks: RwLock::new(&lockdep::TSDB_BLOCKS, Vec::new()),
            by_labels: RwLock::new(&lockdep::TSDB_BY_LABELS, HashMap::new()),
            labels_of: RwLock::new(&lockdep::TSDB_LABELS_OF, HashMap::new()),
            next_series: AtomicU64::new(1),
            next_block: AtomicU64::new(0),
            cache,
            opts,
            obs_samples: tu_obs::traced("tsdb.ingest.samples"),
            obs_queries: tu_obs::traced("tsdb.query.requests"),
        })
    }

    /// Slow-path insert: resolve or create the series by labels.
    pub fn put(&self, labels: &Labels, t: Timestamp, v: Value) -> Result<SeriesId> {
        let id = self.get_or_create(labels);
        self.put_by_id(id, t, v)?;
        Ok(id)
    }

    fn get_or_create(&self, labels: &Labels) -> SeriesId {
        let key = labels.to_bytes();
        if let Some(&id) = self.by_labels.read().get(&key) {
            return id;
        }
        let mut by_labels = self.by_labels.write();
        if let Some(&id) = by_labels.get(&key) {
            return id;
        }
        let id = self.next_series.fetch_add(1, Ordering::Relaxed);
        by_labels.insert(key, id);
        self.labels_of.write().insert(id, labels.clone());
        id
    }

    /// Fast-path insert by ID.
    pub fn put_by_id(&self, id: SeriesId, t: Timestamp, v: Value) -> Result<()> {
        if !self.labels_of.read().contains_key(&id) {
            return Err(Error::not_found(format!("series {id}")));
        }
        self.obs_samples.inc();
        // Window roll: flush the head when the sample crosses its end.
        loop {
            let head_range = self.head.read().range;
            if head_range.is_empty() {
                // First sample ever: align the head window.
                let start = t.div_euclid(self.opts.block_range_ms) * self.opts.block_range_ms;
                let mut head = self.head.write();
                if head.range.is_empty() {
                    head.range = TimeRange::new(start, start + self.opts.block_range_ms);
                }
                continue;
            }
            if t < head_range.start {
                // Prometheus rejects out-of-order samples older than the head.
                return Err(Error::invalid(format!(
                    "out-of-order sample at {t} before head start {}",
                    head_range.start
                )));
            }
            if t >= head_range.end {
                self.flush_head()?;
                let start = t.div_euclid(self.opts.block_range_ms) * self.opts.block_range_ms;
                let mut head = self.head.write();
                head.range = TimeRange::new(start, start + self.opts.block_range_ms);
                continue;
            }
            break;
        }
        let mut head = self.head.write();
        if !head.series.contains_key(&id) {
            let labels = self
                .labels_of
                .read()
                .get(&id)
                .cloned()
                .expect("checked above");
            // Index the series in the head's nested hash maps.
            for (k, vv) in labels.iter() {
                head.index
                    .entry(k.to_string())
                    .or_default()
                    .entry(vv.to_string())
                    .or_default()
                    .push(id);
            }
            head.series.insert(
                id,
                HeadSeries {
                    labels,
                    open: Vec::new(),
                    full: Vec::new(),
                    last_ts: i64::MIN,
                },
            );
        }
        let series = head.series.get_mut(&id).expect("inserted above");
        if t <= series.last_ts {
            return Err(Error::invalid(format!(
                "out-of-order sample at {t}, head already at {}",
                series.last_ts
            )));
        }
        series.open.push(Sample::new(t, v));
        series.last_ts = t;
        if series.open.len() >= self.opts.chunk_samples {
            let first = series.open[0].t;
            let chunk = gorilla::compress_chunk(&series.open)?;
            series.full.push((first, chunk));
            series.open.clear();
        }
        Ok(())
    }

    /// Flushes the head into a self-contained persisted block. The paper's
    /// Challenge: this walks and serializes *everything*, stalling inserts.
    pub fn flush_head(&self) -> Result<()> {
        let _span = tu_obs::span("tsdb.flush_head");
        let mut head = self.head.write();
        if head.series.is_empty() {
            return Ok(());
        }
        let range = head.range;
        let block_no = self.next_block.fetch_add(1, Ordering::Relaxed);
        let storage_name = format!("tsdb/block-{block_no:06}");
        let mut chunks_file = Vec::new();
        let mut series_meta: HashMap<SeriesId, (Labels, Vec<ChunkRef>)> = HashMap::new();
        for (id, s) in head.series.iter_mut() {
            let mut refs = Vec::new();
            if !s.open.is_empty() {
                let first = s.open[0].t;
                let chunk = gorilla::compress_chunk(&s.open)?;
                s.full.push((first, chunk));
                s.open.clear();
            }
            for (first_ts, chunk) in s.full.drain(..) {
                refs.push(ChunkRef {
                    first_ts,
                    offset: chunks_file.len() as u64,
                    len: chunk.len() as u32,
                });
                chunks_file.extend_from_slice(&chunk);
            }
            series_meta.insert(*id, (s.labels.clone(), refs));
        }
        // The block index is the head index, serialized to its own file
        // and *also kept in memory* (the paper's block-metadata cost).
        let index = std::mem::take(&mut head.index);
        let index_file = serialize_index(&index, &series_meta);
        let chunks_file_len = chunks_file.len() as u64;
        if self.opts.slow_storage {
            self.env
                .object
                .put(&format!("{storage_name}/chunks"), &chunks_file)?;
            self.env
                .object
                .put(&format!("{storage_name}/index"), &index_file)?;
        } else {
            self.env
                .block
                .write_file(&format!("{storage_name}/chunks"), &chunks_file)?;
            self.env
                .block
                .write_file(&format!("{storage_name}/index"), &index_file)?;
        }
        self.blocks.write().push(Arc::new(BlockMeta {
            range,
            storage_name,
            index,
            series: series_meta,
            index_file_len: index_file.len() as u64,
            chunks_file_len,
        }));
        head.series.clear();
        head.range = TimeRange::empty();
        Ok(())
    }

    fn select_ids(
        index: &HashMap<String, HashMap<String, Vec<SeriesId>>>,
        selectors: &[tu_index::Selector],
    ) -> Vec<SeriesId> {
        let mut acc: Option<Vec<SeriesId>> = None;
        for sel in selectors {
            let mut ids: Vec<SeriesId> = Vec::new();
            if let Some(values) = index.get(&sel.key) {
                for (value, list) in values {
                    if sel.matches_value(value) {
                        ids.extend_from_slice(list);
                    }
                }
            }
            ids.sort_unstable();
            ids.dedup();
            acc = Some(match acc {
                None => ids,
                Some(prev) => prev
                    .into_iter()
                    .filter(|id| ids.binary_search(id).is_ok())
                    .collect(),
            });
            if acc.as_ref().is_some_and(|a| a.is_empty()) {
                break;
            }
        }
        acc.unwrap_or_default()
    }

    fn read_chunk(&self, block: &BlockMeta, r: &ChunkRef) -> Result<Vec<u8>> {
        let name = format!("{}/chunks", block.storage_name);
        let cache_key = if self.opts.slow_storage {
            format!("o:{name}")
        } else {
            format!("b:{name}")
        };
        if let Some(hit) = self.cache.get(&cache_key, r.offset) {
            return Ok(hit[0].1.clone());
        }
        let bytes = if self.opts.slow_storage {
            self.env.object.get_range(&name, r.offset, r.len as usize)?
        } else {
            self.env.block.read_range(&name, r.offset, r.len as usize)?
        };
        self.cache.insert(
            &cache_key,
            r.offset,
            Arc::new(vec![(Vec::new(), bytes.clone())]),
            bytes.len(),
        );
        Ok(bytes)
    }

    /// Query: selector evaluation against the head index plus every
    /// overlapping persisted block's index. With cloud storage the paper's
    /// tsdb fetches old partitions' index files from S3 for querying
    /// ("tsdb needs to fetch those large indexes in old time-partitions
    /// from S3", §4.3); that fetch is charged here.
    pub fn query(
        &self,
        selectors: &[tu_index::Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Labels, Vec<Sample>)>> {
        self.obs_queries.inc();
        let _span = tu_obs::span("tsdb.query");
        let mut per_series: HashMap<SeriesId, (Labels, Vec<Sample>)> = HashMap::new();
        // Persisted blocks.
        let blocks = self.blocks.read().clone();
        for block in &blocks {
            if !block.range.overlaps(&TimeRange::new(start, end)) {
                continue;
            }
            if self.opts.slow_storage {
                let _ = self
                    .env
                    .object
                    .get(&format!("{}/index", block.storage_name))?;
            }
            for id in Self::select_ids(&block.index, selectors) {
                if let Some((labels, refs)) = block.series.get(&id) {
                    let entry = per_series
                        .entry(id)
                        .or_insert_with(|| (labels.clone(), Vec::new()));
                    for r in refs {
                        let bytes = self.read_chunk(block, r)?;
                        for s in gorilla::decompress_chunk(&bytes)? {
                            if s.t >= start && s.t < end {
                                entry.1.push(s);
                            }
                        }
                    }
                }
            }
        }
        // Head.
        {
            let head = self.head.read();
            for id in Self::select_ids(&head.index, selectors) {
                if let Some(s) = head.series.get(&id) {
                    let entry = per_series
                        .entry(id)
                        .or_insert_with(|| (s.labels.clone(), Vec::new()));
                    for (_, chunk) in &s.full {
                        for sample in gorilla::decompress_chunk(chunk)? {
                            if sample.t >= start && sample.t < end {
                                entry.1.push(sample);
                            }
                        }
                    }
                    for sample in &s.open {
                        if sample.t >= start && sample.t < end {
                            entry.1.push(*sample);
                        }
                    }
                }
            }
        }
        let mut out: Vec<(Labels, Vec<Sample>)> = per_series
            .into_values()
            .map(|(labels, mut samples)| {
                samples.sort_by_key(|s| s.t);
                samples.dedup_by_key(|s| s.t);
                (labels, samples)
            })
            .filter(|(_, samples)| !samples.is_empty())
            .collect();
        out.sort_by_cached_key(|r| r.0.to_bytes());
        Ok(out)
    }

    /// Number of live series.
    pub fn series_count(&self) -> usize {
        self.by_labels.read().len()
    }

    /// Memory breakdown (Figure 3's categories), estimated structurally.
    /// "Inverted index" counts the nested hash maps of *every* partition
    /// (head and persisted blocks — the paper keeps them all in memory);
    /// "block metadata" counts persisted blocks' label sets and chunk
    /// references.
    pub fn memory(&self) -> TsdbMemory {
        let head = self.head.read();
        let mut index_bytes = nested_index_bytes(&head.index);
        let samples_bytes: usize = head
            .series
            .values()
            .map(|s| {
                s.labels.heap_bytes()
                    + s.open.capacity() * std::mem::size_of::<Sample>()
                    + s.full.iter().map(|(_, c)| c.capacity() + 24).sum::<usize>()
                    + 64
            })
            .sum();
        let mut block_meta_bytes = 0;
        for b in self.blocks.read().iter() {
            index_bytes += nested_index_bytes(&b.index);
            block_meta_bytes += b
                .series
                .values()
                .map(|(l, refs)| l.heap_bytes() + refs.len() * 24 + 48)
                .sum::<usize>();
        }
        TsdbMemory {
            index_bytes,
            block_meta_bytes,
            samples_bytes,
        }
    }

    /// Total persisted index / chunk bytes (Table 3).
    pub fn disk_sizes(&self) -> (u64, u64) {
        let blocks = self.blocks.read();
        (
            blocks.iter().map(|b| b.index_file_len).sum(),
            blocks.iter().map(|b| b.chunks_file_len).sum(),
        )
    }

    pub fn block_count(&self) -> usize {
        self.blocks.read().len()
    }

    pub fn storage(&self) -> &StorageEnv {
        &self.env
    }

    /// Drops cached chunk bytes (benchmarking).
    pub fn clear_block_cache(&self) {
        self.cache.clear();
    }
}

fn nested_index_bytes(index: &HashMap<String, HashMap<String, Vec<SeriesId>>>) -> usize {
    // Hash maps over-allocate to keep load factors low; charge the
    // bucket arrays plus string and postings storage.
    let mut total = index.capacity() * 64;
    for (k, values) in index {
        total += k.capacity() + values.capacity() * 64;
        for (v, list) in values {
            total += v.capacity() + list.capacity() * std::mem::size_of::<SeriesId>() + 32;
        }
    }
    total
}

fn serialize_index(
    index: &HashMap<String, HashMap<String, Vec<SeriesId>>>,
    series: &HashMap<SeriesId, (Labels, Vec<ChunkRef>)>,
) -> Vec<u8> {
    use tu_common::varint;
    let mut out = Vec::new();
    varint::write_u64(&mut out, index.len() as u64);
    let mut keys: Vec<&String> = index.keys().collect();
    keys.sort();
    for k in keys {
        let values = &index[k];
        varint::write_u64(&mut out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
        varint::write_u64(&mut out, values.len() as u64);
        let mut vals: Vec<&String> = values.keys().collect();
        vals.sort();
        for v in vals {
            varint::write_u64(&mut out, v.len() as u64);
            out.extend_from_slice(v.as_bytes());
            let list = &values[v];
            varint::write_u64(&mut out, list.len() as u64);
            for id in list {
                varint::write_u64(&mut out, *id);
            }
        }
    }
    varint::write_u64(&mut out, series.len() as u64);
    let mut ids: Vec<&SeriesId> = series.keys().collect();
    ids.sort();
    for id in ids {
        let (labels, refs) = &series[id];
        varint::write_u64(&mut out, *id);
        let lb = labels.to_bytes();
        varint::write_u64(&mut out, lb.len() as u64);
        out.extend_from_slice(&lb);
        varint::write_u64(&mut out, refs.len() as u64);
        for r in refs {
            varint::write_u64(&mut out, r.first_ts as u64);
            varint::write_u64(&mut out, r.offset);
            varint::write_u64(&mut out, r.len as u64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::LatencyMode;
    use tu_index::Selector;

    const HOUR: i64 = 3_600_000;

    fn engine(slow: bool) -> (tempfile::TempDir, Tsdb) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = Tsdb::open(
            env,
            TsdbOptions {
                chunk_samples: 8,
                slow_storage: slow,
                ..TsdbOptions::default()
            },
        )
        .unwrap();
        (dir, t)
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn ingest_and_query_counters_attribute_to_trace_contexts() {
        // The tsdb.* counters are TracedCounters (counter-discipline), so a
        // scoped TraceContext must see exactly the samples/queries charged
        // inside it — the same attribution invariant `query_profiled`
        // relies on for the TU engine.
        let (_d, t) = engine(false);
        let l = labels(&[("metric", "mem"), ("host", "h9")]);
        let ctx = tu_obs::TraceContext::start("tsdb-unit");
        let id = t.put(&l, 1_000, 0.5).unwrap();
        t.put_by_id(id, 2_000, 0.6).unwrap();
        t.query(&[Selector::exact("metric", "mem")], 0, HOUR)
            .unwrap();
        let summary = ctx.finish();
        assert_eq!(summary.counter("tsdb.ingest.samples"), 2);
        assert_eq!(summary.counter("tsdb.query.requests"), 1);
        // Outside any context the same counters keep charging only the
        // global registry.
        t.put_by_id(id, 3_000, 0.7).unwrap();
        assert_eq!(summary.counter("tsdb.ingest.samples"), 2);
    }

    #[test]
    fn head_put_and_query() {
        let (_d, t) = engine(true);
        let l = labels(&[("metric", "cpu"), ("host", "h1")]);
        let id = t.put(&l, 1_000, 0.5).unwrap();
        t.put_by_id(id, 2_000, 0.6).unwrap();
        let res = t
            .query(&[Selector::exact("metric", "cpu")], 0, HOUR)
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].1.len(), 2);
    }

    #[test]
    fn out_of_order_is_rejected() {
        let (_d, t) = engine(true);
        let id = t.put(&labels(&[("m", "x")]), 10_000, 1.0).unwrap();
        assert!(t.put_by_id(id, 5_000, 0.5).is_err());
        assert!(t.put_by_id(id, 10_000, 0.5).is_err(), "duplicates too");
    }

    #[test]
    fn window_roll_persists_block_and_keeps_data_queryable() {
        let (_d, t) = engine(true);
        let l = labels(&[("metric", "cpu")]);
        let id = t.put(&l, 0, 0.0).unwrap();
        for i in 1..100i64 {
            t.put_by_id(id, i * 2 * 60_000, i as f64).unwrap(); // 2-min interval
        }
        assert!(t.block_count() >= 1, "head must have rolled");
        let res = t
            .query(&[Selector::exact("metric", "cpu")], 0, 10 * HOUR)
            .unwrap();
        assert_eq!(res[0].1.len(), 100);
        // Chunks actually live on the object store.
        assert!(t.storage().object.stats().put_requests > 0);
    }

    #[test]
    fn fast_storage_mode_writes_to_block_store() {
        let (_d, t) = engine(false);
        let id = t.put(&labels(&[("m", "x")]), 0, 1.0).unwrap();
        for i in 1..200i64 {
            t.put_by_id(id, i * 2 * 60_000, 1.0).unwrap();
        }
        assert!(t.storage().block.stats().put_requests > 0);
        assert_eq!(t.storage().object.stats().put_requests, 0);
    }

    #[test]
    fn memory_grows_with_series_count() {
        let (_d, t) = engine(true);
        let m0 = t.memory().total();
        for i in 0..500 {
            t.put(
                &labels(&[("host", &format!("h{i}")), ("metric", "cpu")]),
                1_000,
                1.0,
            )
            .unwrap();
        }
        let m1 = t.memory().total();
        assert!(m1 > m0 + 100 * 500, "index+samples must grow: {m0} -> {m1}");
    }

    #[test]
    fn block_metadata_stays_in_memory_after_flush() {
        let (_d, t) = engine(true);
        for i in 0..100 {
            t.put(
                &labels(&[("host", &format!("h{i}")), ("metric", "cpu")]),
                1_000,
                1.0,
            )
            .unwrap();
        }
        t.flush_head().unwrap();
        let m = t.memory();
        assert!(m.block_meta_bytes > 0);
        assert_eq!(m.samples_bytes, 0, "head empty after flush");
        let (index_len, chunks_len) = t.disk_sizes();
        assert!(index_len > 0 && chunks_len > 0);
    }

    #[test]
    fn regex_selectors_match_head_and_blocks() {
        let (_d, t) = engine(true);
        for m in ["disk_read", "disk_write", "cpu_user"] {
            t.put(&labels(&[("metric", m)]), 1_000, 1.0).unwrap();
        }
        t.flush_head().unwrap();
        for m in ["disk_io", "mem_used"] {
            t.put(&labels(&[("metric", m)]), 8 * HOUR, 1.0).unwrap();
        }
        let res = t
            .query(
                &[Selector::regex("metric", "disk.*").unwrap()],
                0,
                10 * HOUR,
            )
            .unwrap();
        assert_eq!(res.len(), 3);
    }
}

//! The "tsdb-LDB" baseline (§4.1): the Prometheus-style head
//! architecture, but flushed chunks are stored in a classic leveled LSM
//! whose SSTables live on S3 — the paper's §2.4 "Challenge 2" prototype
//! promoted to a baseline.
//!
//! Because the head flush only enqueues chunks into the LSM's memtable,
//! foreground insertion is not blocked (the paper notes tsdb-LDB
//! out-ingests TU-LDB for this reason) — but compaction then reads and
//! merges piles of overlapping SSTables on S3, and pending data
//! accumulates in memory when compaction cannot keep up.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use tu_cloud::StorageEnv;
use tu_common::lockdep::{self, RwLock};
use tu_common::{Error, Labels, Result, Sample, SeriesId, Timestamp, Value};
use tu_compress::gorilla;
use tu_lsm::leveled::{LeveledOptions, LeveledTree};

/// tsdb head + leveled LSM chunk storage on the slow tier.
pub struct TsdbLdb {
    tree: LeveledTree,
    chunk_samples: usize,
    /// Head window length — like tsdb, the most recent window's samples
    /// stay in memory and are flushed wholesale when it closes (2 hours).
    block_range_ms: i64,
    window: RwLock<tu_common::TimeRange>,
    by_labels: RwLock<HashMap<Vec<u8>, SeriesId>>,
    labels_of: RwLock<HashMap<SeriesId, Labels>>,
    heads: RwLock<HashMap<SeriesId, Vec<Sample>>>,
    index: RwLock<HashMap<String, HashMap<String, Vec<SeriesId>>>>,
    next_series: AtomicU64,
    /// Longest time span of any flushed chunk (query slack).
    max_chunk_span: std::sync::atomic::AtomicI64,
}

impl TsdbLdb {
    /// Opens the engine. All LSM levels live on the object store
    /// (`slow_level_start = 0`), matching the paper's description of
    /// "LevelDB whose SSTables are stored in S3".
    pub fn open(env: StorageEnv, chunk_samples: usize, mut lsm: LeveledOptions) -> Result<Self> {
        lsm.slow_level_start = 0;
        Ok(TsdbLdb {
            tree: LeveledTree::open(env, lsm)?,
            chunk_samples,
            block_range_ms: 2 * 60 * 60 * 1000,
            window: RwLock::new(&lockdep::TSDB_WINDOW, tu_common::TimeRange::empty()),
            by_labels: RwLock::new(&lockdep::TSDB_BY_LABELS, HashMap::new()),
            labels_of: RwLock::new(&lockdep::TSDB_LABELS_OF, HashMap::new()),
            heads: RwLock::new(&lockdep::TSDB_HEAD, HashMap::new()),
            index: RwLock::new(&lockdep::TSDB_INDEX, HashMap::new()),
            next_series: AtomicU64::new(1),
            max_chunk_span: std::sync::atomic::AtomicI64::new(0),
        })
    }

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
        let mut index = self.index.write();
        for (k, vv) in labels.iter() {
            index
                .entry(k.to_string())
                .or_default()
                .entry(vv.to_string())
                .or_default()
                .push(id);
        }
        id
    }

    pub fn put_by_id(&self, id: SeriesId, t: Timestamp, v: Value) -> Result<()> {
        if !self.labels_of.read().contains_key(&id) {
            return Err(Error::not_found(format!("series {id}")));
        }
        // Head-window roll, as in tsdb: the closing window's samples are
        // flushed into the LSM wholesale.
        loop {
            let w = *self.window.read();
            if w.is_empty() {
                let start = t.div_euclid(self.block_range_ms) * self.block_range_ms;
                let mut window = self.window.write();
                if window.is_empty() {
                    *window = tu_common::TimeRange::new(start, start + self.block_range_ms);
                }
                continue;
            }
            if t < w.start {
                return Err(Error::invalid("tsdb-LDB rejects out-of-order samples"));
            }
            if t >= w.end {
                self.flush_window()?;
                let start = t.div_euclid(self.block_range_ms) * self.block_range_ms;
                *self.window.write() =
                    tu_common::TimeRange::new(start, start + self.block_range_ms);
                continue;
            }
            break;
        }
        let mut heads = self.heads.write();
        let head = heads.entry(id).or_default();
        if let Some(last) = head.last() {
            if t <= last.t {
                return Err(Error::invalid("tsdb-LDB rejects out-of-order samples"));
            }
        }
        head.push(Sample::new(t, v));
        Ok(())
    }

    /// Flushes every head series of the closing window into the LSM (the
    /// background flush; compaction is deferred — it cannot keep up on S3,
    /// which is the paper's point about tsdb-LDB's memory accumulation).
    fn flush_window(&self) -> Result<()> {
        let drained: Vec<(SeriesId, Vec<Sample>)> = {
            let mut heads = self.heads.write();
            heads
                .iter_mut()
                .filter(|(_, h)| !h.is_empty())
                .map(|(id, h)| (*id, std::mem::take(h)))
                .collect()
        };
        for (id, samples) in drained {
            for chunk_rows in samples.chunks(self.chunk_samples) {
                let chunk = gorilla::compress_chunk(chunk_rows)?;
                let span = chunk_rows[chunk_rows.len() - 1].t - chunk_rows[0].t;
                self.max_chunk_span
                    .fetch_max(span, std::sync::atomic::Ordering::Relaxed);
                self.tree.put(id, chunk_rows[0].t, chunk);
            }
        }
        self.tree.seal();
        self.tree.flush_memtables()
    }

    /// Seals all heads and compacts the LSM to quiescence.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_window()?;
        *self.window.write() = tu_common::TimeRange::empty();
        self.tree.maintain()
    }

    /// Finishes pending compactions without sealing the in-memory head
    /// window (the natural steady state the paper queries against).
    pub fn settle(&self) -> Result<()> {
        self.tree.maintain()
    }

    pub fn query(
        &self,
        selectors: &[tu_index::Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Labels, Vec<Sample>)>> {
        let ids = {
            let index = self.index.read();
            let mut acc: Option<Vec<SeriesId>> = None;
            for sel in selectors {
                let mut matched: Vec<SeriesId> = Vec::new();
                if let Some(values) = index.get(&sel.key) {
                    for (value, list) in values {
                        if sel.matches_value(value) {
                            matched.extend_from_slice(list);
                        }
                    }
                }
                matched.sort_unstable();
                matched.dedup();
                acc = Some(match acc {
                    None => matched,
                    Some(prev) => prev
                        .into_iter()
                        .filter(|id| matched.binary_search(id).is_ok())
                        .collect(),
                });
            }
            acc.unwrap_or_default()
        };
        let mut out = Vec::new();
        for id in ids {
            let labels = self.labels_of.read().get(&id).cloned().expect("indexed");
            let mut samples: Vec<Sample> = Vec::new();
            // Chunks starting earlier than the longest chunk span cannot
            // contain samples in range.
            let slack = self
                .max_chunk_span
                .load(std::sync::atomic::Ordering::Relaxed)
                + 1;
            for (_, chunk) in self
                .tree
                .range_chunks(id, start.saturating_sub(slack), end)?
            {
                for s in gorilla::decompress_chunk(&chunk)? {
                    if s.t >= start && s.t < end {
                        samples.push(s);
                    }
                }
            }
            if let Some(head) = self.heads.read().get(&id) {
                for s in head {
                    if s.t >= start && s.t < end {
                        samples.push(*s);
                    }
                }
            }
            samples.sort_by_key(|s| s.t);
            samples.dedup_by_key(|s| s.t);
            if !samples.is_empty() {
                out.push((labels, samples));
            }
        }
        out.sort_by_cached_key(|r| r.0.to_bytes());
        Ok(out)
    }

    pub fn series_count(&self) -> usize {
        self.by_labels.read().len()
    }

    pub fn lsm_stats(&self) -> tu_lsm::leveled::LeveledStats {
        self.tree.stats()
    }

    /// Drops cached data blocks (benchmarking).
    pub fn clear_block_cache(&self) {
        self.tree.clear_block_cache();
    }

    /// Heap bytes of heads + index (structural estimate).
    pub fn memory_bytes(&self) -> usize {
        let heads: usize = self
            .heads
            .read()
            .values()
            .map(|h| h.capacity() * std::mem::size_of::<Sample>() + 48)
            .sum();
        let mut index_bytes = 0;
        for (k, values) in self.index.read().iter() {
            index_bytes += k.capacity() + values.capacity() * 64;
            for (v, list) in values {
                index_bytes += v.capacity() + list.capacity() * 8 + 32;
            }
        }
        let labels: usize = self
            .labels_of
            .read()
            .values()
            .map(|l| l.heap_bytes() + 16)
            .sum();
        heads + index_bytes + labels + self.tree.memtable_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::LatencyMode;
    use tu_index::Selector;

    fn engine() -> (tempfile::TempDir, TsdbLdb) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TsdbLdb::open(
            env,
            8,
            LeveledOptions {
                memtable_bytes: 16 << 10,
                l0_table_trigger: 2,
                base_level_bytes: 32 << 10,
                max_sstable_bytes: 16 << 10,
                ..LeveledOptions::default()
            },
        )
        .unwrap();
        (dir, t)
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn put_flush_query_round_trip() {
        let (_d, t) = engine();
        let l = labels(&[("metric", "cpu"), ("host", "h1")]);
        let id = t.put(&l, 0, 0.0).unwrap();
        for i in 1..100i64 {
            t.put_by_id(id, i * 1000, i as f64).unwrap();
        }
        t.flush_all().unwrap();
        let res = t
            .query(&[Selector::exact("metric", "cpu")], 0, 200_000)
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].1.len(), 100);
    }

    #[test]
    fn chunks_reach_the_object_store() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TsdbLdb::open(
            env.clone(),
            8,
            LeveledOptions {
                memtable_bytes: 8 << 10,
                ..LeveledOptions::default()
            },
        )
        .unwrap();
        for sid in 0..8 {
            let id = t
                .put(&labels(&[("host", &format!("h{sid}"))]), 0, 0.0)
                .unwrap();
            for i in 1..64i64 {
                t.put_by_id(id, i * 1000, 1.0).unwrap();
            }
        }
        t.flush_all().unwrap();
        assert!(env.object.stats().put_requests > 0, "all levels on S3");
        assert_eq!(env.block.stats().put_requests, 0);
    }

    #[test]
    fn rejects_out_of_order() {
        let (_d, t) = engine();
        let id = t.put(&labels(&[("m", "x")]), 1000, 1.0).unwrap();
        assert!(t.put_by_id(id, 500, 1.0).is_err());
    }

    #[test]
    fn memory_tracks_heads_and_index() {
        let (_d, t) = engine();
        let m0 = t.memory_bytes();
        for i in 0..200 {
            t.put(&labels(&[("host", &format!("h{i}"))]), 1000, 1.0)
                .unwrap();
        }
        assert!(t.memory_bytes() > m0);
    }
}

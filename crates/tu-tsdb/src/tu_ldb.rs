//! The "TU-LDB" baseline (§4.1): TimeUnion's memory-efficient layer — the
//! trie-backed global index and file-backed head chunks — over a *classic*
//! leveled LSM, with the first two levels on EBS and the deeper levels on
//! S3.
//!
//! This is the ablation isolating the time-partitioned tree: TU-LDB shares
//! everything with TimeUnion except the storage data structure, so the gap
//! between the two is exactly the paper's §3.3 contribution (recent data
//! scattered across uncompacted top levels; compactions that read piles of
//! overlapping SSTables from S3).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_cloud::StorageEnv;
use tu_common::lockdep::{self, Mutex, RwLock};
use tu_common::{Error, Labels, Result, Sample, SeriesId, Timestamp, Value};
use tu_compress::gorilla;
use tu_core::object::{self, Arenas, Object};
use tu_index::{InvertedIndex, Selector};
use tu_lsm::leveled::{LeveledOptions, LeveledTree};
use tu_mmap::pagecache::PageCache;

/// TimeUnion memory layer over a classic leveled LSM.
pub struct TuLdb {
    index: InvertedIndex,
    tree: LeveledTree,
    arenas: Arenas,
    page_cache: Arc<PageCache>,
    chunk_samples: usize,
    series: RwLock<HashMap<SeriesId, Arc<Mutex<Object>>>>,
    by_labels: RwLock<HashMap<Vec<u8>, SeriesId>>,
    next_series: AtomicU64,
    max_chunk_span: std::sync::atomic::AtomicI64,
}

impl TuLdb {
    /// Opens the engine rooted at `dir`. `lsm.slow_level_start` defaults
    /// to 2 (L0/L1 on the fast tier) per the paper.
    pub fn open(
        dir: impl Into<PathBuf>,
        env: StorageEnv,
        chunk_samples: usize,
        page_cache_bytes: usize,
        lsm: LeveledOptions,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let page_cache = PageCache::new(page_cache_bytes);
        let index = InvertedIndex::open(page_cache.clone(), dir.join("index"), 1 << 16)?;
        let arenas = Arenas::open(&page_cache, &dir.join("heads"), chunk_samples, 1 << 14)?;
        Ok(TuLdb {
            index,
            tree: LeveledTree::open(env, lsm)?,
            arenas,
            page_cache,
            chunk_samples,
            series: RwLock::new(&lockdep::TSDB_SERIES_MAP, HashMap::new()),
            by_labels: RwLock::new(&lockdep::TSDB_BY_LABELS, HashMap::new()),
            next_series: AtomicU64::new(1),
            max_chunk_span: std::sync::atomic::AtomicI64::new(0),
        })
    }

    pub fn put(&self, labels: &Labels, t: Timestamp, v: Value) -> Result<SeriesId> {
        let id = self.get_or_create(labels)?;
        self.put_by_id(id, t, v)?;
        Ok(id)
    }

    fn get_or_create(&self, labels: &Labels) -> Result<SeriesId> {
        let key = labels.to_bytes();
        if let Some(&id) = self.by_labels.read().get(&key) {
            return Ok(id);
        }
        let mut by_labels = self.by_labels.write();
        if let Some(&id) = by_labels.get(&key) {
            return Ok(id);
        }
        let id = self.next_series.fetch_add(1, Ordering::Relaxed);
        let obj = Object::new(id, labels.clone(), &self.arenas)?;
        self.series
            .write()
            .insert(id, Arc::new(Mutex::new(&lockdep::TSDB_OBJECT, obj)));
        by_labels.insert(key, id);
        drop(by_labels);
        self.index.add(labels, id)?;
        Ok(id)
    }

    pub fn put_by_id(&self, id: SeriesId, t: Timestamp, v: Value) -> Result<()> {
        let obj = self
            .series
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("series {id}")))?;
        let mut flushes = Vec::new();
        let mut o = obj.lock();
        // No WAL here, so sequence numbers do not matter; no slow-tier
        // partitions either, so a late sample is one chunk.
        o.insert_run(
            &self.arenas,
            &object::encode_row(t, v),
            self.chunk_samples,
            0,
            Some(&|| i64::MAX),
            &mut flushes,
        )?;
        drop(o);
        for f in flushes {
            self.max_chunk_span
                .fetch_max(f.last_ts - f.first_ts, std::sync::atomic::Ordering::Relaxed);
            if self.tree.put(id, f.first_ts, f.chunk) {
                self.tree.flush_memtables()?;
            }
        }
        Ok(())
    }

    /// Seals every head and compacts to quiescence.
    pub fn flush_all(&self) -> Result<()> {
        let objs: Vec<Arc<Mutex<Object>>> = self.series.read().values().cloned().collect();
        for obj in objs {
            let mut o = obj.lock();
            if let Some(f) = o.seal(&self.arenas, 0)? {
                let id = o.id;
                drop(o);
                self.max_chunk_span
                    .fetch_max(f.last_ts - f.first_ts, std::sync::atomic::Ordering::Relaxed);
                self.tree.put(id, f.first_ts, f.chunk);
            }
        }
        self.tree.seal();
        self.tree.maintain()
    }

    /// Finishes pending compactions without sealing head chunks.
    pub fn settle(&self) -> Result<()> {
        self.tree.maintain()
    }

    pub fn query(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Labels, Vec<Sample>)>> {
        let ids = self.index.select(selectors)?;
        let mut out = Vec::new();
        for id in ids {
            let Some(obj) = self.series.read().get(&id).cloned() else {
                continue;
            };
            let mut samples: Vec<Sample> = Vec::new();
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
            let o = obj.lock();
            for s in o.head_samples(&self.arenas, 0)? {
                if s.t >= start && s.t < end {
                    samples.push(s);
                }
            }
            let labels = o.labels.clone();
            drop(o);
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

    /// Heap + resident memory (structural estimate).
    pub fn memory_bytes(&self) -> usize {
        let objects: usize = self
            .series
            .read()
            .values()
            .map(|o| o.lock().heap_bytes())
            .sum();
        objects
            + self.index.heap_bytes()
            + self.page_cache.stats().resident_bytes as usize
            + self.tree.memtable_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::LatencyMode;

    fn engine() -> (tempfile::TempDir, TuLdb) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path().join("store"), LatencyMode::Off).unwrap();
        let t = TuLdb::open(
            dir.path().join("mem"),
            env,
            8,
            8 << 20,
            LeveledOptions {
                memtable_bytes: 16 << 10,
                l0_table_trigger: 2,
                base_level_bytes: 32 << 10,
                max_sstable_bytes: 16 << 10,
                slow_level_start: 2,
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
    fn put_query_round_trip_through_lsm() {
        let (_d, t) = engine();
        let id = t.put(&labels(&[("metric", "cpu")]), 0, 0.0).unwrap();
        for i in 1..200i64 {
            t.put_by_id(id, i * 1000, i as f64).unwrap();
        }
        t.flush_all().unwrap();
        let res = t
            .query(&[Selector::exact("metric", "cpu")], 0, 300_000)
            .unwrap();
        assert_eq!(res[0].1.len(), 200);
    }

    #[test]
    fn out_of_order_goes_through_early_flush() {
        let (_d, t) = engine();
        let id = t.put(&labels(&[("m", "x")]), 100_000, 1.0).unwrap();
        t.put_by_id(id, 50_000, 0.5).unwrap();
        t.flush_all().unwrap();
        let res = t.query(&[Selector::exact("m", "x")], 0, 200_000).unwrap();
        let ts: Vec<i64> = res[0].1.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![50_000, 100_000]);
    }

    #[test]
    fn trie_index_supports_regex() {
        let (_d, t) = engine();
        for m in ["disk_a", "disk_b", "cpu"] {
            t.put(&labels(&[("metric", m)]), 1000, 1.0).unwrap();
        }
        let res = t
            .query(&[Selector::regex("metric", "disk_.*").unwrap()], 0, 2000)
            .unwrap();
        assert_eq!(res.len(), 2);
    }
}

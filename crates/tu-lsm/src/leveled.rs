//! A classic leveled LSM-tree (LevelDB-style), used by the paper's
//! baselines: *tsdb-LDB* (chunk storage on S3) and *TU-LDB* (TimeUnion's
//! memory layer over a traditional LSM with the first two levels on EBS).
//!
//! The defining behaviour the paper measures against (§2.4, Figure 4): a
//! compaction selects a victim table and must read **all overlapping
//! SSTables in the next level**, which on slow cloud storage turns into
//! Get/Put request storms — the cost the time-partitioned design avoids.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

use tu_cloud::StorageEnv;
use tu_common::keys::encode_key;
use tu_common::{Result, Timestamp};

use crate::cache::BlockCache;
use crate::memtable::MemTableSet;
use crate::sstable::{Table, TableBuilder, TableProps, TableSource};

/// Configuration of the leveled tree.
#[derive(Debug, Clone)]
pub struct LeveledOptions {
    /// Seal the active memtable beyond this many payload bytes.
    pub memtable_bytes: usize,
    /// L0 table count that triggers compaction into L1 (LevelDB: 4).
    pub l0_table_trigger: usize,
    /// Target byte size of L1; level `l` targets `base · multiplier^(l-1)`.
    pub base_level_bytes: u64,
    /// Level size multiplier `M` (LevelDB: 10).
    pub multiplier: u64,
    /// Split compaction outputs into tables of roughly this many bytes.
    pub max_sstable_bytes: usize,
    /// Levels at or beyond this index live on the slow tier. `0` puts
    /// everything on S3 (tsdb-LDB), `2` keeps L0/L1 on EBS (TU-LDB),
    /// `u8::MAX` keeps everything on EBS (EBS-only evaluation).
    pub slow_level_start: u8,
    /// Block-cache budget.
    pub block_cache_bytes: usize,
    /// Number of levels.
    pub max_levels: usize,
}

impl Default for LeveledOptions {
    fn default() -> Self {
        LeveledOptions {
            memtable_bytes: 4 << 20,
            l0_table_trigger: 4,
            base_level_bytes: 8 << 20,
            multiplier: 10,
            max_sstable_bytes: 2 << 20,
            slow_level_start: 2,
            block_cache_bytes: 64 << 20,
            max_levels: 7,
        }
    }
}

/// Counters for the Figure 4 experiment.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeveledStats {
    pub flushes: u64,
    pub compactions: u64,
    /// Total SSTables read across all compactions (Figure 4b bottom).
    pub compaction_tables_read: u64,
    /// Bytes written by flushes + compactions (Figure 4b top).
    pub bytes_written: u64,
    pub fast_bytes: u64,
    pub slow_bytes: u64,
    pub tables_per_level: [usize; 8],
}

#[derive(Debug, Clone)]
struct TableMeta {
    name: String,
    seq: u64,
    props: TableProps,
    on_slow: bool,
}

/// The leveled LSM-tree.
pub struct LeveledTree {
    env: StorageEnv,
    opts: LeveledOptions,
    mem: MemTableSet,
    /// `levels[0]` may overlap; deeper levels are sorted and disjoint.
    levels: Mutex<Vec<Vec<TableMeta>>>,
    cache: Arc<BlockCache>,
    tables: Mutex<std::collections::HashMap<String, Arc<Table>>>,
    next_seq: AtomicU64,
    stats: Mutex<LeveledStats>,
}

impl LeveledTree {
    pub fn open(env: StorageEnv, opts: LeveledOptions) -> Result<Self> {
        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let levels = vec![Vec::new(); opts.max_levels];
        Ok(LeveledTree {
            env,
            mem: MemTableSet::new(),
            levels: Mutex::new(&lockdep::LSM_LEVELED_LEVELS, levels),
            cache,
            tables: Mutex::new(
                &lockdep::LSM_LEVELED_TABLES,
                std::collections::HashMap::new(),
            ),
            next_seq: AtomicU64::new(1),
            stats: Mutex::new(&lockdep::LSM_LEVELED_STATS, LeveledStats::default()),
            opts,
        })
    }

    /// Inserts a chunk. Returns true when the memtable sealed (caller
    /// should run [`LeveledTree::maintain`]).
    pub fn put(&self, id: u64, start_ts: Timestamp, chunk: Vec<u8>) -> bool {
        let key = encode_key(id, start_ts).to_vec();
        let size = self.mem.put(key, chunk);
        if size >= self.opts.memtable_bytes {
            self.mem.seal();
            true
        } else {
            false
        }
    }

    pub fn seal(&self) {
        self.mem.seal();
    }

    fn next_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn level_is_slow(&self, level: usize) -> bool {
        level >= self.opts.slow_level_start as usize
    }

    fn source(&self, meta: &TableMeta) -> TableSource {
        if meta.on_slow {
            TableSource::Object(self.env.object.clone(), meta.name.clone())
        } else {
            TableSource::Block(self.env.block.clone(), meta.name.clone())
        }
    }

    fn open_table(&self, meta: &TableMeta) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.lock().get(&meta.name) {
            return Ok(t.clone());
        }
        let table = Arc::new(Table::open(self.source(meta), Some(self.cache.clone()))?);
        self.tables.lock().insert(meta.name.clone(), table.clone());
        Ok(table)
    }

    fn delete_table(&self, meta: &TableMeta) -> Result<()> {
        self.tables.lock().remove(&meta.name);
        if meta.on_slow {
            self.env.object.delete(&meta.name)?;
            self.cache.invalidate_table(&format!("o:{}", meta.name));
        } else {
            self.env.block.delete(&meta.name)?;
            self.cache.invalidate_table(&format!("b:{}", meta.name));
        }
        Ok(())
    }

    fn build_tables(&self, entries: &[(Vec<u8>, Vec<u8>)], level: usize) -> Result<Vec<TableMeta>> {
        let on_slow = self.level_is_slow(level);
        let mut out = Vec::new();
        let mut builder = TableBuilder::new();
        let mut flush = |builder: &mut TableBuilder| -> Result<()> {
            if builder.is_empty() {
                return Ok(());
            }
            let done = std::mem::take(builder);
            let (bytes, props) = done.finish()?;
            let seq = self.next_seq();
            let name = format!("ldb/l{level}/sst-{seq:08}");
            if on_slow {
                self.env.object.put(&name, &bytes)?;
            } else {
                self.env.block.write_file(&name, &bytes)?;
            }
            self.stats.lock().bytes_written += bytes.len() as u64;
            out.push(TableMeta {
                name,
                seq,
                props,
                on_slow,
            });
            Ok(())
        };
        for (k, v) in entries {
            builder.add(k, v)?;
            if builder.estimated_len() >= self.opts.max_sstable_bytes {
                flush(&mut builder)?;
            }
        }
        flush(&mut builder)?;
        Ok(out)
    }

    /// Flushes sealed memtables into L0 without compacting — what the
    /// background flush thread does while inserts continue (the paper
    /// notes tsdb-LDB "flushes in the background without affecting the
    /// foreground insertion" while compaction lags).
    pub fn flush_memtables(&self) -> Result<()> {
        while let Some(imm) = self.mem.oldest_immutable() {
            let entries: Vec<(Vec<u8>, Vec<u8>)> =
                imm.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            let metas = self.build_tables(&entries, 0)?;
            self.levels.lock()[0].extend(metas);
            self.mem.retire(&imm);
            self.stats.lock().flushes += 1;
        }
        Ok(())
    }

    /// Runs flushes and compactions to quiescence.
    pub fn maintain(&self) -> Result<()> {
        self.flush_memtables()?;
        while let Some(level) = self.pick_compaction_level() {
            self.compact_level(level)?;
        }
        Ok(())
    }

    fn level_bytes(&self, tables: &[TableMeta]) -> u64 {
        tables.iter().map(|t| t.props.file_len).sum()
    }

    fn level_target(&self, level: usize) -> u64 {
        self.opts.base_level_bytes * self.opts.multiplier.pow(level.saturating_sub(1) as u32)
    }

    fn pick_compaction_level(&self) -> Option<usize> {
        let lv = self.levels.lock();
        if lv[0].len() > self.opts.l0_table_trigger {
            return Some(0);
        }
        for level in 1..lv.len() - 1 {
            if self.level_bytes(&lv[level]) > self.level_target(level) {
                return Some(level);
            }
        }
        None
    }

    fn compact_level(&self, level: usize) -> Result<()> {
        let (victims, overlaps) = {
            let mut lv = self.levels.lock();
            let victims: Vec<TableMeta> = if level == 0 {
                std::mem::take(&mut lv[0])
            } else {
                // Oldest table in the level is the victim.
                let idx = lv[level]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| t.seq)
                    .map(|(i, _)| i);
                match idx {
                    Some(i) => vec![lv[level].remove(i)],
                    None => return Ok(()),
                }
            };
            if victims.is_empty() {
                return Ok(());
            }
            let (min_key, max_key) = match (
                victims.iter().map(|t| &t.props.first_key).min(),
                victims.iter().map(|t| &t.props.last_key).max(),
            ) {
                (Some(lo), Some(hi)) => (lo.clone(), hi.clone()),
                // Unreachable: victims was checked non-empty above.
                _ => return Ok(()),
            };
            // All overlapping tables in the next level are read (the
            // behaviour Figure 4 quantifies).
            let next = level + 1;
            let mut overlaps = Vec::new();
            lv[next].retain(|t| {
                let keep = t.props.last_key < min_key || t.props.first_key > max_key;
                if !keep {
                    overlaps.push(t.clone());
                }
                keep
            });
            (victims, overlaps)
        };
        // Merge newest-wins: higher seq wins (victims from the shallower
        // level are always newer than the next level's tables, and their
        // seqs reflect that).
        let mut merged: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
        let mut read_tables = 0u64;
        for meta in overlaps.iter().chain(victims.iter()) {
            read_tables += 1;
            for (k, v) in Table::scan_file(self.source(meta))? {
                match merged.get(&k) {
                    Some((seq, _)) if *seq > meta.seq => {}
                    _ => {
                        merged.insert(k, (meta.seq, v));
                    }
                }
            }
        }
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            merged.into_iter().map(|(k, (_, v))| (k, v)).collect();
        let metas = self.build_tables(&entries, level + 1)?;
        {
            let mut lv = self.levels.lock();
            lv[level + 1].extend(metas);
            lv[level + 1].sort_by(|a, b| a.props.first_key.cmp(&b.props.first_key));
        }
        for meta in victims.iter().chain(overlaps.iter()) {
            self.delete_table(meta)?;
        }
        let mut stats = self.stats.lock();
        stats.compactions += 1;
        stats.compaction_tables_read += read_tables;
        Ok(())
    }

    /// Compacts until every level is within its target (used to measure
    /// "time until all compactions finish", Figure 4a bottom).
    pub fn compact_to_quiescence(&self) -> Result<()> {
        self.seal();
        self.maintain()
    }

    /// All chunks of `id` with start timestamps in `[start, end)`, newest
    /// per key, sorted.
    pub fn range_chunks(
        &self,
        id: u64,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Timestamp, Vec<u8>)>> {
        let start_key = encode_key(id, start);
        let end_key = encode_key(id, end.max(start));
        let mut acc: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
        let metas: Vec<TableMeta> = {
            let lv = self.levels.lock();
            lv.iter()
                .flat_map(|tables| tables.iter())
                .filter(|t| {
                    !(t.props.last_key.as_slice() < start_key.as_slice()
                        || t.props.first_key.as_slice() >= end_key.as_slice())
                })
                .cloned()
                .collect()
        };
        for meta in metas {
            let table = self.open_table(&meta)?;
            for (k, v) in table.range(&start_key, &end_key)? {
                match acc.get(&k) {
                    Some((seq, _)) if *seq > meta.seq => {}
                    _ => {
                        acc.insert(k, (meta.seq, v));
                    }
                }
            }
        }
        for (k, v) in self.mem.range(&start_key, &end_key) {
            acc.insert(k, (u64::MAX, v));
        }
        acc.into_iter()
            .map(|(k, (_, v))| Ok((tu_common::keys::decode_ts(&k)?, v)))
            .collect()
    }

    /// Point lookup.
    pub fn get_chunk(&self, id: u64, start_ts: Timestamp) -> Result<Option<Vec<u8>>> {
        Ok(self
            .range_chunks(id, start_ts, start_ts + 1)?
            .into_iter()
            .next()
            .map(|(_, v)| v))
    }

    /// Deletes whole tables that fall entirely before the watermark
    /// (coarse retention; a leveled tree cannot drop partitions).
    pub fn purge_before(&self, watermark: Timestamp) -> Result<usize> {
        // Keys sort by (id, ts), so time-based retention cannot be done by
        // key range; this baseline simply reports zero, matching the
        // paper's observation that retention is awkward without time
        // partitioning.
        let _ = watermark;
        Ok(0)
    }

    pub fn memtable_bytes(&self) -> usize {
        self.mem.approx_bytes()
    }

    /// Drops cached data blocks, keeping table handles (benchmarking).
    pub fn clear_block_cache(&self) {
        self.cache.clear();
    }

    pub fn stats(&self) -> LeveledStats {
        let lv = self.levels.lock();
        let mut s = *self.stats.lock();
        for (i, tables) in lv.iter().enumerate().take(8) {
            s.tables_per_level[i] = tables.len();
        }
        s.fast_bytes = lv
            .iter()
            .flatten()
            .filter(|t| !t.on_slow)
            .map(|t| t.props.file_len)
            .sum();
        s.slow_bytes = lv
            .iter()
            .flatten()
            .filter(|t| t.on_slow)
            .map(|t| t.props.file_len)
            .sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::LatencyMode;

    fn tree(opts: LeveledOptions) -> (tempfile::TempDir, LeveledTree) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = LeveledTree::open(env, opts).unwrap();
        (dir, t)
    }

    fn small_opts() -> LeveledOptions {
        LeveledOptions {
            memtable_bytes: 8 << 10,
            l0_table_trigger: 2,
            base_level_bytes: 32 << 10,
            max_sstable_bytes: 16 << 10,
            ..LeveledOptions::default()
        }
    }

    fn chunk(tag: u64) -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    fn load(t: &LeveledTree, n_series: u64, n_chunks: i64) {
        for c in 0..n_chunks {
            for id in 0..n_series {
                if t.put(id, c * 60_000, chunk(id * 10_000 + c as u64)) {
                    t.maintain().unwrap();
                }
            }
        }
        t.seal();
        t.maintain().unwrap();
    }

    #[test]
    fn put_get_round_trip() {
        let (_d, t) = tree(small_opts());
        t.put(1, 1000, chunk(1));
        assert_eq!(t.get_chunk(1, 1000).unwrap(), Some(chunk(1)));
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.get_chunk(1, 1000).unwrap(), Some(chunk(1)));
    }

    #[test]
    fn compactions_push_data_down_and_read_overlaps() {
        let (_d, t) = tree(small_opts());
        load(&t, 16, 64);
        let s = t.stats();
        assert!(s.compactions > 0, "{s:?}");
        assert!(s.compaction_tables_read > s.compactions, "{s:?}");
        // All data readable after compactions.
        for id in [0u64, 7, 15] {
            assert_eq!(
                t.range_chunks(id, 0, 64 * 60_000).unwrap().len(),
                64,
                "series {id}"
            );
        }
    }

    #[test]
    fn deeper_levels_go_to_slow_tier() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = LeveledTree::open(
            env.clone(),
            LeveledOptions {
                slow_level_start: 2,
                ..small_opts()
            },
        )
        .unwrap();
        for c in 0..256i64 {
            for id in 0..16u64 {
                if t.put(id, c * 60_000, chunk(id + c as u64)) {
                    t.maintain().unwrap();
                }
            }
        }
        t.seal();
        t.maintain().unwrap();
        let s = t.stats();
        assert!(s.slow_bytes > 0, "deep levels must reach S3: {s:?}");
        assert!(env.object.stats().put_requests > 0);
    }

    #[test]
    fn newest_value_wins_through_compactions() {
        let (_d, t) = tree(small_opts());
        t.put(1, 500, chunk(1));
        t.seal();
        t.maintain().unwrap();
        t.put(1, 500, chunk(2));
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.get_chunk(1, 500).unwrap(), Some(chunk(2)));
        load(&t, 8, 32); // force more compactions over the duplicate
        assert_eq!(t.get_chunk(1, 500).unwrap(), Some(chunk(2)));
    }

    #[test]
    fn range_is_id_scoped() {
        let (_d, t) = tree(small_opts());
        load(&t, 4, 8);
        let r = t.range_chunks(2, 2 * 60_000, 5 * 60_000).unwrap();
        assert_eq!(r.len(), 3);
        assert!(t.range_chunks(9, 0, i64::MAX / 2).unwrap().is_empty());
    }
}

//! The elastic time-partitioned LSM-tree (§3.3, Figure 10).
//!
//! Three levels over two storage tiers:
//!
//! * **L0, L1** on the fast tier (block store ≈ EBS) hold recent data in
//!   short time partitions (initially 30 minutes).
//! * **L2**, the *only* level on the slow tier (object store ≈ S3), holds
//!   everything older in longer partitions (initially 2 hours). Keeping a
//!   single slow level avoids the multiplicative rewrite traffic of a
//!   classic leveled LSM (Equations 8–10).
//!
//! Keys are the 16-byte `(series/group id, chunk start timestamp)` keys of
//! [`tu_common::keys`]; values are serialized chunks. The tree maintains:
//!
//! * an active MemTable + immutable queue (flushes split entries into
//!   L0 time partitions),
//! * L0→L1 compaction that gathers each series' chunks together,
//! * L1→L2 compaction that uploads closed windows to the slow tier,
//! * out-of-order handling via stale-partition merges (fast tier) and
//!   *patches* appended to L2 SSTables (Figure 11), merged when a table
//!   accumulates more than `patch_threshold` patches,
//! * dynamic size control of partition lengths (Algorithm 1, Figure 19),
//! * retention purges of whole partitions.
//!
//! The tree is synchronous: `put` never blocks on I/O beyond the WAL-less
//! memtable insert, and all background-style work happens in
//! [`TimeTree::maintain`], which the embedding engine calls from its worker
//! thread (or inline in deterministic benchmarks).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

use tu_cloud::StorageEnv;
use tu_common::keys::{decode_id, decode_ts, encode_key};
use tu_common::pool::{WorkerPool, INGEST_THREADS_ENV};
use tu_common::{Error, Result, TimeRange, Timestamp};

use crate::cache::BlockCache;
use crate::memtable::{MemTable, MemTableSet};
use crate::sstable::{Table, TableBuilder, TableProps, TableRead, TableSource};

/// Configuration of the tree.
#[derive(Debug, Clone)]
pub struct TreeOptions {
    /// Seal the active memtable beyond this many payload bytes.
    pub memtable_bytes: usize,
    /// Initial L0/L1 partition length `R1` in ms (paper: 30 minutes).
    pub l0_partition_ms: i64,
    /// Initial L2 partition length `R2` in ms (paper: 2 hours).
    pub l2_partition_ms: i64,
    /// L0 partition count that triggers an L0→L1 compaction (paper: 2).
    pub l0_compact_trigger: usize,
    /// Patches per L2 SSTable before a forced merge (paper: 3).
    pub patch_threshold: usize,
    /// Fast-storage usage target `ST` in bytes; enables dynamic size
    /// control (Algorithm 1) when set.
    pub fast_limit_bytes: Option<u64>,
    /// Lower bound `LB` for partition lengths during dynamic control.
    pub partition_min_ms: i64,
    /// Upper bound for partition lengths during dynamic control.
    pub partition_max_ms: i64,
    /// Split compaction outputs into tables of roughly this many bytes.
    pub max_sstable_bytes: usize,
    /// Block-cache budget (paper: 1 GiB).
    pub block_cache_bytes: usize,
    /// Worker threads for flush encoding and compaction reads. `0` resolves
    /// through the ingest chain: `TU_INGEST_THREADS` env var, then available
    /// cores capped at 8.
    pub flush_threads: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            memtable_bytes: 4 << 20,
            l0_partition_ms: 30 * 60 * 1000,
            l2_partition_ms: 2 * 60 * 60 * 1000,
            l0_compact_trigger: 2,
            patch_threshold: 3,
            fast_limit_bytes: None,
            partition_min_ms: 15 * 60 * 1000,
            partition_max_ms: 8 * 60 * 60 * 1000,
            max_sstable_bytes: 2 << 20,
            block_cache_bytes: 64 << 20,
            flush_threads: 0,
        }
    }
}

/// One table inside a partition, as reported by [`TimeTree::introspect`].
#[derive(Debug, Clone)]
pub struct TableIntrospect {
    pub name: String,
    pub seq: u64,
    pub entries: u64,
    pub file_len: u64,
    /// Entries carrying a stats envelope (pushdown-eligible).
    pub stats_chunks: u64,
    /// Patch tables appended to this base table (L2 only).
    pub patches: usize,
}

/// One time partition of one level, as reported by [`TimeTree::introspect`].
#[derive(Debug, Clone)]
pub struct PartitionIntrospect {
    pub start_ms: i64,
    pub end_ms: i64,
    /// Residency tier: `"block"` (L0/L1) or `"object"` (L2).
    pub tier: &'static str,
    /// Total bytes across base tables and patches.
    pub bytes: u64,
    /// Total chunk entries across base tables and patches.
    pub chunks: u64,
    /// Entries carrying a stats envelope, for coverage ratios.
    pub stats_chunks: u64,
    /// Patch tables across the partition (L2 only).
    pub patches: usize,
    pub tables: Vec<TableIntrospect>,
}

/// One level of the tree, as reported by [`TimeTree::introspect`].
#[derive(Debug, Clone)]
pub struct LevelIntrospect {
    pub level: u8,
    pub tier: &'static str,
    pub partitions: Vec<PartitionIntrospect>,
}

/// Block-cache counters, as reported by [`TimeTree::introspect`].
#[derive(Debug, Clone, Copy)]
pub struct CacheIntrospect {
    pub shards: usize,
    pub used_bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Point-in-time structural view of the tree: partition boundaries, table
/// inventory, stats-footer coverage, and cache counters — the payload
/// behind the `/introspect/lsm` endpoint.
#[derive(Debug, Clone)]
pub struct LsmIntrospect {
    pub r1_ms: i64,
    pub r2_ms: i64,
    pub levels: Vec<LevelIntrospect>,
    pub cache: CacheIntrospect,
}

impl LsmIntrospect {
    /// All partitions across all levels, flattened (the
    /// `/introspect/partitions` view before heat is joined in).
    pub fn partitions(&self) -> Vec<&PartitionIntrospect> {
        self.levels
            .iter()
            .flat_map(|l| l.partitions.iter())
            .collect()
    }
}

/// Counters for the experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeStats {
    pub flushes: u64,
    pub l0_to_l1_compactions: u64,
    pub l1_to_l2_compactions: u64,
    pub patch_merges: u64,
    pub patches_created: u64,
    pub stale_l0_merges: u64,
    /// Current partition lengths (after dynamic control).
    pub r1_ms: i64,
    pub r2_ms: i64,
    pub l0_partitions: usize,
    pub l1_partitions: usize,
    pub l2_partitions: usize,
    pub fast_bytes: u64,
    pub slow_bytes: u64,
}

#[derive(Debug, Clone)]
struct TableMeta {
    name: String,
    seq: u64,
    props: TableProps,
    on_slow: bool,
    /// Owning time partition — the attribution key every storage request
    /// for this table is charged to in the partition heat registry.
    range: TimeRange,
}

impl TableMeta {
    fn first_id(&self) -> u64 {
        decode_id(&self.props.first_key).unwrap_or(0)
    }
    fn last_id(&self) -> u64 {
        decode_id(&self.props.last_key).unwrap_or(u64::MAX)
    }
    /// The part of the ascending `ids` this table's id range covers.
    fn ids_covered(&self, ids: &[u64]) -> std::ops::Range<usize> {
        let (first, last) = (self.first_id(), self.last_id());
        ids.partition_point(|&id| id < first)..ids.partition_point(|&id| id <= last)
    }
}

#[derive(Debug, Clone)]
struct Partition {
    range: TimeRange,
    tables: Vec<TableMeta>,
}

#[derive(Debug, Clone)]
struct L2Table {
    base: TableMeta,
    patches: Vec<TableMeta>,
}

#[derive(Debug, Clone)]
struct L2Partition {
    range: TimeRange,
    tables: Vec<L2Table>,
}

struct Levels {
    l0: Vec<Partition>,
    l1: Vec<Partition>,
    l2: Vec<L2Partition>,
    r1_ms: i64,
    r2_ms: i64,
}

/// One table's share of a [`ReadPlan`].
struct PlannedTable {
    seq: u64,
    /// The plan ids this table was read for; `read`'s ranges follow them.
    ids: std::ops::Range<usize>,
    read: TableRead,
}

/// What one query needs from the tree, already fetched
/// ([`TimeTree::plan_reads`]): memtable entries and the SSTable blocks of
/// every overlapping table, in the tree's newest-wins tie-break order.
pub struct ReadPlan {
    /// Per planned id: its `[start, end)` key bounds.
    keys: Vec<([u8; 16], [u8; 16])>,
    mem: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    tables: Vec<PlannedTable>,
}

impl ReadPlan {
    /// The chunks of the `i`-th planned id as `(start timestamp, chunk)`,
    /// newest version per key, sorted by key.
    pub fn chunks(&self, i: usize) -> Result<Vec<(Timestamp, &[u8])>> {
        let (start, end) = &self.keys[i];
        // Accumulate (key, seq, value) triples flat, then resolve
        // newest-wins with one sort + dedup. Each source is already sorted,
        // so the sort sees pre-sorted runs and the whole resolution costs
        // far less than per-entry BTreeMap node churn.
        let mut acc: Vec<(&[u8], u64, &[u8])> = Vec::new();
        for t in self.tables.iter().filter(|t| t.ids.contains(&i)) {
            for (k, v) in t.read.entries(i - t.ids.start, start, end) {
                acc.push((k, t.seq, v));
            }
        }
        for (k, v) in &self.mem[i] {
            acc.push((k, u64::MAX, v));
        }
        // Newest version per key: sort by (key asc, seq desc); the stable
        // sort keeps insertion order on (key, seq) ties, so the earlier
        // source still wins. dedup_by drops the *later* of two adjacent
        // equals, keeping the winner.
        acc.sort_by(|a, b| a.0.cmp(b.0).then(b.1.cmp(&a.1)));
        acc.dedup_by(|next, kept| next.0 == kept.0);
        acc.into_iter()
            .map(|(k, _, v)| Ok((decode_ts(k)?, v)))
            .collect()
    }
}

/// The time-partitioned LSM-tree.
pub struct TimeTree {
    env: StorageEnv,
    opts: TreeOptions,
    mem: MemTableSet,
    levels: Mutex<Levels>,
    cache: Arc<BlockCache>,
    next_seq: AtomicU64,
    stats: Mutex<TreeStats>,
    /// Open table handles (footer/index/bloom parsed once per table, as
    /// LevelDB's table cache does).
    tables: Mutex<std::collections::HashMap<String, Arc<Table>>>,
    /// Number of memtables sealed / flushed — the durability epochs the
    /// engine's WAL-checkpoint logic keys on (§3.3 "Logging"): an entry
    /// put while `seal_epoch() == e` is durable once `flushed_epoch() > e`.
    seals: AtomicU64,
    flushed: AtomicU64,
    /// Workers for flush encoding and compaction table scans. The on-disk
    /// result is independent of the width: encoded blobs are written and
    /// sequence-numbered sequentially in bucket order, and merges fold the
    /// parallel scans back in table order.
    flush_pool: WorkerPool,
}

impl TimeTree {
    /// Opens (or recovers from the manifest) a tree over `env`.
    pub fn open(env: StorageEnv, opts: TreeOptions) -> Result<Self> {
        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let flush_pool = WorkerPool::resolve_env(INGEST_THREADS_ENV, opts.flush_threads);
        tu_obs::gauge("lsm.flush.workers").set(flush_pool.threads() as i64);
        let tree = TimeTree {
            flush_pool,
            cache,
            mem: MemTableSet::new(),
            levels: Mutex::new(
                &lockdep::LSM_TREE_LEVELS,
                Levels {
                    l0: Vec::new(),
                    l1: Vec::new(),
                    l2: Vec::new(),
                    r1_ms: opts.l0_partition_ms,
                    r2_ms: opts.l2_partition_ms,
                },
            ),
            next_seq: AtomicU64::new(1),
            stats: Mutex::new(&lockdep::LSM_TREE_STATS, TreeStats::default()),
            tables: Mutex::new(&lockdep::LSM_TREE_TABLES, std::collections::HashMap::new()),
            seals: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            env,
            opts,
        };
        tree.load_manifest()?;
        Ok(tree)
    }

    // --- writes -------------------------------------------------------------

    /// Inserts a chunk under its `(id, start_ts)` key. Returns true if the
    /// active memtable crossed the seal threshold (the caller should
    /// schedule [`TimeTree::maintain`]).
    pub fn put(&self, id: u64, start_ts: Timestamp, chunk: Vec<u8>) -> bool {
        let key = encode_key(id, start_ts).to_vec();
        let size = self.mem.put(key, chunk);
        if size >= self.opts.memtable_bytes {
            self.seal();
            true
        } else {
            false
        }
    }

    /// Seals the active memtable regardless of size (shutdown, tests).
    pub fn seal(&self) {
        if self.mem.seal().is_some() {
            self.seals.fetch_add(1, Ordering::SeqCst);
            tu_obs::gauge("lsm.flush.backlog").set(self.mem.immutable_count() as i64);
        }
    }

    /// Durability epoch of entries going into the current active memtable.
    pub fn seal_epoch(&self) -> u64 {
        self.seals.load(Ordering::SeqCst)
    }

    /// Number of immutable memtables flushed to L0 so far. Entries put at
    /// `seal_epoch() == e` are durable once `flushed_epoch() > e`.
    pub fn flushed_epoch(&self) -> u64 {
        self.flushed.load(Ordering::SeqCst)
    }

    /// Runs all pending background work to quiescence: flushes, both
    /// compaction kinds, patch merges, and dynamic size control.
    pub fn maintain(&self) -> Result<()> {
        while let Some(imm) = self.mem.oldest_immutable() {
            self.flush_one(&imm)?;
            self.mem.retire(&imm);
            self.flushed.fetch_add(1, Ordering::SeqCst);
            tu_obs::gauge("lsm.flush.backlog").set(self.mem.immutable_count() as i64);
        }
        loop {
            let l0_count = self.levels.lock().l0.len();
            if l0_count <= self.opts.l0_compact_trigger {
                break;
            }
            self.compact_l0_to_l1()?;
        }
        while self.l1_window_closed() {
            self.compact_l1_to_l2()?;
        }
        self.merge_over_threshold_patches()?;
        self.dynamic_size_control()?;
        self.save_manifest()?;
        Ok(())
    }

    /// Seals and fully drains everything above L2 into L2 (used by tests
    /// and orderly shutdown benchmarks).
    pub fn flush_all_to_slow(&self) -> Result<()> {
        self.seal();
        self.maintain()?;
        loop {
            let empty_l0 = {
                let lv = self.levels.lock();
                lv.l0.is_empty()
            };
            if !empty_l0 {
                self.compact_l0_to_l1()?;
                continue;
            }
            let empty_l1 = self.levels.lock().l1.is_empty();
            if !empty_l1 {
                self.compact_l1_to_l2()?;
                continue;
            }
            break;
        }
        self.save_manifest()
    }

    fn next_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn flush_one(&self, imm: &Arc<MemTable>) -> Result<()> {
        let _span = tu_obs::span("lsm.flush");
        let r1 = self.levels.lock().r1_ms;
        // Split entries into time-partition buckets on the current grid.
        let mut buckets: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
        for (k, v) in imm.iter() {
            let ts = decode_ts(k)?;
            let slot = ts.div_euclid(r1);
            buckets
                .entry(slot)
                .or_default()
                .push((k.to_vec(), v.to_vec()));
        }
        let partitions = buckets.len();
        let mut entries_flushed = 0usize;
        // Encode every bucket's SSTables across the flush workers (the CPU
        // cost: sorting is done, but block building, compression framing and
        // checksumming are not). Writes and sequence numbers are assigned
        // sequentially in bucket order below, so the on-disk layout is
        // identical for every worker count.
        let buckets: Vec<(i64, Vec<(Vec<u8>, Vec<u8>)>)> = buckets.into_iter().collect();
        let encoded = self
            .flush_pool
            .run(buckets.len(), |i| self.encode_tables(&buckets[i].1));
        for ((slot, entries), blobs) in buckets.iter().zip(encoded) {
            entries_flushed += entries.len();
            let range = TimeRange::new(slot * r1, (slot + 1) * r1);
            let metas = self.write_tables(blobs?, 0, range)?;
            let mut lv = self.levels.lock();
            match lv.l0.iter_mut().find(|p| p.range == range) {
                Some(p) => p.tables.extend(metas),
                None => {
                    lv.l0.push(Partition {
                        range,
                        tables: metas,
                    });
                    lv.l0.sort_by_key(|p| p.range.start);
                }
            }
        }
        self.stats.lock().flushes += 1;
        tu_obs::log::info(
            "lsm.flush",
            "memtable flushed to L0",
            &[
                ("entries", entries_flushed.into()),
                ("partitions", partitions.into()),
            ],
        );
        Ok(())
    }

    /// Encodes sorted entries into SSTable blobs split at the configured
    /// size. Pure CPU — no naming, sequencing, or I/O — so buckets can be
    /// encoded concurrently without affecting the on-disk layout.
    fn encode_tables(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<Vec<(Vec<u8>, TableProps)>> {
        let mut out = Vec::new();
        let mut builder = TableBuilder::new();
        let mut finish = |builder: &mut TableBuilder| -> Result<()> {
            if builder.is_empty() {
                return Ok(());
            }
            out.push(std::mem::take(builder).finish()?);
            Ok(())
        };
        for (k, v) in entries {
            builder.add(k, v)?;
            if builder.estimated_len() >= self.opts.max_sstable_bytes {
                finish(&mut builder)?;
            }
        }
        finish(&mut builder)?;
        Ok(out)
    }

    /// Writes encoded blobs to the fast tier, assigning sequence numbers
    /// and names in order.
    fn write_tables(
        &self,
        blobs: Vec<(Vec<u8>, TableProps)>,
        level: u8,
        range: TimeRange,
    ) -> Result<Vec<TableMeta>> {
        let mut out = Vec::new();
        let _heat = tu_obs::heat::attribute(range.start, range.end);
        for (bytes, props) in blobs {
            let seq = self.next_seq();
            let name = format!("l{level}/p{}-{}/sst-{seq:08}", range.start, range.end);
            self.env.block.write_file(&name, &bytes)?;
            out.push(TableMeta {
                name,
                seq,
                props,
                on_slow: false,
                range,
            });
        }
        Ok(out)
    }

    /// Builds one or more SSTables on the fast tier from sorted entries.
    fn build_tables(
        &self,
        entries: &[(Vec<u8>, Vec<u8>)],
        level: u8,
        range: TimeRange,
    ) -> Result<Vec<TableMeta>> {
        self.write_tables(self.encode_tables(entries)?, level, range)
    }

    fn open_table(&self, meta: &TableMeta) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.lock().get(&meta.name) {
            return Ok(t.clone());
        }
        let source = if meta.on_slow {
            TableSource::Object(self.env.object.clone(), meta.name.clone())
        } else {
            TableSource::Block(self.env.block.clone(), meta.name.clone())
        };
        let table = Arc::new(Table::open(source, Some(self.cache.clone()))?);
        self.tables.lock().insert(meta.name.clone(), table.clone());
        Ok(table)
    }

    fn delete_table(&self, meta: &TableMeta) -> Result<()> {
        self.tables.lock().remove(&meta.name);
        let _heat = tu_obs::heat::attribute(meta.range.start, meta.range.end);
        if meta.on_slow {
            self.env.object.delete(&meta.name)?;
            self.cache.invalidate_table(&format!("o:{}", meta.name));
        } else {
            self.env.block.delete(&meta.name)?;
            self.cache.invalidate_table(&format!("b:{}", meta.name));
        }
        Ok(())
    }

    /// Merges a set of tables newest-wins into sorted entries. The scans —
    /// the I/O-heavy part, often against the slow tier — fan out across the
    /// flush workers; the newest-wins fold runs sequentially in table order
    /// afterwards, so the result is independent of the worker count.
    fn merge_tables(&self, metas: &[TableMeta]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let scans = self.flush_pool.run(metas.len(), |i| {
            // The attribution guard is thread-local and the pool does not
            // propagate it, so it must be installed inside the per-table
            // closure for compaction reads to land on the right partition.
            let _heat = tu_obs::heat::attribute(metas[i].range.start, metas[i].range.end);
            let table = self.open_table(&metas[i])?;
            table.scan_all()
        });
        let mut merged: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
        for (meta, scan) in metas.iter().zip(scans) {
            for (k, v) in scan? {
                match merged.get(&k) {
                    Some((seq, _)) if *seq > meta.seq => {}
                    _ => {
                        merged.insert(k, (meta.seq, v));
                    }
                }
            }
        }
        Ok(merged.into_iter().map(|(k, (_, v))| (k, v)).collect())
    }

    // --- L0 -> L1 -------------------------------------------------------------

    fn compact_l0_to_l1(&self) -> Result<()> {
        let _span = tu_obs::span("lsm.compact.l0_l1");
        // Select the oldest L0 partition plus everything overlapping it.
        let (l0_sel, l1_sel, out_len) = {
            let mut lv = self.levels.lock();
            if lv.l0.is_empty() {
                return Ok(());
            }
            let victim_range = lv.l0[0].range;
            let mut sel_range = victim_range;
            // Gather overlapping L0 partitions (multi-grid overlap after
            // dynamic resizing) transitively.
            let mut changed = true;
            while changed {
                changed = false;
                for p in &lv.l0 {
                    if p.range.overlaps(&sel_range) && !sel_range.covers(&p.range) {
                        sel_range = sel_range.union(&p.range);
                        changed = true;
                    }
                }
                for p in &lv.l1 {
                    if p.range.overlaps(&sel_range) && !sel_range.covers(&p.range) {
                        sel_range = sel_range.union(&p.range);
                        changed = true;
                    }
                }
            }
            let l0_sel: Vec<Partition> = lv
                .l0
                .iter()
                .filter(|p| p.range.overlaps(&sel_range))
                .cloned()
                .collect();
            let l1_sel: Vec<Partition> = lv
                .l1
                .iter()
                .filter(|p| p.range.overlaps(&sel_range))
                .cloned()
                .collect();
            // Figure 12: output aligned to the shortest selected length.
            let out_len = l0_sel
                .iter()
                .chain(l1_sel.iter())
                .map(|p| p.range.len())
                .min()
                .unwrap_or(lv.r1_ms)
                .max(1);
            lv.l0.retain(|p| !p.range.overlaps(&sel_range));
            lv.l1.retain(|p| !p.range.overlaps(&sel_range));
            (l0_sel, l1_sel, out_len)
        };
        let stale = !l1_sel.is_empty();
        let all_tables: Vec<TableMeta> = l0_sel
            .iter()
            .chain(l1_sel.iter())
            .flat_map(|p| p.tables.iter().cloned())
            .collect();
        let merged = self.merge_tables(&all_tables)?;
        // Split merged entries into output partitions on the out_len grid.
        let mut buckets: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
        for (k, v) in merged {
            let ts = decode_ts(&k)?;
            buckets
                .entry(ts.div_euclid(out_len))
                .or_default()
                .push((k, v));
        }
        let mut new_parts = Vec::new();
        for (slot, entries) in buckets {
            // Entries are grouped per series already (BTreeMap over the
            // id-prefixed key), giving the data locality the paper wants.
            let range = TimeRange::new(slot * out_len, (slot + 1) * out_len);
            let tables = self.build_tables(&entries, 1, range)?;
            new_parts.push(Partition { range, tables });
        }
        {
            let mut lv = self.levels.lock();
            lv.l1.extend(new_parts);
            lv.l1.sort_by_key(|p| p.range.start);
        }
        for meta in &all_tables {
            self.delete_table(meta)?;
        }
        let mut stats = self.stats.lock();
        stats.l0_to_l1_compactions += 1;
        if stale {
            stats.stale_l0_merges += 1;
        }
        drop(stats);
        tu_obs::log::info(
            "lsm.compact",
            "L0->L1 compaction",
            &[
                ("input_tables", all_tables.len().into()),
                ("stale", stale.into()),
            ],
        );
        Ok(())
    }

    // --- L1 -> L2 -------------------------------------------------------------

    /// True when the oldest L2-grid window in L1 is "closed": newer data
    /// exists beyond its end, so no in-order data will arrive for it.
    fn l1_window_closed(&self) -> bool {
        let lv = self.levels.lock();
        let Some(oldest) = lv.l1.iter().map(|p| p.range.start).min() else {
            return false;
        };
        let window_end = (oldest.div_euclid(lv.r2_ms) + 1) * lv.r2_ms;
        let newest = lv
            .l0
            .iter()
            .chain(lv.l1.iter())
            .map(|p| p.range.end)
            .max()
            .unwrap_or(window_end);
        newest > window_end
    }

    fn compact_l1_to_l2(&self) -> Result<()> {
        let _span = tu_obs::span("lsm.compact.l1_l2");
        let (selected, window) = {
            let mut lv = self.levels.lock();
            let Some(oldest) = lv.l1.iter().map(|p| p.range.start).min() else {
                return Ok(());
            };
            let w_start = oldest.div_euclid(lv.r2_ms) * lv.r2_ms;
            let window = TimeRange::new(w_start, w_start + lv.r2_ms);
            let selected: Vec<Partition> = lv
                .l1
                .iter()
                .filter(|p| window.covers(&p.range))
                .cloned()
                .collect();
            if selected.is_empty() {
                // A straddling partition (possible after resizes): widen the
                // window to cover it so progress is guaranteed, and take
                // every partition the widened window now covers.
                let Some(p) = lv.l1.iter().min_by_key(|p| p.range.start).cloned() else {
                    return Ok(()); // L1 emptied concurrently: nothing to move
                };
                let window = TimeRange::new(
                    w_start.min(p.range.start),
                    p.range.end.max(w_start + lv.r2_ms),
                );
                let sel: Vec<Partition> = lv
                    .l1
                    .iter()
                    .filter(|q| window.covers(&q.range))
                    .cloned()
                    .collect();
                lv.l1.retain(|q| !window.covers(&q.range));
                (sel, window)
            } else {
                lv.l1.retain(|p| !window.covers(&p.range));
                (selected, window)
            }
        };
        let tables: Vec<TableMeta> = selected
            .iter()
            .flat_map(|p| p.tables.iter().cloned())
            .collect();
        let merged = self.merge_tables(&tables)?;

        // Out-of-order: entries overlapping existing L2 partitions become
        // patches; the rest forms new L2 partitions.
        let overlapping: Vec<TimeRange> = {
            let lv = self.levels.lock();
            lv.l2
                .iter()
                .map(|p| p.range)
                .filter(|r| r.overlaps(&window))
                .collect()
        };
        let mut patch_groups: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
        let mut fresh: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (k, v) in merged {
            let ts = decode_ts(&k)?;
            match overlapping.iter().find(|r| r.contains(ts)) {
                Some(r) => patch_groups.entry(r.start).or_default().push((k, v)),
                None => fresh.push((k, v)),
            }
        }
        if !patch_groups.is_empty() {
            self.append_patches(patch_groups)?;
        }
        if !fresh.is_empty() {
            // Time ranges not covered by existing partitions are split and
            // aligned to the shortest selected L2 partition length — or the
            // current R2 when none overlap (Figure 12, right).
            let align = overlapping
                .iter()
                .map(|r| r.len())
                .min()
                .unwrap_or_else(|| self.levels.lock().r2_ms)
                .max(1);
            let mut buckets: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
            for (k, v) in fresh {
                let ts = decode_ts(&k)?;
                buckets
                    .entry(ts.div_euclid(align))
                    .or_default()
                    .push((k, v));
            }
            for (slot, entries) in buckets {
                let range = TimeRange::new(slot * align, (slot + 1) * align);
                let metas = self.upload_l2_tables(&entries, range)?;
                let mut lv = self.levels.lock();
                match lv.l2.iter_mut().find(|p| p.range == range) {
                    Some(p) => p.tables.extend(metas.into_iter().map(|m| L2Table {
                        base: m,
                        patches: Vec::new(),
                    })),
                    None => {
                        lv.l2.push(L2Partition {
                            range,
                            tables: metas
                                .into_iter()
                                .map(|m| L2Table {
                                    base: m,
                                    patches: Vec::new(),
                                })
                                .collect(),
                        });
                        lv.l2.sort_by_key(|p| p.range.start);
                    }
                }
            }
        }
        for meta in &tables {
            self.delete_table(meta)?;
        }
        self.stats.lock().l1_to_l2_compactions += 1;
        tu_obs::log::info(
            "lsm.compact",
            "L1->L2 merge-and-upload",
            &[
                ("input_tables", tables.len().into()),
                ("window_start", window.start.into()),
                ("window_end", window.end.into()),
            ],
        );
        Ok(())
    }

    /// Builds and uploads SSTables to the slow tier.
    fn upload_l2_tables(
        &self,
        entries: &[(Vec<u8>, Vec<u8>)],
        range: TimeRange,
    ) -> Result<Vec<TableMeta>> {
        let mut out = Vec::new();
        let _heat = tu_obs::heat::attribute(range.start, range.end);
        let mut builder = TableBuilder::new();
        let mut flush = |builder: &mut TableBuilder| -> Result<()> {
            if builder.is_empty() {
                return Ok(());
            }
            let done = std::mem::take(builder);
            let (bytes, props) = done.finish()?;
            let seq = self.next_seq();
            let name = format!("l2/p{}-{}/sst-{seq:08}", range.start, range.end);
            self.env.object.put(&name, &bytes)?;
            out.push(TableMeta {
                name,
                seq,
                props,
                on_slow: true,
                range,
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

    /// Routes out-of-order entries into patches appended to the L2 tables
    /// whose ID ranges cover them (Figure 11).
    fn append_patches(&self, groups: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>>) -> Result<()> {
        for (part_start, entries) in groups {
            // Snapshot the partition's table ID ranges.
            let (range, id_ranges) = {
                let lv = self.levels.lock();
                let p = lv
                    .l2
                    .iter()
                    .find(|p| p.range.start == part_start)
                    .ok_or_else(|| Error::corruption("patch target partition vanished"))?;
                (
                    p.range,
                    p.tables
                        .iter()
                        .map(|t| (t.base.first_id(), t.base.last_id()))
                        .collect::<Vec<_>>(),
                )
            };
            // Split entries by target table (ID ranges are disjoint; route
            // by the first range whose last_id >= id, falling back to the
            // final table for ids beyond all ranges).
            let mut per_table: BTreeMap<usize, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
            for (k, v) in entries {
                let id = decode_id(&k)?;
                let idx = id_ranges
                    .iter()
                    .position(|&(_, last)| id <= last)
                    .unwrap_or(id_ranges.len().saturating_sub(1));
                per_table.entry(idx).or_default().push((k, v));
            }
            for (idx, entries) in per_table {
                let mut builder = TableBuilder::new();
                for (k, v) in &entries {
                    builder.add(k, v)?;
                }
                let (bytes, props) = builder.finish()?;
                let seq = self.next_seq();
                let name = format!("l2/p{}-{}/patch-{seq:08}", range.start, range.end);
                {
                    let _heat = tu_obs::heat::attribute(range.start, range.end);
                    self.env.object.put(&name, &bytes)?;
                }
                let meta = TableMeta {
                    name,
                    seq,
                    props,
                    on_slow: true,
                    range,
                };
                let mut lv = self.levels.lock();
                let p = lv
                    .l2
                    .iter_mut()
                    .find(|p| p.range.start == part_start)
                    .ok_or_else(|| Error::corruption("patch target partition vanished"))?;
                if let Some(t) = p.tables.get_mut(idx) {
                    t.patches.push(meta);
                } else {
                    // Partition had no tables (shouldn't happen): promote the
                    // patch to a base table.
                    p.tables.push(L2Table {
                        base: meta,
                        patches: Vec::new(),
                    });
                }
                self.stats.lock().patches_created += 1;
            }
        }
        Ok(())
    }

    /// Merges any L2 table whose patch count exceeds the threshold
    /// (Figure 11: the merge may split the table into several with
    /// disjoint ID ranges).
    fn merge_over_threshold_patches(&self) -> Result<()> {
        loop {
            let target = {
                let lv = self.levels.lock();
                let mut found = None;
                'outer: for (pi, p) in lv.l2.iter().enumerate() {
                    for (ti, t) in p.tables.iter().enumerate() {
                        if t.patches.len() > self.opts.patch_threshold {
                            found = Some((pi, ti, p.range));
                            break 'outer;
                        }
                    }
                }
                found
            };
            let Some((pi, ti, range)) = target else {
                return Ok(());
            };
            let victim = {
                let lv = self.levels.lock();
                lv.l2[pi].tables[ti].clone()
            };
            let mut all = vec![victim.base.clone()];
            all.extend(victim.patches.iter().cloned());
            let merged = self.merge_tables(&all)?;
            let metas = self.upload_l2_tables(&merged, range)?;
            {
                let mut lv = self.levels.lock();
                // The partition may have shifted; find it again by range.
                let p = lv
                    .l2
                    .iter_mut()
                    .find(|p| p.range == range)
                    .ok_or_else(|| Error::corruption("patched partition vanished"))?;
                let pos = p
                    .tables
                    .iter()
                    .position(|t| t.base.name == victim.base.name)
                    .ok_or_else(|| Error::corruption("patched table vanished"))?;
                p.tables.remove(pos);
                for (off, m) in metas.into_iter().enumerate() {
                    p.tables.insert(
                        pos + off,
                        L2Table {
                            base: m,
                            patches: Vec::new(),
                        },
                    );
                }
                // Keep tables sorted by their first key for routing.
                p.tables
                    .sort_by(|a, b| a.base.props.first_key.cmp(&b.base.props.first_key));
            }
            for meta in &all {
                self.delete_table(meta)?;
            }
            self.stats.lock().patch_merges += 1;
        }
    }

    // --- dynamic size control (Algorithm 1) -----------------------------------

    fn dynamic_size_control(&self) -> Result<()> {
        let Some(st) = self.opts.fast_limit_bytes else {
            return Ok(());
        };
        let mut lv = self.levels.lock();
        let total_size: u64 = lv
            .l0
            .iter()
            .chain(lv.l1.iter())
            .flat_map(|p| p.tables.iter())
            .map(|t| t.props.file_len)
            .sum();
        if total_size == 0 {
            return Ok(());
        }
        // thres = ST / total_size * R1: the partition length that would fit
        // the budget at the observed data density.
        let thres = (st as f64 / total_size as f64) * lv.r1_ms as f64;
        if total_size > st {
            while (lv.r1_ms / 2) as f64 > thres && lv.r1_ms / 2 >= self.opts.partition_min_ms {
                lv.r1_ms /= 2;
            }
            while lv.r2_ms / 2 >= lv.r1_ms
                && lv.r2_ms / 2 >= self.opts.partition_min_ms
                && (lv.r2_ms / 2) as f64 > thres
            {
                lv.r2_ms /= 2;
            }
        } else {
            // Grow gradually (one doubling per maintenance round) when the
            // fast levels span multiple partitions but sit well under
            // budget (sparse samples or few series — Algorithm 1's else
            // branch).
            let fast_span: i64 = lv
                .l0
                .iter()
                .chain(lv.l1.iter())
                .map(|p| p.range.len())
                .sum();
            if fast_span >= lv.r1_ms
                && (total_size as f64) < st as f64 * 0.5
                && (lv.r1_ms * 2) as f64 <= thres
                && lv.r1_ms * 2 <= self.opts.partition_max_ms
            {
                lv.r1_ms *= 2;
                if lv.r2_ms < lv.r1_ms {
                    lv.r2_ms = lv.r1_ms;
                }
            }
        }
        Ok(())
    }

    // --- reads ----------------------------------------------------------------

    /// Plans and performs the storage reads of one query: everything the
    /// tree holds for the strictly ascending `ids` in chunks whose *start
    /// timestamp* lies in `[start, end)`. Callers extend `start` downward
    /// by the maximum chunk duration to catch chunks straddling the range
    /// start.
    ///
    /// The level metadata is snapshotted once, and each overlapping table
    /// is read once for all the ids it covers (`Table::read`), under that
    /// table's partition heat guard. The returned plan owns what was
    /// fetched; [`ReadPlan::chunks`] decodes one id from it without
    /// touching storage, from any thread.
    pub fn plan_reads(&self, ids: &[u64], start: Timestamp, end: Timestamp) -> Result<ReadPlan> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::invalid("planned ids must be strictly ascending"));
        }
        let end = end.max(start);
        let tr = TimeRange::new(start, end);
        let keys: Vec<([u8; 16], [u8; 16])> = ids
            .iter()
            .map(|&id| (encode_key(id, start), encode_key(id, end)))
            .collect();
        // Read the memtables BEFORE snapshotting the level metadata. Flush
        // publishes tables to the levels first and only then retires the
        // flushed memtable, so in this order every entry is visible in at
        // least one of the two reads (possibly both — deduped by key, with
        // the memtable copy winning via seq = MAX). The reverse order has
        // a lost-visibility window: levels snapshotted before the publish,
        // memtable read after the retire.
        let mem = keys.iter().map(|(s, e)| self.mem.range(s, e)).collect();
        // Snapshot the level metadata, then read without holding the lock.
        let metas: Vec<(TableMeta, std::ops::Range<usize>)> = {
            let lv = self.levels.lock();
            let fast = lv.l0.iter().chain(lv.l1.iter());
            let fast = fast
                .filter(|p| p.range.overlaps(&tr))
                .flat_map(|p| p.tables.iter());
            let slow = lv.l2.iter().filter(|p| p.range.overlaps(&tr));
            let slow = slow
                .flat_map(|p| p.tables.iter())
                .flat_map(|t| std::iter::once(&t.base).chain(t.patches.iter()));
            fast.chain(slow)
                .map(|t| (t, t.ids_covered(ids)))
                .filter(|(_, covered)| !covered.is_empty())
                .map(|(t, covered)| (t.clone(), covered))
                .collect()
        };
        let mut tables = Vec::with_capacity(metas.len());
        for (meta, covered) in metas {
            // Charge this table's block fetches to its owning partition.
            let _heat = tu_obs::heat::attribute(meta.range.start, meta.range.end);
            let ranges: Vec<(&[u8], &[u8])> = keys[covered.clone()]
                .iter()
                .map(|(s, e)| (s.as_slice(), e.as_slice()))
                .collect();
            let read = self.open_table(&meta)?.read(&ranges)?;
            tables.push(PlannedTable {
                seq: meta.seq,
                ids: covered,
                read,
            });
        }
        Ok(ReadPlan { keys, mem, tables })
    }

    /// All chunks of `id` whose *start timestamp* lies in `[start, end)`,
    /// newest version per key, sorted by key: the one-id case of
    /// [`TimeTree::plan_reads`].
    pub fn range_chunks(
        &self,
        id: u64,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Timestamp, Vec<u8>)>> {
        let plan = self.plan_reads(&[id], start, end)?;
        let chunks = plan.chunks(0)?;
        Ok(chunks.into_iter().map(|(t, c)| (t, c.to_vec())).collect())
    }

    /// Point lookup of the chunk at exactly `(id, start_ts)`.
    pub fn get_chunk(&self, id: u64, start_ts: Timestamp) -> Result<Option<Vec<u8>>> {
        let mut found = self
            .range_chunks(id, start_ts, start_ts + 1)?
            .into_iter()
            .map(|(_, v)| v);
        Ok(found.next())
    }

    // --- retention --------------------------------------------------------------

    /// Deletes every partition that ends at or before `watermark`.
    /// Returns the number of partitions removed.
    pub fn purge_before(&self, watermark: Timestamp) -> Result<usize> {
        let (drop_fast, drop_slow) = {
            let mut lv = self.levels.lock();
            let mut fast = Vec::new();
            for p in lv.l0.iter().chain(lv.l1.iter()) {
                if p.range.end <= watermark {
                    fast.extend(p.tables.iter().cloned());
                }
            }
            let mut slow = Vec::new();
            for p in &lv.l2 {
                if p.range.end <= watermark {
                    for t in &p.tables {
                        slow.push(t.base.clone());
                        slow.extend(t.patches.iter().cloned());
                    }
                }
            }
            lv.l0.retain(|p| p.range.end > watermark);
            lv.l1.retain(|p| p.range.end > watermark);
            lv.l2.retain(|p| p.range.end > watermark);
            (fast, slow)
        };
        let count = drop_fast.len() + drop_slow.len();
        for meta in drop_fast.iter().chain(drop_slow.iter()) {
            self.delete_table(meta)?;
        }
        self.save_manifest()?;
        Ok(count)
    }

    // --- observability ------------------------------------------------------------

    pub fn stats(&self) -> TreeStats {
        let lv = self.levels.lock();
        let mut s = *self.stats.lock();
        s.r1_ms = lv.r1_ms;
        s.r2_ms = lv.r2_ms;
        s.l0_partitions = lv.l0.len();
        s.l1_partitions = lv.l1.len();
        s.l2_partitions = lv.l2.len();
        s.fast_bytes = lv
            .l0
            .iter()
            .chain(lv.l1.iter())
            .flat_map(|p| p.tables.iter())
            .map(|t| t.props.file_len)
            .sum();
        s.slow_bytes = lv
            .l2
            .iter()
            .flat_map(|p| p.tables.iter())
            .map(|t| {
                t.base.props.file_len + t.patches.iter().map(|x| x.props.file_len).sum::<u64>()
            })
            .sum();
        s
    }

    /// Structural snapshot for the introspection plane: every level's
    /// partitions with boundaries, table inventory, stats-footer coverage,
    /// and the block cache's counters. Metadata only — no storage I/O.
    pub fn introspect(&self) -> LsmIntrospect {
        fn table_view(m: &TableMeta, patches: usize) -> TableIntrospect {
            TableIntrospect {
                name: m.name.clone(),
                seq: m.seq,
                entries: m.props.entries,
                file_len: m.props.file_len,
                stats_chunks: m.props.stats_chunks,
                patches,
            }
        }
        fn fast_partition(p: &Partition) -> PartitionIntrospect {
            PartitionIntrospect {
                start_ms: p.range.start,
                end_ms: p.range.end,
                tier: "block",
                bytes: p.tables.iter().map(|t| t.props.file_len).sum(),
                chunks: p.tables.iter().map(|t| t.props.entries).sum(),
                stats_chunks: p.tables.iter().map(|t| t.props.stats_chunks).sum(),
                patches: 0,
                tables: p.tables.iter().map(|t| table_view(t, 0)).collect(),
            }
        }
        let lv = self.levels.lock();
        let levels = vec![
            LevelIntrospect {
                level: 0,
                tier: "block",
                partitions: lv.l0.iter().map(fast_partition).collect(),
            },
            LevelIntrospect {
                level: 1,
                tier: "block",
                partitions: lv.l1.iter().map(fast_partition).collect(),
            },
            LevelIntrospect {
                level: 2,
                tier: "object",
                partitions: lv
                    .l2
                    .iter()
                    .map(|p| {
                        fn all(t: &L2Table) -> impl Iterator<Item = &TableMeta> {
                            std::iter::once(&t.base).chain(t.patches.iter())
                        }
                        PartitionIntrospect {
                            start_ms: p.range.start,
                            end_ms: p.range.end,
                            tier: "object",
                            bytes: p
                                .tables
                                .iter()
                                .flat_map(all)
                                .map(|t| t.props.file_len)
                                .sum(),
                            chunks: p.tables.iter().flat_map(all).map(|t| t.props.entries).sum(),
                            stats_chunks: p
                                .tables
                                .iter()
                                .flat_map(all)
                                .map(|t| t.props.stats_chunks)
                                .sum(),
                            patches: p.tables.iter().map(|t| t.patches.len()).sum(),
                            tables: p
                                .tables
                                .iter()
                                .map(|t| table_view(&t.base, t.patches.len()))
                                .collect(),
                        }
                    })
                    .collect(),
            },
        ];
        LsmIntrospect {
            r1_ms: lv.r1_ms,
            r2_ms: lv.r2_ms,
            levels,
            cache: CacheIntrospect {
                shards: self.cache.shard_count(),
                used_bytes: self.cache.used_bytes(),
                hits: self.cache.hit_count(),
                misses: self.cache.miss_count(),
                evictions: self.cache.eviction_count(),
            },
        }
    }

    /// Bytes buffered in memtables (pending flush).
    pub fn memtable_bytes(&self) -> usize {
        self.mem.approx_bytes()
    }

    /// The shared block cache (exposed for cache-hit experiments).
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Drops cached data blocks, keeping table handles (benchmarking).
    pub fn clear_block_cache(&self) {
        self.cache.clear();
    }

    // --- manifest ----------------------------------------------------------------

    const MANIFEST: &'static str = "MANIFEST";

    fn save_manifest(&self) -> Result<()> {
        let lv = self.levels.lock();
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "V1 {} {} {}",
            self.next_seq.load(Ordering::Relaxed),
            lv.r1_ms,
            lv.r2_ms
        );
        let table_line = |tag: &str, range: &TimeRange, m: &TableMeta, out: &mut String| {
            let _ = writeln!(
                out,
                "{tag} {} {} {} {} {} {} {} {} {} {}",
                range.start,
                range.end,
                m.name,
                m.seq,
                m.props.entries,
                hex(&m.props.first_key),
                hex(&m.props.last_key),
                m.props.file_len,
                m.on_slow as u8,
                m.props.stats_chunks,
            );
        };
        for p in &lv.l0 {
            for t in &p.tables {
                table_line("L0", &p.range, t, &mut out);
            }
        }
        for p in &lv.l1 {
            for t in &p.tables {
                table_line("L1", &p.range, t, &mut out);
            }
        }
        for p in &lv.l2 {
            for t in &p.tables {
                table_line("L2", &p.range, &t.base, &mut out);
                for patch in &t.patches {
                    table_line("PATCH", &p.range, patch, &mut out);
                }
            }
        }
        self.env.block.write_file(Self::MANIFEST, out.as_bytes())
    }

    fn load_manifest(&self) -> Result<()> {
        let bytes = match self.env.block.read_file(Self::MANIFEST) {
            Ok(b) => b,
            Err(e) if e.is_not_found() => return Ok(()),
            Err(e) => return Err(e),
        };
        let text =
            String::from_utf8(bytes).map_err(|_| Error::corruption("manifest is not utf-8"))?;
        let mut lv = self.levels.lock();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if i == 0 {
                if fields.len() != 4 || fields[0] != "V1" {
                    return Err(Error::corruption("manifest header malformed"));
                }
                self.next_seq
                    .store(parse(fields[1], "seq")?, Ordering::Relaxed);
                lv.r1_ms = parse(fields[2], "r1")? as i64;
                lv.r2_ms = parse(fields[3], "r2")? as i64;
                continue;
            }
            // 10-field lines predate stats-footer coverage tracking; they
            // load with a coverage of zero.
            if fields.len() != 10 && fields.len() != 11 {
                return Err(Error::corruption("manifest table line malformed"));
            }
            let range = TimeRange::new(
                parse(fields[1], "start")? as i64,
                parse(fields[2], "end")? as i64,
            );
            let meta = TableMeta {
                name: fields[3].to_string(),
                seq: parse(fields[4], "seq")?,
                props: TableProps {
                    entries: parse(fields[5], "entries")?,
                    first_key: unhex(fields[6])?,
                    last_key: unhex(fields[7])?,
                    file_len: parse(fields[8], "len")?,
                    stats_chunks: match fields.get(10) {
                        Some(f) => parse(f, "stats_chunks")?,
                        None => 0,
                    },
                },
                on_slow: fields[9] == "1",
                range,
            };
            match fields[0] {
                "L0" | "L1" => {
                    let list = if fields[0] == "L0" {
                        &mut lv.l0
                    } else {
                        &mut lv.l1
                    };
                    match list.iter_mut().find(|p| p.range == range) {
                        Some(p) => p.tables.push(meta),
                        None => list.push(Partition {
                            range,
                            tables: vec![meta],
                        }),
                    }
                }
                "L2" => {
                    let part = match lv.l2.iter_mut().find(|p| p.range == range) {
                        Some(p) => p,
                        None => {
                            lv.l2.push(L2Partition {
                                range,
                                tables: Vec::new(),
                            });
                            let end = lv.l2.len() - 1;
                            &mut lv.l2[end]
                        }
                    };
                    part.tables.push(L2Table {
                        base: meta,
                        patches: Vec::new(),
                    });
                }
                "PATCH" => {
                    let part = lv
                        .l2
                        .iter_mut()
                        .find(|p| p.range == range)
                        .ok_or_else(|| Error::corruption("patch before its partition"))?;
                    let table = part
                        .tables
                        .last_mut()
                        .ok_or_else(|| Error::corruption("patch before its base table"))?;
                    table.patches.push(meta);
                }
                other => return Err(Error::corruption(format!("unknown manifest tag {other}"))),
            }
        }
        lv.l0.sort_by_key(|p| p.range.start);
        lv.l1.sort_by_key(|p| p.range.start);
        lv.l2.sort_by_key(|p| p.range.start);
        Ok(())
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn unhex(s: &str) -> Result<Vec<u8>> {
    if s == "-" {
        return Ok(Vec::new());
    }
    if s.len() % 2 != 0 {
        return Err(Error::corruption("odd-length hex in manifest"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| Error::corruption("bad hex in manifest"))
        })
        .collect()
}

fn parse(s: &str, what: &str) -> Result<u64> {
    s.parse()
        .map_err(|_| Error::corruption(format!("manifest field {what} malformed")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::LatencyMode;

    const MIN: i64 = 60_000;
    const HOUR: i64 = 60 * MIN;

    fn tree_with(opts: TreeOptions) -> (tempfile::TempDir, TimeTree) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env, opts).unwrap();
        (dir, t)
    }

    fn small_opts() -> TreeOptions {
        TreeOptions {
            memtable_bytes: 16 << 10,
            l0_partition_ms: 30 * MIN,
            l2_partition_ms: 2 * HOUR,
            max_sstable_bytes: 32 << 10,
            partition_min_ms: 15 * MIN,
            ..TreeOptions::default()
        }
    }

    /// An incompressible pseudo-random chunk payload (real chunks are
    /// Gorilla-compressed and do not collapse under Snappy either).
    fn chunk(tag: u64) -> Vec<u8> {
        let mut state = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..120)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    /// Inserts `n_chunks` chunks per series for `n_series` series at
    /// 30-minute chunk spacing starting at t=0, maintaining as signalled.
    fn load(t: &TimeTree, n_series: u64, n_chunks: i64) {
        for c in 0..n_chunks {
            for id in 0..n_series {
                let ts = c * 30 * MIN;
                if t.put(id, ts, chunk(id * 1000 + c as u64)) {
                    t.maintain().unwrap();
                }
            }
        }
        t.seal();
        t.maintain().unwrap();
    }

    #[test]
    fn put_get_from_memtable() {
        let (_d, t) = tree_with(small_opts());
        t.put(7, 1000, chunk(1));
        assert_eq!(t.get_chunk(7, 1000).unwrap(), Some(chunk(1)));
        assert_eq!(t.get_chunk(7, 2000).unwrap(), None);
        assert_eq!(t.get_chunk(8, 1000).unwrap(), None);
    }

    #[test]
    fn flush_moves_data_to_l0_partitions() {
        let (_d, t) = tree_with(small_opts());
        // Two chunks in different 30-min partitions.
        t.put(1, 5 * MIN, chunk(1));
        t.put(1, 40 * MIN, chunk(2));
        t.seal();
        t.maintain().unwrap();
        let s = t.stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.l0_partitions, 2);
        assert_eq!(t.get_chunk(1, 5 * MIN).unwrap(), Some(chunk(1)));
        assert_eq!(t.get_chunk(1, 40 * MIN).unwrap(), Some(chunk(2)));
    }

    #[test]
    fn l0_compaction_gathers_into_l1() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 4, 8); // 4 hours of data in 30-min chunks
        let s = t.stats();
        assert!(s.l0_to_l1_compactions > 0, "{s:?}");
        // Everything must still be readable.
        for id in 0..4 {
            let chunks = t.range_chunks(id, 0, 5 * HOUR).unwrap();
            assert_eq!(chunks.len(), 8, "series {id}: {s:?}");
        }
    }

    #[test]
    fn l1_to_l2_uploads_closed_windows() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 4, 12); // 6 hours: at least two closed 2h windows
        let s = t.stats();
        assert!(s.l1_to_l2_compactions >= 1, "{s:?}");
        assert!(s.l2_partitions >= 1, "{s:?}");
        assert!(s.slow_bytes > 0);
        for id in 0..4 {
            assert_eq!(t.range_chunks(id, 0, 7 * HOUR).unwrap().len(), 12);
        }
    }

    #[test]
    fn flush_all_to_slow_empties_fast_levels() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 2, 6);
        t.flush_all_to_slow().unwrap();
        let s = t.stats();
        assert_eq!(s.l0_partitions, 0);
        assert_eq!(s.l1_partitions, 0);
        assert!(s.l2_partitions > 0);
        assert_eq!(s.fast_bytes, 0);
        for id in 0..2 {
            assert_eq!(t.range_chunks(id, 0, 4 * HOUR).unwrap().len(), 6);
        }
    }

    #[test]
    fn newest_version_wins_after_rewrite() {
        let (_d, t) = tree_with(small_opts());
        t.put(1, 1000, chunk(1));
        t.seal();
        t.maintain().unwrap();
        t.put(1, 1000, chunk(99));
        assert_eq!(t.get_chunk(1, 1000).unwrap(), Some(chunk(99)));
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.get_chunk(1, 1000).unwrap(), Some(chunk(99)));
    }

    #[test]
    fn out_of_order_flush_lands_in_old_partition() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 2, 4);
        // Late write for the first partition.
        t.put(0, 1 * MIN, chunk(777));
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.get_chunk(0, 1 * MIN).unwrap(), Some(chunk(777)));
        // And it merges fine through further compactions.
        t.flush_all_to_slow().unwrap();
        assert_eq!(t.get_chunk(0, 1 * MIN).unwrap(), Some(chunk(777)));
    }

    #[test]
    fn out_of_order_to_l2_creates_patches() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 4, 12);
        t.flush_all_to_slow().unwrap();
        let before = t.stats();
        assert!(before.l2_partitions >= 2);
        // Backfill into an L2-resident window, then force it down.
        t.put(2, 10 * MIN, chunk(4242));
        t.flush_all_to_slow().unwrap();
        let after = t.stats();
        assert!(after.patches_created > before.patches_created, "{after:?}");
        assert_eq!(t.get_chunk(2, 10 * MIN).unwrap(), Some(chunk(4242)));
        // Old data in the patched partition is still there.
        assert_eq!(t.range_chunks(2, 0, 7 * HOUR).unwrap().len(), 13);
    }

    #[test]
    fn excess_patches_trigger_merge() {
        let opts = TreeOptions {
            patch_threshold: 1,
            ..small_opts()
        };
        let (_d, t) = tree_with(opts);
        load(&t, 2, 12);
        t.flush_all_to_slow().unwrap();
        // Two separate backfills to the same old window.
        for (i, ts) in [(0u64, 3 * MIN), (0, 7 * MIN), (0, 9 * MIN)] {
            t.put(i, ts, chunk(ts as u64));
            t.flush_all_to_slow().unwrap();
        }
        let s = t.stats();
        assert!(s.patch_merges >= 1, "{s:?}");
        for ts in [3 * MIN, 7 * MIN, 9 * MIN] {
            assert_eq!(t.get_chunk(0, ts).unwrap(), Some(chunk(ts as u64)));
        }
        assert_eq!(t.range_chunks(0, 0, 7 * HOUR).unwrap().len(), 15);
    }

    #[test]
    fn retention_purges_old_partitions() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 2, 12);
        t.flush_all_to_slow().unwrap();
        let removed = t.purge_before(4 * HOUR).unwrap();
        assert!(removed > 0);
        let remaining = t.range_chunks(0, 0, 7 * HOUR).unwrap();
        assert!(remaining.len() < 12);
        assert!(remaining.iter().all(|(ts, _)| *ts >= 4 * HOUR - 30 * MIN));
    }

    #[test]
    fn dynamic_control_shrinks_partitions_under_pressure() {
        let opts = TreeOptions {
            fast_limit_bytes: Some(16 << 10),
            l0_partition_ms: 2 * HOUR,
            partition_min_ms: 15 * MIN,
            ..small_opts()
        };
        let (_d, t) = tree_with(opts);
        load(&t, 32, 12);
        let s = t.stats();
        assert!(s.r1_ms < 2 * HOUR, "partition length should shrink: {s:?}");
        assert!(s.r1_ms >= 15 * MIN);
    }

    #[test]
    fn manifest_round_trip_preserves_everything() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        {
            let t = TimeTree::open(env.clone(), small_opts()).unwrap();
            load(&t, 3, 12);
            t.put(0, 3 * MIN, chunk(55)); // leave a patch behind
            t.flush_all_to_slow().unwrap();
        }
        let env2 = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env2, small_opts()).unwrap();
        for id in 0..3 {
            let expect = if id == 0 { 13 } else { 12 };
            assert_eq!(
                t.range_chunks(id, 0, 7 * HOUR).unwrap().len(),
                expect,
                "series {id}"
            );
        }
        assert_eq!(t.get_chunk(0, 3 * MIN).unwrap(), Some(chunk(55)));
    }

    #[test]
    fn range_chunks_respects_bounds_and_ids() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 3, 8);
        let chunks = t.range_chunks(1, 1 * HOUR, 3 * HOUR).unwrap();
        assert_eq!(chunks.len(), 4); // starts at 1h, 1.5h, 2h, 2.5h
        assert!(chunks
            .iter()
            .all(|(ts, _)| (1 * HOUR..3 * HOUR).contains(ts)));
        assert!(t.range_chunks(99, 0, 10 * HOUR).unwrap().is_empty());
    }

    #[test]
    fn single_slow_level_writes_less_than_data_rewrite() {
        // The headline property: bytes PUT to the slow tier stay close to
        // the data size (1x write amplification at L2).
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env.clone(), small_opts()).unwrap();
        load(&t, 8, 16);
        t.flush_all_to_slow().unwrap();
        let slow = env.object.stats();
        let data = t.stats().slow_bytes;
        assert!(
            slow.bytes_written <= data * 2,
            "slow writes {} vs resident {}",
            slow.bytes_written,
            data
        );
    }
}

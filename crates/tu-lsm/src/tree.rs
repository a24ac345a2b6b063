//! The elastic time-partitioned LSM-tree (§3.3, Figure 10).
//!
//! Three levels over two storage tiers:
//!
//! * **L0, L1** on the fast tier (block store ≈ EBS) hold recent data in
//!   short time partitions (initially 30 minutes).
//! * **L2**, the *only* level on the slow tier (object store ≈ S3), holds
//!   everything older in longer partitions (initially 2 hours). Keeping a
//!   single slow level avoids the multiplicative rewrite traffic of a
//!   classic leveled LSM (Equations 8–10). An L2 table's *patches* are the
//!   exception: written once and read back by the merge that consumes
//!   them, they stay on the fast tier until it does, and a drain merges
//!   every one.
//!
//! Keys are the 16-byte `(series/group id, chunk start timestamp)` keys of
//! [`tu_common::keys`]; values are serialized chunks. The tree maintains:
//!
//! * an active MemTable + immutable queue (flushes split entries into
//!   L0 time partitions),
//! * L0→L1 compaction that gathers each series' chunks together,
//! * L1→L2 compaction that uploads closed windows to the slow tier,
//! * out-of-order handling via stale-partition merges (fast tier) and
//!   *patches* appended to L2 SSTables (Figure 11); an append that would
//!   give a table more than `patch_threshold` patches merges it instead,
//!   and so does a drain,
//! * dynamic size control of partition lengths (Algorithm 1, Figure 19),
//! * retention purges of whole partitions.
//!
//! The tree is synchronous: `put` never blocks on I/O beyond the WAL-less
//! memtable insert, and all background-style work happens in the
//! maintenance steps ([`TimeTree::maintain`] runs them in order), which the
//! embedding engine runs inside its own maintenance pass.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

use tu_cloud::cost::WAVE_IN_FLIGHT;
use tu_cloud::StorageEnv;
use tu_common::keys::{decode_id, decode_ts, decode_version, encode_key, encode_versioned_key};
use tu_common::pool::{WorkerPool, INGEST_THREADS_ENV};
use tu_common::{Error, Result, TimeRange, Timestamp};

use crate::cache::BlockCache;
use crate::memtable::{range_of, MemTable, MemTableSet};
use crate::reach::Reach;
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
    /// Patches an L2 SSTable may hold; an append to a table that holds this
    /// many merges it instead (paper: 3).
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
    /// How far the table's chunks reach ([`TableProps::reach`]); `None`
    /// when unknown.
    pub reach: Option<Reach>,
}

/// One time partition of one level, as reported by [`TimeTree::introspect`].
#[derive(Debug, Clone)]
pub struct PartitionIntrospect {
    pub start_ms: i64,
    pub end_ms: i64,
    /// Residency tier: `"object"` if any of its tables is on the slow tier
    /// (an L2 partition's base tables are), else `"block"`.
    pub tier: &'static str,
    /// Total bytes across base tables and patches.
    pub bytes: u64,
    /// The part of `bytes` on the fast tier: all of an L0/L1 partition,
    /// an L2 partition's patches.
    pub fast_bytes: u64,
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
    /// Owning time partition.
    range: TimeRange,
}

impl TableMeta {
    fn first_id(&self) -> u64 {
        decode_id(&self.props.first_key).unwrap_or(0)
    }
    fn last_id(&self) -> u64 {
        decode_id(&self.props.last_key).unwrap_or(u64::MAX)
    }
    /// The lowest key a chunk of this table with a sample at or after
    /// `start` can have; `None` if none can have one. Every key of the
    /// table lies in its partition's range.
    fn key_bound(&self, start: Timestamp) -> Option<Timestamp> {
        match self.props.reach {
            None => Some(self.range.start),
            Some(r) => r.key_bound(start).map(|b| b.max(self.range.start)),
        }
    }

    /// The part of the ascending `ids` this table's id range covers.
    fn ids_covered(&self, ids: &[u64]) -> std::ops::Range<usize> {
        let (first, last) = (self.first_id(), self.last_id());
        ids.partition_point(|&id| id < first)..ids.partition_point(|&id| id <= last)
    }
}

/// Tables a maintenance step made obsolete, for
/// [`TimeTree::delete_obsolete`] once the saved manifest drops them.
#[derive(Debug, Default)]
pub struct Obsolete(Vec<TableMeta>);

impl Obsolete {
    pub fn extend(&mut self, other: Obsolete) {
        self.0.extend(other.0);
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

impl Levels {
    /// Every table of every level, L2 patches included.
    fn tables(&self) -> impl Iterator<Item = &TableMeta> {
        let fast = self.l0.iter().chain(&self.l1).flat_map(|p| &p.tables);
        let l2 = self.l2.iter().flat_map(|p| &p.tables);
        fast.chain(l2.flat_map(|t| std::iter::once(&t.base).chain(&t.patches)))
    }

    /// True when a level lists the table `name`.
    fn names(&self, name: &str) -> bool {
        self.tables().any(|t| t.name == name)
    }

    /// Bytes of the tables on the slow tier, or on the fast one.
    fn tier_bytes(&self, on_slow: bool) -> u64 {
        let tables = self.tables().filter(|t| t.on_slow == on_slow);
        tables.map(|t| t.props.file_len).sum()
    }
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
    /// newest write per key, in the order a reader applies them (a later
    /// chunk wins a shared timestamp): plain keys by start timestamp, then
    /// versioned keys by version.
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
        acc.sort_by_key(|(k, _, _)| decode_version(k));
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
    /// Open table handles (footer/index parsed once per table, as
    /// LevelDB's table cache does).
    tables: Mutex<std::collections::HashMap<String, Arc<Table>>>,
    /// Number of memtables flushed: with [`TimeTree::seal_epoch`], the
    /// durability epochs the engine's WAL-checkpoint logic keys on (§3.3
    /// "Logging"): an entry put at `seal_epoch() == e` is durable once
    /// `flushed_epoch() > e`.
    flushed: AtomicU64,
    /// Workers for flush encoding and compaction table scans. The on-disk
    /// result is independent of the width: encoded blobs are
    /// sequence-numbered and named in bucket order, and merges fold the
    /// scans in table order. So is the modelled time: the scans are
    /// charged as one wave whatever the width.
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
            flushed: AtomicU64::new(0),
            env,
            opts,
        };
        tree.load_manifest()?;
        tree.delete_unnamed_tables()?;
        Ok(tree)
    }

    // --- writes -------------------------------------------------------------

    /// Inserts a chunk under its `(id, start_ts)` key. Returns true if the
    /// active memtable crossed the seal threshold (the caller should
    /// schedule [`TimeTree::maintain`]).
    pub fn put(&self, id: u64, start_ts: Timestamp, chunk: Vec<u8>) -> bool {
        self.put_key(encode_key(id, start_ts).to_vec(), chunk)
    }

    /// Inserts a chunk under the versioned key `(id, start_ts, version)`:
    /// it replaces nothing but an equal version, and readers apply it after
    /// every plain chunk and every lower version ([`ReadPlan::chunks`]).
    pub fn put_version(&self, id: u64, start_ts: Timestamp, version: u64, chunk: Vec<u8>) -> bool {
        self.put_key(encode_versioned_key(id, start_ts, version).to_vec(), chunk)
    }

    fn put_key(&self, key: Vec<u8>, chunk: Vec<u8>) -> bool {
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
            tu_obs::gauge("lsm.flush.backlog").set(self.mem.immutable_count() as i64);
        }
    }

    /// Durability epoch of the active memtable. Read *after* a put, it is
    /// the epoch of the memtable that took the entry or a later one, so a
    /// checkpoint keyed on it may wait longer than needed but never fires
    /// before the entry is durable.
    pub fn seal_epoch(&self) -> u64 {
        self.mem.epoch()
    }

    /// Number of immutable memtables flushed to L0 so far. Entries put at
    /// `seal_epoch() == e` are durable once `flushed_epoch() > e`.
    pub fn flushed_epoch(&self) -> u64 {
        self.flushed.load(Ordering::SeqCst)
    }

    /// The current length of an L2 (slow-tier) partition: the grid new L2
    /// partitions align to. Dynamic size control may change it.
    pub fn l2_partition_ms(&self) -> i64 {
        self.levels.lock().r2_ms
    }

    // --- maintenance steps ------------------------------------------------------
    //
    // A maintenance pass is these steps in this order: `flush_sealed`,
    // `compact_l0`, `upload_windows`, `purge_before` (retention only),
    // `save_manifest`, `delete_obsolete`. The engine runs them with its own
    // steps in between; `maintain` and `flush_all_to_slow` run them alone.
    // A tree runs one pass at a time: a compaction selects its inputs
    // without taking them out of the levels, so two passes at once could
    // select the same ones.

    /// One pass over the tree alone: flushes, then compacts down to the
    /// compaction trigger and uploads the closed windows.
    pub fn maintain(&self) -> Result<()> {
        self.pass(false)
    }

    /// Seals the active memtable and drains everything above L2 into L2.
    pub fn flush_all_to_slow(&self) -> Result<()> {
        self.seal();
        self.pass(true)
    }

    fn pass(&self, drain: bool) -> Result<()> {
        self.flush_sealed()?;
        let mut obsolete = self.compact_l0(drain)?;
        obsolete.extend(self.upload_windows(drain)?);
        self.save_manifest()?;
        self.delete_obsolete(obsolete)
    }

    /// Flushes every sealed memtable to L0, oldest first, and nothing
    /// more: no compaction, no upload.
    pub fn flush_sealed(&self) -> Result<()> {
        while let Some(imm) = self.mem.oldest_immutable() {
            self.flush_one(&imm)?;
            self.mem.retire(&imm);
            self.flushed.fetch_add(1, Ordering::SeqCst);
            tu_obs::gauge("lsm.flush.backlog").set(self.mem.immutable_count() as i64);
        }
        Ok(())
    }

    /// Compacts L0 into L1, oldest partition first, until at most
    /// `l0_compact_trigger` partitions are left, or none when `drain`.
    pub fn compact_l0(&self, drain: bool) -> Result<Obsolete> {
        let trigger = if drain {
            0
        } else {
            self.opts.l0_compact_trigger
        };
        self.compact_while(|lv| lv.l0.len() > trigger, Self::compact_l0_to_l1)
    }

    /// Merges or uploads L1's windows into L2, oldest first: the closed
    /// ones, or every one when `drain`. A drain then merges every L2 table
    /// that holds patches, so it leaves none on the fast tier. Then runs
    /// dynamic size control.
    pub fn upload_windows(&self, drain: bool) -> Result<Obsolete> {
        let due = |lv: &Levels| match drain {
            true => !lv.l1.is_empty(),
            false => l1_window_closed(lv),
        };
        let mut obsolete = self.compact_while(due, Self::compact_l1_to_l2)?;
        if drain {
            obsolete.extend(self.merge_patched_tables()?);
        }
        self.dynamic_size_control();
        Ok(obsolete)
    }

    /// Merges every L2 table that holds patches into fresh base tables,
    /// and returns the tables the merges replaced.
    fn merge_patched_tables(&self) -> Result<Obsolete> {
        let mut patched = Vec::new();
        for p in &self.levels.lock().l2 {
            for t in p.tables.iter().filter(|t| !t.patches.is_empty()) {
                patched.push((p.range, t.base.name.clone()));
            }
        }
        let mut obsolete = Vec::new();
        for (range, base) in patched {
            obsolete.extend(self.merge_table(range, &base, Vec::new())?);
        }
        Ok(Obsolete(obsolete))
    }

    /// The one compaction loop: runs `compact` while `due` holds, and
    /// returns the tables the runs made obsolete.
    fn compact_while(
        &self,
        due: impl Fn(&Levels) -> bool,
        compact: fn(&Self) -> Result<Vec<TableMeta>>,
    ) -> Result<Obsolete> {
        let mut obsolete = Vec::new();
        while due(&self.levels.lock()) {
            obsolete.extend(compact(self)?);
        }
        Ok(Obsolete(obsolete))
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
        // checksumming are not). Sequence numbers and names are assigned in
        // bucket order below, so the on-disk layout is identical for every
        // worker count.
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
    /// encoded concurrently without affecting the on-disk layout. Entries
    /// passed by value are dropped as they are added, so they and the
    /// finished blobs are never both whole in memory.
    fn encode_tables<E: Borrow<(Vec<u8>, Vec<u8>)>>(
        &self,
        entries: impl IntoIterator<Item = E>,
    ) -> Result<Vec<(Vec<u8>, TableProps)>> {
        let mut out = Vec::new();
        let mut builder = TableBuilder::new();
        for entry in entries {
            let (k, v) = entry.borrow();
            builder.add(k, v)?;
            if builder.estimated_len() >= self.opts.max_sstable_bytes {
                out.push(std::mem::take(&mut builder).finish()?);
            }
        }
        if !builder.is_empty() {
            out.push(builder.finish()?);
        }
        Ok(out)
    }

    /// Writes encoded blobs as tables of `level` — L2's to the slow tier,
    /// the others to the fast tier — assigning sequence numbers and names
    /// in blob order. The writes are independent and issued together, as
    /// one wave ([`tu_cloud::cost::CostClock::wave`]).
    fn write_tables(
        &self,
        blobs: Vec<(Vec<u8>, TableProps)>,
        level: u8,
        range: TimeRange,
    ) -> Result<Vec<TableMeta>> {
        let (blobs, metas): (Vec<Vec<u8>>, Vec<TableMeta>) = blobs
            .into_iter()
            .map(|(bytes, props)| {
                let seq = self.next_seq();
                let name = format!("l{level}/p{}-{}/sst-{seq:08}", range.start, range.end);
                let on_slow = level == 2;
                (
                    bytes,
                    TableMeta {
                        name,
                        seq,
                        props,
                        on_slow,
                        range,
                    },
                )
            })
            .unzip();
        let pool = WorkerPool::new(WAVE_IN_FLIGHT);
        let writes = self.env.clock.wave(pool, metas.len(), |i| {
            let (meta, bytes) = (&metas[i], &blobs[i]);
            match meta.on_slow {
                true => self.env.object.put(&meta.name, bytes),
                false => self.env.block.write_file(&meta.name, bytes),
            }
        });
        writes.into_iter().collect::<Result<()>>()?;
        Ok(metas)
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

    /// Deletes tables a step made obsolete. Call it only once a saved
    /// manifest no longer names them.
    pub fn delete_obsolete(&self, obsolete: Obsolete) -> Result<()> {
        for meta in &obsolete.0 {
            self.tables.lock().remove(&meta.name);
            if meta.on_slow {
                self.env.object.delete(&meta.name)?;
                self.cache.invalidate_table(&format!("o:{}", meta.name));
            } else {
                self.env.block.delete(&meta.name)?;
                self.cache.invalidate_table(&format!("b:{}", meta.name));
            }
        }
        Ok(())
    }

    /// Merges a set of tables newest-wins into sorted entries. Each table
    /// costs one read request ([`Table::scan_file`]) and no open handle.
    /// The scans — the I/O-heavy part, often against the slow tier — are
    /// issued together as one wave ([`tu_cloud::cost::CostClock::wave`]);
    /// the newest-wins fold runs sequentially in table order afterwards.
    /// The wave runs on the flush workers, not on a thread per scan: a
    /// scan holds its whole input file while it decodes it, and sixteen
    /// at once raised the `ooo_backfill` drain's peak heap by up to 6 %.
    fn merge_tables(&self, metas: &[TableMeta]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let scans = self.env.clock.wave(self.flush_pool, metas.len(), |i| {
            Table::scan_file(self.source(&metas[i]))
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

    /// Compacts the oldest L0 partition, and every partition overlapping
    /// it, into L1. The inputs stay in the levels until the outputs replace
    /// them in one critical section, so a reader always finds one or the
    /// other. Returns the input tables, for deletion once the saved
    /// manifest no longer names them.
    fn compact_l0_to_l1(&self) -> Result<Vec<TableMeta>> {
        let _span = tu_obs::span("lsm.compact.l0_l1");
        // Select the oldest L0 partition plus everything overlapping it.
        let (sel_range, all_tables, stale, out_len) = {
            let lv = self.levels.lock();
            let Some(victim) = lv.l0.first() else {
                return Ok(Vec::new());
            };
            let mut sel_range = victim.range;
            // Gather overlapping L0 partitions (multi-grid overlap after
            // dynamic resizing) transitively.
            let mut changed = true;
            while changed {
                changed = false;
                for p in lv.l0.iter().chain(lv.l1.iter()) {
                    if p.range.overlaps(&sel_range) && !sel_range.covers(&p.range) {
                        sel_range = sel_range.union(&p.range);
                        changed = true;
                    }
                }
            }
            let selected = |level: &Vec<Partition>| -> Vec<Partition> {
                let overlapping = level.iter().filter(|p| p.range.overlaps(&sel_range));
                overlapping.cloned().collect()
            };
            let (l0_sel, l1_sel) = (selected(&lv.l0), selected(&lv.l1));
            let sel = l0_sel.iter().chain(l1_sel.iter());
            // Figure 12: output aligned to the shortest selected length.
            let out_len = sel.clone().map(|p| p.range.len()).min().unwrap_or(lv.r1_ms);
            let tables: Vec<TableMeta> = sel.flat_map(|p| p.tables.iter().cloned()).collect();
            (sel_range, tables, !l1_sel.is_empty(), out_len.max(1))
        };
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
            let tables = self.write_tables(self.encode_tables(entries)?, 1, range)?;
            new_parts.push(Partition { range, tables });
        }
        {
            let mut lv = self.levels.lock();
            lv.l0.retain(|p| !p.range.overlaps(&sel_range));
            lv.l1.retain(|p| !p.range.overlaps(&sel_range));
            lv.l1.extend(new_parts);
            lv.l1.sort_by_key(|p| p.range.start);
        }
        {
            let mut stats = self.stats.lock();
            stats.l0_to_l1_compactions += 1;
            stats.stale_l0_merges += u64::from(stale);
        }
        tu_obs::log::info(
            "lsm.compact",
            "L0->L1 compaction",
            &[
                ("input_tables", all_tables.len().into()),
                ("stale", stale.into()),
            ],
        );
        Ok(all_tables)
    }

    // --- L1 -> L2 -------------------------------------------------------------

    /// Merges the oldest closed L2-grid window of L1 and uploads it: as
    /// new L2 partitions, or as patches (or patch merges) of the L2 tables
    /// it overlaps. The L1 inputs leave the levels only once every output
    /// is in, so a reader always finds one or the other. Returns the
    /// tables made obsolete — the L1 inputs and what the patch merges
    /// replaced — for deletion once the saved manifest no longer names
    /// them.
    fn compact_l1_to_l2(&self) -> Result<Vec<TableMeta>> {
        let _span = tu_obs::span("lsm.compact.l1_l2");
        let (mut obsolete, window) = {
            let lv = self.levels.lock();
            let Some(oldest) = lv.l1.first() else {
                return Ok(Vec::new());
            };
            let w_start = oldest.range.start.div_euclid(lv.r2_ms) * lv.r2_ms;
            // A partition straddling the window's end (possible after
            // resizes) widens the window, so progress is guaranteed.
            let window = TimeRange::new(w_start, oldest.range.end.max(w_start + lv.r2_ms));
            let selected = lv.l1.iter().filter(|p| window.covers(&p.range));
            let tables: Vec<TableMeta> = selected.flat_map(|p| p.tables.iter().cloned()).collect();
            (tables, window)
        };
        let input_tables = obsolete.len();
        let merged = self.merge_tables(&obsolete)?;

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
            obsolete.extend(self.append_patches(patch_groups)?);
        }
        if !fresh.is_empty() {
            // Time ranges not covered by existing partitions are split and
            // aligned to the shortest selected L2 partition length — or the
            // current R2 when none overlap (Figure 12, right).
            let align = overlapping
                .iter()
                .map(|r| r.len())
                .min()
                .unwrap_or_else(|| self.l2_partition_ms())
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
                let metas = self.upload_l2_tables(entries, range)?;
                add_l2_bases(&mut self.levels.lock(), range, metas);
            }
        }
        self.levels.lock().l1.retain(|p| !window.covers(&p.range));
        self.stats.lock().l1_to_l2_compactions += 1;
        tu_obs::log::info(
            "lsm.compact",
            "L1->L2 merge-and-upload",
            &[
                ("input_tables", input_tables.into()),
                ("window_start", window.start.into()),
                ("window_end", window.end.into()),
            ],
        );
        Ok(obsolete)
    }

    /// Builds every SSTable of `entries`, then uploads them to the slow
    /// tier as one wave of Puts: the caller waits for the slowest Put, not
    /// for their sum.
    fn upload_l2_tables(
        &self,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
        range: TimeRange,
    ) -> Result<Vec<TableMeta>> {
        self.write_tables(self.encode_tables(entries)?, 2, range)
    }

    /// Routes out-of-order entries to the L2 tables whose ID ranges cover
    /// them (Figure 11). A table's share becomes a patch appended to it,
    /// written to the fast tier: it is read back only by the merge that
    /// consumes it, and by queries until then. But if the table already
    /// holds `patch_threshold` patches, its base, its patches and the share
    /// merge straight into fresh base tables, so the patch that would have
    /// tipped it over is never written, nor read back to be merged.
    /// Returns the tables the merges made obsolete.
    fn append_patches(
        &self,
        groups: BTreeMap<i64, Vec<(Vec<u8>, Vec<u8>)>>,
    ) -> Result<Vec<TableMeta>> {
        let mut obsolete = Vec::new();
        for (part_start, entries) in groups {
            // Snapshot the partition's tables: base name and ID range.
            let (range, targets) = {
                let lv = self.levels.lock();
                let p = lv.l2.iter().find(|p| p.range.start == part_start);
                let p = p.ok_or_else(|| Error::corruption("patch target partition vanished"))?;
                let bases = p
                    .tables
                    .iter()
                    .map(|t| (t.base.name.clone(), t.base.last_id()));
                (p.range, bases.collect::<Vec<_>>())
            };
            if targets.is_empty() {
                // Partition had no tables (shouldn't happen): the entries
                // become its base tables.
                let metas = self.upload_l2_tables(entries, range)?;
                add_l2_bases(&mut self.levels.lock(), range, metas);
                continue;
            }
            // Split entries by target table (ID ranges are disjoint; route
            // by the first range whose last_id >= id, falling back to the
            // final table for ids beyond all ranges). Targets are found by
            // base name, not position: a merge may split a table and shift
            // the ones after it.
            let mut per_table: BTreeMap<usize, Vec<(Vec<u8>, Vec<u8>)>> = BTreeMap::new();
            for (k, v) in entries {
                let id = decode_id(&k)?;
                let idx = targets
                    .iter()
                    .position(|&(_, last)| id <= last)
                    .unwrap_or(targets.len() - 1);
                per_table.entry(idx).or_default().push((k, v));
            }
            for (idx, entries) in per_table {
                let base_name = &targets[idx].0;
                let patches = {
                    let mut lv = self.levels.lock();
                    l2_table(&mut lv, range, base_name)?.patches.len()
                };
                if patches >= self.opts.patch_threshold {
                    obsolete.extend(self.merge_table(range, base_name, entries)?);
                    continue;
                }
                let mut builder = TableBuilder::new();
                for (k, v) in &entries {
                    builder.add(k, v)?;
                }
                let (bytes, props) = builder.finish()?;
                let seq = self.next_seq();
                let name = format!("l2/p{}-{}/patch-{seq:08}", range.start, range.end);
                self.env.block.write_file(&name, &bytes)?;
                let meta = TableMeta {
                    name,
                    seq,
                    props,
                    on_slow: false,
                    range,
                };
                l2_table(&mut self.levels.lock(), range, base_name)?
                    .patches
                    .push(meta);
                self.stats.lock().patches_created += 1;
            }
        }
        Ok(obsolete)
    }

    /// Merges the L2 table based at `base_name` — its base, then its
    /// patches, then `newest`, each winning over the ones before on equal
    /// keys — into fresh base tables that take its place (Figure 11: the
    /// merge may split it into several with disjoint ID ranges). Returns
    /// the base and patches it replaced.
    fn merge_table(
        &self,
        range: TimeRange,
        base_name: &str,
        newest: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<Vec<TableMeta>> {
        let victim = l2_table(&mut self.levels.lock(), range, base_name)?.clone();
        let mut inputs = vec![victim.base];
        inputs.extend(victim.patches);
        let mut merged: BTreeMap<Vec<u8>, Vec<u8>> =
            self.merge_tables(&inputs)?.into_iter().collect();
        merged.extend(newest);
        let metas = self.upload_l2_tables(merged, range)?;
        {
            let mut lv = self.levels.lock();
            l2_partition(&mut lv, range)?
                .tables
                .retain(|t| t.base.name != base_name);
            add_l2_bases(&mut lv, range, metas);
            // Keep tables sorted by their first key for routing.
            let p = l2_partition(&mut lv, range)?;
            p.tables
                .sort_by(|a, b| a.base.props.first_key.cmp(&b.base.props.first_key));
        }
        self.stats.lock().patch_merges += 1;
        Ok(inputs)
    }

    // --- dynamic size control (Algorithm 1) -----------------------------------

    fn dynamic_size_control(&self) {
        let Some(st) = self.opts.fast_limit_bytes else {
            return;
        };
        let mut lv = self.levels.lock();
        let total_size = lv.tier_bytes(false);
        if total_size == 0 {
            return;
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
    }

    // --- reads ----------------------------------------------------------------

    /// Plans and performs the storage reads of one query: everything the
    /// tree holds for the strictly ascending `ids` that can have a sample
    /// in `[start, end)`.
    ///
    /// A chunk is keyed by its first sample, so one that straddles `start`
    /// is keyed before it. How far before, each table and memtable records
    /// ([`Reach`]), and one key lower bound `from` serves the whole query:
    /// the lowest, over every table and memtable with a chunk reaching
    /// `start`, of
    ///
    /// * `max(range.start, start − span)` for a table of known reach (its
    ///   keys lie in its partition's range),
    /// * `range.start` for a table of unknown reach (one of its chunks has
    ///   no stats envelope, or its manifest line predates reach),
    /// * `start − span` for a memtable, or the lowest key of a chunk
    ///   without an envelope if that is lower.
    ///
    /// Every table overlapping `[from, end)` is then read, and every
    /// memtable, for keys `[from, end)` of every id, whether or not its own
    /// chunks reach `start`. A chunk with a sample in the window has a key
    /// at or after `from`, and any newer write of that key lies in a table
    /// whose range holds the key, or in a memtable, so it is read too and
    /// newest-wins resolution ([`ReadPlan::chunks`]) finds it. Chunks keyed
    /// before `start` that end before it may still come back; the reader
    /// clips them.
    ///
    /// The memtables are read and the level metadata is snapshotted under
    /// one hold of the memtable locks, so no flush or compaction moves a
    /// chunk between the two and no source's reach changes while `from` is
    /// worked out. Each overlapping table is then read once for all the ids
    /// it covers: its index and the block cache are probed on this thread
    /// (`Table::probe`), and every table that needs storage — a handle to
    /// load, or blocks the cache missed — is fetched as one lane of a
    /// single wave ([`tu_cloud::cost::CostClock::wave`]). The clock is
    /// charged the wave's makespan, what the caller waits; it does not
    /// depend on the threads' scheduling, only on each lane's own charges.
    /// If a concurrent pass replaced and deleted a table since the
    /// snapshot, the plan starts over. The returned plan owns what was fetched;
    /// [`ReadPlan::chunks`] decodes one id from it without touching
    /// storage, from any thread.
    pub fn plan_reads(&self, ids: &[u64], start: Timestamp, end: Timestamp) -> Result<ReadPlan> {
        self.read_keys(ids, end, |mems, lv| {
            let tables = lv.tables().filter_map(|t| t.key_bound(start));
            let mems = mems.iter().filter_map(|m| m.key_bound(start));
            // With no source reaching `start`, there is nothing to read.
            tables.chain(mems).min().unwrap_or(end)
        })
    }

    /// Reads the chunks of `ids` keyed in `[from, end)`, where `from` is
    /// worked out from the memtables and the levels under the locks the
    /// reads are planned under ([`TimeTree::plan_reads`]).
    fn read_keys(
        &self,
        ids: &[u64],
        end: Timestamp,
        from: impl Fn(&[&MemTable], &Levels) -> Timestamp,
    ) -> Result<ReadPlan> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::invalid("planned ids must be strictly ascending"));
        }
        'plan: loop {
            // The memtable locks rank before the levels lock. A flush
            // publishes its tables to the levels before it retires the
            // memtable, and neither can happen while both are held, so
            // every entry is in one of the two reads, or in both (deduped
            // by key, the memtable copy winning with seq = MAX).
            let (keys, mem, metas) = self.mem.with_tables(|mems| {
                let lv = self.levels.lock();
                let from = from(mems, &lv).min(end);
                let keys: Vec<([u8; 16], [u8; 16])> = ids
                    .iter()
                    .map(|&id| (encode_key(id, from), encode_key(id, end)))
                    .collect();
                let mem = keys.iter().map(|(s, e)| range_of(mems, s, e)).collect();
                let tr = TimeRange::new(from, end);
                let metas: Vec<(TableMeta, std::ops::Range<usize>)> = lv
                    .tables()
                    .filter(|t| t.range.overlaps(&tr))
                    .map(|t| (t, t.ids_covered(ids)))
                    .filter(|(_, covered)| !covered.is_empty())
                    .map(|(t, covered)| (t.clone(), covered))
                    .collect();
                (keys, mem, metas)
            });
            let ranges_of = |covered: &std::ops::Range<usize>| -> Vec<(&[u8], &[u8])> {
                let keys = keys[covered.clone()].iter();
                keys.map(|(s, e)| (s.as_slice(), e.as_slice())).collect()
            };
            // What needs no storage runs inline: the index lookup and the
            // cache probe of every table whose handle is open.
            let mut probed = Vec::with_capacity(metas.len());
            for (meta, covered) in &metas {
                let open = self.tables.lock().get(&meta.name).cloned();
                probed.push(match open {
                    Some(table) => Some((table.probe(&ranges_of(covered))?, table)),
                    None => None,
                });
            }
            let read_table = |i: usize| match &probed[i] {
                Some((pending, table)) => table.fetch(pending),
                None => {
                    let (meta, covered) = &metas[i];
                    self.open_table(meta)
                        .and_then(|t| t.read(&ranges_of(covered)))
                }
            };
            // Every other table is one lane of a wave: its handle load on
            // first touch, then one fetch of its missed blocks. The lanes
            // are issued together, and the clock is charged what the
            // caller waits for the slowest (`CostClock::wave`).
            let (cached, lanes): (Vec<usize>, Vec<usize>) = (0..metas.len())
                .partition(|&i| probed[i].as_ref().is_some_and(|(p, _)| p.is_cached()));
            let pool = WorkerPool::new(WAVE_IN_FLIGHT);
            let fetched = self
                .env
                .clock
                .wave(pool, lanes.len(), |l| read_table(lanes[l]));
            let mut reads: Vec<(usize, Result<TableRead>)> =
                cached.into_iter().map(|i| (i, read_table(i))).collect();
            reads.extend(lanes.into_iter().zip(fetched));
            reads.sort_unstable_by_key(|&(i, _)| i);
            let mut tables = Vec::with_capacity(metas.len());
            for ((meta, covered), (_, read)) in metas.into_iter().zip(reads) {
                match read {
                    Ok(read) => tables.push(PlannedTable {
                        seq: meta.seq,
                        ids: covered,
                        read,
                    }),
                    // A pass replaced the table and deleted it after the
                    // snapshot; its outputs are in the levels by now. The
                    // wave that found it gone is charged all the same.
                    Err(e) if e.is_not_found() && !self.levels.lock().names(&meta.name) => {
                        continue 'plan
                    }
                    Err(e) => return Err(e),
                }
            }
            return Ok(ReadPlan { keys, mem, tables });
        }
    }

    /// All chunks of `id` whose *key* (start) timestamp lies in
    /// `[start, end)`, newest version per key, in [`ReadPlan::chunks`]
    /// order. Unlike [`TimeTree::plan_reads`] it bounds keys, not samples:
    /// a chunk keyed before `start` is not returned even if it reaches it.
    pub fn range_chunks(
        &self,
        id: u64,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Timestamp, Vec<u8>)>> {
        let plan = self.read_keys(&[id], end, |_, _| start)?;
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

    /// Drops every partition that ends at or before `watermark` from the
    /// levels. Returns how many went, over L0, L1 and L2 (not the tables
    /// and patches they held), and their tables, for deletion once the
    /// saved manifest no longer names them.
    pub fn purge_before(&self, watermark: Timestamp) -> (usize, Obsolete) {
        let mut lv = self.levels.lock();
        let expired = |r: &TimeRange| r.end <= watermark;
        let fast = lv.l0.iter().chain(&lv.l1).filter(|p| expired(&p.range));
        let count = fast.count() + lv.l2.iter().filter(|p| expired(&p.range)).count();
        let tables = lv.tables().filter(|t| expired(&t.range)).cloned().collect();
        lv.l0.retain(|p| !expired(&p.range));
        lv.l1.retain(|p| !expired(&p.range));
        lv.l2.retain(|p| !expired(&p.range));
        (count, Obsolete(tables))
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
        s.fast_bytes = lv.tier_bytes(false);
        s.slow_bytes = lv.tier_bytes(true);
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
                reach: m.props.reach,
            }
        }
        /// One partition: its base tables, and totals over `all` of its
        /// tables, patches included.
        fn view<'a>(
            range: TimeRange,
            tables: Vec<TableIntrospect>,
            all: impl Iterator<Item = &'a TableMeta>,
        ) -> PartitionIntrospect {
            let (mut bytes, mut fast_bytes, mut chunks, mut stats_chunks) = (0, 0, 0, 0);
            let mut tier = "block";
            for t in all {
                bytes += t.props.file_len;
                match t.on_slow {
                    true => tier = "object",
                    false => fast_bytes += t.props.file_len,
                }
                chunks += t.props.entries;
                stats_chunks += t.props.stats_chunks;
            }
            PartitionIntrospect {
                start_ms: range.start,
                end_ms: range.end,
                tier,
                bytes,
                fast_bytes,
                chunks,
                stats_chunks,
                patches: tables.iter().map(|t| t.patches).sum(),
                tables,
            }
        }
        let fast = |p: &Partition| {
            let tables = p.tables.iter().map(|t| table_view(t, 0)).collect();
            view(p.range, tables, p.tables.iter())
        };
        let slow = |p: &L2Partition| {
            let tables = p.tables.iter();
            let views = tables.clone().map(|t| table_view(&t.base, t.patches.len()));
            let all = tables.flat_map(|t| std::iter::once(&t.base).chain(t.patches.iter()));
            view(p.range, views.collect(), all)
        };
        let lv = self.levels.lock();
        let levels = vec![
            LevelIntrospect {
                level: 0,
                tier: "block",
                partitions: lv.l0.iter().map(fast).collect(),
            },
            LevelIntrospect {
                level: 1,
                tier: "block",
                partitions: lv.l1.iter().map(fast).collect(),
            },
            LevelIntrospect {
                level: 2,
                tier: "object",
                partitions: lv.l2.iter().map(slow).collect(),
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

    /// Replaces the `MANIFEST` with the levels as they stand.
    pub fn save_manifest(&self) -> Result<()> {
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
            let reach = match m.props.reach {
                Some(r) => format!("{} {}", r.last_ts, r.span),
                None => "- -".to_string(),
            };
            let _ = writeln!(
                out,
                "{tag} {} {} {} {} {} {} {} {} {} {} {reach}",
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
        for (tag, level) in [("L0", &lv.l0), ("L1", &lv.l1)] {
            for p in level {
                for t in &p.tables {
                    table_line(tag, &p.range, t, &mut out);
                }
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
        self.env.block.replace_file(Self::MANIFEST, out.as_bytes())
    }

    fn load_manifest(&self) -> Result<()> {
        let bytes = match self.env.block.read_file(Self::MANIFEST) {
            Ok(b) => b,
            Err(e) if e.is_not_found() => return Ok(()),
            Err(e) => return Err(e),
        };
        let text =
            String::from_utf8(bytes).map_err(|_| Error::corruption("manifest is not utf-8"))?;
        // `save_manifest` always writes the header line, so a file without
        // one is a torn write, not an empty tree.
        if text.is_empty() {
            return Err(Error::corruption("manifest is empty"));
        }
        let mut lv = self.levels.lock();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if i == 0 {
                if fields.len() != 4 || fields[0] != "V1" {
                    return Err(Error::corruption("manifest header malformed"));
                }
                self.next_seq
                    .store(parse(fields[1], "seq")?, Ordering::Relaxed);
                lv.r1_ms = parse(fields[2], "r1")?;
                lv.r2_ms = parse(fields[3], "r2")?;
                continue;
            }
            // 10-field lines predate stats-footer coverage tracking; they
            // load with a coverage of zero. Lines of 10 or 11 fields predate
            // reach tracking; they load with an unknown reach, which queries
            // read conservatively. "- -" is an unknown reach too.
            if !(10..=13).contains(&fields.len()) {
                return Err(Error::corruption("manifest table line malformed"));
            }
            let reach = match (fields.get(11), fields.get(12)) {
                (Some(&"-"), Some(&"-")) | (None, None) => None,
                (Some(last_ts), Some(span)) => Some(Reach {
                    last_ts: parse(last_ts, "reach last_ts")?,
                    span: parse(span, "reach span")?,
                }),
                _ => return Err(Error::corruption("manifest table line malformed")),
            };
            let range = TimeRange::new(parse(fields[1], "start")?, parse(fields[2], "end")?);
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
                    reach,
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
                "L2" => add_l2_bases(&mut lv, range, vec![meta]),
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

    /// Deletes every table under the level prefixes that the loaded
    /// manifest does not name: what a maintenance pass that crashed before
    /// saving its manifest wrote, or had made obsolete.
    fn delete_unnamed_tables(&self) -> Result<()> {
        let named: std::collections::HashSet<String> = {
            let lv = self.levels.lock();
            lv.tables().map(|t| t.name.clone()).collect()
        };
        let block = &self.env.block;
        let levels = ["l0/", "l1/", "l2/"].map(|prefix| block.list_prefix(prefix));
        for name in levels.concat() {
            if !named.contains(&name) {
                block.delete(&name)?;
            }
        }
        for name in self.env.object.list_prefix("l2/") {
            if !named.contains(&name) {
                self.env.object.delete(&name)?;
            }
        }
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

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T> {
    s.parse()
        .map_err(|_| Error::corruption(format!("manifest field {what} malformed")))
}

/// True when the oldest L2-grid window in L1 is "closed": newer data
/// exists beyond its end, so no in-order data will arrive for it, and no
/// L0 partition overlaps it, so none of it would follow as a patch. An L0
/// partition older than the window does not hold it open.
fn l1_window_closed(lv: &Levels) -> bool {
    let Some(oldest) = lv.l1.iter().map(|p| p.range.start).min() else {
        return false;
    };
    let start = oldest.div_euclid(lv.r2_ms) * lv.r2_ms;
    let window = TimeRange::new(start, start + lv.r2_ms);
    let newer = lv.l0.iter().chain(&lv.l1).any(|p| p.range.end > window.end);
    newer && !lv.l0.iter().any(|p| p.range.overlaps(&window))
}

/// Adds fresh base tables to the L2 partition spanning exactly `range`,
/// which is created if it does not exist.
fn add_l2_bases(lv: &mut Levels, range: TimeRange, metas: Vec<TableMeta>) {
    let tables = metas.into_iter().map(|base| L2Table {
        base,
        patches: Vec::new(),
    });
    match lv.l2.iter_mut().find(|p| p.range == range) {
        Some(p) => p.tables.extend(tables),
        None => {
            let tables = tables.collect();
            lv.l2.push(L2Partition { range, tables });
            lv.l2.sort_by_key(|p| p.range.start);
        }
    }
}

/// The L2 partition spanning exactly `range`.
fn l2_partition(lv: &mut Levels, range: TimeRange) -> Result<&mut L2Partition> {
    lv.l2
        .iter_mut()
        .find(|p| p.range == range)
        .ok_or_else(|| Error::corruption("patched partition vanished"))
}

/// The table of L2 partition `range` whose base is `base_name`.
fn l2_table<'a>(lv: &'a mut Levels, range: TimeRange, base_name: &str) -> Result<&'a mut L2Table> {
    l2_partition(lv, range)?
        .tables
        .iter_mut()
        .find(|t| t.base.name == base_name)
        .ok_or_else(|| Error::corruption("patched table vanished"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::{LatencyMode, LatencyModel};

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

    /// Puts one chunk in each of two L0 partitions far past the loaded
    /// data. They stay in L0, as `l0_compact_trigger` is 2, and close
    /// every older window: a non-drain pass then takes a late partition,
    /// the oldest, down to L1 and on to L2 as patches.
    fn hold_newer_l0(t: &TimeTree) {
        t.put(0, 100 * HOUR, chunk(1));
        t.put(0, 100 * HOUR + 30 * MIN, chunk(2));
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.stats().l0_partitions, 2);
    }

    /// Puts `writes` as `(id, ts, chunk tag)` and runs one non-drain pass.
    fn late_pass(t: &TimeTree, writes: &[(u64, i64, u64)]) {
        for &(id, ts, tag) in writes {
            t.put(id, ts, chunk(tag));
        }
        t.seal();
        t.maintain().unwrap();
    }

    /// Patch counts of every L2 table.
    fn l2_patches(t: &TimeTree) -> Vec<usize> {
        let l2 = t.introspect().levels.swap_remove(2).partitions;
        l2.iter()
            .flat_map(|p| p.tables.iter().map(|t| t.patches))
            .collect()
    }

    /// After a drain no L2 table holds a patch, and the fast tier holds
    /// nothing under `l2/`.
    fn assert_drained(t: &TimeTree) {
        assert!(l2_patches(t).iter().all(|&n| n == 0), "{:?}", l2_patches(t));
        assert_eq!(t.env.block.list_prefix("l2/"), Vec::<String>::new());
    }

    /// The engine logs a chunk's WAL checkpoint once `flushed_epoch()`
    /// passes the epoch it read after the chunk's put, less one if the put
    /// sealed. That epoch must never predate the memtable the put went
    /// into, or the checkpoint fires when an older memtable flushes, before
    /// the chunk is durable. Writers race a thread that seals in a loop,
    /// and seal themselves now and then; each records that epoch for every
    /// put.
    #[test]
    fn epoch_read_after_a_put_never_predates_its_memtable() {
        const WRITERS: u64 = 4;
        const PUTS: i64 = 20_000;
        let (_d, t) = tree_with(TreeOptions {
            memtable_bytes: 4 << 10,
            ..small_opts()
        });
        let done = AtomicU64::new(0);
        let recorded: Vec<(u64, i64, u64)> = std::thread::scope(|s| {
            s.spawn(|| {
                while done.load(Ordering::SeqCst) < WRITERS {
                    t.seal();
                }
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|id| {
                    let (t, done) = (&t, &done);
                    s.spawn(move || {
                        let mut epochs = Vec::with_capacity(PUTS as usize);
                        for ts in 0..PUTS {
                            let sealed = t.put(id, ts, vec![1]);
                            epochs.push((id, ts, t.seal_epoch() - u64::from(sealed)));
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                        epochs
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        // Nothing was flushed: sealed memtable `e` is immutable `e`, and
        // the active one has the epoch after the last of them.
        let mut held = std::collections::HashMap::new();
        let imm = t.mem.immutables();
        for (epoch, table) in imm.iter().enumerate() {
            for (k, _) in table.iter() {
                held.insert(k.to_vec(), epoch as u64);
            }
        }
        // Every key is put once: a key no sealed table holds is active.
        for (k, _) in t.mem.range(&[], &[0xff; 32]) {
            held.entry(k).or_insert(imm.len() as u64);
        }
        assert!(imm.len() > 1, "the sealer never overlapped the writers");
        for (id, ts, epoch) in recorded {
            let at = held[&encode_key(id, ts).to_vec()];
            assert!(
                at <= epoch,
                "series {id} ts {ts}: put into memtable {at}, read epoch {epoch}"
            );
        }
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
    fn versioned_chunks_replace_nothing_and_apply_after_plain_ones() {
        let (_d, t) = tree_with(small_opts());
        t.put(1, 1000, chunk(1));
        t.put_version(1, 1000, 7, chunk(2)); // the same start as a plain chunk
        t.put_version(1, 500, 9, chunk(3)); // newer, but starting earlier
        t.put(1, 2000, chunk(4));
        t.put_version(1, 1500, 8, chunk(5));
        t.put_version(1, 1500, 8, chunk(6)); // an equal version replaces
        let want = vec![
            (1000, chunk(1)),
            (2000, chunk(4)),
            (1000, chunk(2)),
            (1500, chunk(6)),
            (500, chunk(3)),
        ];
        assert_eq!(t.range_chunks(1, 0, 3000).unwrap(), want);
        t.flush_all_to_slow().unwrap();
        assert_eq!(t.range_chunks(1, 0, 3000).unwrap(), want, "in L2");
        // Range bounds made of plain keys take every version at a start.
        assert_eq!(t.range_chunks(1, 1000, 1001).unwrap().len(), 2);
        assert_eq!(t.range_chunks(1, 501, 1000).unwrap(), []);
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

    /// In-order data reaches L2 only as whole windows: a window stays in
    /// L1 while any of it is still in L0, so no part of it follows as a
    /// patch.
    #[test]
    fn in_order_windows_upload_without_patches() {
        let (_d, t) = tree_with(small_opts());
        // A memtable fills about every 40 minutes of data, so flushes cut
        // windows at every offset.
        load(&t, 48, 16); // 8 hours: four 2h windows
        let s = t.stats();
        assert!(s.l1_to_l2_compactions >= 3, "{s:?}");
        assert_eq!((s.patches_created, s.patch_merges), (0, 0), "{s:?}");
        for id in 0..48 {
            assert_eq!(t.range_chunks(id, 0, 9 * HOUR).unwrap().len(), 16);
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
        assert_eq!(
            after.patch_merges, after.patches_created,
            "the drain merges them"
        );
        assert_drained(&t);
        assert_eq!(t.get_chunk(2, 10 * MIN).unwrap(), Some(chunk(4242)));
        // Old data in the patched partition is still there.
        assert_eq!(t.range_chunks(2, 0, 7 * HOUR).unwrap().len(), 13);
    }

    /// Appends to one L2 table merge it exactly when it already holds
    /// `patch_threshold` patches, and every chunk reads back newest-wins
    /// throughout: late chunks, rewrites of base chunks, and rewrites of
    /// chunks that are themselves in patches. The appends run in non-drain
    /// passes; the drain that ends the test merges what is left.
    #[test]
    fn excess_patches_trigger_merge() {
        for threshold in 1..=3usize {
            let (_d, t) = tree_with(TreeOptions {
                patch_threshold: threshold,
                ..small_opts()
            });
            let mut model: BTreeMap<(u64, i64), Vec<u8>> = BTreeMap::new();
            for c in 0..12i64 {
                for id in 0..2u64 {
                    model.insert((id, c * 30 * MIN), chunk(id * 1000 + c as u64));
                }
            }
            load(&t, 2, 12);
            t.flush_all_to_slow().unwrap();
            hold_newer_l0(&t);
            let rounds = 2 * (threshold as u64 + 1) + 1;
            for r in 0..rounds {
                // A late chunk, a rewrite of a base chunk, and a rewrite of
                // the previous round's late chunk.
                let late = (r as i64 + 1) * MIN;
                let writes = [
                    (0, late, 5000 + r),
                    (0, 30 * MIN, 6000 + r),
                    (0, late - MIN, 7000 + r),
                ];
                late_pass(&t, &writes);
                for (id, ts, tag) in writes {
                    model.insert((id, ts), chunk(tag));
                }
                let most = l2_patches(&t).into_iter().max();
                assert!(most <= Some(threshold), "threshold {threshold}, round {r}");
            }
            let s = t.stats();
            let merges = rounds / (threshold as u64 + 1);
            assert_eq!(s.patch_merges, merges, "threshold {threshold}: {s:?}");
            assert_eq!(s.patches_created, rounds - merges, "threshold {threshold}");
            let check = |what: &str| {
                for id in 0..2u64 {
                    let want: Vec<(i64, Vec<u8>)> = model
                        .range((id, i64::MIN)..(id + 1, i64::MIN))
                        .map(|(&(_, ts), v)| (ts, v.clone()))
                        .collect();
                    let got = t.range_chunks(id, 0, 7 * HOUR).unwrap();
                    assert_eq!(got, want, "threshold {threshold}, series {id}, {what}");
                }
            };
            check("after the appends");
            // `rounds` is one more than a multiple of `threshold + 1`: one
            // patch is left for the drain to merge.
            t.flush_all_to_slow().unwrap();
            assert_eq!(t.stats().patch_merges, merges + 1, "threshold {threshold}");
            assert_drained(&t);
            check("after the drain");
        }
    }

    /// A compaction pays one read request per input table, and a patch
    /// merge reads nothing it just wrote. A patch is written to the fast
    /// tier and read back from it.
    #[test]
    fn compaction_request_counts_are_exact() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Virtual).unwrap();
        let t = TimeTree::open(env.clone(), small_opts()).unwrap();
        // k flushes into one L0 partition: k tables, too few partitions to
        // trigger a compaction.
        const K: u64 = 4;
        for id in 0..K {
            t.put(id, id as i64 * MIN, chunk(id));
            t.seal();
            t.maintain().unwrap();
        }
        assert_eq!(t.stats().l0_partitions, 1);
        let before = env.block.stats();
        let inputs = t.compact_l0_to_l1().unwrap();
        assert_eq!(inputs.len() as u64, K);
        assert_eq!(env.block.stats().since(&before).get_requests, K);
        t.delete_obsolete(Obsolete(inputs)).unwrap();

        // Non-drain passes, run step by step, append to the one L2 table.
        // Each upload reads the window's one L1 table from the fast tier.
        // The table takes `patch_threshold` patches, each one fast-tier
        // write and no S3 request; the next append merges base + patches,
        // one Get each from its tier, and uploads only the merged table.
        t.flush_all_to_slow().unwrap();
        hold_newer_l0(&t);
        let threshold = small_opts().patch_threshold as u64;
        let append = |r: u64| {
            t.put(0, (10 + r as i64) * MIN, chunk(100 + r));
            t.seal();
            t.flush_sealed().unwrap();
            let mut obsolete = t.compact_l0(false).unwrap();
            let (block, object) = (env.block.stats(), env.object.stats());
            obsolete.extend(t.upload_windows(false).unwrap());
            let b = env.block.stats().since(&block);
            let o = env.object.stats().since(&object);
            t.save_manifest().unwrap();
            t.delete_obsolete(obsolete).unwrap();
            (
                (b.get_requests, b.put_requests),
                (o.get_requests, o.put_requests),
            )
        };
        for r in 0..=threshold {
            let (block, object) = append(r);
            let s = t.stats();
            if r < threshold {
                assert_eq!((block, object), ((1, 1), (0, 0)), "append {r}");
                assert_eq!((s.patches_created, s.patch_merges), (r + 1, 0));
            } else {
                assert_eq!((block, object), ((1 + threshold, 0), (1, 1)), "merge");
                assert_eq!((s.patches_created, s.patch_merges), (threshold, 1));
            }
        }
        // One patch more; the drain merges it: the base and the patch are
        // read once each, and the merged table and the held-open window
        // are uploaded.
        append(threshold + 1);
        let before = env.object.stats();
        t.flush_all_to_slow().unwrap();
        let d = env.object.stats().since(&before);
        assert_eq!((d.get_requests, d.put_requests), (1, 2));
        assert_eq!(t.stats().patch_merges, 2);
        assert_drained(&t);
        for r in 0..=threshold + 1 {
            let ts = (10 + r as i64) * MIN;
            assert_eq!(t.get_chunk(0, ts).unwrap(), Some(chunk(100 + r)));
        }
    }

    /// An upload builds every table of its window, then Puts them all as
    /// one wave: its work is the sum of the Puts, but it waits only for the
    /// slowest. Seqs and names follow the build order.
    #[test]
    fn an_upload_waits_for_its_slowest_put() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Virtual).unwrap();
        let t = TimeTree::open(env.clone(), small_opts()).unwrap();
        // One 2-hour window of 300 series × 4 chunks: about five 32 KiB
        // tables.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..300u64)
            .flat_map(|id| {
                (0..4i64).map(move |c| {
                    let key = encode_key(id, c * 30 * MIN).to_vec();
                    (key, chunk(id * 1000 + c as u64))
                })
            })
            .collect();
        let (wait, work) = (env.clock.virtual_ns(), env.clock.work_ns());
        let puts = env.object.stats().put_requests;
        let metas = t
            .upload_l2_tables(entries, TimeRange::new(0, 2 * HOUR))
            .unwrap();
        assert!(metas.len() >= 4, "{} tables", metas.len());
        assert_eq!(env.object.stats().put_requests - puts, metas.len() as u64);
        assert!(metas
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].props.last_key < w[1].props.first_key));
        let put_ns: Vec<u64> = metas
            .iter()
            .map(|m| LatencyModel::s3().write_ns(m.props.file_len))
            .collect();
        assert_eq!(env.clock.work_ns() - work, put_ns.iter().sum::<u64>());
        let waited = env.clock.virtual_ns() - wait;
        assert_eq!(Some(&waited), put_ns.iter().max());
        assert!(waited < 2 * put_ns.iter().min().unwrap(), "{waited} ns");
    }

    /// The modelled time of maintenance — flushes, both compactions,
    /// patches, their merges and drains — does not depend on the number of
    /// flush workers, and its waves make the passes wait less than the
    /// requests took one by one.
    #[test]
    fn compaction_modelled_time_does_not_depend_on_flush_threads() {
        let run = |flush_threads: usize| {
            let dir = tempfile::tempdir().unwrap();
            let env = StorageEnv::open(dir.path(), LatencyMode::Virtual).unwrap();
            let opts = TreeOptions {
                flush_threads,
                ..small_opts()
            };
            let t = TimeTree::open(env.clone(), opts).unwrap();
            load(&t, 48, 12);
            t.flush_all_to_slow().unwrap();
            hold_newer_l0(&t);
            for r in 0..4u64 {
                late_pass(&t, &[(r, 10 * MIN, 9000 + r), (r + 24, 70 * MIN, 9100 + r)]);
            }
            t.flush_all_to_slow().unwrap();
            let s = t.stats();
            assert!(s.patch_merges > 0, "{s:?}");
            let (b, o) = (env.block.stats(), env.object.stats());
            (env.clock.virtual_ns(), env.clock.work_ns(), b, o)
        };
        let one = run(1);
        assert!(one.0 < one.1, "{one:?}");
        for flush_threads in [2, 8] {
            assert_eq!(run(flush_threads), one, "{flush_threads} flush threads");
        }
    }

    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dest = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).unwrap();
            }
        }
    }

    /// A crash between a compaction and the next manifest save leaves the
    /// manifest naming the compaction's inputs; they must still be there,
    /// and the outputs nothing names are swept at open.
    #[test]
    fn crash_before_the_manifest_save_keeps_every_named_table() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env, small_opts()).unwrap();
        for id in 0..4 {
            t.put(id, 5 * MIN, chunk(id));
            t.put(id, 40 * MIN, chunk(id + 100));
        }
        t.seal();
        t.maintain().unwrap();
        assert_eq!(t.stats().l0_partitions, 2, "the manifest names both");
        t.compact_l0_to_l1().unwrap();
        let image = tempfile::tempdir().unwrap();
        copy_dir(dir.path(), image.path());
        let env = StorageEnv::open(image.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env.clone(), small_opts()).unwrap();
        for id in 0..4 {
            let want = vec![(5 * MIN, chunk(id)), (40 * MIN, chunk(id + 100))];
            assert_eq!(t.range_chunks(id, 0, HOUR).unwrap(), want, "series {id}");
        }
        assert_eq!(env.block.list_prefix("l1/"), Vec::<String>::new());
        assert_eq!(env.block.list_prefix("l0/").len(), 2);
    }

    #[test]
    fn retention_purges_old_partitions() {
        let (_d, t) = tree_with(small_opts());
        load(&t, 2, 12);
        t.flush_all_to_slow().unwrap();
        hold_newer_l0(&t);
        // A late chunk in each of the first two windows becomes a patch:
        // a table of its partition, not a partition of its own.
        late_pass(&t, &[(0, 10 * MIN, 7), (1, 2 * HOUR + 10 * MIN, 8)]);
        assert_eq!(t.stats().patches_created, 2);
        assert_eq!(t.env.block.list_prefix("l2/").len(), 2);
        let (removed, obsolete) = t.purge_before(4 * HOUR);
        assert_eq!(removed, 2, "the 2-hour L2 partitions ending by 4 h");
        t.save_manifest().unwrap();
        t.delete_obsolete(obsolete).unwrap();
        assert_eq!(t.stats().l2_partitions, 1);
        assert_eq!(t.env.block.list_prefix("l2/"), Vec::<String>::new());
        let remaining = t.range_chunks(0, 0, 7 * HOUR).unwrap();
        assert!(remaining.len() < 12);
        assert!(remaining.iter().all(|(ts, _)| *ts >= 4 * HOUR - 30 * MIN));
    }

    /// A tree holding one fast-tier patch: 40 late chunks of the first
    /// window, beside the two chunks [`hold_newer_l0`] keeps in L0.
    fn tree_with_one_patch() -> (tempfile::TempDir, TimeTree) {
        let (d, t) = tree_with(small_opts());
        load(&t, 40, 12);
        t.flush_all_to_slow().unwrap();
        hold_newer_l0(&t);
        let late: Vec<(u64, i64, u64)> = (0..40).map(|id| (id, 10 * MIN, 9000 + id)).collect();
        late_pass(&t, &late);
        assert_eq!(l2_patches(&t).iter().sum::<usize>(), 1);
        (d, t)
    }

    /// File bytes under the level prefixes of the block store, and of the
    /// object store.
    fn stored_bytes(t: &TimeTree) -> (u64, u64) {
        let (block, object) = (&t.env.block, &t.env.object);
        let (mut fast, mut slow) = (0, 0);
        for prefix in ["l0/", "l1/", "l2/"] {
            fast += block
                .list_prefix(prefix)
                .iter()
                .map(|n| block.len(n).unwrap())
                .sum::<u64>();
            slow += object
                .list_prefix(prefix)
                .iter()
                .map(|n| object.len(n).unwrap())
                .sum::<u64>();
        }
        (fast, slow)
    }

    /// Bytes are counted by the tier a table is on, not by its level: a
    /// patch's bytes are fast-tier bytes in `TreeStats` and in
    /// `introspect`.
    #[test]
    fn a_fast_tier_patch_counts_as_fast_bytes() {
        let (_d, t) = tree_with_one_patch();
        let s = t.stats();
        assert_eq!((s.fast_bytes, s.slow_bytes), stored_bytes(&t), "{s:?}");
        let view = t.introspect();
        let parts: Vec<_> = view.levels.iter().flat_map(|l| &l.partitions).collect();
        let patched: Vec<_> = parts.iter().filter(|p| p.patches > 0).collect();
        assert_eq!(patched.len(), 1);
        let p = patched[0];
        assert_eq!(p.tier, "object");
        let patch = t.env.block.list_prefix("l2/");
        assert_eq!(p.fast_bytes, t.env.block.len(&patch[0]).unwrap());
        assert!(p.bytes > p.fast_bytes);
        assert!(parts[..2]
            .iter()
            .all(|p| p.tier == "block" && p.fast_bytes == p.bytes));
        let fast: u64 = parts.iter().map(|p| p.fast_bytes).sum();
        let all: u64 = parts.iter().map(|p| p.bytes).sum();
        assert_eq!((fast, all - fast), (s.fast_bytes, s.slow_bytes));
    }

    /// Algorithm 1's budget `ST` covers the patches on the fast tier: a
    /// budget the patch alone tips over shrinks the partitions, where the
    /// L0 bytes alone would have grown them.
    #[test]
    fn dynamic_control_counts_fast_tier_patches() {
        let (_d, mut t) = tree_with_one_patch();
        let patch = t.env.block.list_prefix("l2/");
        let patch = t.env.block.len(&patch[0]).unwrap();
        let fast = t.stats().fast_bytes;
        assert!(patch > fast - patch, "the patch is most of the fast bytes");
        t.opts.fast_limit_bytes = Some(fast / 2 - 1);
        t.dynamic_size_control();
        assert!(t.stats().r1_ms < 30 * MIN, "{:?}", t.stats());
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
        assert_eq!(t.l2_partition_ms(), 2 * HOUR);
        load(&t, 32, 12);
        let s = t.stats();
        assert!(s.r1_ms < 2 * HOUR, "partition length should shrink: {s:?}");
        assert!(s.r1_ms >= 15 * MIN);
        assert!(s.r2_ms < 2 * HOUR, "{s:?}");
        assert_eq!(t.l2_partition_ms(), s.r2_ms);
    }

    /// A chunk keyed at `key` whose stats envelope says its samples run
    /// to `key + span`; the tree reads a chunk's envelope, never its
    /// samples.
    fn framed(key: Timestamp, span: i64, tag: u64) -> Vec<u8> {
        let stats = tu_compress::agg::ChunkStats {
            min_ts: key,
            max_ts: key + span,
            count: 2,
            min_v: 0.0,
            max_v: tag as f64,
            sum: tag as f64,
        };
        tu_compress::agg::frame_with_stats(&stats, &chunk(tag))
    }

    /// Every table's name and reach.
    fn reaches(t: &TimeTree) -> Vec<(String, Option<Reach>)> {
        let lv = t.levels.lock();
        lv.tables()
            .map(|m| (m.name.clone(), m.props.reach))
            .collect()
    }

    #[test]
    fn manifest_round_trip_preserves_everything() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let before = {
            let t = TimeTree::open(env.clone(), small_opts()).unwrap();
            load(&t, 3, 12);
            // Series 3 has envelopes, and partitions of its own after the
            // others' six hours, so its tables have a known reach.
            for c in 0..12 {
                let key = 6 * HOUR + c * 30 * MIN;
                t.put(3, key, framed(key, 40 * MIN, c as u64));
            }
            t.flush_all_to_slow().unwrap();
            hold_newer_l0(&t);
            late_pass(&t, &[(0, 3 * MIN, 55)]); // leave a patch behind
            reaches(&t)
        };
        assert!(before.iter().any(|(_, r)| r.is_some()), "{before:?}");
        assert!(before.iter().any(|(_, r)| r.is_none()), "{before:?}");
        let env2 = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env2, small_opts()).unwrap();
        assert_eq!(reaches(&t), before);
        assert_eq!(l2_patches(&t).iter().sum::<usize>(), 1);
        assert_eq!(t.env.block.list_prefix("l2/").len(), 1, "on the fast tier");
        for id in 0..3 {
            let expect = if id == 0 { 13 } else { 12 };
            assert_eq!(
                t.range_chunks(id, 0, 7 * HOUR).unwrap().len(),
                expect,
                "series {id}"
            );
        }
        assert_eq!(t.range_chunks(3, 0, 13 * HOUR).unwrap().len(), 12);
        assert_eq!(t.get_chunk(0, 3 * MIN).unwrap(), Some(chunk(55)));
    }

    /// Manifest lines of 10 and 11 fields, written before tables recorded
    /// their reach, load with an unknown reach, and a query reads such a
    /// table from its range's start: a chunk straddling into the window
    /// comes back however far it reaches.
    #[test]
    fn legacy_manifest_lines_load_with_an_unknown_reach() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        {
            let t = TimeTree::open(env.clone(), small_opts()).unwrap();
            for c in 0..8 {
                t.put(1, c * 30 * MIN, framed(c * 30 * MIN, 25 * MIN, c as u64));
            }
            // Keyed in the first hour, reaching into the fourth.
            t.put(2, 10 * MIN, framed(10 * MIN, 3 * HOUR, 99));
            t.flush_all_to_slow().unwrap();
            assert!(reaches(&t).iter().all(|(_, r)| r.is_some()));
        }
        let manifest = String::from_utf8(env.block.read_file("MANIFEST").unwrap()).unwrap();
        let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
        for (i, line) in lines.iter_mut().enumerate().skip(1) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 13, "{line}");
            *line = fields[..if i % 2 == 0 { 10 } else { 11 }].join(" ");
        }
        env.block
            .replace_file("MANIFEST", (lines.join("\n") + "\n").as_bytes())
            .unwrap();
        let t = TimeTree::open(env.clone(), small_opts()).unwrap();
        let loaded = reaches(&t);
        assert!(!loaded.is_empty() && loaded.iter().all(|(_, r)| r.is_none()));
        let plan = t.plan_reads(&[1, 2], 3 * HOUR, 4 * HOUR).unwrap();
        assert!(plan.chunks(1).unwrap().iter().any(|(k, _)| *k == 10 * MIN));
        // A saved manifest writes the unknown reach as "- -".
        t.save_manifest().unwrap();
        let saved = String::from_utf8(env.block.read_file("MANIFEST").unwrap()).unwrap();
        assert!(
            saved.lines().skip(1).all(|l| l.ends_with(" - -")),
            "{saved}"
        );
        drop(t);
        let t = TimeTree::open(env, small_opts()).unwrap();
        assert_eq!(reaches(&t), loaded);
    }

    /// Every key of every table lies inside the range of the partition
    /// that lists it — flushes, compactions on a grid that dynamic size
    /// control moved, uploads, patches and patch merges. A query's key
    /// bound relies on it ([`TimeTree::plan_reads`]).
    #[test]
    fn every_table_keeps_its_keys_inside_its_range() {
        let (_d, t) = tree_with(TreeOptions {
            fast_limit_bytes: Some(24 << 10),
            l0_partition_ms: HOUR,
            ..small_opts()
        });
        // Checks every table the levels list now; returns how many.
        let check = || {
            let lv = t.levels.lock();
            let mut tables = 0;
            for meta in lv.tables() {
                for (k, _) in Table::scan_file(t.source(meta)).unwrap() {
                    let ts = decode_ts(&k).unwrap();
                    assert!(meta.range.contains(ts), "{}: key at {ts}", meta.name);
                }
                tables += 1;
            }
            tables
        };
        load(&t, 16, 24);
        hold_newer_l0(&t);
        let mut tables = check();
        for r in 0..6u64 {
            let late: Vec<(u64, i64, u64)> = (0..16)
                .map(|id| (id, (7 * r as i64 + id as i64) * MIN, 500 + r * 16 + id))
                .collect();
            late_pass(&t, &late);
            tables += check();
        }
        let s = t.stats();
        let moved = s.r1_ms != HOUR;
        assert!(
            moved && s.patches_created > 0 && s.patch_merges > 0,
            "{s:?}"
        );
        assert!(tables > 40, "{tables} tables checked");
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

//! Sharded block LRU cache for SSTable data blocks.
//!
//! The evaluation equips every system with a 1 GiB in-memory LRU cache for
//! data segments fetched from S3 (§4.1). Entries are parsed blocks keyed by
//! `(table, offset)`; the charged size is the on-disk block length.
//!
//! The cache is hash-partitioned into independent shards so parallel query
//! workers stop serializing on a single mutex: each `(table, offset)` key
//! maps to exactly one shard, the global byte budget is split across shards
//! (shard 0 absorbs the remainder, so the sum is exactly the configured
//! budget), and hit/miss/eviction counters stay global — one hit *or* one
//! miss per `get`, one eviction per dropped entry, exactly as before
//! sharding. LRU order is maintained per shard, which is also per key,
//! so single-key recency behaviour is unchanged.
//!
//! Within a shard, blocks live in a slab threaded by an intrusive
//! recency list and are found through a table-name → offset → slot map:
//! a probe borrows the caller's `&str` (no key is built), and a hit, an
//! insert and an eviction are each O(1).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

type Block = Arc<Vec<(Vec<u8>, Vec<u8>)>>;

/// Default shard count: enough that 8 query threads rarely collide, small
/// enough that splitting the byte budget is immaterial for 4 KiB blocks.
pub const DEFAULT_SHARDS: usize = 8;

/// "No slot": the end of the recency list.
const NIL: usize = usize::MAX;

struct Entry {
    table: Arc<str>,
    offset: u64,
    block: Block,
    charge: usize,
    /// Neighbours in the recency list (towards the most / least recent).
    newer: usize,
    older: usize,
}

struct Inner {
    /// table → offset → slot in `slab`.
    map: HashMap<Arc<str>, HashMap<u64, usize>>,
    /// Dense: a removal moves the last entry into the freed slot.
    slab: Vec<Entry>,
    /// Most and least recently used slots.
    newest: usize,
    oldest: usize,
    used: usize,
}

impl Inner {
    fn new() -> Self {
        Inner {
            map: HashMap::new(),
            slab: Vec::new(),
            newest: NIL,
            oldest: NIL,
            used: 0,
        }
    }

    /// Points the recency neighbours of `slot`'s entry at `newer`/`older`
    /// instead of at it.
    fn relink(&mut self, slot: usize, newer: usize, older: usize) {
        match self.slab[slot].newer {
            NIL => self.newest = older,
            n => self.slab[n].older = older,
        }
        match self.slab[slot].older {
            NIL => self.oldest = newer,
            o => self.slab[o].newer = newer,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.slab[slot].newer, self.slab[slot].older);
        self.relink(slot, newer, older);
    }

    fn push_newest(&mut self, slot: usize) {
        self.slab[slot].newer = NIL;
        self.slab[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slab[n].newer = slot,
        }
        self.newest = slot;
    }

    fn remove(&mut self, table: &str, offset: u64) -> Option<Entry> {
        let blocks = self.map.get_mut(table)?;
        let slot = blocks.remove(&offset)?;
        if blocks.is_empty() {
            self.map.remove(table);
        }
        self.unlink(slot);
        let entry = self.slab.swap_remove(slot);
        self.used -= entry.charge;
        if slot < self.slab.len() {
            // The former last entry now lives at `slot`: tell its recency
            // neighbours and the map.
            self.relink(slot, slot, slot);
            let moved = &self.slab[slot];
            if let Some(s) = self
                .map
                .get_mut(&*moved.table)
                .and_then(|b| b.get_mut(&moved.offset))
            {
                *s = slot;
            }
        }
        Some(entry)
    }
}

struct Shard {
    inner: Mutex<Inner>,
    budget: usize,
}

/// A byte-budgeted, hash-sharded LRU cache of parsed SSTable blocks.
///
/// Hit/miss/eviction counts are kept both locally (per cache instance, for
/// the experiment harness) and mirrored into the global `tu-obs` registry
/// under `lsm.cache.*` (aggregated across every cache in the process).
pub struct BlockCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    obs_hits: tu_obs::TracedCounter,
    obs_misses: tu_obs::TracedCounter,
    obs_evictions: tu_obs::TracedCounter,
}

impl BlockCache {
    /// A cache with the default shard count.
    pub fn new(budget_bytes: usize) -> Self {
        BlockCache::with_shards(budget_bytes, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (clamped to at least 1). The
    /// per-shard budget is `budget / shards`; shard 0 takes the remainder
    /// so the shard budgets sum to exactly `budget_bytes`.
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let base = budget_bytes / n;
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                inner: Mutex::new(&lockdep::LSM_CACHE_SHARD, Inner::new()),
                budget: if i == 0 {
                    base + budget_bytes % n
                } else {
                    base
                },
            })
            .collect();
        tu_obs::gauge("cache.shard.count").set(n as i64);
        tu_obs::gauge("cache.shard.budget_bytes").set(budget_bytes as i64);
        BlockCache {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs_hits: tu_obs::traced("lsm.cache.hits"),
            obs_misses: tu_obs::traced("lsm.cache.misses"),
            obs_evictions: tu_obs::traced("lsm.cache.evictions"),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, table: &str, offset: u64) -> &Shard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        table.hash(&mut h);
        offset.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up a block.
    pub fn get(&self, table: &str, offset: u64) -> Option<Block> {
        let shard = self.shard_of(table, offset);
        let mut inner = shard.inner.lock();
        let slot = inner.map.get(table).and_then(|b| b.get(&offset)).copied();
        match slot {
            Some(slot) => {
                if inner.newest != slot {
                    inner.unlink(slot);
                    inner.push_newest(slot);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs_hits.inc();
                Some(inner.slab[slot].block.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs_misses.inc();
                None
            }
        }
    }

    /// Inserts a block, evicting least-recently-used entries of its shard
    /// to fit that shard's budget. Entries larger than the shard budget are
    /// not cached.
    pub fn insert(&self, table: &str, offset: u64, block: Block, charge: usize) {
        let shard = self.shard_of(table, offset);
        if charge > shard.budget {
            return;
        }
        let mut inner = shard.inner.lock();
        inner.remove(table, offset);
        let name = match inner.map.get_key_value(table) {
            Some((name, _)) => name.clone(),
            None => Arc::from(table),
        };
        let entry = Entry {
            table: name.clone(),
            offset,
            block,
            charge,
            newer: NIL,
            older: NIL,
        };
        let slot = inner.slab.len();
        inner.slab.push(entry);
        inner.map.entry(name).or_default().insert(offset, slot);
        inner.push_newest(slot);
        inner.used += charge;
        while inner.used > shard.budget {
            let victim = &inner.slab[inner.oldest];
            let (table, offset) = (victim.table.clone(), victim.offset);
            inner.remove(&table, offset);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.obs_evictions.inc();
        }
    }

    /// Drops every cached block of one table (after deletion/compaction).
    pub fn invalidate_table(&self, table: &str) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            let offsets: Vec<u64> = inner
                .map
                .get(table)
                .map(|blocks| blocks.keys().copied().collect())
                .unwrap_or_default();
            for offset in offsets {
                inner.remove(table, offset);
            }
        }
    }

    /// Drops every cached block (benchmarks measure cold-data-block
    /// latencies with warm table metadata).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.inner.lock() = Inner::new();
        }
    }

    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().used).sum()
    }

    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: usize) -> Block {
        Arc::new(vec![(vec![n as u8], vec![0u8; 4])])
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = BlockCache::new(1024);
        assert!(c.get("t", 0).is_none());
        c.insert("t", 0, blk(1), 100);
        assert!(c.get("t", 0).is_some());
        assert_eq!(c.hit_count(), 1);
        assert_eq!(c.miss_count(), 1);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn lru_evicts_stalest_first() {
        // One shard: eviction order across keys is only defined within a
        // shard, and this test pins the classic global-LRU behaviour.
        let c = BlockCache::with_shards(300, 1);
        c.insert("t", 0, blk(0), 100);
        c.insert("t", 1, blk(1), 100);
        c.insert("t", 2, blk(2), 100);
        // Touch 0 so 1 becomes stalest.
        assert!(c.get("t", 0).is_some());
        c.insert("t", 3, blk(3), 100);
        assert!(c.get("t", 1).is_none(), "stalest entry evicted");
        assert!(c.get("t", 0).is_some());
        assert!(c.get("t", 3).is_some());
        assert_eq!(c.eviction_count(), 1);
        assert!(c.used_bytes() <= 300);
    }

    #[test]
    fn matches_a_naive_lru_under_random_operations() {
        use rand::{Rng, SeedableRng};
        // Reference: keys in recency order, oldest first.
        let budget = 1000;
        let c = BlockCache::with_shards(budget, 1);
        let mut model: Vec<((String, u64), usize)> = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let table = format!("t{}", rng.gen_range(0..4));
            let offset = rng.gen_range(0..12u64);
            let at = model
                .iter()
                .position(|(k, _)| *k == (table.clone(), offset));
            match rng.gen_range(0..10) {
                0 => {
                    c.invalidate_table(&table);
                    model.retain(|((t, _), _)| *t != table);
                }
                1..=4 => {
                    let charge = rng.gen_range(50..300);
                    c.insert(&table, offset, blk(offset as usize), charge);
                    if let Some(i) = at {
                        model.remove(i);
                    }
                    model.push(((table, offset), charge));
                    while model.iter().map(|(_, ch)| ch).sum::<usize>() > budget {
                        model.remove(0);
                    }
                }
                _ => {
                    let hit = c.get(&table, offset);
                    assert_eq!(hit.is_some(), at.is_some());
                    if let (Some(i), Some(block)) = (at, hit) {
                        assert_eq!(block[0].0, vec![offset as u8]);
                        let e = model.remove(i);
                        model.push(e);
                    }
                }
            }
            assert_eq!(
                c.used_bytes(),
                model.iter().map(|(_, ch)| ch).sum::<usize>()
            );
        }
        assert!(c.eviction_count() > 100 && c.hit_count() > 1000);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = BlockCache::with_shards(100, 1);
        c.insert("t", 0, blk(0), 500);
        assert!(c.get("t", 0).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn reinsert_updates_charge() {
        let c = BlockCache::with_shards(1000, 1);
        c.insert("t", 0, blk(0), 400);
        c.insert("t", 0, blk(0), 100);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn invalidate_table_drops_only_that_table() {
        let c = BlockCache::new(8000);
        c.insert("a", 0, blk(0), 100);
        c.insert("a", 1, blk(1), 100);
        c.insert("b", 0, blk(2), 100);
        c.invalidate_table("a");
        assert!(c.get("a", 0).is_none());
        assert!(c.get("b", 0).is_some());
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn shard_budgets_sum_to_total() {
        for (budget, n) in [(1000, 8), (1001, 8), (7, 8), (300, 1)] {
            let c = BlockCache::with_shards(budget, n);
            assert_eq!(c.shards.iter().map(|s| s.budget).sum::<usize>(), budget);
            assert_eq!(c.shard_count(), n.max(1));
        }
    }

    #[test]
    fn sharded_budget_never_exceeded_under_concurrency() {
        // Multi-threaded stress: hammer a sharded cache from 8 threads and
        // check the invariants that must survive sharding — the global
        // budget is never exceeded, and hits + misses equals the exact
        // number of get() calls (each get is one hit or one miss).
        let c = BlockCache::with_shards(64 * 100, 8);
        let gets = AtomicU64::new(0);
        let pool = tu_common::pool::WorkerPool::new(8);
        pool.run(8, |w| {
            for i in 0..500u64 {
                let off = (w as u64 * 131 + i * 7) % 256;
                if c.get("t", off).is_none() {
                    c.insert("t", off, blk(off as usize), 100);
                }
                gets.fetch_add(1, Ordering::Relaxed);
                assert!(
                    c.used_bytes() <= 64 * 100,
                    "budget exceeded: {}",
                    c.used_bytes()
                );
            }
        });
        assert_eq!(
            c.hit_count() + c.miss_count(),
            gets.load(Ordering::Relaxed),
            "every get is exactly one hit or one miss"
        );
        assert!(c.hit_count() > 0 && c.miss_count() > 0);
        assert!(c.used_bytes() <= 64 * 100);
    }
}

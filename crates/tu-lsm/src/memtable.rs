//! The write buffer: a sorted MemTable plus the immutable-memtable queue.
//!
//! The paper extends LevelDB with a queue of immutable MemTables so several
//! flushes can be in flight without blocking insertion (§3.3 "Compaction on
//! fast cloud storage").

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex, RwLock};
use tu_common::Timestamp;

use crate::reach::ReachFold;

/// A sorted in-memory write buffer. Last write wins per key.
#[derive(Debug, Default)]
pub struct MemTable {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    bytes: usize,
    /// The reach of every chunk put, replaced ones included.
    reach: ReachFold,
}

impl MemTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a key. Returns the table's new approximate size.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> usize {
        let key_len = key.len();
        let value_len = value.len();
        let stats = tu_compress::agg::split_envelope(&value).0;
        self.reach.add(&key, stats.as_ref());
        match self.map.insert(key, value) {
            Some(old) => {
                // Key bytes were already counted; swap the value charge.
                self.bytes = self.bytes - old.len() + value_len;
            }
            None => self.bytes += key_len + value_len,
        }
        self.bytes
    }

    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// The lowest key timestamp a chunk put here with a sample at or
    /// after `start` can have; `None` if none can have one
    /// ([`ReachFold::key_bound`]).
    pub fn key_bound(&self, start: Timestamp) -> Option<Timestamp> {
        self.reach.key_bound(start)
    }

    /// Entries with keys in `[start, end)`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map
            .range::<[u8], _>((
                std::ops::Bound::Included(start),
                std::ops::Bound::Excluded(end),
            ))
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate payload bytes held.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Consumes the table into its sorted entries.
    pub fn into_entries(self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.map.into_iter().collect()
    }
}

/// The active MemTable plus the queue of sealed (immutable) tables waiting
/// to be flushed, oldest first.
pub struct MemTableSet {
    active: RwLock<MemTable>,
    immutables: Mutex<Vec<Arc<MemTable>>>,
    /// Tables sealed so far: the epoch of the active table. Bumped under
    /// the same write lock that swaps the table, so an entry put into the
    /// table of epoch `e` reads `epoch() >= e` once its put returns.
    seals: AtomicU64,
}

impl Default for MemTableSet {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTableSet {
    pub fn new() -> Self {
        MemTableSet {
            active: RwLock::new(&lockdep::LSM_MEMTABLE_ACTIVE, MemTable::new()),
            immutables: Mutex::new(&lockdep::LSM_MEMTABLE_IMM, Vec::new()),
            seals: AtomicU64::new(0),
        }
    }

    /// Inserts into the active table; returns its approximate size so the
    /// caller can decide to seal.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> usize {
        self.active.write().put(key, value)
    }

    /// Seals the active table into the immutable queue (if non-empty) and
    /// installs a fresh one. Returns the sealed table.
    pub fn seal(&self) -> Option<Arc<MemTable>> {
        let mut active = self.active.write();
        if active.is_empty() {
            return None;
        }
        let sealed = Arc::new(std::mem::take(&mut *active));
        self.immutables.lock().push(sealed.clone());
        self.seals.fetch_add(1, Ordering::SeqCst);
        Some(sealed)
    }

    /// Epoch of the active table: how many tables have been sealed. Read
    /// after a put, it names the put's table or a later one.
    pub fn epoch(&self) -> u64 {
        self.seals.load(Ordering::SeqCst)
    }

    /// Removes a flushed table from the queue.
    pub fn retire(&self, table: &Arc<MemTable>) {
        let mut q = self.immutables.lock();
        if let Some(pos) = q.iter().position(|t| Arc::ptr_eq(t, table)) {
            q.remove(pos);
        }
    }

    /// Oldest-first snapshot of the immutable queue.
    pub fn immutables(&self) -> Vec<Arc<MemTable>> {
        self.immutables.lock().clone()
    }

    /// Pops the oldest immutable table for flushing (without retiring it —
    /// call [`MemTableSet::retire`] after the flush commits).
    pub fn oldest_immutable(&self) -> Option<Arc<MemTable>> {
        self.immutables.lock().first().cloned()
    }

    /// Point lookup across active + immutables, newest first.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = self.active.read().get(key) {
            return Some(v.to_vec());
        }
        let q = self.immutables.lock();
        for t in q.iter().rev() {
            if let Some(v) = t.get(key) {
                return Some(v.to_vec());
            }
        }
        None
    }

    /// Range scan across active + immutables; newest value wins per key.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.with_tables(|tables| range_of(tables, start, end))
    }

    /// Runs `f` over every table, oldest first and the active one last,
    /// with the active table read-locked and the sealed queue locked: no
    /// put, seal or retire changes the set while `f` runs.
    pub fn with_tables<R>(&self, f: impl FnOnce(&[&MemTable]) -> R) -> R {
        let active = self.active.read();
        let queue = self.immutables.lock();
        let mut tables: Vec<&MemTable> = queue.iter().map(|t| t.as_ref()).collect();
        tables.push(&active);
        f(&tables)
    }

    /// Approximate bytes across active and immutable tables.
    pub fn approx_bytes(&self) -> usize {
        let active = self.active.read().approx_bytes();
        let queue = self.immutables.lock();
        active + queue.iter().map(|t| t.approx_bytes()).sum::<usize>()
    }

    /// Number of queued immutable tables.
    pub fn immutable_count(&self) -> usize {
        self.immutables.lock().len()
    }
}

/// Entries of `tables`, given oldest first, with keys in `[start, end)`;
/// the newest value wins per key.
pub fn range_of(tables: &[&MemTable], start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for t in tables {
        for (k, v) in t.range(start, end) {
            out.insert(k.to_vec(), v.to_vec());
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memtable_put_get_overwrite() {
        let mut m = MemTable::new();
        m.put(b"b".to_vec(), b"1".to_vec());
        m.put(b"a".to_vec(), b"2".to_vec());
        m.put(b"b".to_vec(), b"3".to_vec());
        assert_eq!(m.get(b"b"), Some(b"3".as_slice()));
        assert_eq!(m.len(), 2);
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b".as_slice()]);
    }

    #[test]
    fn memtable_range_is_half_open() {
        let mut m = MemTable::new();
        for k in ["a", "b", "c", "d"] {
            m.put(k.as_bytes().to_vec(), b"x".to_vec());
        }
        let got: Vec<&[u8]> = m.range(b"b", b"d").map(|(k, _)| k).collect();
        assert_eq!(got, vec![b"b".as_slice(), b"c".as_slice()]);
    }

    #[test]
    fn size_grows_with_payload() {
        let mut m = MemTable::new();
        let s0 = m.approx_bytes();
        m.put(vec![0; 100], vec![0; 900]);
        assert!(m.approx_bytes() >= s0 + 1000);
    }

    #[test]
    fn set_seal_and_retire_cycle() {
        let set = MemTableSet::new();
        assert!(set.seal().is_none(), "empty active table does not seal");
        set.put(b"k1".to_vec(), b"v1".to_vec());
        let sealed = set.seal().expect("sealed");
        assert_eq!(set.immutable_count(), 1);
        set.put(b"k2".to_vec(), b"v2".to_vec());
        // Both visible while the flush is pending.
        assert_eq!(set.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(set.get(b"k2"), Some(b"v2".to_vec()));
        set.retire(&sealed);
        assert_eq!(set.immutable_count(), 0);
        assert_eq!(set.get(b"k1"), None, "retired table no longer visible");
    }

    #[test]
    fn newest_write_wins_across_tables() {
        let set = MemTableSet::new();
        set.put(b"k".to_vec(), b"old".to_vec());
        set.seal().unwrap();
        set.put(b"k".to_vec(), b"new".to_vec());
        assert_eq!(set.get(b"k"), Some(b"new".to_vec()));
        let all = set.range(b"", b"~");
        assert_eq!(all, vec![(b"k".to_vec(), b"new".to_vec())]);
    }

    #[test]
    fn multiple_immutables_queue_in_order() {
        let set = MemTableSet::new();
        for i in 0..3 {
            set.put(format!("k{i}").into_bytes(), b"v".to_vec());
            set.seal().unwrap();
        }
        assert_eq!(set.immutable_count(), 3);
        let oldest = set.oldest_immutable().unwrap();
        assert!(oldest.get(b"k0").is_some());
    }
}

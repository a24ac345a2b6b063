//! A budgeted page pool with clock eviction and dirty write-back.
//!
//! All file-backed structures in TimeUnion go through one shared
//! [`PageCache`]. When the resident budget is exceeded, the clock hand
//! evicts not-recently-used pages, writing dirty ones back to their file —
//! the explicit analogue of the kernel swapping out cold mmap pages that
//! Figure 16 relies on. Hit/miss/swap counters feed the memory experiments.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};
use tu_common::{Error, Result};

/// Size of one cache page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Files grow on disk in whole steps of this many bytes, so a run of small
/// appends past the end costs one `ftruncate` per step instead of one per
/// write. Kept small because every arena and trie file an engine creates
/// starts with one step.
const GROWTH_STEP: u64 = 64 << 10;

/// Cache observability counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Pages evicted to make room (the "swap out" of Figure 16).
    pub evictions: u64,
    /// Evicted pages that were dirty and had to be written back.
    pub writebacks: u64,
    /// Bytes currently resident in the cache.
    pub resident_bytes: u64,
}

pub(crate) struct FileBacking {
    pub(crate) file: File,
    /// Logical length: the end of the furthest write.
    pub(crate) len: AtomicU64,
    /// Length of the file on disk, never below `len`; changed only under
    /// the cache lock, by [`PageCache::grow`] and the flush that trims it.
    physical: AtomicU64,
}

/// Multiplicative hash for `(file id, page)` keys. Both are integers this
/// module assigns, never input from outside, so SipHash's resistance to
/// chosen collisions buys nothing on the per-access path.
#[derive(Default)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

struct Frame {
    key: (u64, u64), // (file id, page number)
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
}

struct Inner {
    files: HashMap<u64, Arc<FileBacking>>,
    frames: Vec<Frame>,
    map: HashMap<(u64, u64), usize, BuildHasherDefault<PageKeyHasher>>,
    hand: usize,
    next_file_id: u64,
}

/// A shared pool of file pages with a fixed resident budget.
pub struct PageCache {
    inner: Mutex<Inner>,
    budget_pages: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl PageCache {
    /// Creates a cache holding at most `budget_bytes` of resident pages
    /// (rounded down to whole pages, minimum one page).
    pub fn new(budget_bytes: usize) -> Arc<Self> {
        Arc::new(PageCache {
            inner: Mutex::new(
                &lockdep::MMAP_PAGECACHE,
                Inner {
                    files: HashMap::new(),
                    frames: Vec::new(),
                    map: HashMap::default(),
                    hand: 0,
                    next_file_id: 1,
                },
            ),
            budget_pages: (budget_bytes / PAGE_SIZE).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        })
    }

    /// Registers (opening or creating) a file, returning its cache id and
    /// current length.
    pub(crate) fn register(&self, path: &Path) -> Result<(u64, Arc<FileBacking>)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let backing = Arc::new(FileBacking {
            file,
            len: AtomicU64::new(len),
            physical: AtomicU64::new(len),
        });
        let mut inner = self.inner.lock();
        let id = inner.next_file_id;
        inner.next_file_id += 1;
        inner.files.insert(id, backing.clone());
        Ok((id, backing))
    }

    /// Drops all pages of a file (writing dirty ones back) and forgets it.
    pub(crate) fn unregister(&self, file_id: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_file_locked(&mut inner, file_id)?;
        // Invalidate this file's frames; the map entries are removed and
        // the frames recycled lazily by pointing them at an unused key.
        let mut i = 0;
        while i < inner.frames.len() {
            if inner.frames[i].key.0 == file_id {
                let key = inner.frames[i].key;
                inner.map.remove(&key);
                let last = inner.frames.len() - 1;
                inner.frames.swap(i, last);
                inner.frames.pop();
                if i < inner.frames.len() {
                    let moved_key = inner.frames[i].key;
                    inner.map.insert(moved_key, i);
                }
            } else {
                i += 1;
            }
        }
        inner.hand = 0;
        inner.files.remove(&file_id);
        Ok(())
    }

    /// Extends a file's logical length to at least `end`, growing the file
    /// on disk in [`GROWTH_STEP`]s when `end` passes its physical length.
    /// The cache lock orders this against the trim in [`Self::flush_file`],
    /// so the file on disk is never shorter than the logical length.
    pub(crate) fn grow(&self, backing: &FileBacking, end: u64) -> Result<()> {
        let _order = self.inner.lock();
        if end > backing.physical.load(Ordering::Relaxed) {
            let physical = end.next_multiple_of(GROWTH_STEP);
            backing.file.set_len(physical)?;
            backing.physical.store(physical, Ordering::Relaxed);
        }
        backing.len.fetch_max(end, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `f` with mutable access to the given page, faulting it in if
    /// necessary. `dirty` marks the page for write-back on eviction.
    pub(crate) fn with_page<R>(
        &self,
        file_id: u64,
        page_no: u64,
        dirty: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.map.get(&(file_id, page_no)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let frame = &mut inner.frames[idx];
            frame.referenced = true;
            frame.dirty |= dirty;
            return Ok(f(&mut frame.data));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Fault the page in.
        let backing = inner
            .files
            .get(&file_id)
            .ok_or_else(|| Error::Closed("page cache file unregistered".into()))?
            .clone();
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let offset = page_no * PAGE_SIZE as u64;
        if offset < backing.len.load(Ordering::Relaxed) {
            read_full_at(&backing.file, &mut data, offset)?;
        }
        let idx = if inner.frames.len() < self.budget_pages {
            inner.frames.push(Frame {
                key: (file_id, page_no),
                data,
                dirty,
                referenced: true,
            });
            inner.frames.len() - 1
        } else {
            let victim = self.pick_victim(&mut inner);
            let (vkey, was_dirty) = {
                let frame = &inner.frames[victim];
                (frame.key, frame.dirty)
            };
            if was_dirty {
                self.writeback_locked(&inner, victim)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            inner.map.remove(&vkey);
            let frame = &mut inner.frames[victim];
            frame.key = (file_id, page_no);
            frame.data = data;
            frame.dirty = dirty;
            frame.referenced = true;
            victim
        };
        inner.map.insert((file_id, page_no), idx);
        let frame = &mut inner.frames[idx];
        Ok(f(&mut frame.data))
    }

    /// Clock (second chance) victim selection.
    fn pick_victim(&self, inner: &mut Inner) -> usize {
        loop {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            if inner.frames[idx].referenced {
                inner.frames[idx].referenced = false;
            } else {
                return idx;
            }
        }
    }

    fn writeback_locked(&self, inner: &Inner, idx: usize) -> Result<()> {
        let frame = &inner.frames[idx];
        let backing = inner
            .files
            .get(&frame.key.0)
            .ok_or_else(|| Error::Closed("page cache file unregistered".into()))?;
        let offset = frame.key.1 * PAGE_SIZE as u64;
        let len = backing.len.load(Ordering::Relaxed);
        if offset >= len {
            return Ok(()); // page beyond the logical end: nothing durable
        }
        let valid = ((len - offset) as usize).min(PAGE_SIZE);
        backing.file.write_all_at(&frame.data[..valid], offset)?;
        Ok(())
    }

    /// Writes back all dirty pages of one file (without evicting them),
    /// sets its length on disk back to the logical length and fsyncs.
    pub(crate) fn flush_file(&self, file_id: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_file_locked(&mut inner, file_id)
    }

    fn flush_file_locked(&self, inner: &mut Inner, file_id: u64) -> Result<()> {
        for idx in 0..inner.frames.len() {
            if inner.frames[idx].key.0 == file_id && inner.frames[idx].dirty {
                self.writeback_locked(inner, idx)?;
                inner.frames[idx].dirty = false;
            }
        }
        if let Some(backing) = inner.files.get(&file_id) {
            let len = backing.len.load(Ordering::Relaxed);
            if backing.physical.load(Ordering::Relaxed) != len {
                backing.file.set_len(len)?;
                backing.physical.store(len, Ordering::Relaxed);
            }
            backing.file.sync_data()?;
        }
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            resident_bytes: (inner.frames.len() * PAGE_SIZE) as u64,
        }
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_pages * PAGE_SIZE
    }
}

fn read_full_at(file: &File, buf: &mut [u8], offset: u64) -> Result<()> {
    // Reads as much as the file has; pages past EOF stay zeroed, matching
    // mmap semantics for holes.
    let mut pos = 0;
    while pos < buf.len() {
        match file.read_at(&mut buf[pos..], offset + pos as u64) {
            Ok(0) => break,
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with(budget_pages: usize) -> (tempfile::TempDir, Arc<PageCache>) {
        (
            tempfile::tempdir().unwrap(),
            PageCache::new(budget_pages * PAGE_SIZE),
        )
    }

    #[test]
    fn pages_fault_in_zeroed_and_remember_writes() {
        let (dir, cache) = cache_with(4);
        let (id, backing) = cache.register(&dir.path().join("f")).unwrap();
        backing.len.store(2 * PAGE_SIZE as u64, Ordering::Relaxed);
        cache
            .with_page(id, 0, true, |p| {
                assert!(p.iter().all(|&b| b == 0));
                p[10] = 42;
            })
            .unwrap();
        let v = cache.with_page(id, 0, false, |p| p[10]).unwrap();
        assert_eq!(v, 42);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let (dir, cache) = cache_with(2);
        let (id, backing) = cache.register(&dir.path().join("f")).unwrap();
        backing.len.store(16 * PAGE_SIZE as u64, Ordering::Relaxed);
        backing.file.set_len(16 * PAGE_SIZE as u64).unwrap();
        // Dirty page 0, then touch enough pages to evict it.
        cache.with_page(id, 0, true, |p| p[0] = 9).unwrap();
        for page in 1..5 {
            cache.with_page(id, page, false, |_| ()).unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions >= 3, "evictions {}", s.evictions);
        assert!(s.writebacks >= 1, "writebacks {}", s.writebacks);
        assert_eq!(s.resident_bytes, 2 * PAGE_SIZE as u64);
        // Re-faulting page 0 must see the written byte (read from disk).
        let v = cache.with_page(id, 0, false, |p| p[0]).unwrap();
        assert_eq!(v, 9);
    }

    #[test]
    fn resident_bytes_never_exceed_budget() {
        let (dir, cache) = cache_with(3);
        let (id, backing) = cache.register(&dir.path().join("f")).unwrap();
        backing.len.store(64 * PAGE_SIZE as u64, Ordering::Relaxed);
        for page in 0..50 {
            cache.with_page(id, page, false, |_| ()).unwrap();
            assert!(cache.stats().resident_bytes <= 3 * PAGE_SIZE as u64);
        }
    }

    #[test]
    fn flush_persists_without_eviction() {
        let (dir, cache) = cache_with(8);
        let path = dir.path().join("f");
        let (id, backing) = cache.register(&path).unwrap();
        backing.len.store(PAGE_SIZE as u64, Ordering::Relaxed);
        backing.file.set_len(PAGE_SIZE as u64).unwrap();
        cache.with_page(id, 0, true, |p| p[100] = 7).unwrap();
        cache.flush_file(id).unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw[100], 7);
    }

    #[test]
    fn unregister_flushes_and_forgets() {
        let (dir, cache) = cache_with(8);
        let path = dir.path().join("f");
        let (id, backing) = cache.register(&path).unwrap();
        backing.len.store(PAGE_SIZE as u64, Ordering::Relaxed);
        backing.file.set_len(PAGE_SIZE as u64).unwrap();
        cache.with_page(id, 0, true, |p| p[5] = 3).unwrap();
        cache.unregister(id).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[5], 3);
        assert!(cache.with_page(id, 0, false, |_| ()).is_err());
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn two_files_do_not_collide() {
        let (dir, cache) = cache_with(8);
        let (a, ba) = cache.register(&dir.path().join("a")).unwrap();
        let (b, bb) = cache.register(&dir.path().join("b")).unwrap();
        ba.len.store(PAGE_SIZE as u64, Ordering::Relaxed);
        bb.len.store(PAGE_SIZE as u64, Ordering::Relaxed);
        cache.with_page(a, 0, true, |p| p[0] = 1).unwrap();
        cache.with_page(b, 0, true, |p| p[0] = 2).unwrap();
        assert_eq!(cache.with_page(a, 0, false, |p| p[0]).unwrap(), 1);
        assert_eq!(cache.with_page(b, 0, false, |p| p[0]).unwrap(), 2);
    }
}

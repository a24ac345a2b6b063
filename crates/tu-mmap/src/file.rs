//! Byte-addressable file access through the shared page cache.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::pagecache::{FileBacking, PageCache, PAGE_SIZE};
use tu_common::{Error, Result};

/// A file whose reads and writes go through a [`PageCache`], the explicit
/// stand-in for an `mmap`ed region.
///
/// The logical length grows on writes past the end (zero-filling holes,
/// like `ftruncate` + `mmap`). All I/O is page-granular underneath: an
/// access costs one page-cache round trip per page it touches. The file on
/// disk grows in whole steps ahead of the logical length and is cut back
/// to it by [`PagedFile::sync`], so after a sync the file is exactly as
/// long as what was written, and after a crash it is at least as long.
pub struct PagedFile {
    cache: Arc<PageCache>,
    id: u64,
    backing: Arc<FileBacking>,
    path: PathBuf,
}

impl PagedFile {
    /// Opens (creating if missing) a paged file registered with `cache`.
    pub fn open(cache: Arc<PageCache>, path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let (id, backing) = cache.register(&path)?;
        Ok(PagedFile {
            cache,
            id,
            backing,
            path,
        })
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.backing.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Reads exactly `buf.len()` bytes at `offset`. Errors if the range
    /// extends past the logical end.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let end = offset + buf.len() as u64;
        if end > self.len() {
            return Err(Error::invalid(format!(
                "read [{offset}, {end}) past end of {} ({} bytes)",
                self.path.display(),
                self.len()
            )));
        }
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            self.cache.with_page(self.id, page, false, |p| {
                buf[done..done + n].copy_from_slice(&p[in_page..in_page + n]);
            })?;
            done += n;
        }
        Ok(())
    }

    /// Writes `data` at `offset`, growing the file as needed.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let end = offset + data.len() as u64;
        if end > self.len() {
            self.cache.grow(&self.backing, end)?;
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            self.cache.with_page(self.id, page, true, |p| {
                p[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            })?;
            done += n;
        }
        Ok(())
    }

    /// Writes all dirty pages back, sets the length on disk to the logical
    /// length and fsyncs.
    pub fn sync(&self) -> Result<()> {
        self.cache.flush_file(self.id)
    }
}

impl Drop for PagedFile {
    fn drop(&mut self) {
        // Best-effort flush; errors on drop cannot be surfaced.
        let _ = self.cache.unregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(budget_pages: usize) -> (tempfile::TempDir, Arc<PageCache>) {
        (
            tempfile::tempdir().unwrap(),
            PageCache::new(budget_pages * PAGE_SIZE),
        )
    }

    #[test]
    fn write_then_read_within_one_page() {
        let (dir, cache) = setup(4);
        let f = PagedFile::open(cache, dir.path().join("x")).unwrap();
        f.write_at(100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(f.len(), 105);
    }

    #[test]
    fn writes_spanning_pages() {
        let (dir, cache) = setup(8);
        let f = PagedFile::open(cache, dir.path().join("x")).unwrap();
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 37).map(|i| (i % 251) as u8).collect();
        f.write_at(PAGE_SIZE as u64 - 10, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read_at(PAGE_SIZE as u64 - 10, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn holes_read_as_zero() {
        let (dir, cache) = setup(4);
        let f = PagedFile::open(cache, dir.path().join("x")).unwrap();
        f.write_at(10_000, b"z").unwrap();
        let mut buf = [1u8; 100];
        f.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_past_end_is_an_error() {
        let (dir, cache) = setup(4);
        let f = PagedFile::open(cache, dir.path().join("x")).unwrap();
        f.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert!(f.read_at(0, &mut buf).is_err());
    }

    #[test]
    fn data_survives_eviction_pressure() {
        let (dir, cache) = setup(2); // tiny cache forces constant eviction
        let f = PagedFile::open(cache.clone(), dir.path().join("x")).unwrap();
        let total = 64 * PAGE_SIZE;
        for i in 0..total / 8 {
            f.write_at((i * 8) as u64, &(i as u64).to_le_bytes())
                .unwrap();
        }
        for i in (0..total / 8).step_by(777) {
            let mut buf = [0u8; 8];
            f.read_at((i * 8) as u64, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i as u64);
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn reopen_after_sync_sees_data() {
        let (dir, cache) = setup(4);
        let path = dir.path().join("x");
        {
            let f = PagedFile::open(cache.clone(), &path).unwrap();
            f.write_at(0, b"persist me").unwrap();
            f.sync().unwrap();
        }
        let f = PagedFile::open(cache, &path).unwrap();
        assert_eq!(f.len(), 10);
        let mut buf = [0u8; 10];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn unsynced_growth_reopens_at_least_as_long_as_the_writes() {
        let (dir, cache) = setup(2); // pages written back only by eviction
        let path = dir.path().join("x");
        let f = PagedFile::open(cache.clone(), &path).unwrap();
        let data: Vec<u8> = (0..5 * PAGE_SIZE + 123)
            .map(|i| (i % 251) as u8 + 1)
            .collect();
        for (i, piece) in data.chunks(100).enumerate() {
            f.write_at((i * 100) as u64, piece).unwrap();
        }
        // A crash keeps the file as it is on disk and loses dirty pages.
        let image = dir.path().join("image");
        std::fs::copy(&path, &image).unwrap();
        let g = PagedFile::open(cache, &image).unwrap();
        assert!(g.len() >= data.len() as u64, "reopened at {}", g.len());
        let mut back = vec![0u8; g.len() as usize];
        g.read_at(0, &mut back).unwrap();
        assert_eq!(&back[..PAGE_SIZE], &data[..PAGE_SIZE], "evicted page lost");
        for (page, want) in back.chunks(PAGE_SIZE).zip(data.chunks(PAGE_SIZE)) {
            let written_back = &page[..want.len()] == want;
            assert!(written_back || page.iter().all(|&b| b == 0));
        }
        assert!(back[data.len()..].iter().all(|&b| b == 0));
        // A sync cuts the file on disk back to exactly what was written.
        f.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), data.len() as u64);
    }
}

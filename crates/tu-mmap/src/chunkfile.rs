//! Bitmap-allocated chunk files for in-progress data samples (Figure 9).
//!
//! A [`ChunkArena`] manages a growing set of files, each split into
//! fixed-size chunks with a header bitmap marking which chunks are live.
//! TimeUnion keeps every series' (and group's) current small sample chunk
//! in such an arena; when the chunk is sealed and flushed into the
//! LSM-tree, its slot is freed for reuse (§3.2).
//!
//! File layout:
//!
//! ```text
//! [u32 magic][u32 chunk_size][u32 chunks_per_file][bitmap: ceil(n/8) bytes]
//! [chunk 0][chunk 1]...[chunk n-1]
//! ```
//!
//! Each chunk slot stores `u16 LE payload length` followed by the payload.

use std::path::PathBuf;
use std::sync::Arc;

use crate::file::PagedFile;
use crate::pagecache::PageCache;
use tu_common::lockdep::{self, Mutex};
use tu_common::{Error, Result};

const MAGIC: u32 = 0x54_55_43_41; // "TUCA"

/// Stable reference to an allocated chunk slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkHandle {
    pub file: u32,
    pub slot: u32,
}

struct ArenaFile {
    file: Arc<PagedFile>,
    /// In-memory copy of the allocation bitmap (authoritative; persisted
    /// on every alloc/free so recovery sees a consistent view).
    bitmap: Vec<u8>,
    live: u32,
}

struct Inner {
    files: Vec<ArenaFile>,
    /// Free slots available for reuse, newest first.
    free_list: Vec<ChunkHandle>,
}

/// A set of chunk files with bitmap allocation.
pub struct ChunkArena {
    cache: Arc<PageCache>,
    dir: PathBuf,
    chunk_size: usize,
    chunks_per_file: u32,
    inner: Mutex<Inner>,
}

impl ChunkArena {
    /// Opens (or creates) an arena under `dir` with the given chunk size
    /// and chunks per file. Reopening recovers the allocation bitmaps.
    pub fn open(
        cache: Arc<PageCache>,
        dir: impl Into<PathBuf>,
        chunk_size: usize,
        chunks_per_file: u32,
    ) -> Result<Self> {
        assert!(chunk_size >= 4 && chunk_size <= u16::MAX as usize + 2);
        assert!(chunks_per_file > 0);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let arena = ChunkArena {
            cache,
            dir,
            chunk_size,
            chunks_per_file,
            inner: Mutex::new(
                &lockdep::MMAP_CHUNKFILE,
                Inner {
                    files: Vec::new(),
                    free_list: Vec::new(),
                },
            ),
        };
        arena.recover()?;
        Ok(arena)
    }

    fn file_path(&self, n: usize) -> PathBuf {
        self.dir.join(format!("chunks-{n:05}.dat"))
    }

    fn header_len(&self) -> u64 {
        12 + (self.chunks_per_file as u64).div_ceil(8)
    }

    fn chunk_offset(&self, slot: u32) -> u64 {
        self.header_len() + slot as u64 * self.chunk_size as u64
    }

    fn recover(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut n = 0;
        loop {
            let path = self.file_path(n);
            if !path.exists() {
                break;
            }
            let file = Arc::new(PagedFile::open(self.cache.clone(), path)?);
            let mut head = [0u8; 12];
            file.read_at(0, &mut head)?;
            let magic = tu_common::bytes::u32_le(&head[0..4]);
            let csize = tu_common::bytes::u32_le(&head[4..8]);
            let cper = tu_common::bytes::u32_le(&head[8..12]);
            if magic != MAGIC {
                return Err(Error::corruption("chunk arena file has bad magic"));
            }
            if csize as usize != self.chunk_size || cper != self.chunks_per_file {
                return Err(Error::corruption(
                    "chunk arena file geometry does not match configuration",
                ));
            }
            let mut bitmap = vec![0u8; (self.chunks_per_file as usize).div_ceil(8)];
            file.read_at(12, &mut bitmap)?;
            let mut live = 0;
            for slot in 0..self.chunks_per_file {
                if bitmap[slot as usize / 8] & (1 << (slot % 8)) != 0 {
                    live += 1;
                } else {
                    inner.free_list.push(ChunkHandle {
                        file: n as u32,
                        slot,
                    });
                }
            }
            inner.files.push(ArenaFile { file, bitmap, live });
            n += 1;
        }
        Ok(())
    }

    fn add_file(&self, inner: &mut Inner) -> Result<()> {
        let n = inner.files.len();
        let file = Arc::new(PagedFile::open(self.cache.clone(), self.file_path(n))?);
        let mut head = Vec::with_capacity(12);
        head.extend_from_slice(&MAGIC.to_le_bytes());
        head.extend_from_slice(&(self.chunk_size as u32).to_le_bytes());
        head.extend_from_slice(&self.chunks_per_file.to_le_bytes());
        file.write_at(0, &head)?;
        let bitmap = vec![0u8; (self.chunks_per_file as usize).div_ceil(8)];
        file.write_at(12, &bitmap)?;
        for slot in (0..self.chunks_per_file).rev() {
            inner.free_list.push(ChunkHandle {
                file: n as u32,
                slot,
            });
        }
        inner.files.push(ArenaFile {
            file,
            bitmap,
            live: 0,
        });
        Ok(())
    }

    /// Allocates a chunk slot, growing the arena by one file if none are
    /// free.
    pub fn alloc(&self) -> Result<ChunkHandle> {
        let mut inner = self.inner.lock();
        if inner.free_list.is_empty() {
            self.add_file(&mut inner)?;
        }
        let handle = inner
            .free_list
            .pop()
            .ok_or_else(|| Error::corruption("chunk arena free list empty after growth"))?;
        let af = &mut inner.files[handle.file as usize];
        af.bitmap[handle.slot as usize / 8] |= 1 << (handle.slot % 8);
        af.live += 1;
        let byte = af.bitmap[handle.slot as usize / 8];
        af.file.write_at(12 + handle.slot as u64 / 8, &[byte])?;
        Ok(handle)
    }

    /// Frees a chunk slot for reuse. Freeing an unallocated slot is an
    /// error (catches double frees).
    pub fn free(&self, handle: ChunkHandle) -> Result<()> {
        let mut inner = self.inner.lock();
        let af = inner
            .files
            .get_mut(handle.file as usize)
            .ok_or_else(|| Error::invalid("chunk handle file out of range"))?;
        let mask = 1 << (handle.slot % 8);
        if handle.slot >= self.chunks_per_file || af.bitmap[handle.slot as usize / 8] & mask == 0 {
            return Err(Error::invalid("freeing an unallocated chunk slot"));
        }
        af.bitmap[handle.slot as usize / 8] &= !mask;
        af.live -= 1;
        let byte = af.bitmap[handle.slot as usize / 8];
        af.file.write_at(12 + handle.slot as u64 / 8, &[byte])?;
        inner.free_list.push(handle);
        Ok(())
    }

    /// Writes a payload into a chunk slot (replacing previous contents).
    /// The payload must fit `chunk_size - 2` bytes.
    pub fn write(&self, handle: ChunkHandle, payload: &[u8]) -> Result<()> {
        if payload.len() + 2 > self.chunk_size {
            return Err(Error::invalid(format!(
                "payload of {} bytes exceeds chunk capacity {}",
                payload.len(),
                self.chunk_size - 2
            )));
        }
        let inner = self.inner.lock();
        let af = inner
            .files
            .get(handle.file as usize)
            .ok_or_else(|| Error::invalid("chunk handle file out of range"))?;
        let mut buf = Vec::with_capacity(2 + payload.len());
        buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        buf.extend_from_slice(payload);
        af.file.write_at(self.chunk_offset(handle.slot), &buf)
    }

    /// Appends `suffix` to a slot whose payload currently has
    /// `old_payload_len` bytes, updating the length prefix — the O(1)
    /// fast path for in-order sample appends (no read-modify-write of the
    /// whole slot).
    pub fn append(&self, handle: ChunkHandle, old_payload_len: usize, suffix: &[u8]) -> Result<()> {
        let new_len = old_payload_len + suffix.len();
        if new_len + 2 > self.chunk_size {
            return Err(Error::invalid(format!(
                "append to {new_len} bytes exceeds chunk capacity {}",
                self.chunk_size - 2
            )));
        }
        let inner = self.inner.lock();
        let af = inner
            .files
            .get(handle.file as usize)
            .ok_or_else(|| Error::invalid("chunk handle file out of range"))?;
        let off = self.chunk_offset(handle.slot);
        af.file.write_at(off + 2 + old_payload_len as u64, suffix)?;
        af.file.write_at(off, &(new_len as u16).to_le_bytes())
    }

    /// Reads a chunk slot's payload.
    pub fn read(&self, handle: ChunkHandle) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        let af = inner
            .files
            .get(handle.file as usize)
            .ok_or_else(|| Error::invalid("chunk handle file out of range"))?;
        let off = self.chunk_offset(handle.slot);
        let mut len_buf = [0u8; 2];
        af.file.read_at(off, &mut len_buf)?;
        let len = u16::from_le_bytes(len_buf) as usize;
        if len + 2 > self.chunk_size {
            return Err(Error::corruption("chunk payload length exceeds slot size"));
        }
        let mut out = vec![0u8; len];
        af.file.read_at(off + 2, &mut out)?;
        Ok(out)
    }

    /// Number of live (allocated) chunks across all files.
    pub fn live_chunks(&self) -> u64 {
        self.inner.lock().files.iter().map(|f| f.live as u64).sum()
    }

    /// Number of backing files.
    pub fn file_count(&self) -> usize {
        self.inner.lock().files.len()
    }

    /// Flushes all dirty pages of all arena files.
    pub fn sync(&self) -> Result<()> {
        let inner = self.inner.lock();
        for af in &inner.files {
            af.file.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagecache::PAGE_SIZE;

    fn arena(chunk_size: usize, per_file: u32) -> (tempfile::TempDir, ChunkArena) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        let a = ChunkArena::open(cache, dir.path().join("arena"), chunk_size, per_file).unwrap();
        (dir, a)
    }

    #[test]
    fn alloc_write_read_free_cycle() {
        let (_d, a) = arena(64, 16);
        let h = a.alloc().unwrap();
        a.write(h, b"sample chunk bytes").unwrap();
        assert_eq!(a.read(h).unwrap(), b"sample chunk bytes");
        assert_eq!(a.live_chunks(), 1);
        a.free(h).unwrap();
        assert_eq!(a.live_chunks(), 0);
        assert!(a.free(h).is_err(), "double free detected");
    }

    #[test]
    fn arena_grows_files_when_full() {
        let (_d, a) = arena(32, 4);
        let handles: Vec<_> = (0..10).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(a.file_count(), 3);
        assert_eq!(a.live_chunks(), 10);
        for (i, h) in handles.iter().enumerate() {
            a.write(*h, format!("c{i}").as_bytes()).unwrap();
        }
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(a.read(*h).unwrap(), format!("c{i}").as_bytes());
        }
    }

    #[test]
    fn freed_slots_are_reused_before_growing() {
        let (_d, a) = arena(32, 4);
        let h1 = a.alloc().unwrap();
        let _h2 = a.alloc().unwrap();
        a.free(h1).unwrap();
        let h3 = a.alloc().unwrap();
        assert_eq!(h3, h1, "freed slot should be reused");
        assert_eq!(a.file_count(), 1);
    }

    #[test]
    fn oversized_payload_rejected() {
        let (_d, a) = arena(16, 4);
        let h = a.alloc().unwrap();
        assert!(a.write(h, &[0u8; 15]).is_err());
        a.write(h, &[0u8; 14]).unwrap();
    }

    #[test]
    fn overwrite_replaces_payload() {
        let (_d, a) = arena(64, 4);
        let h = a.alloc().unwrap();
        a.write(h, b"first").unwrap();
        a.write(h, b"second, longer").unwrap();
        assert_eq!(a.read(h).unwrap(), b"second, longer");
        a.write(h, b"x").unwrap();
        assert_eq!(a.read(h).unwrap(), b"x");
    }

    #[test]
    fn reopen_recovers_bitmap_and_payloads() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        let (h_live, h_freed);
        {
            let a = ChunkArena::open(cache.clone(), dir.path().join("ar"), 64, 8).unwrap();
            h_live = a.alloc().unwrap();
            h_freed = a.alloc().unwrap();
            a.write(h_live, b"survivor").unwrap();
            a.free(h_freed).unwrap();
            a.sync().unwrap();
        }
        let a = ChunkArena::open(cache, dir.path().join("ar"), 64, 8).unwrap();
        assert_eq!(a.live_chunks(), 1);
        assert_eq!(a.read(h_live).unwrap(), b"survivor");
        // The freed slot must be allocatable again.
        let slots: Vec<_> = (0..7).map(|_| a.alloc().unwrap()).collect();
        assert!(slots.contains(&h_freed));
        assert_eq!(a.file_count(), 1);
    }

    #[test]
    fn geometry_mismatch_is_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        {
            let a = ChunkArena::open(cache.clone(), dir.path().join("ar"), 64, 8).unwrap();
            a.alloc().unwrap();
            a.sync().unwrap();
        }
        match ChunkArena::open(cache, dir.path().join("ar"), 128, 8) {
            Err(e) => assert!(e.is_corruption()),
            Ok(_) => panic!("geometry mismatch must be rejected"),
        }
    }
}

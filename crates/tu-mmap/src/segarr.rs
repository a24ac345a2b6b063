//! Growable typed arrays split across fixed-size file segments.
//!
//! The paper stores the trie's Base/Check/Tail arrays in "dynamic mmap file
//! arrays": each file holds one million slots, and new files are appended
//! when more slots are needed (§3.2). [`SegArray`] reproduces that layout
//! over [`PagedFile`] segments.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, RwLock};

use crate::file::PagedFile;
use crate::pagecache::PageCache;
use tu_common::fs::replace_file;
use tu_common::{Error, Result};

/// Element types storable in a [`SegArray`]: fixed-width, little-endian.
pub trait Element: Copy + Default {
    const WIDTH: usize;
    fn write_to(self, buf: &mut [u8]);
    fn read_from(buf: &[u8]) -> Self;
}

macro_rules! impl_element {
    ($t:ty, $w:expr) => {
        impl Element for $t {
            const WIDTH: usize = $w;
            #[inline]
            fn write_to(self, buf: &mut [u8]) {
                buf[..$w].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_from(buf: &[u8]) -> Self {
                let mut a = [0u8; $w];
                a.copy_from_slice(&buf[..$w]);
                <$t>::from_le_bytes(a)
            }
        }
    };
}

impl_element!(u8, 1);
impl_element!(i32, 4);
impl_element!(u32, 4);
impl_element!(u64, 8);
impl_element!(i64, 8);

/// A typed array of `T` backed by a sequence of file segments, each holding
/// `slots_per_segment` elements. Segments are created on demand as the
/// array grows; reads of never-written slots return `T::default()` (files
/// are zero-filled, and all `Element` types decode zero bytes to default).
///
/// Every access is one page-cache round trip per page it touches, so code
/// that reads or writes neighbouring slots should use [`SegArray::get_range`]
/// and [`SegArray::set_range`] rather than a loop of `get`/`set`.
pub struct SegArray<T: Element> {
    cache: Arc<PageCache>,
    dir: PathBuf,
    name: String,
    slots_per_segment: usize,
    segments: RwLock<Vec<PagedFile>>,
    len: AtomicU64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> SegArray<T> {
    /// Opens (or creates) the array `name` under `dir`. Existing segment
    /// files `name.seg-N` are picked up in order; the logical length is
    /// persisted in a tiny `name.len` sidecar.
    pub fn open(
        cache: Arc<PageCache>,
        dir: impl Into<PathBuf>,
        name: &str,
        slots_per_segment: usize,
    ) -> Result<Self> {
        assert!(slots_per_segment > 0);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let arr = SegArray {
            cache,
            dir,
            name: name.to_string(),
            slots_per_segment,
            segments: RwLock::new(&lockdep::MMAP_SEGARR, Vec::new()),
            len: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        };
        // Recover segments and length.
        let mut segments = Vec::new();
        loop {
            let path = arr.segment_path(segments.len());
            if !path.exists() {
                break;
            }
            segments.push(PagedFile::open(arr.cache.clone(), path)?);
        }
        *arr.segments.write() = segments;
        let len_path = arr.len_path();
        if len_path.exists() {
            let bytes = std::fs::read(&len_path)?;
            if bytes.len() != 8 {
                return Err(Error::corruption("segment array length sidecar damaged"));
            }
            arr.len
                .store(tu_common::bytes::u64_le(&bytes), Ordering::SeqCst);
        }
        Ok(arr)
    }

    fn segment_path(&self, n: usize) -> PathBuf {
        self.dir.join(format!("{}.seg-{n}", self.name))
    }

    fn len_path(&self) -> PathBuf {
        self.dir.join(format!("{}.len", self.name))
    }

    /// Number of logical elements.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files currently backing the array.
    pub fn segment_count(&self) -> usize {
        self.segments.read().len()
    }

    fn locate(&self, idx: u64) -> (usize, u64) {
        (
            (idx / self.slots_per_segment as u64) as usize,
            (idx % self.slots_per_segment as u64) * T::WIDTH as u64,
        )
    }

    /// Elements from `idx` to the end of its segment.
    fn left_in_segment(&self, idx: u64) -> usize {
        self.slots_per_segment - (idx % self.slots_per_segment as u64) as usize
    }

    /// Runs `f` on segment `n`, creating the segment files up to it first
    /// if they do not exist yet.
    fn with_segment<R>(&self, n: usize, f: impl FnOnce(&PagedFile) -> Result<R>) -> Result<R> {
        {
            let segs = self.segments.read();
            if let Some(seg) = segs.get(n) {
                return f(seg);
            }
        }
        let mut segs = self.segments.write();
        while segs.len() <= n {
            let f = PagedFile::open(self.cache.clone(), self.segment_path(segs.len()))?;
            segs.push(f);
        }
        f(&segs[n])
    }

    /// Ensures the array is at least `new_len` elements long (new slots
    /// read as `T::default()`).
    pub fn resize(&self, new_len: u64) -> Result<()> {
        if new_len > self.len.fetch_max(new_len, Ordering::SeqCst) {
            // Materialize the final segment so reads have a backing file.
            let (seg, _) = self.locate(new_len - 1);
            self.with_segment(seg, |_| Ok(()))?;
        }
        Ok(())
    }

    /// Reads element `idx`. Out-of-range reads are an error.
    pub fn get(&self, idx: u64) -> Result<T> {
        let len = self.len();
        if idx >= len {
            return Err(Error::invalid(format!(
                "index {idx} out of bounds for {len} elements"
            )));
        }
        let (seg_no, off) = self.locate(idx);
        self.with_segment(seg_no, |seg| {
            let mut buf = [0u8; 8];
            if off + T::WIDTH as u64 > seg.len() {
                // Slot inside a hole that was never written: default value.
                return Ok(T::default());
            }
            seg.read_at(off, &mut buf[..T::WIDTH])?;
            Ok(T::read_from(&buf[..T::WIDTH]))
        })
    }

    /// Reads `count` consecutive elements starting at `idx`, clamped to
    /// the array length. Fetches whole segment ranges at once — the bulk
    /// path for trie child scans, which would otherwise pay one
    /// page-cache round trip per slot.
    pub fn get_range(&self, idx: u64, count: usize) -> Result<Vec<T>> {
        let len = self.len();
        if idx >= len {
            return Ok(Vec::new());
        }
        let count = count.min((len - idx) as usize);
        let mut out = Vec::with_capacity(count);
        let mut pos = idx;
        let mut buf = Vec::new();
        while out.len() < count {
            let (seg_no, off) = self.locate(pos);
            let n = self.left_in_segment(pos).min(count - out.len());
            let want = n * T::WIDTH;
            buf.clear();
            buf.resize(want, 0);
            self.with_segment(seg_no, |seg| {
                let avail = seg.len().saturating_sub(off) as usize;
                let readable = avail.min(want) / T::WIDTH * T::WIDTH;
                if readable > 0 {
                    seg.read_at(off, &mut buf[..readable])?;
                }
                Ok(())
            })?;
            // Past what the file holds lies a hole: the zeros left in `buf`
            // decode to the default.
            out.extend(buf.chunks_exact(T::WIDTH).map(T::read_from));
            pos += n as u64;
        }
        Ok(out)
    }

    /// Writes element `idx`, growing the array if `idx >= len`.
    pub fn set(&self, idx: u64, value: T) -> Result<()> {
        let mut buf = [0u8; 8];
        value.write_to(&mut buf[..T::WIDTH]);
        self.write_encoded(idx, &buf[..T::WIDTH])
    }

    /// Writes `values` to consecutive elements starting at `idx`, growing
    /// the array as needed: one page-cache round trip per page written.
    pub fn set_range(&self, idx: u64, values: &[T]) -> Result<()> {
        let mut buf = vec![0u8; values.len() * T::WIDTH];
        for (v, slot) in values.iter().zip(buf.chunks_exact_mut(T::WIDTH)) {
            v.write_to(slot);
        }
        self.write_encoded(idx, &buf)
    }

    /// Appends an element, returning its index.
    pub fn push(&self, value: T) -> Result<u64> {
        let idx = self.len.fetch_add(1, Ordering::SeqCst);
        let mut buf = [0u8; 8];
        value.write_to(&mut buf[..T::WIDTH]);
        self.write_encoded(idx, &buf[..T::WIDTH])?;
        Ok(idx)
    }

    /// Writes encoded elements starting at `idx`, one segment piece at a
    /// time, growing the array to cover them.
    fn write_encoded(&self, idx: u64, mut bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.resize(idx + (bytes.len() / T::WIDTH) as u64)?;
        let mut pos = idx;
        while !bytes.is_empty() {
            let (seg_no, off) = self.locate(pos);
            let n = self.left_in_segment(pos).min(bytes.len() / T::WIDTH);
            let (piece, rest) = bytes.split_at(n * T::WIDTH);
            self.with_segment(seg_no, |seg| seg.write_at(off, piece))?;
            pos += n as u64;
            bytes = rest;
        }
        Ok(())
    }

    /// Flushes dirty pages and persists the logical length.
    pub fn sync(&self) -> Result<()> {
        for seg in self.segments.read().iter() {
            seg.sync()?;
        }
        replace_file(&self.len_path(), &self.len().to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagecache::PAGE_SIZE;

    fn arr<T: Element>(slots: usize) -> (tempfile::TempDir, SegArray<T>) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        let a = SegArray::open(cache, dir.path().join("arr"), "test", slots).unwrap();
        (dir, a)
    }

    #[test]
    fn push_get_set_round_trip() {
        let (_d, a) = arr::<i32>(1000);
        assert_eq!(a.push(-5).unwrap(), 0);
        assert_eq!(a.push(7).unwrap(), 1);
        assert_eq!(a.get(0).unwrap(), -5);
        a.set(0, 99).unwrap();
        assert_eq!(a.get(0).unwrap(), 99);
        assert_eq!(a.len(), 2);
        assert!(a.get(2).is_err());
    }

    #[test]
    fn growth_spans_segments() {
        let (_d, a) = arr::<u64>(100); // tiny segments to force several files
        for i in 0..1000u64 {
            a.set(i, i * 3).unwrap();
        }
        assert_eq!(a.segment_count(), 10);
        for i in (0..1000u64).step_by(97) {
            assert_eq!(a.get(i).unwrap(), i * 3);
        }
    }

    #[test]
    fn sparse_set_reads_default_in_holes() {
        let (_d, a) = arr::<u32>(50);
        a.set(120, 7).unwrap();
        assert_eq!(a.len(), 121);
        assert_eq!(a.get(0).unwrap(), 0);
        assert_eq!(a.get(119).unwrap(), 0);
        assert_eq!(a.get(120).unwrap(), 7);
    }

    #[test]
    fn resize_extends_with_defaults() {
        let (_d, a) = arr::<u8>(64);
        a.resize(200).unwrap();
        assert_eq!(a.len(), 200);
        assert_eq!(a.get(199).unwrap(), 0);
        // Shrinking is not supported: resize to smaller is a no-op.
        a.resize(10).unwrap();
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn reopen_recovers_contents_and_length() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        {
            let a: SegArray<i64> =
                SegArray::open(cache.clone(), dir.path().join("arr"), "t", 128).unwrap();
            for i in 0..300 {
                a.push(i * i).unwrap();
            }
            a.sync().unwrap();
        }
        let a: SegArray<i64> = SegArray::open(cache, dir.path().join("arr"), "t", 128).unwrap();
        assert_eq!(a.len(), 300);
        assert_eq!(a.segment_count(), 3);
        assert_eq!(a.get(17).unwrap(), 17 * 17);
        assert_eq!(a.get(299).unwrap(), 299 * 299);
    }

    #[test]
    fn set_range_matches_per_element_sets_across_segments() {
        let (_d, bulk) = arr::<u32>(100);
        let (_d2, single) = arr::<u32>(100);
        let values: Vec<u32> = (0..1500u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        // Starts mid-segment, crosses 15 segment boundaries and pages.
        bulk.set_range(37, &values).unwrap();
        for (i, &v) in values.iter().enumerate() {
            single.set(37 + i as u64, v).unwrap();
        }
        assert_eq!(bulk.len(), single.len());
        assert_eq!(bulk.segment_count(), single.segment_count());
        assert_eq!(
            bulk.get_range(0, 2000).unwrap(),
            single.get_range(0, 2000).unwrap()
        );
        assert_eq!(bulk.get(36).unwrap(), 0);
        assert_eq!(bulk.get(37 + 1499).unwrap(), values[1499]);
        bulk.set_range(5000, &[]).unwrap();
        assert_eq!(bulk.len(), 37 + 1500, "an empty write does not grow");
    }

    #[test]
    fn leftover_tmp_from_an_interrupted_sync_is_ignored() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(64 * PAGE_SIZE);
        let path = dir.path().join("arr");
        {
            let a: SegArray<u32> = SegArray::open(cache.clone(), &path, "t", 64).unwrap();
            a.set_range(0, &[1, 2, 3, 4, 5]).unwrap();
            a.sync().unwrap();
            assert!(!path.join("t.len.tmp").exists());
        }
        for tmp_len in [0, 3, 8, 20] {
            // A crash inside the next sync: a tmp of any length beside the
            // last complete sidecar.
            std::fs::write(path.join("t.len.tmp"), vec![0xAB; tmp_len]).unwrap();
            let a: SegArray<u32> = SegArray::open(cache.clone(), &path, "t", 64).unwrap();
            assert_eq!(a.len(), 5, "tmp of {tmp_len} bytes");
            assert_eq!(a.get_range(0, 5).unwrap(), vec![1, 2, 3, 4, 5]);
        }
    }
}

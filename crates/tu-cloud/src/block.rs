//! The fast tier: a directory-backed block store modelling AWS EBS.
//!
//! Files are byte-addressable (random-access reads, appends) and charged
//! per-request against the EBS latency model. The store tracks its total
//! occupied bytes because the dynamic-size-control experiments (Figures 18a
//! and 19) constrain exactly this number.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tu_common::lockdep::{self, Mutex};

use crate::cost::{CostClock, LatencyModel, RangesRead, StorageStats, TierCounters};
use tu_common::{Error, Result};

/// Directory-backed fast block storage with an EBS-like cost model.
pub struct BlockStore {
    root: PathBuf,
    model: LatencyModel,
    clock: CostClock,
    used_bytes: AtomicU64,
    stats: Stats,
    obs: TierCounters,
    /// Mirrors `used_bytes` into the registry so the cost ledger can price
    /// the capacity term of Eq. 3 from a snapshot alone.
    used_gauge: &'static tu_obs::Gauge,
    /// Files that have been read at least once (first-read penalty applies
    /// to the others), plus the set of known files and their sizes.
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    sizes: HashMap<String, u64>,
    read_before: HashSet<String>,
}

#[derive(Default)]
struct Stats {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl BlockStore {
    /// Opens the store rooted at `root`, creating the directory and indexing
    /// any files already present (recovery path).
    pub fn open(root: impl Into<PathBuf>, model: LatencyModel, clock: CostClock) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let store = BlockStore {
            root,
            model,
            clock,
            used_bytes: AtomicU64::new(0),
            stats: Stats::default(),
            obs: TierCounters::for_tier("block"),
            used_gauge: tu_obs::gauge("cloud.block.used_bytes"),
            state: Mutex::new(&lockdep::CLOUD_BLOCK_STATE, State::default()),
        };
        store.reindex()?;
        Ok(store)
    }

    fn sync_used_gauge(&self) {
        self.used_gauge
            .set(self.used_bytes.load(Ordering::Relaxed) as i64);
    }

    fn reindex(&self) -> Result<()> {
        // Walk the tree before taking the lock: directory I/O under
        // `state` would stall every concurrent reader/writer for the
        // duration of the scan.
        let mut sizes = HashMap::new();
        let mut total = 0;
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let len = entry.metadata()?.len();
                    total += len;
                    sizes.insert(self.rel_name(&path), len);
                }
            }
        }
        self.state.lock().sizes = sizes;
        self.used_bytes.store(total, Ordering::Relaxed);
        self.sync_used_gauge();
        Ok(())
    }

    fn rel_name(&self, path: &Path) -> String {
        // Paths reaching here come from walking `self.root`, so the strip
        // always succeeds; fall back to the full path rather than panic.
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned()
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Writes (or replaces) an entire file.
    pub fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        let path = self.path_of(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(&path, data)?;
        self.account_write(name, data.len() as u64);
        Ok(())
    }

    /// Replaces a small file whole ([`tu_common::fs::replace_file`]: a
    /// crash leaves the old contents or the new ones, never a short file),
    /// priced like [`BlockStore::write_file`].
    pub fn replace_file(&self, name: &str, data: &[u8]) -> Result<()> {
        let path = self.path_of(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        tu_common::fs::replace_file(&path, data)?;
        self.account_write(name, data.len() as u64);
        Ok(())
    }

    /// Books a whole-file write of `len` bytes to `name`.
    fn account_write(&self, name: &str, len: u64) {
        let mut state = self.state.lock();
        let old = state.sizes.insert(name.to_string(), len);
        // Rewriting a file invalidates its warm-read state: the next read
        // pays the first-read penalty again, as it would on a fresh EBS
        // block. Without this an overwrite-then-read workload under-counts
        // modelled latency (no request/byte counters are affected).
        state.read_before.remove(name);
        drop(state);
        if let Some(old) = old {
            self.used_bytes.fetch_sub(old, Ordering::Relaxed);
        }
        self.used_bytes.fetch_add(len, Ordering::Relaxed);
        self.sync_used_gauge();
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
        self.obs.record_write(len);
        self.clock.charge(self.model.write_ns(len));
    }

    /// Appends to a file, creating it if absent. Returns the offset at which
    /// the data was written. Used by the write-ahead log.
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64> {
        let path = self.path_of(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        let offset = f.seek(SeekFrom::End(0))?;
        f.write_all(data)?;
        let mut state = self.state.lock();
        *state.sizes.entry(name.to_string()).or_insert(0) += data.len() as u64;
        drop(state);
        self.used_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.sync_used_gauge();
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.obs.record_write(data.len() as u64);
        self.clock.charge(self.model.write_ns(data.len() as u64));
        Ok(offset)
    }

    /// Reads an entire file.
    pub fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        let data = fs::read(self.path_of(name)).map_err(|e| self.map_nf(e, name))?;
        self.charge_read(name, data.len() as u64);
        Ok(data)
    }

    /// Reads `len` bytes at `offset`. Short reads at end-of-file return the
    /// available prefix (callers that require exact lengths check).
    pub fn read_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = File::open(self.path_of(name)).map_err(|e| self.map_nf(e, name))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        self.charge_read(name, filled as u64);
        Ok(buf)
    }

    /// Reads the wanted `(offset, len)` ranges (sorted by offset) with the
    /// requests this tier's latency model prices cheapest
    /// ([`LatencyModel::plan_requests`]). Each request issued is billed its
    /// whole covering span, gaps included, as one request; only the wanted
    /// ranges are materialised. Ranges past end-of-file yield their
    /// available prefix; an empty range list issues no request at all.
    pub fn read_ranges(&self, name: &str, ranges: &[(u64, usize)]) -> Result<RangesRead> {
        if ranges.is_empty() {
            return Ok(RangesRead::default());
        }
        let mut f = File::open(self.path_of(name)).map_err(|e| self.map_nf(e, name))?;
        let read = read_planned(&mut f, &self.model, ranges)?;
        for request in &read.requests {
            self.charge_read(name, request.len);
        }
        Ok(read)
    }

    fn charge_read(&self, name: &str, len: u64) {
        let first = {
            let mut state = self.state.lock();
            state.read_before.insert(name.to_string())
        };
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
        self.obs.record_read(len, first);
        self.clock.charge(self.model.read_ns(len, first));
    }

    fn map_nf(&self, e: std::io::Error, name: &str) -> Error {
        if e.kind() == std::io::ErrorKind::NotFound {
            Error::not_found(format!("block file {name}"))
        } else {
            Error::Io(e)
        }
    }

    /// Deletes a file. Deleting a missing file is an error.
    pub fn delete(&self, name: &str) -> Result<()> {
        fs::remove_file(self.path_of(name)).map_err(|e| self.map_nf(e, name))?;
        let mut state = self.state.lock();
        if let Some(len) = state.sizes.remove(name) {
            self.used_bytes.fetch_sub(len, Ordering::Relaxed);
        }
        state.read_before.remove(name);
        drop(state);
        self.sync_used_gauge();
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.obs.record_delete();
        Ok(())
    }

    /// Size of one file in bytes.
    pub fn len(&self, name: &str) -> Result<u64> {
        self.state
            .lock()
            .sizes
            .get(name)
            .copied()
            .ok_or_else(|| Error::not_found(format!("block file {name}")))
    }

    /// True if the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.state.lock().sizes.contains_key(name)
    }

    /// All file names with the given prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        let state = self.state.lock();
        let mut out: Vec<String> = state
            .sizes
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Total bytes currently stored — the "EBS usage" the dynamic size
    /// controller constrains.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            get_requests: self.stats.gets.load(Ordering::Relaxed),
            put_requests: self.stats.puts.load(Ordering::Relaxed),
            delete_requests: self.stats.deletes.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// Plans the requests for `ranges` under `model` and reads the wanted
/// bytes from `f`. The returned requests carry the span each one
/// transfers, clipped at end-of-file — what the caller bills. Shared by
/// the range readers of both tiers.
pub(crate) fn read_planned(
    f: &mut File,
    model: &LatencyModel,
    ranges: &[(u64, usize)],
) -> Result<RangesRead> {
    if ranges.windows(2).any(|w| w[1].0 < w[0].0) {
        return Err(Error::invalid("read ranges must be sorted by offset"));
    }
    let file_len = f.metadata()?.len();
    let mut requests = model.plan_requests(ranges);
    for r in &mut requests {
        r.len = r.end().min(file_len).saturating_sub(r.offset);
    }
    let mut parts = Vec::with_capacity(ranges.len());
    let mut pos = None;
    for &(offset, len) in ranges {
        let avail = file_len.saturating_sub(offset).min(len as u64);
        let mut buf = vec![0u8; avail as usize];
        if pos != Some(offset) {
            f.seek(SeekFrom::Start(offset))?;
        }
        f.read_exact(&mut buf)?;
        pos = Some(offset + avail);
        parts.push(buf);
    }
    Ok(RangesRead { parts, requests })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LatencyMode;

    fn store() -> (tempfile::TempDir, BlockStore) {
        let dir = tempfile::tempdir().unwrap();
        let s = BlockStore::open(
            dir.path().join("blk"),
            LatencyModel::ebs(),
            CostClock::new(LatencyMode::Virtual),
        )
        .unwrap();
        (dir, s)
    }

    #[test]
    fn write_read_round_trip() {
        let (_d, s) = store();
        s.write_file("part/sst-1", b"abcdef").unwrap();
        assert_eq!(s.read_file("part/sst-1").unwrap(), b"abcdef");
        assert_eq!(s.len("part/sst-1").unwrap(), 6);
        assert!(s.exists("part/sst-1"));
        assert_eq!(s.used_bytes(), 6);
    }

    #[test]
    fn read_range_handles_offsets_and_eof() {
        let (_d, s) = store();
        s.write_file("f", b"0123456789").unwrap();
        assert_eq!(s.read_range("f", 2, 3).unwrap(), b"234");
        assert_eq!(s.read_range("f", 8, 10).unwrap(), b"89");
        assert_eq!(s.read_range("f", 20, 4).unwrap(), b"");
    }

    #[test]
    fn ranges_read_bills_the_covering_span_of_each_request() {
        let (_d, s) = store();
        let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        s.write_file("f", &data).unwrap();
        let before = s.stats();
        // Two ranges 92 bytes apart share a request (the gap is billed,
        // not returned); the third sits ~90 KB on — past what one EBS
        // request latency buys — and gets its own.
        let read = s.read_ranges("f", &[(0, 4), (96, 4), (90_000, 8)]).unwrap();
        assert_eq!(
            read.parts,
            vec![
                data[0..4].to_vec(),
                data[96..100].to_vec(),
                data[90_000..90_008].to_vec()
            ]
        );
        let spans: Vec<(u64, u64)> = read.requests.iter().map(|r| (r.offset, r.len)).collect();
        assert_eq!(spans, vec![(0, 100), (90_000, 8)]);
        assert_eq!(read.requests[0].ranges, 0..2);
        let d = s.stats().since(&before);
        assert_eq!(d.get_requests, 2);
        assert_eq!(d.bytes_read, 108);
        // Past-EOF ranges degrade to their available prefix and are billed
        // what exists; empty input is free; unsorted input is refused.
        let tail = s.read_ranges("f", &[(99_998, 8), (100_030, 4)]).unwrap();
        assert_eq!(tail.parts, vec![data[99_998..].to_vec(), Vec::new()]);
        assert_eq!(tail.requests.len(), 1);
        assert_eq!(tail.requests[0].len, 2);
        assert!(s.read_ranges("f", &[]).unwrap().parts.is_empty());
        assert_eq!(s.stats().since(&before).get_requests, 3);
        assert!(s.read_ranges("f", &[(8, 4), (0, 4)]).is_err());
    }

    #[test]
    fn append_accumulates_and_returns_offset() {
        let (_d, s) = store();
        assert_eq!(s.append("wal", b"aaa").unwrap(), 0);
        assert_eq!(s.append("wal", b"bb").unwrap(), 3);
        assert_eq!(s.read_file("wal").unwrap(), b"aaabb");
        assert_eq!(s.used_bytes(), 5);
    }

    #[test]
    fn overwrite_updates_usage() {
        let (_d, s) = store();
        s.write_file("f", &[0u8; 100]).unwrap();
        s.write_file("f", &[0u8; 40]).unwrap();
        assert_eq!(s.used_bytes(), 40);
    }

    #[test]
    fn replace_is_priced_like_a_write_and_leaves_no_temporary() {
        let (d, s) = store();
        s.write_file("sub/meta", &[0u8; 100]).unwrap();
        let before = s.stats();
        s.replace_file("sub/meta", b"new").unwrap();
        s.replace_file("fresh", b"abcd").unwrap();
        assert_eq!(s.read_file("sub/meta").unwrap(), b"new");
        assert_eq!(s.used_bytes(), 7);
        let delta = s.stats().since(&before);
        assert_eq!((delta.put_requests, delta.bytes_written), (2, 7));
        assert_eq!(s.list_prefix(""), vec!["fresh", "sub/meta"]);
        assert!(!d.path().join("blk/sub/meta.tmp").exists());
    }

    #[test]
    fn delete_frees_usage_and_missing_is_not_found() {
        let (_d, s) = store();
        s.write_file("f", b"xyz").unwrap();
        s.delete("f").unwrap();
        assert_eq!(s.used_bytes(), 0);
        assert!(!s.exists("f"));
        assert!(s.read_file("f").unwrap_err().is_not_found());
        assert!(s.delete("f").unwrap_err().is_not_found());
    }

    #[test]
    fn list_prefix_is_sorted_and_filtered() {
        let (_d, s) = store();
        for n in ["l0/b", "l0/a", "l1/c"] {
            s.write_file(n, b"x").unwrap();
        }
        assert_eq!(s.list_prefix("l0/"), vec!["l0/a", "l0/b"]);
        assert_eq!(s.list_prefix(""), vec!["l0/a", "l0/b", "l1/c"]);
    }

    #[test]
    fn reopen_reindexes_existing_files() {
        let dir = tempfile::tempdir().unwrap();
        let clock = CostClock::new(LatencyMode::Off);
        {
            let s = BlockStore::open(dir.path().join("blk"), LatencyModel::ebs(), clock.clone())
                .unwrap();
            s.write_file("sub/keep", b"abcd").unwrap();
        }
        let s = BlockStore::open(dir.path().join("blk"), LatencyModel::ebs(), clock).unwrap();
        assert_eq!(s.used_bytes(), 4);
        assert_eq!(s.read_file("sub/keep").unwrap(), b"abcd");
    }

    #[test]
    fn first_read_charges_more_than_second() {
        let (_d, s) = store();
        s.write_file("f", &[1u8; 1024]).unwrap();
        let before = s.stats();
        let t0 = {
            let start = clock_of(&s);
            s.read_file("f").unwrap();
            clock_of(&s) - start
        };
        let t1 = {
            let start = clock_of(&s);
            s.read_file("f").unwrap();
            clock_of(&s) - start
        };
        assert!(t0 > t1, "first read {t0}ns should exceed second {t1}ns");
        let delta = s.stats().since(&before);
        assert_eq!(delta.get_requests, 2);
        assert_eq!(delta.bytes_read, 2048);
    }

    fn clock_of(s: &BlockStore) -> u64 {
        s.clock.virtual_ns()
    }

    #[test]
    fn overwrite_resets_first_read_penalty() {
        // Regression: rewriting a file must drop its warm-read state so the
        // next read is charged as a first (cold) read again.
        let (_d, s) = store();
        s.write_file("f", &[0u8; 512]).unwrap();
        s.read_file("f").unwrap();
        let t0 = clock_of(&s);
        s.read_file("f").unwrap();
        let warm = clock_of(&s) - t0;
        s.write_file("f", &[1u8; 512]).unwrap();
        let t1 = clock_of(&s);
        s.read_file("f").unwrap();
        let cold = clock_of(&s) - t1;
        assert!(cold > warm, "cold {cold}ns must exceed warm {warm}ns");
    }

    #[test]
    fn append_keeps_warm_read_state() {
        // Appending extends the file without rewriting the already-read
        // prefix, so warm-read state is retained (the WAL append path must
        // not re-trigger the penalty on every replay read).
        let (_d, s) = store();
        s.append("wal", &[0u8; 256]).unwrap();
        s.read_file("wal").unwrap(); // cold
        s.append("wal", &[0u8; 256]).unwrap();
        let t0 = clock_of(&s);
        s.read_file("wal").unwrap();
        let after_append = clock_of(&s) - t0;
        assert_eq!(after_append, LatencyModel::ebs().read_ns(512, false));
    }
}

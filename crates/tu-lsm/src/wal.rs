//! Segmented write-ahead log with sequence-ID checkpoints (§3.3 "Logging").
//!
//! The paper disables LevelDB's log and keeps its own: inserted samples
//! are logged under their series/group sequence ID; when a chunk reaches
//! the LSM-tree a *checkpoint* record declares all earlier records of that
//! stream obsolete. Where the paper purges by rewriting the log, this one
//! is cut into numbered segment files and obsolete segments are deleted
//! whole: no scan, no rewrite.
//!
//! Record framing: `[u32 LE length][u32 LE masked crc32c][body]`, body
//! `[u8 checkpoint][u64 LE stream][u64 LE seq][payload]`. The payload
//! encoding is the caller's business. A data record may stand for a *run*
//! of consecutive sequence numbers ending at `seq` (the engine logs one
//! record per series run); this module only needs `seq`, the highest one.
//!
//! # Segments
//!
//! Segment `n > 0` is the file `<name>.<n as 8 digits>`; a file called
//! exactly `<name>` is a log written before segmentation and replays as
//! the oldest segment. Waves append to the *active* segment, which is
//! sealed once it holds `SEGMENT_BYTES`; every [`Wal`] instance starts a
//! fresh one, so files of an earlier incarnation are never appended to.
//!
//! Per segment the log keeps each stream's highest data sequence (a
//! *pin*). A checkpoint releases the pins at or below it, and
//! [`Wal::truncate`] deletes the longest prefix of segments left without
//! pins. A stream's records always precede its checkpoint in the log, so
//! no record outside the deleted prefix can depend on a checkpoint inside
//! it. When the log still exceeds the caller's size limit because streams
//! that have gone quiet pin the oldest segment, their few live records are
//! re-appended at the tail (order within a stream is kept: a quiet stream
//! has nothing newer) and the segment goes like any other.
//!
//! # Group commit
//!
//! Concurrent writers enqueue records into one shared buffer; each append
//! hands back a monotonically increasing *ticket*. Durability is a wave:
//! [`Wal::flush`] elects the first arriving thread as the **leader**, which
//! swaps the whole buffer out and performs one physical append to the fast
//! tier while followers park on a condvar until the wave that covers their
//! ticket lands. One fsync therefore pays for every record enqueued by
//! every concurrent writer since the previous wave — the classic group
//! commit amortisation. [`Wal::nudge`] is the opportunistic variant used by
//! the engine's batching threshold: if a leader is already in flight it
//! returns immediately instead of parking, so background flushing never
//! stalls the ingest workers. The leader also owns the segment files:
//! replay and truncation claim leadership, so neither races an append.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use tu_common::lockdep::{self, Condvar, Mutex, MutexGuard};

use tu_cloud::block::BlockStore;
use tu_common::{Error, Result};
use tu_compress::crc;

/// The active segment is sealed once it holds this much. Small against the
/// engine's purge threshold so truncation follows the checkpoints closely;
/// a wave is never split, so a segment may end up larger.
const SEGMENT_BYTES: u64 = 1 << 20;

/// [`Wal::recover`] holds the log in memory between its two passes when
/// it is no larger than this; a longer log is read twice instead, one
/// segment at a time.
const RECOVERY_CACHE_BYTES: u64 = 16 << 20;

/// Frame header: length + masked CRC.
const HEADER: usize = 8;
/// Fixed part of a record body: checkpoint flag, stream, sequence.
const BODY_FIXED: usize = 17;

/// A parsed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Series or group the record belongs to.
    pub stream: u64,
    /// Per-stream sequence number, increasing.
    pub seq: u64,
    /// True for checkpoint records: all records of `stream` with
    /// `seq <= this.seq` are obsolete.
    pub checkpoint: bool,
    /// Opaque payload (empty for checkpoints).
    pub payload: Vec<u8>,
}

/// A record borrowed from the segment being replayed.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    pub stream: u64,
    pub seq: u64,
    pub checkpoint: bool,
    pub payload: &'a [u8],
}

impl RecordRef<'_> {
    pub fn to_owned(&self) -> WalRecord {
        WalRecord {
            stream: self.stream,
            seq: self.seq,
            checkpoint: self.checkpoint,
            payload: self.payload.to_vec(),
        }
    }
}

/// Appends one framed record to `buf`.
fn encode_into(buf: &mut Vec<u8>, checkpoint: bool, stream: u64, seq: u64, payload: &[u8]) {
    let mut fixed = [0u8; BODY_FIXED];
    fixed[0] = checkpoint as u8;
    fixed[1..9].copy_from_slice(&stream.to_le_bytes());
    fixed[9..].copy_from_slice(&seq.to_le_bytes());
    let sum = crc::mask(crc::extend(crc::crc32c(&fixed), payload));
    buf.reserve(HEADER + BODY_FIXED + payload.len());
    buf.extend_from_slice(&((BODY_FIXED + payload.len()) as u32).to_le_bytes());
    buf.extend_from_slice(&sum.to_le_bytes());
    buf.extend_from_slice(&fixed);
    buf.extend_from_slice(payload);
}

/// Parses the frame at `off`: the record and the offset of the next one,
/// or `None` for a torn tail (a partial or checksum-failing final record,
/// e.g. from a crash mid-append). A bad record with intact bytes after it
/// is corruption. `verify` is off only for bytes this process just framed.
fn frame_at(bytes: &[u8], off: usize, verify: bool) -> Result<Option<(RecordRef<'_>, usize)>> {
    let Some(header) = bytes.get(off..off + HEADER) else {
        return Ok(None);
    };
    let len = tu_common::bytes::u32_le(&header[..4]) as usize;
    let start = off + HEADER;
    let Some(body) = bytes.get(start..start.saturating_add(len)) else {
        return Ok(None);
    };
    if verify && crc::crc32c(body) != crc::unmask(tu_common::bytes::u32_le(&header[4..])) {
        if start + len == bytes.len() {
            return Ok(None);
        }
        return Err(Error::corruption("wal record checksum mismatch"));
    }
    if len < BODY_FIXED {
        return Err(Error::corruption("wal record body truncated"));
    }
    let record = RecordRef {
        checkpoint: body[0] != 0,
        stream: tu_common::bytes::u64_le(&body[1..9]),
        seq: tu_common::bytes::u64_le(&body[9..BODY_FIXED]),
        payload: &body[BODY_FIXED..],
    };
    Ok(Some((record, start + len)))
}

/// Queued records waiting for the next group-commit wave.
#[derive(Default)]
struct PendingBuf {
    buf: Vec<u8>,
    records: u64,
    /// Ticket of the newest queued record; monotonically increasing.
    ticket: u64,
}

/// A sealed segment: its size and the streams that still pin it.
struct Segment {
    id: u64,
    bytes: u64,
    /// `(stream, highest data sequence)`, sorted by stream. A released
    /// pin keeps its slot with sequence 0 (real sequences start at 1).
    pins: Vec<(u64, u64)>,
    pinned: usize,
}

impl Segment {
    fn pin_of(&self, stream: u64) -> Option<usize> {
        let i = self.pins.binary_search_by_key(&stream, |p| p.0).ok()?;
        (self.pins[i].1 != 0).then_some(i)
    }

    /// Applies a checkpoint; true if `stream` still pins the segment.
    fn release(&mut self, stream: u64, seq: u64) -> bool {
        match self.pin_of(stream) {
            Some(i) if self.pins[i].1 <= seq => {
                self.pins[i].1 = 0;
                self.pinned -= 1;
                false
            }
            Some(_) => true,
            None => false,
        }
    }
}

/// Which segment files exist and which streams pin them. Changed only by
/// the wave leader, under the commit lock.
#[derive(Default)]
struct Log {
    sealed: VecDeque<Segment>,
    active_id: u64,
    active_bytes: u64,
    active_pins: HashMap<u64, u64>,
    /// For a stream that has pins left after a checkpoint, the highest
    /// such checkpoint: the part of its pinned records already covered.
    marks: HashMap<u64, u64>,
    /// Segments of an earlier incarnation are listed but their pins are
    /// not rebuilt yet; the first wave or truncation scans them first.
    unscanned: bool,
}

impl Log {
    fn observe(&mut self, record: &RecordRef<'_>) {
        let (stream, seq) = (record.stream, record.seq);
        if !record.checkpoint {
            let pin = self.active_pins.entry(stream).or_insert(0);
            *pin = (*pin).max(seq);
            return;
        }
        let mut pinned = false;
        for segment in &mut self.sealed {
            pinned |= segment.release(stream, seq);
        }
        match self.active_pins.get(&stream) {
            Some(&pin) if pin <= seq => {
                self.active_pins.remove(&stream);
            }
            Some(_) => pinned = true,
            None => {}
        }
        if pinned {
            let mark = self.marks.entry(stream).or_insert(0);
            *mark = (*mark).max(seq);
        } else {
            self.marks.remove(&stream);
        }
    }

    fn seal_active(&mut self) {
        let mut pins: Vec<(u64, u64)> = self.active_pins.drain().collect();
        pins.sort_unstable();
        self.sealed.push_back(Segment {
            id: self.active_id,
            bytes: self.active_bytes,
            pinned: pins.len(),
            pins,
        });
        self.active_id += 1;
        self.active_bytes = 0;
    }

    /// Removes the longest prefix of segments no stream pins and returns
    /// their ids; the active segment goes too once nothing is left live.
    fn take_obsolete_prefix(&mut self) -> Vec<u64> {
        let mut ids = Vec::new();
        while self.sealed.front().is_some_and(|s| s.pinned == 0) {
            ids.extend(self.sealed.pop_front().map(|s| s.id));
        }
        if self.sealed.is_empty() && self.active_pins.is_empty() && self.active_bytes > 0 {
            ids.push(self.active_id);
            self.active_id += 1;
            self.active_bytes = 0;
        }
        ids
    }

    /// Ids of the segment files, oldest first.
    fn file_ids(&self) -> Vec<u64> {
        let active = (self.active_bytes > 0).then_some(self.active_id);
        self.sealed.iter().map(|s| s.id).chain(active).collect()
    }

    fn file_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active_bytes > 0)
    }

    fn bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active_bytes
    }

    /// The highest pin `stream` has in a segment younger than the oldest
    /// (0 for none).
    fn pin_behind_front(&self, stream: u64) -> u64 {
        let sealed = self.sealed.iter().skip(1);
        let pins = sealed.filter_map(|s| s.pin_of(stream).map(|i| s.pins[i].1));
        pins.chain(self.active_pins.get(&stream).copied())
            .max()
            .unwrap_or(0)
    }
}

/// Shared commit state guarded by a std mutex so followers can park on
/// the companion [`Condvar`].
#[derive(Default)]
struct CommitState {
    /// Highest ticket consumed by a finished wave (durable on success).
    durable: u64,
    /// Highest ticket consumed by a *failed* wave — those records are
    /// gone from the buffer and will never become durable, so waiters
    /// covering them must see an error rather than a false success.
    lost: u64,
    /// True while a leader (a wave, replay or truncation) owns the files.
    leader: bool,
    log: Log,
}

/// A write-ahead log stored as append-only segment files on the fast tier.
pub struct Wal {
    store: Arc<BlockStore>,
    name: String,
    /// Buffered records waiting for the next append; batching keeps the
    /// per-sample logging cost off the insert path.
    pending: Mutex<PendingBuf>,
    /// Group-commit wave state, with the [`Condvar`] followers park on.
    commit: Mutex<CommitState>,
    wave_done: Condvar,
    obs_appends: tu_obs::TracedCounter,
    obs_flushed_bytes: tu_obs::TracedCounter,
    obs_gc_batches: tu_obs::TracedCounter,
    obs_gc_records: tu_obs::TracedCounter,
    obs_gc_fsyncs: tu_obs::TracedCounter,
    obs_segments: &'static tu_obs::Gauge,
    obs_segments_deleted: tu_obs::TracedCounter,
}

impl Wal {
    /// Opens (or creates) the log `name` on `store`. Segment files found
    /// there are kept for replay; new records go to a fresh segment.
    pub fn open(store: Arc<BlockStore>, name: impl Into<String>) -> Self {
        let name = name.into();
        let mut found: Vec<(u64, u64)> = store
            .list_prefix(&name)
            .iter()
            .filter_map(|file| {
                let id = match file.strip_prefix(name.as_str())? {
                    "" => 0,
                    suffix => suffix.strip_prefix('.')?.parse().ok()?,
                };
                Some((id, store.len(file).unwrap_or(0)))
            })
            .collect();
        found.sort_unstable();
        let log = Log {
            active_id: found.last().map_or(1, |&(id, _)| id + 1),
            unscanned: !found.is_empty(),
            sealed: found
                .into_iter()
                .map(|(id, bytes)| Segment {
                    id,
                    bytes,
                    pins: Vec::new(),
                    pinned: 0,
                })
                .collect(),
            ..Log::default()
        };
        let commit = CommitState {
            log,
            ..CommitState::default()
        };
        Wal {
            store,
            name,
            pending: Mutex::new(&lockdep::LSM_WAL_PENDING, PendingBuf::default()),
            commit: Mutex::new(&lockdep::LSM_WAL_COMMIT, commit),
            wave_done: Condvar::new(),
            obs_appends: tu_obs::traced("lsm.wal.append_records"),
            obs_flushed_bytes: tu_obs::traced("lsm.wal.flushed_bytes"),
            obs_gc_batches: tu_obs::traced("lsm.wal.group_commit.batches"),
            obs_gc_records: tu_obs::traced("lsm.wal.group_commit.records"),
            obs_gc_fsyncs: tu_obs::traced("lsm.wal.group_commit.fsyncs"),
            obs_segments: tu_obs::gauge("lsm.wal.segments"),
            obs_segments_deleted: tu_obs::traced("lsm.wal.segments_deleted"),
        }
    }

    fn segment_name(&self, id: u64) -> String {
        match id {
            0 => self.name.clone(),
            _ => format!("{}.{id:08}", self.name),
        }
    }

    /// Frames a record straight into the shared buffer. Returns its
    /// ticket and the bytes now queued.
    fn enqueue(&self, checkpoint: bool, stream: u64, seq: u64, payload: &[u8]) -> (u64, usize) {
        self.obs_appends.inc();
        let mut pending = self.pending.lock();
        encode_into(&mut pending.buf, checkpoint, stream, seq, payload);
        pending.records += 1;
        pending.ticket += 1;
        (pending.ticket, pending.buf.len())
    }

    /// Queues a record and returns its commit ticket; pass it to
    /// [`Wal::commit_up_to`] (or just call [`Wal::flush`]) to persist.
    pub fn append(&self, record: &WalRecord) -> u64 {
        let (ticket, _) = self.enqueue(
            record.checkpoint,
            record.stream,
            record.seq,
            &record.payload,
        );
        ticket
    }

    /// Queues a data record whose newest sequence number is `seq`.
    /// Returns the bytes now waiting for a wave, so the caller can bound
    /// the buffer by nudging.
    pub fn append_data(&self, stream: u64, seq: u64, payload: &[u8]) -> usize {
        self.enqueue(false, stream, seq, payload).1
    }

    /// Queues a checkpoint: records of `stream` up to `seq` are obsolete.
    pub fn append_checkpoint(&self, stream: u64, seq: u64) {
        self.enqueue(true, stream, seq, &[]);
    }

    /// The wave-state guard; poisoning is swallowed by the lockdep
    /// wrapper (the state is coherent after every statement that holds
    /// it), so this is just a named acquisition point.
    fn lock_commit(&self) -> MutexGuard<'_, CommitState> {
        self.commit.lock()
    }

    /// Runs one group-commit wave: swaps out everything queued so far,
    /// appends it to the active segment with a single store write, and
    /// publishes the new durable watermark. The caller must hold
    /// leadership.
    fn wave(&self) -> Result<()> {
        let (batch, records, upto) = {
            let mut pending = self.pending.lock();
            let batch = std::mem::take(&mut pending.buf);
            let records = std::mem::take(&mut pending.records);
            (batch, records, pending.ticket)
        };
        let result = if batch.is_empty() {
            Ok(())
        } else {
            self.write_batch(&batch, records)
        };
        let mut commit = self.lock_commit();
        commit.durable = commit.durable.max(upto);
        if result.is_err() {
            // The batch was consumed but never landed; make waiters fail.
            commit.lost = commit.lost.max(upto);
        }
        result
    }

    fn write_batch(&self, batch: &[u8], records: u64) -> Result<()> {
        self.ensure_scanned()?;
        let active = self.lock_commit().log.active_id;
        self.obs_gc_batches.inc();
        self.obs_gc_records.add(records);
        self.obs_flushed_bytes.add(batch.len() as u64);
        self.store.append(&self.segment_name(active), batch)?;
        self.obs_gc_fsyncs.inc();
        let mut commit = self.lock_commit();
        let log = &mut commit.log;
        log.active_bytes += batch.len() as u64;
        let mut off = 0;
        while let Some((record, next)) = frame_at(batch, off, false)? {
            log.observe(&record);
            off = next;
        }
        if log.active_bytes >= SEGMENT_BYTES {
            log.seal_active();
        }
        self.obs_segments.set(log.file_count() as i64);
        Ok(())
    }

    /// Persists all queued records. Safe to call from many threads at
    /// once: one becomes the leader and writes the whole batch, the rest
    /// wait for the wave covering their records.
    pub fn flush(&self) -> Result<()> {
        let target = self.pending.lock().ticket;
        self.commit_up_to(target)
    }

    /// Blocks until every record ticketed `<= target` is durable (or was
    /// consumed by a failed wave, which surfaces as an error).
    pub fn commit_up_to(&self, target: u64) -> Result<()> {
        let mut commit = self.lock_commit();
        loop {
            if commit.durable >= target {
                if commit.lost >= target && target > 0 {
                    return Err(Error::Closed(
                        "wal records were dropped by a failed group commit".into(),
                    ));
                }
                return Ok(());
            }
            if commit.leader {
                commit = self.wave_done.wait(commit);
                continue;
            }
            commit.leader = true;
            drop(commit);
            let result = self.wave();
            commit = self.lock_commit();
            commit.leader = false;
            self.wave_done.notify_all();
            result?;
        }
    }

    /// Opportunistic flush for the engine's batching threshold: if a
    /// leader is already writing, returns immediately — the queued records
    /// ride one of the next waves. Never parks the calling writer.
    pub fn nudge(&self) -> Result<()> {
        {
            let mut commit = self.lock_commit();
            if commit.leader {
                return Ok(());
            }
            commit.leader = true;
        }
        let result = self.wave();
        self.release_leadership();
        result
    }

    /// Claims wave leadership, waiting out any wave in flight, so the
    /// caller can read, delete or append to the segment files itself.
    fn claim_leadership(&self) {
        let mut commit = self.lock_commit();
        while commit.leader {
            commit = self.wave_done.wait(commit);
        }
        commit.leader = true;
    }

    fn release_leadership(&self) {
        let mut commit = self.lock_commit();
        commit.leader = false;
        self.wave_done.notify_all();
    }

    /// Runs `f` holding leadership.
    fn as_leader<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.claim_leadership();
        let result = f();
        self.release_leadership();
        result
    }

    /// Streams every durable record to `visit`, oldest first, one segment
    /// in memory at a time. A torn tail (a crash mid-append) is tolerated
    /// in the newest segment only: it ends the replay there and is cut
    /// off, so later segments never follow garbage. Anywhere else a bad
    /// record is an error.
    pub fn for_each(&self, mut visit: impl FnMut(RecordRef<'_>) -> Result<()>) -> Result<()> {
        self.as_leader(|| self.stream_segments(&mut visit, None))
    }

    /// Replays the log for crash recovery, in two passes because a
    /// checkpoint follows the records it covers: `checkpoint` sees every
    /// checkpoint `(stream, seq)`, then `data` every data record, oldest
    /// first. Which records are obsolete is the caller's call — it knows
    /// how many sequence numbers a record stands for.
    pub fn recover(
        &self,
        mut checkpoint: impl FnMut(u64, u64),
        mut data: impl FnMut(RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        self.as_leader(|| {
            let mut held = (self.len() <= RECOVERY_CACHE_BYTES).then(Vec::new);
            self.stream_segments(
                &mut |r| {
                    if r.checkpoint {
                        checkpoint(r.stream, r.seq);
                    }
                    Ok(())
                },
                held.as_mut(),
            )?;
            let mut data = |r: RecordRef<'_>| if r.checkpoint { Ok(()) } else { data(r) };
            let Some(segments) = held else {
                return self.stream_segments(&mut data, None);
            };
            // The first pass verified these bytes and cut a torn tail off.
            for bytes in &segments {
                let mut off = 0;
                while let Some((record, next)) = frame_at(bytes, off, false)? {
                    data(record)?;
                    off = next;
                }
            }
            Ok(())
        })
    }

    /// Collects [`Wal::for_each`] into owned records.
    pub fn replay(&self) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        self.for_each(|record| {
            out.push(record.to_owned());
            Ok(())
        })?;
        Ok(out)
    }

    /// [`Wal::for_each`] with leadership held. The first pass of an
    /// instance also rebuilds the pins of the segments it found at open.
    /// With `keep`, each segment's bytes are handed over once visited.
    fn stream_segments(
        &self,
        visit: &mut dyn FnMut(RecordRef<'_>) -> Result<()>,
        mut keep: Option<&mut Vec<Vec<u8>>>,
    ) -> Result<()> {
        let (ids, mut rebuilt) = {
            let commit = self.lock_commit();
            let rebuilt = commit.log.unscanned.then(Log::default);
            (commit.log.file_ids(), rebuilt)
        };
        for (i, &id) in ids.iter().enumerate() {
            let name = self.segment_name(id);
            let mut bytes = self.store.read_file(&name)?;
            let mut off = 0;
            while off < bytes.len() {
                let Some((record, next)) = frame_at(&bytes, off, true)? else {
                    break;
                };
                if let Some(log) = &mut rebuilt {
                    log.observe(&record);
                }
                visit(record)?;
                off = next;
            }
            if off < bytes.len() {
                if i + 1 != ids.len() {
                    return Err(Error::corruption(format!(
                        "torn record inside sealed wal segment {name}"
                    )));
                }
                tu_obs::log::warn(
                    "lsm.wal",
                    "torn WAL tail dropped during replay",
                    &[
                        ("offset", off.into()),
                        ("lost_bytes", (bytes.len() - off).into()),
                    ],
                );
                bytes.truncate(off);
                self.store.write_file(&name, &bytes)?;
            }
            if let Some(log) = &mut rebuilt {
                log.active_id = id;
                log.active_bytes = bytes.len() as u64;
                log.seal_active();
            }
            if let Some(kept) = &mut keep {
                kept.push(bytes);
            }
        }
        if let Some(mut log) = rebuilt {
            let mut commit = self.lock_commit();
            log.active_id = commit.log.active_id;
            commit.log = log;
        }
        Ok(())
    }

    /// Rebuilds the pins of segments found at open, if that is still to do.
    fn ensure_scanned(&self) -> Result<()> {
        if self.lock_commit().log.unscanned {
            self.stream_segments(&mut |_| Ok(()), None)?;
        }
        Ok(())
    }

    /// Deletes every segment at the head of the log that no stream pins
    /// any more (the purge of §3.3, without the rewrite); with every data
    /// record obsolete the log ends up empty. If it still holds more than
    /// `max_bytes` and only quiet streams pin the oldest segment, their
    /// live records move to the tail first. Returns the segments deleted.
    pub fn truncate(&self, max_bytes: u64) -> Result<usize> {
        self.as_leader(|| {
            self.wave()?;
            self.ensure_scanned()?;
            let mut deleted = self.delete_obsolete_prefix()?;
            if self.len() > max_bytes && self.relocate_oldest()? {
                deleted += self.delete_obsolete_prefix()?;
            }
            Ok(deleted)
        })
    }

    fn delete_obsolete_prefix(&self) -> Result<usize> {
        let (ids, left) = {
            let mut commit = self.lock_commit();
            (commit.log.take_obsolete_prefix(), commit.log.file_count())
        };
        for &id in &ids {
            self.store.delete(&self.segment_name(id))?;
        }
        self.obs_segments_deleted.add(ids.len() as u64);
        self.obs_segments.set(left as i64);
        Ok(ids.len())
    }

    /// Re-appends what still pins the oldest segment at the tail of the
    /// log and releases the segment. Declines (false) when a pinning
    /// stream has newer live records: moving the old ones behind them
    /// would reorder the stream, and its next checkpoint frees them anyway.
    fn relocate_oldest(&self) -> Result<bool> {
        // Per pinning stream, the sequence its checkpoints already cover.
        let (id, covered) = {
            let commit = self.lock_commit();
            let log = &commit.log;
            let Some(oldest) = log.sealed.front() else {
                return Ok(false);
            };
            let mut covered = BTreeMap::new();
            for &(stream, pin) in &oldest.pins {
                if pin == 0 {
                    continue;
                }
                match log.pin_behind_front(stream) {
                    0 => {
                        covered.insert(stream, log.marks.get(&stream).copied().unwrap_or(0));
                    }
                    newer if newer > pin => return Ok(false),
                    // The same records sit at the tail already: a crash
                    // interrupted an earlier relocation before its delete.
                    _ => {}
                }
            }
            (oldest.id, covered)
        };
        let bytes = self.store.read_file(&self.segment_name(id))?;
        let mut moved = Vec::new();
        let mut records = 0;
        let mut off = 0;
        while let Some((record, next)) = frame_at(&bytes, off, true)? {
            let live = covered.get(&record.stream).is_some_and(|&c| record.seq > c);
            if live && !record.checkpoint {
                moved.extend_from_slice(&bytes[off..next]);
                records += 1;
            }
            off = next;
        }
        // A run the checkpoint covers in part moves whole; the checkpoint
        // follows it so replay still trims the covered samples.
        for (&stream, &seq) in covered.iter().filter(|(_, &seq)| seq > 0) {
            encode_into(&mut moved, true, stream, seq, &[]);
            records += 1;
        }
        {
            // Ahead of anything queued meanwhile: a pinning stream may
            // have just woken up, and its old records must stay first.
            let mut pending = self.pending.lock();
            moved.extend_from_slice(&pending.buf);
            pending.buf = moved;
            pending.records += records;
        }
        self.obs_appends.add(records);
        self.wave()?;
        let mut commit = self.lock_commit();
        if let Some(oldest) = commit.log.sealed.front_mut() {
            oldest.pins.clear();
            oldest.pinned = 0;
        }
        tu_obs::log::info(
            "lsm.wal",
            "pinned WAL segment relocated",
            &[("segment", id.into()), ("records", records.into())],
        );
        Ok(true)
    }

    /// Current log size in bytes (excluding unflushed records).
    pub fn len(&self) -> u64 {
        self.lock_commit().log.bytes()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};

    const LOG: &str = "wal/log";

    fn store() -> (tempfile::TempDir, Arc<BlockStore>) {
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        (dir, store)
    }

    fn wal() -> (tempfile::TempDir, Wal) {
        let (dir, store) = store();
        (dir, Wal::open(store, LOG))
    }

    fn rec(stream: u64, seq: u64, payload: &[u8]) -> WalRecord {
        WalRecord {
            stream,
            seq,
            checkpoint: false,
            payload: payload.to_vec(),
        }
    }

    fn ckpt(stream: u64, seq: u64) -> WalRecord {
        WalRecord {
            stream,
            seq,
            checkpoint: true,
            payload: Vec::new(),
        }
    }

    /// Appends one record of roughly a third of a segment and flushes, so
    /// every third call seals a segment.
    fn big(w: &Wal, stream: u64, seq: u64) {
        w.append(&rec(
            stream,
            seq,
            &vec![seq as u8; SEGMENT_BYTES as usize / 3 + 64],
        ));
        w.flush().unwrap();
    }

    fn files(w: &Wal) -> Vec<String> {
        w.store.list_prefix(LOG)
    }

    fn data_seqs(w: &Wal, stream: u64) -> Vec<u64> {
        let mut seqs = Vec::new();
        w.for_each(|r| {
            if !r.checkpoint && r.stream == stream {
                seqs.push(r.seq);
            }
            Ok(())
        })
        .unwrap();
        seqs
    }

    #[test]
    fn append_flush_replay_round_trip() {
        let (_d, w) = wal();
        let records = vec![rec(1, 1, b"a"), rec(2, 1, b"bb"), rec(1, 2, b"ccc")];
        for r in &records {
            w.append(r);
        }
        w.flush().unwrap();
        assert_eq!(w.replay().unwrap(), records);
    }

    #[test]
    fn one_sample_record_is_41_bytes() {
        let (_d, w) = wal();
        assert_eq!(w.append_data(7, 1, &[0u8; 16]), 41);
        w.flush().unwrap();
        assert_eq!(w.len(), 41);
    }

    #[test]
    fn replay_of_missing_log_is_empty() {
        let (_d, w) = wal();
        assert!(w.replay().unwrap().is_empty());
    }

    #[test]
    fn unflushed_records_are_not_replayed() {
        let (_d, w) = wal();
        w.append(&rec(1, 1, b"x"));
        assert!(w.replay().unwrap().is_empty());
        w.flush().unwrap();
        assert_eq!(w.replay().unwrap().len(), 1);
    }

    #[test]
    fn segments_roll_over_and_replay_in_order() {
        let (_d, w) = wal();
        for seq in 1..=7 {
            big(&w, 1, seq);
        }
        // Three records fill a segment: two sealed, the seventh is active.
        assert_eq!(
            files(&w),
            ["wal/log.00000001", "wal/log.00000002", "wal/log.00000003"]
        );
        assert_eq!(data_seqs(&w, 1), (1..=7).collect::<Vec<_>>());
        assert_eq!(
            w.len(),
            files(&w)
                .iter()
                .map(|f| w.store.len(f).unwrap())
                .sum::<u64>()
        );
        // A second instance starts its own segment and replays all four.
        let w2 = Wal::open(w.store.clone(), LOG);
        big(&w2, 1, 8);
        assert_eq!(files(&w2).len(), 4);
        assert_eq!(data_seqs(&w2, 1), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn truncation_stops_at_a_pinned_segment() {
        let (_d, w) = wal();
        for seq in 1..=3 {
            big(&w, 1, seq); // segment 1
        }
        big(&w, 2, 1); // segment 2: stream 2 never checkpoints
        for seq in 4..=5 {
            big(&w, 1, seq);
        }
        for seq in 6..=8 {
            big(&w, 1, seq); // segment 3
        }
        w.append(&ckpt(1, 8));
        assert_eq!(w.truncate(u64::MAX).unwrap(), 1);
        // Segment 3 holds nothing live either, but it is behind segment 2.
        assert_eq!(
            files(&w),
            ["wal/log.00000002", "wal/log.00000003", "wal/log.00000004"]
        );
        assert_eq!(data_seqs(&w, 2), [1]);
    }

    #[test]
    fn partly_checkpointed_segment_stays() {
        let (_d, w) = wal();
        for seq in 1..=3 {
            big(&w, 1, seq);
        }
        w.append(&ckpt(1, 2));
        assert_eq!(w.truncate(u64::MAX).unwrap(), 0);
        w.append(&ckpt(1, 3));
        assert_eq!(w.truncate(u64::MAX).unwrap(), 2, "sealed + active");
        assert!(files(&w).is_empty());
    }

    #[test]
    fn fully_checkpointed_log_is_empty() {
        let (_d, w) = wal();
        for seq in 1..=4 {
            big(&w, 1, seq);
        }
        w.append(&rec(2, 1, b"small"));
        w.append(&ckpt(1, 4));
        w.append(&ckpt(2, 1));
        assert_eq!(w.truncate(u64::MAX).unwrap(), 2);
        assert!(files(&w).is_empty());
        assert!(w.is_empty());
        assert!(w.replay().unwrap().is_empty());
        // The log keeps working after it emptied.
        w.append(&rec(1, 5, b"next"));
        w.flush().unwrap();
        assert_eq!(data_seqs(&w, 1), [5]);
    }

    #[test]
    fn quiet_stream_is_relocated_once_the_log_is_over_its_limit() {
        let (_d, w) = wal();
        // Stream 9 writes a run covering sequences 1..=4 and a record 5,
        // is checkpointed at 2 (inside the run), and goes quiet.
        w.append(&rec(9, 4, b"run of four"));
        w.append(&rec(9, 5, b"five"));
        for seq in 1..=3 {
            big(&w, 1, seq); // seals segment 1 with stream 9 inside
        }
        w.append(&ckpt(9, 2));
        for seq in 4..=9 {
            big(&w, 1, seq); // segments 2 and 3
        }
        w.append(&ckpt(1, 9));
        // Under the limit the pinned segment just stays.
        assert_eq!(w.truncate(u64::MAX).unwrap(), 0);
        assert_eq!(files(&w).len(), 4);
        // Over it, stream 9's records move to the tail and everything
        // older goes; the log is now one small segment.
        assert_eq!(w.truncate(SEGMENT_BYTES).unwrap(), 3);
        assert_eq!(files(&w), ["wal/log.00000004"]);
        assert!(w.len() < 1024);
        let kept = w.replay().unwrap();
        assert_eq!(
            kept.iter()
                .filter(|r| r.stream == 9)
                .cloned()
                .collect::<Vec<_>>(),
            [rec(9, 4, b"run of four"), rec(9, 5, b"five"), ckpt(9, 2)]
        );
        // A checkpoint past the moved records frees them like any others.
        w.append(&ckpt(9, 5));
        w.truncate(u64::MAX).unwrap();
        assert!(files(&w).is_empty());
    }

    #[test]
    fn relocation_interrupted_before_its_delete_finishes_next_time() {
        let (_d, w) = wal();
        w.append(&rec(9, 1, b"quiet"));
        for seq in 1..=3 {
            big(&w, 1, seq);
        }
        // What a crash right after the re-append leaves: a second copy.
        w.append(&rec(9, 1, b"quiet"));
        for seq in 4..=6 {
            big(&w, 1, seq);
        }
        w.append(&ckpt(1, 6));
        w.flush().unwrap();
        let w = Wal::open(w.store.clone(), LOG);
        assert_eq!(w.truncate(1).unwrap(), 1);
        assert_eq!(data_seqs(&w, 9), [1], "one copy left, at the tail");
    }

    #[test]
    fn relocation_declines_while_the_stream_has_newer_records() {
        let (_d, w) = wal();
        w.append(&rec(9, 1, b"old"));
        for seq in 1..=3 {
            big(&w, 1, seq);
        }
        w.append(&rec(9, 2, b"new")); // stream 9 is not quiet
        for seq in 4..=6 {
            big(&w, 1, seq);
        }
        w.append(&ckpt(1, 6));
        assert_eq!(w.truncate(1).unwrap(), 0);
        assert_eq!(data_seqs(&w, 9), [1, 2]);
    }

    #[test]
    fn torn_tail_is_tolerated_in_the_newest_segment_and_cut_off() {
        let (_d, w) = wal();
        w.append(&rec(1, 1, b"keep"));
        w.flush().unwrap();
        // Simulate a crash mid-append of a second record.
        let mut partial = Vec::new();
        encode_into(&mut partial, false, 1, 2, b"lost");
        w.store.append("wal/log.00000001", &partial[..7]).unwrap();
        // The next incarnation replays the intact prefix...
        let w = Wal::open(w.store.clone(), LOG);
        assert_eq!(w.replay().unwrap(), [rec(1, 1, b"keep")]);
        // ...and cut the garbage off, so the segment it then starts does
        // not follow a tail that would now read as corruption.
        assert_eq!(w.store.len("wal/log.00000001").unwrap(), w.len());
        w.append(&rec(1, 2, b"next"));
        w.flush().unwrap();
        assert_eq!(data_seqs(&w, 1), [1, 2]);
    }

    #[test]
    fn torn_tail_in_a_sealed_segment_is_an_error() {
        let (_d, w) = wal();
        for seq in 1..=4 {
            big(&w, 1, seq);
        }
        let sealed = "wal/log.00000001";
        let bytes = w.store.read_file(sealed).unwrap();
        w.store
            .write_file(sealed, &bytes[..bytes.len() - 5])
            .unwrap();
        assert!(w.replay().unwrap_err().is_corruption());
    }

    #[test]
    fn mid_segment_corruption_is_an_error() {
        let (_d, w) = wal();
        w.append(&rec(1, 1, b"first"));
        w.append(&rec(1, 2, b"second"));
        w.flush().unwrap();
        let mut bytes = w.store.read_file("wal/log.00000001").unwrap();
        bytes[10] ^= 0xff; // inside the first record's body
        w.store.write_file("wal/log.00000001", &bytes).unwrap();
        assert!(w.replay().unwrap_err().is_corruption());
    }

    #[test]
    fn legacy_single_file_replays_as_the_oldest_segment() {
        let (_d, store) = store();
        let mut legacy = Vec::new();
        encode_into(&mut legacy, false, 1, 1, b"from the old log");
        encode_into(&mut legacy, false, 2, 1, b"also old");
        encode_into(&mut legacy, true, 2, 1, &[]);
        store.write_file(LOG, &legacy).unwrap();
        let w = Wal::open(store, LOG);
        w.append(&rec(1, 2, b"new"));
        w.flush().unwrap();
        assert_eq!(files(&w), ["wal/log", "wal/log.00000001"]);
        assert_eq!(
            w.replay().unwrap(),
            [
                rec(1, 1, b"from the old log"),
                rec(2, 1, b"also old"),
                ckpt(2, 1),
                rec(1, 2, b"new")
            ]
        );
        // It is truncated by the same rule as any segment.
        w.append(&ckpt(1, 1));
        assert_eq!(w.truncate(u64::MAX).unwrap(), 1);
        assert_eq!(files(&w), ["wal/log.00000001"]);
        assert_eq!(data_seqs(&w, 1), [2]);
    }

    #[test]
    fn reopened_log_rebuilds_its_pins_before_truncating() {
        let (_d, w) = wal();
        for seq in 1..=3 {
            big(&w, 1, seq);
        }
        big(&w, 2, 1);
        w.append(&ckpt(1, 3));
        w.flush().unwrap();
        // No replay on the new instance: truncation scans by itself, and
        // must keep stream 2's segment.
        let w = Wal::open(w.store.clone(), LOG);
        assert_eq!(w.truncate(u64::MAX).unwrap(), 1);
        assert_eq!(files(&w), ["wal/log.00000002"]);
        assert_eq!(data_seqs(&w, 2), [1]);
    }

    #[test]
    fn recover_gives_checkpoints_first_whether_it_holds_the_log_or_rereads_it() {
        let (_d, w) = wal();
        let run = |w: &Wal| {
            let mut order = Vec::new();
            let mut data = Vec::new();
            w.recover(
                |stream, seq| order.push(format!("c{stream}:{seq}")),
                |r| {
                    data.push(format!("d{}:{}", r.stream, r.seq));
                    Ok(())
                },
            )
            .unwrap();
            order.extend(data);
            order
        };
        w.append(&rec(1, 1, b"a"));
        w.append(&ckpt(1, 1));
        w.append(&rec(2, 1, b"b"));
        w.flush().unwrap();
        assert_eq!(run(&w), ["c1:1", "d1:1", "d2:1"]);
        // Past the cache limit the same answer comes from two reads.
        let before = w.store.stats().get_requests;
        let segments = (RECOVERY_CACHE_BYTES / SEGMENT_BYTES) as u64 + 1;
        for seq in 2..2 + 3 * segments {
            big(&w, 1, seq);
        }
        w.append(&ckpt(2, 1));
        w.flush().unwrap();
        assert!(w.len() > RECOVERY_CACHE_BYTES);
        let got = run(&w);
        assert_eq!(got[..2], ["c1:1", "c2:1"]);
        assert_eq!(got[2..5], ["d1:1", "d2:1", "d1:2"]);
        assert_eq!(got.len(), 2 + 2 + 3 * segments as usize);
        let files = files(&w).len() as u64;
        assert_eq!(w.store.stats().get_requests - before, 2 * files);
    }

    #[test]
    fn group_commit_amortises_fsyncs() {
        let (_d, w) = wal();
        let ctx = tu_obs::TraceContext::start("wal-group-commit");
        for seq in 1..=16 {
            w.append(&rec(1, seq, b"payload"));
        }
        w.flush().unwrap();
        let summary = ctx.finish();
        // 16 records enqueued, one leader wave, one physical append.
        assert_eq!(summary.counter("lsm.wal.group_commit.records"), 16);
        assert_eq!(summary.counter("lsm.wal.group_commit.batches"), 1);
        assert_eq!(summary.counter("lsm.wal.group_commit.fsyncs"), 1);
        assert_eq!(w.replay().unwrap().len(), 16);
    }

    #[test]
    fn concurrent_writers_all_become_durable() {
        let (_d, w) = wal();
        let ctx = tu_obs::TraceContext::start("wal-concurrent");
        let pool = tu_common::pool::WorkerPool::new(8);
        pool.run(32, |i| {
            let ticket = w.append(&rec(i as u64, 1, format!("w{i}").as_bytes()));
            w.flush().unwrap();
            // The wave covering our ticket has landed by the time flush
            // returns, whether we led it or followed.
            w.commit_up_to(ticket).unwrap();
        });
        let summary = ctx.finish();
        let got = w.replay().unwrap();
        assert_eq!(got.len(), 32);
        assert_eq!(summary.counter("lsm.wal.group_commit.records"), 32);
        // Waves never outnumber flush calls; under contention they merge.
        assert!(summary.counter("lsm.wal.group_commit.fsyncs") <= 32);
    }

    #[test]
    fn nudge_flushes_when_idle() {
        let (_d, w) = wal();
        w.append(&rec(9, 1, b"bg"));
        w.nudge().unwrap();
        assert_eq!(w.replay().unwrap().len(), 1);
        // Nudging an empty buffer is a no-op.
        w.nudge().unwrap();
        assert_eq!(w.replay().unwrap().len(), 1);
    }

    #[test]
    fn commit_up_to_zero_is_trivially_durable() {
        let (_d, w) = wal();
        w.commit_up_to(0).unwrap();
    }

    #[test]
    fn truncation_excludes_concurrent_waves() {
        let (_d, w) = wal();
        w.append(&rec(1, 1, b"old"));
        w.append(&ckpt(1, 1));
        // Concurrent appends during the truncation must survive it.
        let pool = tu_common::pool::WorkerPool::new(4);
        pool.run(4, |i| {
            if i == 0 {
                w.truncate(u64::MAX).unwrap();
            } else {
                w.append(&rec(2, i as u64, b"live"));
                w.flush().unwrap();
            }
        });
        w.flush().unwrap();
        assert_eq!(data_seqs(&w, 2).len(), 3, "appends raced away");
    }
}

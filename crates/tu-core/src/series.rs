//! Per-series memory objects (§3.2).
//!
//! A series' open ("head") chunk batches a small number of samples (32 by
//! default) before being compressed and flushed into the LSM-tree. The
//! head samples live in a file-backed [`ChunkArena`] slot — not on the
//! heap — so the page cache can swap cold series out, which is what keeps
//! TimeUnion's memory flat at millions of series (Figure 16).
//!
//! Slot layout: `count × (i64 LE timestamp, f64 LE value)`, row-sorted by
//! timestamp. Raw (uncompressed) storage is used for the open chunk so
//! out-of-order samples within the head range can be inserted or replaced
//! in place (§3.1 case 4); compression happens once, at seal time. The
//! engine logs a sample to the WAL as the same 16-byte row, so a run of
//! samples is one byte string for the log and for the slot.
//!
//! The head holds only the in-order tail of a series. A *late* row — older
//! than the head's first row, or, with the head empty, at or below the
//! newest timestamp ever accepted — never enters it: the late rows of one
//! run leave as one sorted chunk per slow-tier partition (§3.1 case 4's
//! early flush, at the grain of §3.3's patches).

use std::borrow::Cow;

use tu_common::{Error, Labels, Result, Sample, SeriesId, Timestamp, Value};
use tu_compress::gorilla;
use tu_mmap::{ChunkArena, ChunkHandle};

/// Bytes of one sample row, in the head slot and in a WAL payload.
pub const ROW: usize = 16;

/// One sample as a row.
pub fn encode_row(t: Timestamp, v: Value) -> [u8; ROW] {
    let mut row = [0u8; ROW];
    row[..8].copy_from_slice(&t.to_le_bytes());
    row[8..].copy_from_slice(&v.to_le_bytes());
    row
}

fn decode_row(row: &[u8]) -> Sample {
    Sample::new(
        tu_common::bytes::i64_le(&row[..8]),
        tu_common::bytes::f64_le(&row[8..]),
    )
}

/// A chunk leaving the head for the LSM-tree, keyed `(first_ts, chunk)`:
/// a full head that sealed, or the late rows of one run that fall in one
/// slow-tier partition (`late`). `seq` is the WAL sequence number the
/// chunk's checkpoint may cover: for a sealed head, that of the row that
/// filled it; a late chunk is logged as one record under its own number.
/// `last_ts` lets the engine track the maximum chunk time span for query
/// slack.
#[derive(Debug, PartialEq)]
pub struct Flush {
    pub seq: u64,
    pub first_ts: Timestamp,
    pub last_ts: Timestamp,
    pub chunk: Vec<u8>,
    pub late: bool,
}

/// The memory object of one individual timeseries.
#[derive(Debug)]
pub struct SeriesObject {
    pub id: SeriesId,
    pub labels: Labels,
    handle: ChunkHandle,
    /// WAL sequence number of the newest logged sample.
    pub seq: u64,
    /// Newest timestamp ever accepted (drives retention).
    pub last_ts: Timestamp,
    /// Cached head state, mirroring the arena slot.
    head_count: u16,
    head_first: Timestamp,
    head_last: Timestamp,
    /// WAL sequence number of the oldest row in the head (while non-empty).
    head_seq: u64,
}

fn decode_rows(payload: &[u8]) -> Result<Vec<Sample>> {
    if payload.len() % ROW != 0 {
        return Err(Error::corruption("series head slot misaligned"));
    }
    Ok(payload.chunks_exact(ROW).map(decode_row).collect())
}

fn encode_rows(samples: &[Sample]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * ROW);
    for s in samples {
        out.extend_from_slice(&encode_row(s.t, s.v));
    }
    out
}

/// Slot size needed for `chunk_samples` samples (plus the arena's length
/// prefix).
pub fn slot_size(chunk_samples: usize) -> usize {
    chunk_samples * ROW + 2
}

impl SeriesObject {
    /// Creates the object, allocating its head slot.
    pub fn new(id: SeriesId, labels: Labels, arena: &ChunkArena) -> Result<Self> {
        let handle = arena.alloc()?;
        arena.write(handle, &[])?;
        Ok(SeriesObject {
            id,
            labels,
            handle,
            seq: 0,
            last_ts: i64::MIN,
            head_count: 0,
            head_first: 0,
            head_last: i64::MIN,
            head_seq: 0,
        })
    }

    /// Number of samples in the open chunk.
    pub fn head_len(&self) -> u16 {
        self.head_count
    }

    /// First timestamp of the open chunk, if any.
    pub fn head_first_ts(&self) -> Option<Timestamp> {
        (self.head_count > 0).then_some(self.head_first)
    }

    /// WAL sequence number of the oldest row in the open chunk, if any: a
    /// checkpoint must stay below it.
    pub fn head_seq(&self) -> Option<u64> {
        (self.head_count > 0).then_some(self.head_seq)
    }

    /// True when a row at `t` must not enter the head.
    fn is_late(&self, t: Timestamp) -> bool {
        match self.head_count {
            0 => t <= self.last_ts,
            _ => t < self.head_first,
        }
    }

    /// Inserts a run of samples, given as rows in arrival order, and
    /// pushes onto `out` every chunk that leaves the head on the way.
    /// `cap` is the seal threshold (32 in the paper).
    ///
    /// Rows that continue the head are written a rising stretch at a time,
    /// up to the chunk boundary; rows inside the head's range are merged
    /// into it a stretch at a time. Late rows are sorted, the newest
    /// arrival kept per timestamp, and cut into one chunk per window of
    /// `l2_partition_ms()` (called only when there are late rows). Returns
    /// the head rows in arrival order — `rows` itself when none was late.
    ///
    /// `l2_partition_ms` is `None` for rows read back from the WAL: they
    /// were head rows when logged, so none is late, and one older than the
    /// head joins it (a head logged again after rows that replay first).
    ///
    /// Sequence numbers start at `first_seq`: the head rows take one each,
    /// in order, then each late chunk one, oldest window first.
    pub fn insert_run<'r>(
        &mut self,
        arena: &ChunkArena,
        rows: &'r [u8],
        cap: usize,
        first_seq: u64,
        l2_partition_ms: Option<&dyn Fn() -> i64>,
        out: &mut Vec<Flush>,
    ) -> Result<Cow<'r, [u8]>> {
        if !rows.len().is_multiple_of(ROW) {
            return Err(Error::invalid("sample rows misaligned"));
        }
        let n = rows.len() / ROW;
        let ts = |i: usize| tu_common::bytes::i64_le(&rows[i * ROW..i * ROW + 8]);
        let replayed = l2_partition_ms.is_none();
        let mut late: Vec<Sample> = Vec::new();
        // The head rows, copied out once the first late row shows up.
        let mut head_rows: Option<Vec<u8>> = None;
        let mut taken = 0u64;
        let mut i = 0;
        while i < n {
            let t = ts(i);
            if !replayed && self.is_late(t) {
                head_rows.get_or_insert_with(|| rows[..i * ROW].to_vec());
                late.push(decode_row(&rows[i * ROW..(i + 1) * ROW]));
                i += 1;
                continue;
            }
            let end = if self.head_count > 0 && t <= self.head_last {
                i + self.merge_into_head(arena, &rows[i * ROW..], cap, replayed)?
            } else {
                let room = cap.saturating_sub(self.head_count as usize).max(1);
                let mut end = i + 1;
                let mut last = t;
                while end < n && end - i < room && ts(end) > last {
                    last = ts(end);
                    end += 1;
                }
                let stretch = &rows[i * ROW..end * ROW];
                if self.head_count == 0 {
                    arena.write(self.handle, stretch)?;
                    self.head_first = t;
                    self.head_seq = first_seq + taken;
                } else {
                    arena.append(self.handle, self.head_count as usize * ROW, stretch)?;
                }
                self.head_count += (end - i) as u16;
                self.head_last = last;
                self.last_ts = self.last_ts.max(last);
                end
            };
            if let Some(head_rows) = &mut head_rows {
                head_rows.extend_from_slice(&rows[i * ROW..end * ROW]);
            }
            taken += (end - i) as u64;
            if self.head_count as usize >= cap {
                let (first_ts, last_ts, chunk) = self.seal_head(arena)?;
                out.push(Flush {
                    seq: first_seq + taken - 1,
                    first_ts,
                    last_ts,
                    chunk,
                    late: false,
                });
            }
            i = end;
        }
        let (Some(head_rows), Some(l2_partition_ms)) = (head_rows, l2_partition_ms) else {
            return Ok(Cow::Borrowed(rows));
        };
        // Reversed, a stable sort puts the newest arrival first among
        // equal timestamps, and dedup keeps the first.
        late.reverse();
        late.sort_by_key(|s| s.t);
        late.dedup_by_key(|s| s.t);
        let partition = l2_partition_ms().max(1);
        let windows = late.chunk_by(|a, b| a.t.div_euclid(partition) == b.t.div_euclid(partition));
        for (k, window) in windows.enumerate() {
            out.push(Flush {
                seq: first_seq + taken + k as u64,
                first_ts: window[0].t,
                last_ts: window[window.len() - 1].t,
                chunk: gorilla::compress_chunk_framed(window)?,
                late: true,
            });
        }
        Ok(Cow::Owned(head_rows))
    }

    /// Merges the leading rows of `rows` that fall inside the head's range
    /// — or, with `below_first`, anywhere up to its last row — into it:
    /// inserted between their neighbours, or replacing the value at their
    /// timestamp, with one read and one write of the slot. Stops at a row
    /// outside or once the head is full; the first row must be inside.
    /// Returns how many rows it took.
    fn merge_into_head(
        &mut self,
        arena: &ChunkArena,
        rows: &[u8],
        cap: usize,
        below_first: bool,
    ) -> Result<usize> {
        let mut head = decode_rows(&arena.read(self.handle)?)?;
        let mut taken = 0;
        for row in rows.chunks_exact(ROW) {
            let s = decode_row(row);
            let inside = s.t <= self.head_last && (below_first || s.t >= self.head_first);
            if taken > 0 && (!inside || head.len() >= cap) {
                break;
            }
            match head.binary_search_by_key(&s.t, |r| r.t) {
                Ok(i) => head[i].v = s.v,
                Err(i) => head.insert(i, s),
            }
            taken += 1;
        }
        self.head_count = head.len() as u16;
        self.head_first = head[0].t;
        arena.write(self.handle, &encode_rows(&head))?;
        Ok(taken)
    }

    /// The head's rows, to be logged again under sequence numbers from
    /// `first_seq` on, which they count as from now on. A late chunk's
    /// checkpoint covers every number below its own; renumbering keeps it
    /// clear of rows still in the head.
    pub fn relog_head(&mut self, arena: &ChunkArena, first_seq: u64) -> Result<Vec<u8>> {
        if self.head_count == 0 {
            return Ok(Vec::new());
        }
        self.head_seq = first_seq;
        arena.read(self.handle)
    }

    /// Compresses the (non-empty) head and empties the slot.
    fn seal_head(&mut self, arena: &ChunkArena) -> Result<(Timestamp, Timestamp, Vec<u8>)> {
        let rows = decode_rows(&arena.read(self.handle)?)?;
        let chunk = gorilla::compress_chunk_framed(&rows)?;
        let (first_ts, last_ts) = (self.head_first, self.head_last);
        arena.write(self.handle, &[])?;
        self.head_count = 0;
        self.head_last = i64::MIN;
        Ok((first_ts, last_ts, chunk))
    }

    /// Seals whatever is buffered (shutdown, forced flush). Returns
    /// `(first_ts, last_ts, chunk)`, or `None` when the head is empty.
    pub fn seal(&mut self, arena: &ChunkArena) -> Result<Option<(Timestamp, Timestamp, Vec<u8>)>> {
        if self.head_count == 0 {
            return Ok(None);
        }
        self.seal_head(arena).map(Some)
    }

    /// The buffered samples (for queries over recent data).
    pub fn head_samples(&self, arena: &ChunkArena) -> Result<Vec<Sample>> {
        if self.head_count == 0 {
            return Ok(Vec::new());
        }
        decode_rows(&arena.read(self.handle)?)
    }

    /// Releases the head slot (retention purge of the whole series).
    pub fn release(self, arena: &ChunkArena) -> Result<()> {
        arena.free(self.handle)
    }

    /// Rough heap footprint of the object itself (the head data is
    /// file-backed and accounted by the page cache).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.labels.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tu_mmap::pagecache::{PageCache, PAGE_SIZE};

    fn arena(cap: usize) -> (tempfile::TempDir, ChunkArena) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(128 * PAGE_SIZE);
        let a = ChunkArena::open(
            Arc::clone(&cache),
            dir.path().join("heads"),
            slot_size(cap),
            64,
        )
        .unwrap();
        (dir, a)
    }

    fn obj(a: &ChunkArena) -> SeriesObject {
        SeriesObject::new(1, Labels::from_pairs([("m", "cpu")]), a).unwrap()
    }

    fn rows(samples: &[(i64, f64)]) -> Vec<u8> {
        samples
            .iter()
            .flat_map(|&(t, v)| encode_row(t, v))
            .collect()
    }

    /// Inserts `samples` as one run numbered from `first_seq`; returns the
    /// head rows and the chunks that left.
    fn run(
        s: &mut SeriesObject,
        a: &ChunkArena,
        cap: usize,
        first_seq: u64,
        partition_ms: i64,
        samples: &[(i64, f64)],
    ) -> (Vec<u8>, Vec<Flush>) {
        let mut out = Vec::new();
        let head = s
            .insert_run(
                a,
                &rows(samples),
                cap,
                first_seq,
                Some(&|| partition_ms),
                &mut out,
            )
            .unwrap()
            .into_owned();
        (head, out)
    }

    fn decoded(f: &Flush) -> Vec<(i64, f64)> {
        let samples = gorilla::decompress_chunk(&f.chunk).unwrap();
        samples.iter().map(|s| (s.t, s.v)).collect()
    }

    #[test]
    fn buffered_until_cap_then_seals() {
        let (_d, a) = arena(4);
        let mut s = obj(&a);
        let (_, out) = run(
            &mut s,
            &a,
            4,
            1,
            i64::MAX,
            &[(0, 0.0), (10, 1.0), (20, 2.0)],
        );
        assert!(out.is_empty());
        assert_eq!(s.head_len(), 3);
        let (_, out) = run(&mut s, &a, 4, 4, i64::MAX, &[(30, 3.0)]);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (4, 0, 30));
        assert!(!out[0].late);
        assert_eq!(
            decoded(&out[0]),
            [(0, 0.0), (10, 1.0), (20, 2.0), (30, 3.0)]
        );
        assert_eq!(s.head_len(), 0, "head cleared after seal");
    }

    #[test]
    fn out_of_order_within_head_inserts_in_place() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        // 200 is late but within the head's range.
        let (_, out) = run(
            &mut s,
            &a,
            8,
            1,
            i64::MAX,
            &[(100, 1.0), (300, 3.0), (200, 2.0)],
        );
        assert!(out.is_empty());
        assert_eq!(
            s.head_samples(&a).unwrap(),
            vec![
                Sample::new(100, 1.0),
                Sample::new(200, 2.0),
                Sample::new(300, 3.0)
            ]
        );
    }

    #[test]
    fn rows_inside_the_head_merge_until_it_fills() {
        let (_d, a) = arena(6);
        let mut s = obj(&a);
        run(
            &mut s,
            &a,
            6,
            1,
            i64::MAX,
            &[(100, 1.0), (200, 2.0), (300, 3.0), (400, 4.0)],
        );
        // 150 and 250 fill the head, which seals at 250 (number 6); 350
        // and 120 then find it empty and below the newest timestamp.
        let (head, out) = run(
            &mut s,
            &a,
            6,
            5,
            i64::MAX,
            &[(150, 1.5), (250, 2.5), (350, 3.5), (120, 1.2)],
        );
        assert_eq!(head, rows(&[(150, 1.5), (250, 2.5)]));
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].seq, out[0].late), (6, false));
        assert_eq!(
            decoded(&out[0]),
            [
                (100, 1.0),
                (150, 1.5),
                (200, 2.0),
                (250, 2.5),
                (300, 3.0),
                (400, 4.0)
            ]
        );
        assert_eq!((out[1].seq, out[1].late), (7, true));
        assert_eq!(decoded(&out[1]), [(120, 1.2), (350, 3.5)]);
        assert_eq!(s.head_len(), 0);
    }

    #[test]
    fn duplicate_timestamp_replaces_value() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        run(&mut s, &a, 8, 1, i64::MAX, &[(100, 1.0), (100, 9.0)]);
        assert_eq!(s.head_samples(&a).unwrap(), vec![Sample::new(100, 9.0)]);
        assert_eq!(s.head_len(), 1);
    }

    #[test]
    fn row_older_than_the_head_leaves_as_a_late_chunk() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        run(&mut s, &a, 8, 1, i64::MAX, &[(1000, 1.0)]);
        let (head, out) = run(&mut s, &a, 8, 2, i64::MAX, &[(500, 0.5)]);
        assert!(head.is_empty());
        assert_eq!(out.len(), 1);
        assert!(out[0].late);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (2, 500, 500));
        assert_eq!(decoded(&out[0]), [(500, 0.5)]);
        assert_eq!(s.head_samples(&a).unwrap(), vec![Sample::new(1000, 1.0)]);
        assert_eq!(s.last_ts, 1000);
    }

    #[test]
    fn empty_head_row_at_or_below_last_ts_is_late() {
        let (_d, a) = arena(2);
        let mut s = obj(&a);
        let (_, out) = run(&mut s, &a, 2, 1, i64::MAX, &[(10, 1.0), (20, 2.0)]);
        assert_eq!(out.len(), 1, "sealed");
        assert_eq!(s.head_len(), 0);
        // Equal to and below the newest accepted timestamp: both late, and
        // the head stays empty; the row above it opens the head.
        let (head, out) = run(
            &mut s,
            &a,
            2,
            3,
            i64::MAX,
            &[(20, 5.0), (15, 4.0), (30, 3.0)],
        );
        assert_eq!(head, rows(&[(30, 3.0)]));
        assert_eq!(out.len(), 1);
        assert!(out[0].late);
        assert_eq!(out[0].seq, 4, "after the one head row");
        assert_eq!(decoded(&out[0]), [(15, 4.0), (20, 5.0)]);
        assert_eq!(s.head_samples(&a).unwrap(), vec![Sample::new(30, 3.0)]);
        assert_eq!(s.head_seq(), Some(3));
    }

    #[test]
    fn late_rows_spanning_two_partitions_give_two_sorted_chunks() {
        let (_d, a) = arena(32);
        let mut s = obj(&a);
        run(&mut s, &a, 32, 1, 1000, &[(5000, 0.0)]);
        let late = [
            (1500, 1.0),
            (900, 2.0),
            (1100, 3.0),
            (100, 4.0),
            (1500, 5.0), // newer arrival of 1500
            (999, 6.0),
            (900, 7.0), // newer arrival of 900
        ];
        let (head, out) = run(&mut s, &a, 32, 2, 1000, &late);
        assert!(head.is_empty());
        assert_eq!(
            out.len(),
            2,
            "one chunk per partition [0, 1000) and [1000, 2000)"
        );
        assert!(out.iter().all(|f| f.late));
        assert_eq!(decoded(&out[0]), [(100, 4.0), (900, 7.0), (999, 6.0)]);
        assert_eq!((out[0].first_ts, out[0].last_ts), (100, 999));
        assert_eq!(decoded(&out[1]), [(1100, 3.0), (1500, 5.0)]);
        assert_eq!((out[1].first_ts, out[1].last_ts), (1100, 1500));
        assert_eq!(s.head_samples(&a).unwrap(), vec![Sample::new(5000, 0.0)]);
    }

    #[test]
    fn in_order_run_emits_no_late_chunk_and_borrows_its_rows() {
        let (_d, a) = arena(4);
        let mut s = obj(&a);
        let input = rows(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0), (50, 5.0)]);
        let mut out = Vec::new();
        let head = s
            .insert_run(&a, &input, 4, 1, Some(&|| panic!("no late row")), &mut out)
            .unwrap();
        assert!(matches!(head, Cow::Borrowed(b) if std::ptr::eq(b, input.as_slice())));
        assert_eq!(out.len(), 1);
        assert!(!out[0].late);
        assert_eq!(out[0].seq, 4);
        assert_eq!(s.head_seq(), Some(5));
    }

    #[test]
    fn flush_sequence_numbers_partition_the_run() {
        let (_d, a) = arena(3);
        let mut s = obj(&a);
        run(&mut s, &a, 3, 1, 100, &[(1000, 0.0)]);
        // The head rows 1010..1040 take 11..=14, and the head fills and
        // seals at 1020 (12); the late rows then take 15 ([0, 100)) and 16
        // ([200, 300)).
        let samples = [
            (1010, 1.0),
            (250, 2.0),
            (1020, 3.0),
            (50, 4.0),
            (1030, 5.0),
            (1040, 6.0),
        ];
        let (head, out) = run(&mut s, &a, 3, 11, 100, &samples);
        assert_eq!(
            head,
            rows(&[(1010, 1.0), (1020, 3.0), (1030, 5.0), (1040, 6.0)])
        );
        let seqs: Vec<(u64, bool)> = out.iter().map(|f| (f.seq, f.late)).collect();
        assert_eq!(seqs, [(12, false), (15, true), (16, true)]);
        assert_eq!(decoded(&out[0]), [(1000, 0.0), (1010, 1.0), (1020, 3.0)]);
        assert_eq!(decoded(&out[1]), [(50, 4.0)]);
        assert_eq!(decoded(&out[2]), [(250, 2.0)]);
        // The head holds 1030 and 1040, the oldest numbered 13.
        assert_eq!(s.head_seq(), Some(13));
        assert_eq!(s.head_len(), 2);
    }

    #[test]
    fn relogged_head_counts_from_its_new_numbers() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        assert!(s.relog_head(&a, 7).unwrap().is_empty());
        assert_eq!(s.head_seq(), None);
        run(&mut s, &a, 8, 1, i64::MAX, &[(10, 1.0), (20, 2.0)]);
        assert_eq!(s.head_seq(), Some(1));
        let again = s.relog_head(&a, 9).unwrap();
        assert_eq!(again, rows(&[(10, 1.0), (20, 2.0)]));
        assert_eq!(s.head_seq(), Some(9));
    }

    #[test]
    fn manual_seal_flushes_partial_head() {
        let (_d, a) = arena(32);
        let mut s = obj(&a);
        assert!(s.seal(&a).unwrap().is_none());
        run(&mut s, &a, 32, 1, i64::MAX, &[(10, 1.0), (20, 2.0)]);
        let (first, last, chunk) = s.seal(&a).unwrap().expect("sealed");
        assert_eq!((first, last), (10, 20));
        assert_eq!(gorilla::decompress_chunk(&chunk).unwrap().len(), 2);
        assert_eq!(s.head_len(), 0);
    }

    #[test]
    fn head_survives_page_cache_pressure() {
        let dir = tempfile::tempdir().unwrap();
        // One-page cache: every other access evicts.
        let cache = PageCache::new(PAGE_SIZE);
        let a = ChunkArena::open(cache, dir.path().join("h"), slot_size(32), 8).unwrap();
        let mut objs: Vec<SeriesObject> = (0..16)
            .map(|i| SeriesObject::new(i, Labels::new(), &a).unwrap())
            .collect();
        for round in 0..5i64 {
            for o in objs.iter_mut() {
                run(
                    o,
                    &a,
                    32,
                    round as u64 + 1,
                    i64::MAX,
                    &[(round * 100, round as f64)],
                );
            }
        }
        for o in &objs {
            assert_eq!(o.head_samples(&a).unwrap().len(), 5);
        }
    }
}

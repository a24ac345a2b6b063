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
/// a full head that sealed, or one sample older than the head flushed
/// early (§3.1 case 4). `seq` is the WAL sequence number of the sample
/// that caused it; `last_ts` lets the engine track the maximum chunk time
/// span for query slack.
#[derive(Debug, PartialEq)]
pub struct Flush {
    pub seq: u64,
    pub first_ts: Timestamp,
    pub last_ts: Timestamp,
    pub chunk: Vec<u8>,
}

/// Result of inserting one sample into a series head.
#[derive(Debug, PartialEq)]
pub enum HeadInsert {
    /// Stored in the open chunk.
    Buffered,
    /// Stored, and the chunk filled up: the sealed chunk must be flushed
    /// to the LSM-tree under `(first_ts, bytes)`. `last_ts` lets the
    /// engine track the maximum chunk time span for query slack.
    Sealed {
        first_ts: Timestamp,
        last_ts: Timestamp,
        chunk: Vec<u8>,
    },
    /// The sample is older than the open chunk; the engine must write it
    /// to the tree directly (early flush of out-of-order data, §3.1).
    OlderThanHead,
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

    /// Inserts a run of samples, given as rows in arrival order, and
    /// pushes onto `out` every chunk that leaves the head on the way.
    /// `first_seq` is the WAL sequence number of the first row; `cap` is
    /// the seal threshold (32 in the paper). A stretch of rows with rising
    /// timestamps that continues the head is one arena write, up to the
    /// chunk boundary; a row out of order takes [`SeriesObject::insert`].
    /// The head ends up exactly as if the rows had been inserted one by one.
    pub fn insert_run(
        &mut self,
        arena: &ChunkArena,
        rows: &[u8],
        cap: usize,
        first_seq: u64,
        out: &mut Vec<Flush>,
    ) -> Result<()> {
        if !rows.len().is_multiple_of(ROW) {
            return Err(Error::invalid("sample rows misaligned"));
        }
        let n = rows.len() / ROW;
        let ts = |i: usize| tu_common::bytes::i64_le(&rows[i * ROW..i * ROW + 8]);
        let mut i = 0;
        while i < n {
            let t = ts(i);
            let seq = first_seq + i as u64;
            if self.head_count > 0 && t <= self.head_last {
                let v = decode_row(&rows[i * ROW..(i + 1) * ROW]).v;
                match self.insert(arena, t, v, cap)? {
                    HeadInsert::Buffered => {}
                    HeadInsert::Sealed {
                        first_ts,
                        last_ts,
                        chunk,
                    } => out.push(Flush {
                        seq,
                        first_ts,
                        last_ts,
                        chunk,
                    }),
                    HeadInsert::OlderThanHead => out.push(Flush {
                        seq,
                        first_ts: t,
                        last_ts: t,
                        chunk: gorilla::compress_chunk_framed(&[Sample::new(t, v)])?,
                    }),
                }
                i += 1;
                continue;
            }
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
            } else {
                arena.append(self.handle, self.head_count as usize * ROW, stretch)?;
            }
            self.head_count += (end - i) as u16;
            self.head_last = last;
            self.last_ts = self.last_ts.max(last);
            if self.head_count as usize >= cap {
                let (first_ts, last_ts, chunk) = self.seal_head(arena)?;
                out.push(Flush {
                    seq: first_seq + (end - 1) as u64,
                    first_ts,
                    last_ts,
                    chunk,
                });
            }
            i = end;
        }
        Ok(())
    }

    /// Inserts one sample that does not simply continue the head: out of
    /// order within the head range, a duplicate timestamp, or older than
    /// the head altogether (§3.1 case 4). Handles the in-order case too.
    pub fn insert(
        &mut self,
        arena: &ChunkArena,
        t: Timestamp,
        v: Value,
        cap: usize,
    ) -> Result<HeadInsert> {
        if self.head_count > 0 && t < self.head_first {
            return Ok(HeadInsert::OlderThanHead);
        }
        if self.head_count == 0 || t > self.head_last {
            let row = encode_row(t, v);
            if self.head_count == 0 {
                arena.write(self.handle, &row)?;
                self.head_first = t;
            } else {
                arena.append(self.handle, self.head_count as usize * ROW, &row)?;
            }
            self.head_count += 1;
            self.head_last = t;
        } else {
            // Decode, fix up, rewrite (rare path).
            let mut rows = decode_rows(&arena.read(self.handle)?)?;
            match rows.binary_search_by_key(&t, |s| s.t) {
                Ok(i) => rows[i].v = v, // duplicate timestamp: replace
                Err(i) => rows.insert(i, Sample::new(t, v)),
            }
            let (first, last) = match (rows.first(), rows.last()) {
                (Some(f), Some(l)) => (f.t, l.t),
                _ => return Err(Error::corruption("series head empty after insert")),
            };
            self.head_first = first;
            self.head_last = last;
            self.head_count = rows.len() as u16;
            arena.write(self.handle, &encode_rows(&rows))?;
        }
        self.last_ts = self.last_ts.max(t);
        if (self.head_count as usize) >= cap {
            let (first_ts, last_ts, chunk) = self.seal_head(arena)?;
            return Ok(HeadInsert::Sealed {
                first_ts,
                last_ts,
                chunk,
            });
        }
        Ok(HeadInsert::Buffered)
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

    #[test]
    fn buffered_until_cap_then_seals() {
        let (_d, a) = arena(4);
        let mut s = obj(&a);
        for i in 0..3 {
            assert_eq!(
                s.insert(&a, i * 10, i as f64, 4).unwrap(),
                HeadInsert::Buffered
            );
        }
        assert_eq!(s.head_len(), 3);
        match s.insert(&a, 30, 3.0, 4).unwrap() {
            HeadInsert::Sealed {
                first_ts,
                last_ts,
                chunk,
            } => {
                assert_eq!(last_ts, 30);
                assert_eq!(first_ts, 0);
                let samples = gorilla::decompress_chunk(&chunk).unwrap();
                assert_eq!(samples.len(), 4);
                assert_eq!(samples[3], Sample::new(30, 3.0));
            }
            other => panic!("expected seal, got {other:?}"),
        }
        assert_eq!(s.head_len(), 0, "head cleared after seal");
    }

    #[test]
    fn out_of_order_within_head_inserts_in_place() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        s.insert(&a, 100, 1.0, 8).unwrap();
        s.insert(&a, 300, 3.0, 8).unwrap();
        s.insert(&a, 200, 2.0, 8).unwrap(); // late but within head
        let got = s.head_samples(&a).unwrap();
        assert_eq!(
            got,
            vec![
                Sample::new(100, 1.0),
                Sample::new(200, 2.0),
                Sample::new(300, 3.0)
            ]
        );
    }

    #[test]
    fn duplicate_timestamp_replaces_value() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        s.insert(&a, 100, 1.0, 8).unwrap();
        s.insert(&a, 100, 9.0, 8).unwrap();
        assert_eq!(s.head_samples(&a).unwrap(), vec![Sample::new(100, 9.0)]);
        assert_eq!(s.head_len(), 1);
    }

    #[test]
    fn older_than_head_is_signalled_not_stored() {
        let (_d, a) = arena(8);
        let mut s = obj(&a);
        s.insert(&a, 1000, 1.0, 8).unwrap();
        assert_eq!(
            s.insert(&a, 500, 0.5, 8).unwrap(),
            HeadInsert::OlderThanHead
        );
        assert_eq!(s.head_len(), 1);
        assert_eq!(s.last_ts, 1000);
    }

    #[test]
    fn manual_seal_flushes_partial_head() {
        let (_d, a) = arena(32);
        let mut s = obj(&a);
        assert!(s.seal(&a).unwrap().is_none());
        s.insert(&a, 10, 1.0, 32).unwrap();
        s.insert(&a, 20, 2.0, 32).unwrap();
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
                o.insert(&a, round * 100, round as f64, 32).unwrap();
            }
        }
        for o in &objs {
            assert_eq!(o.head_samples(&a).unwrap().len(), 5);
        }
    }
}

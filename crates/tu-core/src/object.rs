//! The memory object of one timeseries, individual or group (§3.1/§3.2,
//! Figures 7 and 9).
//!
//! An object's open ("head") chunk batches a small number of rows (32 by
//! default) before being compressed and flushed into the LSM-tree. The
//! head lives in file-backed [`ChunkArena`] slots — not on the heap — so
//! the page cache can swap cold objects out, which is what keeps
//! TimeUnion's memory flat at millions of series (Figure 16).
//!
//! Series and groups follow one set of rules; only the head's slot layout
//! and the chunk codec differ by kind:
//!
//! * a series keeps `count × (i64 LE t, f64 LE v)` rows in one slot and
//!   seals them with Gorilla. The engine logs a sample to the WAL as the
//!   same 16-byte row, so a run is one byte string for the log and the
//!   slot.
//! * a group keeps a timestamp column (`count × i64 LE`) and one value
//!   column per member (`count × (u8 present, f64 LE)`, `present = 0`
//!   for NULL), row-aligned, after Figure 9's "Group MMap Timestamps" and
//!   "Group MMap Values" files, and seals them with NULL-XOR. Its WAL row
//!   is `i64 t, u32 n, n × (u32 slot, f64 v)`: the members present in it.
//!
//! Rows are kept raw in the head so ones inside its range can be inserted
//! or replaced in place (§3.1 case 4); compression happens once, at seal
//! time. The head holds only the in-order tail of an object. A *late* row
//! — older than the head's first row, or, with the head empty, at or
//! below the newest timestamp ever accepted — never enters it: the late
//! rows of one run leave as one sorted chunk per slow-tier partition
//! (§3.1 case 4's early flush, at the grain of §3.3's patches).

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use tu_common::bytes::{f64_le, i64_le, u32_le};
use tu_common::types::is_group_id;
use tu_common::{Error, Labels, Result, Sample, SeriesId, SeriesRef, Timestamp, Value};
use tu_compress::agg::ChunkStats;
use tu_compress::{gorilla, nullxor};
use tu_mmap::pagecache::PageCache;
use tu_mmap::{ChunkArena, ChunkHandle};

use crate::query::{ChunkFormat, Column};

/// Bytes of one series row, in the head slot and in a WAL payload.
pub const ROW: usize = 16;
/// Bytes of a group row's timestamp and member count; each member it
/// carries adds 12. No group row is [`ROW`] bytes long.
const GROUP_ROW: usize = 12;
const TS_ROW: usize = 8;
const VAL_ROW: usize = 9;

/// One sample as a series row.
pub fn encode_row(t: Timestamp, v: Value) -> [u8; ROW] {
    let mut row = [0u8; ROW];
    row[..8].copy_from_slice(&t.to_le_bytes());
    row[8..].copy_from_slice(&v.to_le_bytes());
    row
}

/// Appends one group row to `out`: `t` and the `(slot, value)` of each
/// member present in it.
pub(crate) fn put_group_row(
    out: &mut Vec<u8>,
    t: Timestamp,
    entries: impl IntoIterator<Item = (SeriesRef, Value)>,
) {
    let start = out.len();
    out.extend_from_slice(&t.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    let mut n = 0u32;
    for (slot, v) in entries {
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        n += 1;
    }
    out[start + 8..start + GROUP_ROW].copy_from_slice(&n.to_le_bytes());
}

/// The `(slot, value)` pairs a row carries: a series row its one value,
/// in slot 0.
fn entries(row: &[u8]) -> impl Iterator<Item = (usize, Value)> + '_ {
    let (single, list) = match row.len() {
        ROW => (Some((0, f64_le(&row[8..]))), &[][..]),
        _ => (None, &row[GROUP_ROW..]),
    };
    let list = list.chunks_exact(12);
    single
        .into_iter()
        .chain(list.map(|e| (u32_le(e) as usize, f64_le(&e[4..]))))
}

/// Slot size needed for `chunk_samples` series rows (plus the arena's
/// length prefix).
pub fn slot_size(chunk_samples: usize) -> usize {
    chunk_samples * ROW + 2
}

/// A slot's rows of `size` bytes, each decoded by `f`.
fn decode<T>(payload: &[u8], size: usize, f: impl Fn(&[u8]) -> T) -> Result<Vec<T>> {
    if !payload.len().is_multiple_of(size) {
        return Err(Error::corruption("head slot misaligned"));
    }
    Ok(payload.chunks_exact(size).map(f).collect())
}

/// One value-column row: present, or NULL as all zeros.
fn put_val(out: &mut [u8], v: Option<Value>) {
    if let Some(v) = v {
        out[0] = 1;
        out[1..VAL_ROW].copy_from_slice(&v.to_le_bytes());
    }
}

/// Writes `bytes` to a slot at offset `at`: the whole payload at 0, else
/// appended to the `at` bytes there.
fn put_slot(arena: &ChunkArena, handle: ChunkHandle, at: usize, bytes: &[u8]) -> Result<()> {
    match at {
        0 => arena.write(handle, bytes),
        _ => arena.append(handle, at, bytes),
    }
}

/// The head slots of every object, each arena sized for `chunk_samples`
/// rows: series rows, group timestamp columns and group value columns.
pub struct Arenas {
    rows: ChunkArena,
    ts: ChunkArena,
    vals: ChunkArena,
}

impl Arenas {
    /// Opens the arenas under `dir`, empty: heads are rebuilt from the
    /// WAL, and a fresh arena hands out its handles deterministically.
    pub fn open(
        cache: &Arc<PageCache>,
        dir: &Path,
        chunk_samples: usize,
        chunks_per_file: u32,
    ) -> Result<Self> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let open = |sub: &str, row: usize| {
            let slot = chunk_samples * row + 2;
            ChunkArena::open(Arc::clone(cache), dir.join(sub), slot, chunks_per_file)
        };
        Ok(Arenas {
            rows: open("series", ROW)?,
            ts: open("group-ts", TS_ROW)?,
            vals: open("group-val", VAL_ROW)?,
        })
    }
}

fn new_slot(arena: &ChunkArena, payload: &[u8]) -> Result<ChunkHandle> {
    let handle = arena.alloc()?;
    arena.write(handle, payload)?;
    Ok(handle)
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

/// Where an object's head lives, which also fixes its chunk codec.
#[derive(Debug)]
enum Head {
    /// A series: one slot of rows; Gorilla chunks.
    Rows(ChunkHandle),
    /// A group: a timestamp column and its members; NULL-XOR chunks.
    Columns(ChunkHandle, Box<Members>),
}

/// A group's members, by slot.
#[derive(Debug, Default)]
struct Members {
    unique_tags: Vec<Labels>,
    /// Each member's value column.
    columns: Vec<ChunkHandle>,
    index: HashMap<Vec<u8>, SeriesRef>,
}

/// Rows sorted by timestamp, decoded, one value column per member (one
/// for a series): a head read out of its slots, or the late rows of one
/// window.
struct Block {
    ts: Vec<Timestamp>,
    cols: Vec<Vec<Option<Value>>>,
}

impl Block {
    fn new(width: usize) -> Self {
        let cols = vec![Vec::new(); width];
        Block {
            ts: Vec::new(),
            cols,
        }
    }

    /// Inserts a row between its neighbours, or at its timestamp replaces
    /// the values it carries.
    fn upsert(&mut self, row: &[u8]) {
        let t = i64_le(row);
        let i = self.ts.binary_search(&t).unwrap_or_else(|i| {
            self.ts.insert(i, t);
            self.cols.iter_mut().for_each(|c| c.insert(i, None));
            i
        });
        for (slot, v) in entries(row) {
            self.cols[slot][i] = Some(v);
        }
    }

    /// The present values of column `slot`, as samples.
    fn samples(&self, slot: usize) -> Vec<Sample> {
        let rows = self.ts.iter().zip(&self.cols[slot]);
        rows.filter_map(|(&t, v)| v.map(|v| Sample::new(t, v)))
            .collect()
    }
}

/// The memory object of one individual timeseries or group.
#[derive(Debug)]
pub struct Object {
    pub id: SeriesId,
    /// A series' labels, or a group's tags.
    pub labels: Labels,
    head: Head,
    /// WAL sequence number of the newest logged row.
    pub seq: u64,
    /// Newest timestamp ever accepted (drives retention).
    pub last_ts: Timestamp,
    /// Cached head state, mirroring the arena slots.
    head_count: u16,
    head_first: Timestamp,
    head_last: Timestamp,
    /// WAL sequence number of the oldest row in the head (while non-empty).
    head_seq: u64,
}

impl Object {
    /// Creates the object, allocating its head slot: a group id
    /// ([`tu_common::GROUP_ID_FLAG`]) gets a timestamp column and no
    /// members, any other id a slot of series rows.
    pub fn new(id: SeriesId, labels: Labels, arenas: &Arenas) -> Result<Self> {
        let head = match is_group_id(id) {
            true => Head::Columns(new_slot(&arenas.ts, &[])?, Box::default()),
            false => Head::Rows(new_slot(&arenas.rows, &[])?),
        };
        Ok(Object {
            id,
            labels,
            head,
            seq: 0,
            last_ts: i64::MIN,
            head_count: 0,
            head_first: 0,
            head_last: i64::MIN,
            head_seq: 0,
        })
    }

    pub(crate) fn is_group(&self) -> bool {
        matches!(self.head, Head::Columns(..))
    }

    /// How the object's chunks are encoded.
    pub(crate) fn format(&self) -> ChunkFormat {
        match self.head {
            Head::Rows(_) => ChunkFormat::Gorilla,
            Head::Columns(..) => ChunkFormat::NullXor,
        }
    }

    /// Value columns in the object's chunks: one for a series.
    fn width(&self) -> usize {
        match &self.head {
            Head::Rows(_) => 1,
            Head::Columns(_, m) => m.columns.len(),
        }
    }

    /// A group's members with their unique tags, by slot; none for a
    /// series.
    pub(crate) fn members(&self) -> impl Iterator<Item = (SeriesRef, &Labels)> {
        let tags = match &self.head {
            Head::Columns(_, m) => &m.unique_tags[..],
            Head::Rows(_) => &[],
        };
        (0..).zip(tags)
    }

    /// Finds a group member by its unique tags.
    pub(crate) fn member_slot(&self, unique_tags: &Labels) -> Option<SeriesRef> {
        match &self.head {
            Head::Columns(_, m) => m.index.get(&unique_tags.to_bytes()).copied(),
            Head::Rows(_) => None,
        }
    }

    /// Adds a member to a group (§3.1 case 2: new timeseries joining). The
    /// head's earlier rows read as NULL for it. Returns its slot.
    pub(crate) fn add_member(&mut self, arenas: &Arenas, unique_tags: Labels) -> Result<SeriesRef> {
        let Head::Columns(_, m) = &mut self.head else {
            return Err(Error::invalid("a series has no members"));
        };
        let handle = new_slot(&arenas.vals, &vec![0; self.head_count as usize * VAL_ROW])?;
        let slot = m.columns.len() as SeriesRef;
        m.index.insert(unique_tags.to_bytes(), slot);
        m.unique_tags.push(unique_tags);
        m.columns.push(handle);
        Ok(slot)
    }

    /// WAL sequence number of the oldest row in the open chunk, if any: a
    /// checkpoint must stay below it.
    pub(crate) fn head_seq(&self) -> Option<u64> {
        (self.head_count > 0).then_some(self.head_seq)
    }

    /// True when a row at `t` must not enter the head.
    fn is_late(&self, t: Timestamp) -> bool {
        match self.head_count {
            0 => t <= self.last_ts,
            _ => t < self.head_first,
        }
    }

    /// Length of the row `rows` starts with, in the object's WAL layout;
    /// it may run past the end of `rows`.
    fn row_len(&self, rows: &[u8]) -> usize {
        match &self.head {
            Head::Rows(_) => ROW,
            Head::Columns(..) => rows.get(8..GROUP_ROW).map_or(GROUP_ROW, |n| {
                (u32_le(n) as usize)
                    .saturating_mul(12)
                    .saturating_add(GROUP_ROW)
            }),
        }
    }

    /// The bytes and the number of the first `k` rows of `rows` (all of
    /// them, if fewer). Fails on a row cut short, or one naming a member
    /// the group does not have.
    pub(crate) fn take_rows(&self, rows: &[u8], k: usize) -> Result<(usize, usize)> {
        let cut = || Error::invalid("rows misaligned");
        let members = match &self.head {
            Head::Rows(_) if !rows.len().is_multiple_of(ROW) => return Err(cut()),
            Head::Rows(_) => {
                let n = k.min(rows.len() / ROW);
                return Ok((n * ROW, n));
            }
            Head::Columns(_, m) => m.columns.len(),
        };
        let (mut at, mut n) = (0, 0);
        while at < rows.len() && n < k {
            let row = rows.get(at..at.saturating_add(self.row_len(&rows[at..])));
            let row = row.ok_or_else(cut)?;
            if let Some((slot, _)) = entries(row).find(|&(slot, _)| slot >= members) {
                return Err(Error::invalid(format!(
                    "member slot {slot} out of range ({members} members)"
                )));
            }
            (at, n) = (at + row.len(), n + 1);
        }
        Ok((at, n))
    }

    /// Inserts a run of rows, in arrival order and in the object's WAL
    /// layout, and pushes onto `out` every chunk that leaves the head on
    /// the way. `cap` is the seal threshold (32 in the paper). Every row
    /// is checked (`Object::take_rows`) before any is inserted.
    ///
    /// Rows that continue the head are written a rising stretch at a time,
    /// up to the chunk boundary; rows inside the head's range are merged
    /// into it a stretch at a time. Late rows are sorted, the newest
    /// arrival winning per timestamp (per member, for a group), and cut
    /// into one chunk per window of `l2_partition_ms()` (called only when
    /// there are late rows). Returns the head rows in arrival order —
    /// `rows` itself when none was late.
    ///
    /// `l2_partition_ms` is `None` for rows read back from the WAL: they
    /// were head rows when logged, so none is late, and one older than the
    /// head joins it (a head logged again after rows that replay first).
    ///
    /// Sequence numbers start at `first_seq`: the head rows take one each,
    /// in order, then each late chunk one, oldest window first.
    pub fn insert_run<'r>(
        &mut self,
        arenas: &Arenas,
        rows: &'r [u8],
        cap: usize,
        first_seq: u64,
        l2_partition_ms: Option<&dyn Fn() -> i64>,
        out: &mut Vec<Flush>,
    ) -> Result<Cow<'r, [u8]>> {
        self.take_rows(rows, usize::MAX)?;
        let ts = |at: usize| i64_le(&rows[at..]);
        let replayed = l2_partition_ms.is_none();
        let mut late: Vec<&[u8]> = Vec::new();
        // The head rows, copied out once the first late row shows up.
        let mut head_rows: Option<Vec<u8>> = None;
        let mut taken = 0u64;
        let mut at = 0;
        while at < rows.len() {
            let t = ts(at);
            if !replayed && self.is_late(t) {
                head_rows.get_or_insert_with(|| rows[..at].to_vec());
                let end = at + self.row_len(&rows[at..]);
                late.push(&rows[at..end]);
                at = end;
                continue;
            }
            let (end, n) = if self.head_count > 0 && t <= self.head_last {
                let (len, n) = self.merge_into_head(arenas, &rows[at..], cap, replayed)?;
                (at + len, n)
            } else {
                let room = cap.saturating_sub(self.head_count as usize).max(1);
                let (mut end, mut n, mut last) = (at + self.row_len(&rows[at..]), 1, t);
                while end < rows.len() && n < room && ts(end) > last {
                    last = ts(end);
                    end += self.row_len(&rows[end..]);
                    n += 1;
                }
                if self.head_count == 0 {
                    self.head_first = t;
                    self.head_seq = first_seq + taken;
                }
                self.append_head(arenas, &rows[at..end], n)?;
                self.head_count += n as u16;
                self.head_last = last;
                self.last_ts = self.last_ts.max(last);
                (end, n)
            };
            if let Some(head_rows) = &mut head_rows {
                head_rows.extend_from_slice(&rows[at..end]);
            }
            taken += n as u64;
            if self.head_count as usize >= cap {
                out.extend(self.seal(arenas, first_seq + taken - 1)?);
            }
            at = end;
        }
        let (Some(head_rows), Some(l2_partition_ms)) = (head_rows, l2_partition_ms) else {
            return Ok(Cow::Borrowed(rows));
        };
        // A stable sort keeps arrival order among equal timestamps, so the
        // newest arrival is applied last.
        late.sort_by_key(|row| i64_le(row));
        let partition = l2_partition_ms().max(1);
        let window = |row: &[u8]| i64_le(row).div_euclid(partition);
        for (k, in_window) in late.chunk_by(|a, b| window(a) == window(b)).enumerate() {
            let mut block = Block::new(self.width());
            in_window.iter().for_each(|row| block.upsert(row));
            out.push(Flush {
                seq: first_seq + taken + k as u64,
                first_ts: block.ts[0],
                last_ts: block.ts[block.ts.len() - 1],
                chunk: self.encode(&block)?,
                late: true,
            });
        }
        Ok(Cow::Owned(head_rows))
    }

    /// Appends `n` rising rows past the head's last one, without reading
    /// the slots.
    fn append_head(&self, arenas: &Arenas, rows: &[u8], n: usize) -> Result<()> {
        let at = self.head_count as usize;
        let (ts_handle, m) = match &self.head {
            Head::Rows(handle) => return put_slot(&arenas.rows, *handle, at * ROW, rows),
            Head::Columns(handle, m) => (*handle, m),
        };
        // The stretch's timestamps, then each member's values.
        let mut buf = vec![0u8; n * (TS_ROW + m.columns.len() * VAL_ROW)];
        let (ts, vals) = buf.split_at_mut(n * TS_ROW);
        let mut rest = rows;
        for i in 0..n {
            let (row, tail) = rest.split_at(self.row_len(rest));
            ts[i * TS_ROW..(i + 1) * TS_ROW].copy_from_slice(&row[..TS_ROW]);
            for (slot, v) in entries(row) {
                put_val(&mut vals[(slot * n + i) * VAL_ROW..], Some(v));
            }
            rest = tail;
        }
        put_slot(&arenas.ts, ts_handle, at * TS_ROW, ts)?;
        let columns = m.columns.iter().zip(vals.chunks_exact(n * VAL_ROW));
        for (&handle, col) in columns {
            put_slot(&arenas.vals, handle, at * VAL_ROW, col)?;
        }
        Ok(())
    }

    /// Merges the leading rows of `rows` that fall inside the head's range
    /// — or, with `below_first`, anywhere up to its last row — into it:
    /// inserted between their neighbours, or replacing the values at their
    /// timestamp, with one read and one write of the slots. Stops at a row
    /// outside or once the head is full; the first row must be inside.
    /// Returns the bytes and the number of rows it took.
    fn merge_into_head(
        &mut self,
        arenas: &Arenas,
        rows: &[u8],
        cap: usize,
        below_first: bool,
    ) -> Result<(usize, usize)> {
        let mut head = self.read_head(arenas)?;
        let (mut at, mut taken) = (0, 0);
        while at < rows.len() {
            let t = i64_le(&rows[at..]);
            let inside = t <= self.head_last && (below_first || t >= self.head_first);
            if taken > 0 && (!inside || head.ts.len() >= cap) {
                break;
            }
            let end = at + self.row_len(&rows[at..]);
            head.upsert(&rows[at..end]);
            (at, taken) = (end, taken + 1);
        }
        self.write_head(arenas, &head)?;
        Ok((at, taken))
    }

    /// The head's rows, decoded.
    fn read_head(&self, arenas: &Arenas) -> Result<Block> {
        let vals =
            |payload: &[u8]| decode(payload, VAL_ROW, |r| (r[0] != 0).then(|| f64_le(&r[1..])));
        Ok(match &self.head {
            Head::Rows(handle) => {
                let rows = decode(&arenas.rows.read(*handle)?, ROW, |r| {
                    (i64_le(r), Some(f64_le(&r[8..])))
                })?;
                let (ts, col) = rows.into_iter().unzip();
                Block {
                    ts,
                    cols: vec![col],
                }
            }
            Head::Columns(handle, m) => Block {
                ts: decode(&arenas.ts.read(*handle)?, TS_ROW, i64_le)?,
                cols: m
                    .columns
                    .iter()
                    .map(|&c| vals(&arenas.vals.read(c)?))
                    .collect::<Result<_>>()?,
            },
        })
    }

    /// Replaces the head's slots with `head`.
    fn write_head(&mut self, arenas: &Arenas, head: &Block) -> Result<()> {
        match &self.head {
            Head::Rows(handle) => arenas.rows.write(*handle, &self.wal_rows(head))?,
            Head::Columns(handle, m) => {
                let ts: Vec<u8> = head.ts.iter().flat_map(|t| t.to_le_bytes()).collect();
                arenas.ts.write(*handle, &ts)?;
                for (&c, col) in m.columns.iter().zip(&head.cols) {
                    let mut vals = vec![0; col.len() * VAL_ROW];
                    for (out, &v) in vals.chunks_exact_mut(VAL_ROW).zip(col) {
                        put_val(out, v);
                    }
                    arenas.vals.write(c, &vals)?;
                }
            }
        }
        self.head_count = head.ts.len() as u16;
        self.head_first = head.ts.first().copied().unwrap_or_default();
        Ok(())
    }

    /// `rows` in the object's WAL layout.
    fn wal_rows(&self, rows: &Block) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &t) in rows.ts.iter().enumerate() {
            let present = (0..).zip(&rows.cols);
            let present = present.filter_map(|(slot, c)| c[i].map(|v| (slot, v)));
            match self.head {
                Head::Rows(_) => present.for_each(|(_, v)| out.extend(encode_row(t, v))),
                Head::Columns(..) => put_group_row(&mut out, t, present),
            }
        }
        out
    }

    /// `rows` as a stats-framed chunk in the object's codec.
    fn encode(&self, rows: &Block) -> Result<Vec<u8>> {
        if let Head::Rows(_) = self.head {
            return gorilla::compress_chunk_framed(&rows.samples(0));
        }
        let mut enc = nullxor::GroupChunkEncoder::new(rows.cols.len());
        let mut row = Vec::with_capacity(rows.cols.len());
        for (i, &t) in rows.ts.iter().enumerate() {
            row.clear();
            row.extend(rows.cols.iter().map(|c| c[i]));
            enc.append_row(t, &row)?;
        }
        Ok(enc.finish_framed())
    }

    /// Puts a chunk record's bare chunk (in the object's codec) back in
    /// the stats envelope it had.
    pub(crate) fn frame_chunk(&self, bare: &[u8]) -> Result<(ChunkStats, Vec<u8>)> {
        match self.head {
            Head::Rows(_) => gorilla::frame_chunk(bare),
            Head::Columns(..) => nullxor::frame_chunk(bare),
        }
    }

    /// The head's rows, to be logged again under sequence numbers from
    /// `first_seq` on, which they count as from now on. A late chunk's
    /// checkpoint covers every number below its own; renumbering keeps it
    /// clear of rows still in the head.
    pub(crate) fn relog_head(&mut self, arenas: &Arenas, first_seq: u64) -> Result<Vec<u8>> {
        if self.head_count == 0 {
            return Ok(Vec::new());
        }
        self.head_seq = first_seq;
        Ok(self.wal_rows(&self.read_head(arenas)?))
    }

    /// Seals whatever is buffered into a chunk numbered `seq` and empties
    /// the slots; `None` when the head is empty.
    pub fn seal(&mut self, arenas: &Arenas, seq: u64) -> Result<Option<Flush>> {
        if self.head_count == 0 {
            return Ok(None);
        }
        let chunk = self.encode(&self.read_head(arenas)?)?;
        let (first_ts, late) = (self.head_first, false);
        let last_ts = std::mem::replace(&mut self.head_last, i64::MIN);
        self.write_head(arenas, &Block::new(self.width()))?;
        Ok(Some(Flush {
            seq,
            first_ts,
            last_ts,
            chunk,
            late,
        }))
    }

    /// The buffered samples of column `slot` (0 for a series).
    pub fn head_samples(&self, arenas: &Arenas, slot: SeriesRef) -> Result<Vec<Sample>> {
        let col = self
            .columns(arenas, |_| true)?
            .into_iter()
            .nth(slot as usize);
        Ok(col.map_or_else(Vec::new, |c| c.head))
    }

    /// The columns a read returns, with their samples still in the head: a
    /// series' one, or each group member whose labels — the group's tags
    /// and its own — `keep` accepts.
    pub(crate) fn columns(
        &self,
        arenas: &Arenas,
        keep: impl Fn(&Labels) -> bool,
    ) -> Result<Vec<Column>> {
        let head = (self.head_count > 0).then(|| self.read_head(arenas));
        let head = head.transpose()?;
        let mut cols = Vec::new();
        for slot in 0..self.width() {
            let labels = match &self.head {
                Head::Rows(_) => self.labels.clone(),
                Head::Columns(_, m) => self.labels.merge(&m.unique_tags[slot]),
            };
            if !self.is_group() || keep(&labels) {
                let head = head.as_ref().map_or_else(Vec::new, |h| h.samples(slot));
                cols.push(Column { slot, labels, head });
            }
        }
        Ok(cols)
    }

    /// Releases the head's slots (retention purge of the whole object).
    pub(crate) fn release(self, arenas: &Arenas) -> Result<()> {
        match self.head {
            Head::Rows(handle) => arenas.rows.free(handle),
            Head::Columns(handle, m) => {
                arenas.ts.free(handle)?;
                m.columns.into_iter().try_for_each(|c| arenas.vals.free(c))
            }
        }
    }

    /// Rough heap footprint of the object itself (the head data is
    /// file-backed and accounted by the page cache).
    pub fn heap_bytes(&self) -> usize {
        let member = std::mem::size_of::<(Labels, ChunkHandle)>() + 48;
        let members = self.members().map(|(_, t)| member + t.heap_bytes());
        let group = match self.head {
            Head::Rows(_) => 0,
            Head::Columns(..) => std::mem::size_of::<Members>(),
        };
        std::mem::size_of::<Self>() + self.labels.heap_bytes() + group + members.sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_common::GROUP_ID_FLAG;
    use tu_compress::nullxor::GroupChunkDecoder;
    use tu_mmap::pagecache::PAGE_SIZE;

    fn arenas(cap: usize) -> (tempfile::TempDir, Arenas) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        let a = Arenas::open(&cache, &dir.path().join("heads"), cap, 64).unwrap();
        (dir, a)
    }

    fn obj(a: &Arenas) -> Object {
        Object::new(1, Labels::from_pairs([("m", "cpu")]), a).unwrap()
    }

    fn rows(samples: &[(i64, f64)]) -> Vec<u8> {
        samples
            .iter()
            .flat_map(|&(t, v)| encode_row(t, v))
            .collect()
    }

    /// Inserts `rows` as one run numbered from `first_seq`; returns the
    /// head rows and the chunks that left.
    fn run(
        s: &mut Object,
        a: &Arenas,
        cap: usize,
        first_seq: u64,
        partition_ms: i64,
        rows: &[u8],
    ) -> (Vec<u8>, Vec<Flush>) {
        let mut out = Vec::new();
        let grid = || partition_ms;
        let head = s.insert_run(a, rows, cap, first_seq, Some(&grid), &mut out);
        (head.unwrap().into_owned(), out)
    }

    fn decoded(f: &Flush) -> Vec<(i64, f64)> {
        let samples = gorilla::decompress_chunk(&f.chunk).unwrap();
        samples.iter().map(|s| (s.t, s.v)).collect()
    }

    fn head(s: &Object, a: &Arenas, slot: SeriesRef) -> Vec<(i64, f64)> {
        let samples = s.head_samples(a, slot).unwrap();
        samples.iter().map(|s| (s.t, s.v)).collect()
    }

    #[test]
    fn object_fits_in_96_bytes() {
        assert!(std::mem::size_of::<Object>() <= 96);
    }

    #[test]
    fn buffered_until_cap_then_seals() {
        let (_d, a) = arenas(4);
        let mut s = obj(&a);
        let (_, out) = run(
            &mut s,
            &a,
            4,
            1,
            i64::MAX,
            &rows(&[(0, 0.0), (10, 1.0), (20, 2.0)]),
        );
        assert!(out.is_empty());
        assert_eq!(s.head_count, 3);
        let (_, out) = run(&mut s, &a, 4, 4, i64::MAX, &rows(&[(30, 3.0)]));
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (4, 0, 30));
        assert!(!out[0].late);
        assert_eq!(
            decoded(&out[0]),
            [(0, 0.0), (10, 1.0), (20, 2.0), (30, 3.0)]
        );
        assert_eq!(s.head_count, 0, "head cleared after seal");
    }

    #[test]
    fn out_of_order_within_head_inserts_in_place() {
        let (_d, a) = arenas(8);
        let mut s = obj(&a);
        // 200 is late but within the head's range.
        let input = rows(&[(100, 1.0), (300, 3.0), (200, 2.0)]);
        let (_, out) = run(&mut s, &a, 8, 1, i64::MAX, &input);
        assert!(out.is_empty());
        assert_eq!(head(&s, &a, 0), [(100, 1.0), (200, 2.0), (300, 3.0)]);
    }

    #[test]
    fn rows_inside_the_head_merge_until_it_fills() {
        let (_d, a) = arenas(6);
        let mut s = obj(&a);
        let input = rows(&[(100, 1.0), (200, 2.0), (300, 3.0), (400, 4.0)]);
        run(&mut s, &a, 6, 1, i64::MAX, &input);
        // 150 and 250 fill the head, which seals at 250 (number 6); 350
        // and 120 then find it empty and below the newest timestamp.
        let input = rows(&[(150, 1.5), (250, 2.5), (350, 3.5), (120, 1.2)]);
        let (head_rows, out) = run(&mut s, &a, 6, 5, i64::MAX, &input);
        assert_eq!(head_rows, rows(&[(150, 1.5), (250, 2.5)]));
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
        assert_eq!(s.head_count, 0);
    }

    #[test]
    fn duplicate_timestamp_replaces_value() {
        let (_d, a) = arenas(8);
        let mut s = obj(&a);
        run(&mut s, &a, 8, 1, i64::MAX, &rows(&[(100, 1.0), (100, 9.0)]));
        assert_eq!(head(&s, &a, 0), [(100, 9.0)]);
        assert_eq!(s.head_count, 1);
    }

    #[test]
    fn row_older_than_the_head_leaves_as_a_late_chunk() {
        let (_d, a) = arenas(8);
        let mut s = obj(&a);
        run(&mut s, &a, 8, 1, i64::MAX, &rows(&[(1000, 1.0)]));
        let (head_rows, out) = run(&mut s, &a, 8, 2, i64::MAX, &rows(&[(500, 0.5)]));
        assert!(head_rows.is_empty());
        assert_eq!(out.len(), 1);
        assert!(out[0].late);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (2, 500, 500));
        assert_eq!(decoded(&out[0]), [(500, 0.5)]);
        assert_eq!(head(&s, &a, 0), [(1000, 1.0)]);
        assert_eq!(s.last_ts, 1000);
    }

    #[test]
    fn empty_head_row_at_or_below_last_ts_is_late() {
        let (_d, a) = arenas(2);
        let mut s = obj(&a);
        let (_, out) = run(&mut s, &a, 2, 1, i64::MAX, &rows(&[(10, 1.0), (20, 2.0)]));
        assert_eq!(out.len(), 1, "sealed");
        assert_eq!(s.head_count, 0);
        // Equal to and below the newest accepted timestamp: both late, and
        // the head stays empty; the row above it opens the head.
        let input = rows(&[(20, 5.0), (15, 4.0), (30, 3.0)]);
        let (head_rows, out) = run(&mut s, &a, 2, 3, i64::MAX, &input);
        assert_eq!(head_rows, rows(&[(30, 3.0)]));
        assert_eq!(out.len(), 1);
        assert!(out[0].late);
        assert_eq!(out[0].seq, 4, "after the one head row");
        assert_eq!(decoded(&out[0]), [(15, 4.0), (20, 5.0)]);
        assert_eq!(head(&s, &a, 0), [(30, 3.0)]);
        assert_eq!(s.head_seq(), Some(3));
    }

    #[test]
    fn late_rows_spanning_two_partitions_give_two_sorted_chunks() {
        let (_d, a) = arenas(32);
        let mut s = obj(&a);
        run(&mut s, &a, 32, 1, 1000, &rows(&[(5000, 0.0)]));
        let late = [
            (1500, 1.0),
            (900, 2.0),
            (1100, 3.0),
            (100, 4.0),
            (1500, 5.0), // newer arrival of 1500
            (999, 6.0),
            (900, 7.0), // newer arrival of 900
        ];
        let (head_rows, out) = run(&mut s, &a, 32, 2, 1000, &rows(&late));
        assert!(head_rows.is_empty());
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
        assert_eq!(head(&s, &a, 0), [(5000, 0.0)]);
    }

    #[test]
    fn in_order_run_emits_no_late_chunk_and_borrows_its_rows() {
        let (_d, a) = arenas(4);
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
        let (_d, a) = arenas(3);
        let mut s = obj(&a);
        run(&mut s, &a, 3, 1, 100, &rows(&[(1000, 0.0)]));
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
        let (head_rows, out) = run(&mut s, &a, 3, 11, 100, &rows(&samples));
        assert_eq!(
            head_rows,
            rows(&[(1010, 1.0), (1020, 3.0), (1030, 5.0), (1040, 6.0)])
        );
        let seqs: Vec<(u64, bool)> = out.iter().map(|f| (f.seq, f.late)).collect();
        assert_eq!(seqs, [(12, false), (15, true), (16, true)]);
        assert_eq!(decoded(&out[0]), [(1000, 0.0), (1010, 1.0), (1020, 3.0)]);
        assert_eq!(decoded(&out[1]), [(50, 4.0)]);
        assert_eq!(decoded(&out[2]), [(250, 2.0)]);
        // The head holds 1030 and 1040, the oldest numbered 13.
        assert_eq!(s.head_seq(), Some(13));
        assert_eq!(s.head_count, 2);
    }

    #[test]
    fn relogged_head_counts_from_its_new_numbers() {
        let (_d, a) = arenas(8);
        let mut s = obj(&a);
        assert!(s.relog_head(&a, 7).unwrap().is_empty());
        assert_eq!(s.head_seq(), None);
        run(&mut s, &a, 8, 1, i64::MAX, &rows(&[(10, 1.0), (20, 2.0)]));
        assert_eq!(s.head_seq(), Some(1));
        let again = s.relog_head(&a, 9).unwrap();
        assert_eq!(again, rows(&[(10, 1.0), (20, 2.0)]));
        assert_eq!(s.head_seq(), Some(9));
    }

    #[test]
    fn manual_seal_flushes_partial_head() {
        let (_d, a) = arenas(32);
        let mut s = obj(&a);
        assert!(s.seal(&a, 1).unwrap().is_none());
        run(&mut s, &a, 32, 1, i64::MAX, &rows(&[(10, 1.0), (20, 2.0)]));
        let f = s.seal(&a, 2).unwrap().expect("sealed");
        assert_eq!((f.seq, f.first_ts, f.last_ts, f.late), (2, 10, 20, false));
        assert_eq!(decoded(&f), [(10, 1.0), (20, 2.0)]);
        assert_eq!(s.head_count, 0);
    }

    #[test]
    fn head_survives_page_cache_pressure() {
        let dir = tempfile::tempdir().unwrap();
        // One-page cache: every other access evicts.
        let cache = PageCache::new(PAGE_SIZE);
        let a = Arenas::open(&cache, &dir.path().join("h"), 32, 8).unwrap();
        let mut objs: Vec<Object> = (0..16)
            .map(|i| Object::new(i, Labels::new(), &a).unwrap())
            .collect();
        for round in 0..5i64 {
            for o in objs.iter_mut() {
                let input = rows(&[(round * 100, round as f64)]);
                run(o, &a, 32, round as u64 + 1, i64::MAX, &input);
            }
        }
        for o in &objs {
            assert_eq!(o.head_samples(&a, 0).unwrap().len(), 5);
        }
    }

    // --- groups ---------------------------------------------------------------

    fn tags(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    /// A group with members `a` and `b`.
    fn group(a: &Arenas) -> Object {
        let mut g = Object::new(1 | GROUP_ID_FLAG, tags(&[("host", "h1")]), a).unwrap();
        for m in ["a", "b"] {
            g.add_member(a, tags(&[("m", m)])).unwrap();
        }
        g
    }

    /// Group rows, each `(t, [(slot, value)])`.
    fn group_rows(rows: &[(i64, &[(u32, f64)])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(t, entries) in rows {
            put_group_row(&mut out, t, entries.iter().copied());
        }
        out
    }

    fn group_chunk(f: &Flush) -> (Vec<i64>, Vec<Vec<Option<f64>>>) {
        GroupChunkDecoder::new(&f.chunk)
            .unwrap()
            .decode_all()
            .unwrap()
    }

    #[test]
    fn members_register_and_lookup() {
        let (_d, a) = arenas(8);
        let g = group(&a);
        assert_eq!(g.member_slot(&tags(&[("m", "b")])), Some(1));
        assert_eq!(g.member_slot(&tags(&[("m", "c")])), None);
        assert_eq!(g.members().count(), 2);
        assert!(g.is_group());
        assert!(obj(&a).add_member(&a, tags(&[("m", "a")])).is_err());
    }

    #[test]
    fn group_rows_buffer_and_seal_with_nulls() {
        let (_d, a) = arenas(3);
        let mut g = group(&a);
        // Member 1 missing from the second row (§3.1 case 3).
        let input = group_rows(&[
            (10, &[(0, 1.0), (1, 10.0)]),
            (20, &[(0, 2.0)]),
            (30, &[(0, 3.0), (1, 30.0)]),
        ]);
        let (head_rows, out) = run(&mut g, &a, 3, 1, i64::MAX, &input);
        assert_eq!(head_rows, input);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (3, 10, 30));
        let (ts, cols) = group_chunk(&out[0]);
        assert_eq!(ts, [10, 20, 30]);
        assert_eq!(cols[1], [Some(10.0), None, Some(30.0)]);
        assert_eq!(g.head_count, 0);
    }

    #[test]
    fn late_member_gets_null_backfill() {
        let (_d, a) = arenas(8);
        let mut g = group(&a);
        let input = group_rows(&[(10, &[(0, 1.0)]), (20, &[(0, 2.0)])]);
        run(&mut g, &a, 8, 1, i64::MAX, &input);
        let c = g.add_member(&a, tags(&[("m", "c")])).unwrap();
        run(
            &mut g,
            &a,
            8,
            3,
            i64::MAX,
            &group_rows(&[(30, &[(0, 3.0), (c, 33.0)])]),
        );
        assert_eq!(
            head(&g, &a, c),
            [(30, 33.0)],
            "backfilled rows read as NULL"
        );
        assert_eq!(head(&g, &a, 0), [(10, 1.0), (20, 2.0), (30, 3.0)]);
    }

    #[test]
    fn group_rows_inside_the_head_merge_per_member() {
        let (_d, a) = arenas(8);
        let mut g = group(&a);
        let input = group_rows(&[
            (10, &[(0, 1.0), (1, 2.0)]),
            (30, &[(0, 3.0)]),
            (20, &[(1, 22.0)]),
            (10, &[(1, 9.0)]),
        ]);
        let (_, out) = run(&mut g, &a, 8, 1, i64::MAX, &input);
        assert!(out.is_empty());
        assert_eq!(head(&g, &a, 0), [(10, 1.0), (30, 3.0)]);
        assert_eq!(head(&g, &a, 1), [(10, 9.0), (20, 22.0)]);
        assert_eq!(g.head_count, 3);
    }

    #[test]
    fn late_group_rows_leave_as_one_chunk_merged_per_member() {
        let (_d, a) = arenas(8);
        let mut g = group(&a);
        run(
            &mut g,
            &a,
            8,
            1,
            i64::MAX,
            &group_rows(&[(1000, &[(0, 1.0)])]),
        );
        let late = group_rows(&[
            (500, &[(0, 0.5)]),
            (200, &[(1, 0.2)]),
            (500, &[(1, 5.5)]),
            (500, &[(0, 9.5)]),
        ]);
        let (head_rows, out) = run(&mut g, &a, 8, 2, i64::MAX, &late);
        assert!(head_rows.is_empty());
        assert_eq!(out.len(), 1);
        assert!(out[0].late);
        assert_eq!((out[0].seq, out[0].first_ts, out[0].last_ts), (2, 200, 500));
        let (ts, cols) = group_chunk(&out[0]);
        assert_eq!(ts, [200, 500]);
        assert_eq!(cols, [vec![None, Some(9.5)], vec![Some(0.2), Some(5.5)]]);
        assert_eq!(head(&g, &a, 0), [(1000, 1.0)]);
        let (stats, framed) = g
            .frame_chunk(tu_compress::agg::split_envelope(&out[0].chunk).1)
            .unwrap();
        assert_eq!((framed, stats.min_ts), (out[0].chunk.clone(), 200));
    }

    #[test]
    fn relogged_group_head_keeps_nulls() {
        let (_d, a) = arenas(8);
        let mut g = group(&a);
        let input = group_rows(&[(10, &[(0, 1.0)]), (20, &[(0, 2.0), (1, 22.0)])]);
        run(&mut g, &a, 8, 1, i64::MAX, &input);
        assert_eq!(g.relog_head(&a, 3).unwrap(), input);
        assert_eq!(g.head_seq(), Some(3));
        assert_eq!(g.take_rows(&input, usize::MAX).unwrap(), (input.len(), 2));
    }

    #[test]
    fn bad_rows_are_refused_before_anything_changes() {
        let (_d, a) = arenas(8);
        let mut g = group(&a);
        let input = group_rows(&[(10, &[(0, 1.0)]), (20, &[(5, 1.0)])]);
        let mut out = Vec::new();
        let grid = || i64::MAX;
        assert!(g
            .insert_run(&a, &input, 8, 1, Some(&grid), &mut out)
            .is_err());
        assert!(g
            .insert_run(&a, &input[..20], 8, 1, Some(&grid), &mut out)
            .is_err());
        assert_eq!(g.head_count, 0);
        let mut s = obj(&a);
        assert!(s
            .insert_run(&a, &[0; 17], 8, 1, Some(&grid), &mut out)
            .is_err());
    }

    #[test]
    fn manual_group_seal_round_trips() {
        let (_d, a) = arenas(32);
        let mut g = group(&a);
        assert!(g.seal(&a, 1).unwrap().is_none());
        run(
            &mut g,
            &a,
            32,
            1,
            i64::MAX,
            &group_rows(&[(10, &[(0, 1.5)])]),
        );
        let f = g.seal(&a, 1).unwrap().expect("sealed");
        assert_eq!((f.first_ts, f.last_ts), (10, 10));
        assert_eq!(
            group_chunk(&f),
            (vec![10], vec![vec![Some(1.5)], vec![None]])
        );
        assert_eq!(g.head_count, 0);
    }
}

//! Per-group memory objects (§3.1/§3.2, Figures 7 and 9).
//!
//! A group shares one timestamp column across its members and keeps one
//! value column per member. Both live in file-backed chunk arenas (one for
//! timestamp columns, one for value columns), mirroring Figure 9's "Group
//! MMap Timestamps" and "Group MMap Values" files.
//!
//! Open-chunk slot layouts (raw, so out-of-order rows can be edited in
//! place; compression happens at seal time via the NULL-extended XOR
//! group chunk format):
//!
//! * timestamp slot: `count × i64 LE`
//! * value slot: `count × (u8 present, f64 LE)` — row-aligned with the
//!   timestamp column; `present = 0` encodes NULL.

use std::collections::HashMap;

use tu_common::{Error, GroupId, Labels, Result, Sample, SeriesRef, Timestamp, Value};
use tu_compress::nullxor::GroupChunkEncoder;
use tu_mmap::{ChunkArena, ChunkHandle};

const TS_ROW: usize = 8;
const VAL_ROW: usize = 9;

/// Slot sizes for the two group arenas.
pub fn ts_slot_size(chunk_samples: usize) -> usize {
    chunk_samples * TS_ROW + 2
}

pub fn val_slot_size(chunk_samples: usize) -> usize {
    chunk_samples * VAL_ROW + 2
}

/// One row of a group: its timestamp and the `(slot, value)` of each member
/// present in it.
pub type Row = (Timestamp, Vec<(SeriesRef, Value)>);

/// One member series of a group.
#[derive(Debug)]
pub struct Member {
    pub unique_tags: Labels,
    handle: ChunkHandle,
}

/// Result of inserting one row into a group head.
#[derive(Debug, PartialEq)]
pub enum GroupInsert {
    Buffered,
    /// The chunk filled up and was sealed.
    Sealed {
        first_ts: Timestamp,
        last_ts: Timestamp,
        chunk: Vec<u8>,
    },
    /// The row is older than the open chunk; the engine writes it to the
    /// tree directly.
    OlderThanHead,
}

/// The memory object of one timeseries group.
#[derive(Debug)]
pub struct GroupObject {
    pub gid: GroupId,
    pub group_tags: Labels,
    members: Vec<Member>,
    member_index: HashMap<Vec<u8>, SeriesRef>,
    ts_handle: ChunkHandle,
    pub seq: u64,
    pub last_ts: Timestamp,
    head_count: u16,
    head_first: Timestamp,
    head_last: Timestamp,
    /// WAL sequence number of the oldest row in the head (while non-empty).
    head_seq: u64,
}

fn decode_ts(payload: &[u8]) -> Result<Vec<Timestamp>> {
    if payload.len() % TS_ROW != 0 {
        return Err(Error::corruption("group timestamp slot misaligned"));
    }
    Ok(payload
        .chunks_exact(TS_ROW)
        .map(tu_common::bytes::i64_le)
        .collect())
}

fn encode_ts(ts: &[Timestamp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ts.len() * TS_ROW);
    for t in ts {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

fn decode_vals(payload: &[u8]) -> Result<Vec<Option<Value>>> {
    if payload.len() % VAL_ROW != 0 {
        return Err(Error::corruption("group value slot misaligned"));
    }
    Ok(payload
        .chunks_exact(VAL_ROW)
        .map(|r| (r[0] != 0).then(|| tu_common::bytes::f64_le(&r[1..])))
        .collect())
}

fn encode_vals(vals: &[Option<Value>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * VAL_ROW);
    for v in vals {
        match v {
            Some(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0f64.to_le_bytes());
            }
        }
    }
    out
}

impl GroupObject {
    /// Creates the group, allocating its shared timestamp slot.
    pub fn new(gid: GroupId, group_tags: Labels, ts_arena: &ChunkArena) -> Result<Self> {
        let ts_handle = ts_arena.alloc()?;
        ts_arena.write(ts_handle, &[])?;
        Ok(GroupObject {
            gid,
            group_tags,
            members: Vec::new(),
            member_index: HashMap::new(),
            ts_handle,
            seq: 0,
            last_ts: i64::MIN,
            head_count: 0,
            head_first: 0,
            head_last: i64::MIN,
            head_seq: 0,
        })
    }

    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    pub fn member_tags(&self, slot: SeriesRef) -> Option<&Labels> {
        self.members.get(slot as usize).map(|m| &m.unique_tags)
    }

    /// Finds a member by its unique tags.
    pub fn member_slot(&self, unique_tags: &Labels) -> Option<SeriesRef> {
        self.member_index.get(&unique_tags.to_bytes()).copied()
    }

    /// Adds a member (§3.1 case 2: new timeseries joining). Earlier rows
    /// of the open chunk are backfilled with NULL. Returns the new slot.
    pub fn add_member(&mut self, val_arena: &ChunkArena, unique_tags: Labels) -> Result<SeriesRef> {
        let handle = val_arena.alloc()?;
        val_arena.write(handle, &encode_vals(&vec![None; self.head_count as usize]))?;
        let slot = self.members.len() as SeriesRef;
        self.member_index.insert(unique_tags.to_bytes(), slot);
        self.members.push(Member {
            unique_tags,
            handle,
        });
        Ok(slot)
    }

    /// Number of rows buffered in the open chunk.
    pub fn head_len(&self) -> u16 {
        self.head_count
    }

    pub fn head_first_ts(&self) -> Option<Timestamp> {
        (self.head_count > 0).then_some(self.head_first)
    }

    /// WAL sequence number of the oldest row in the open chunk, if any: a
    /// checkpoint must stay below it.
    pub fn head_seq(&self) -> Option<u64> {
        (self.head_count > 0).then_some(self.head_seq)
    }

    /// Inserts one row: a shared timestamp plus `(slot, value)` entries
    /// for the members present in this round; absent members get NULL
    /// (§3.1 cases 1 and 3). Handles in-head out-of-order rows (case 4).
    /// The caller has numbered the row already: it is `seq`.
    pub fn insert_row(
        &mut self,
        ts_arena: &ChunkArena,
        val_arena: &ChunkArena,
        t: Timestamp,
        entries: &[(SeriesRef, Value)],
        cap: usize,
    ) -> Result<GroupInsert> {
        for (slot, _) in entries {
            if *slot as usize >= self.members.len() {
                return Err(Error::invalid(format!(
                    "member slot {slot} out of range ({} members)",
                    self.members.len()
                )));
            }
        }
        if self.head_count > 0 && t < self.head_first {
            return Ok(GroupInsert::OlderThanHead);
        }
        let head_last = if self.head_count == 0 {
            i64::MIN
        } else {
            self.head_last
        };
        if self.head_count == 0 || t > head_last {
            // In-order append: extend the timestamp column and each value
            // column by one row — no read-modify-write.
            let provided: HashMap<SeriesRef, Value> = entries.iter().copied().collect();
            let n = self.head_count as usize;
            if n == 0 {
                ts_arena.write(self.ts_handle, &t.to_le_bytes())?;
                self.head_first = t;
                self.head_seq = self.seq;
            } else {
                ts_arena.append(self.ts_handle, n * TS_ROW, &t.to_le_bytes())?;
            }
            for (idx, member) in self.members.iter().enumerate() {
                let mut row = [0u8; VAL_ROW];
                if let Some(v) = provided.get(&(idx as SeriesRef)) {
                    row[0] = 1;
                    row[1..].copy_from_slice(&v.to_le_bytes());
                }
                if n == 0 {
                    val_arena.write(member.handle, &row)?;
                } else {
                    val_arena.append(member.handle, n * VAL_ROW, &row)?;
                }
            }
            self.head_count += 1;
            self.head_last = t;
        } else {
            // Out-of-order within the head, or duplicate timestamp: full
            // read-modify-write of the affected columns (rare path).
            let mut ts = decode_ts(&ts_arena.read(self.ts_handle)?)?;
            let (row, new_row) = match ts.binary_search(&t) {
                Ok(i) => (i, false),
                Err(i) => {
                    ts.insert(i, t);
                    (i, true)
                }
            };
            let provided: HashMap<SeriesRef, Value> = entries.iter().copied().collect();
            for (idx, member) in self.members.iter().enumerate() {
                let mut col = decode_vals(&val_arena.read(member.handle)?)?;
                let value = provided.get(&(idx as SeriesRef)).copied();
                if new_row {
                    col.insert(row, value);
                } else if let Some(v) = value {
                    col[row] = Some(v); // replace on duplicate timestamp
                }
                if new_row || value.is_some() {
                    val_arena.write(member.handle, &encode_vals(&col))?;
                }
            }
            if new_row {
                ts_arena.write(self.ts_handle, &encode_ts(&ts))?;
            }
            self.head_first = ts[0];
            self.head_last = *ts
                .last()
                .ok_or_else(|| Error::corruption("group head empty after insert"))?;
            self.head_count = ts.len() as u16;
        }
        self.last_ts = self.last_ts.max(t);
        if (self.head_count as usize) >= cap {
            let ts = decode_ts(&ts_arena.read(self.ts_handle)?)?;
            let chunk = self.build_chunk(&ts, val_arena)?;
            let first_ts = self.head_first;
            let last_ts = *ts
                .last()
                .ok_or_else(|| Error::corruption("sealing an empty group head"))?;
            self.clear_head(ts_arena, val_arena)?;
            return Ok(GroupInsert::Sealed {
                first_ts,
                last_ts,
                chunk,
            });
        }
        Ok(GroupInsert::Buffered)
    }

    fn build_chunk(&self, ts: &[Timestamp], val_arena: &ChunkArena) -> Result<Vec<u8>> {
        let mut enc = GroupChunkEncoder::new(self.members.len());
        let cols: Vec<Vec<Option<Value>>> = self
            .members
            .iter()
            .map(|m| decode_vals(&val_arena.read(m.handle)?))
            .collect::<Result<_>>()?;
        for (row, &t) in ts.iter().enumerate() {
            let values: Vec<Option<Value>> = cols.iter().map(|c| c[row]).collect();
            enc.append_row(t, &values)?;
        }
        Ok(enc.finish_framed())
    }

    fn clear_head(&mut self, ts_arena: &ChunkArena, val_arena: &ChunkArena) -> Result<()> {
        ts_arena.write(self.ts_handle, &[])?;
        for m in &self.members {
            val_arena.write(m.handle, &[])?;
        }
        self.head_count = 0;
        self.head_last = i64::MIN;
        Ok(())
    }

    /// Seals whatever is buffered.
    pub fn seal(
        &mut self,
        ts_arena: &ChunkArena,
        val_arena: &ChunkArena,
    ) -> Result<Option<(Timestamp, Timestamp, Vec<u8>)>> {
        if self.head_count == 0 {
            return Ok(None);
        }
        let ts = decode_ts(&ts_arena.read(self.ts_handle)?)?;
        let chunk = self.build_chunk(&ts, val_arena)?;
        let first_ts = self.head_first;
        let last_ts = *ts
            .last()
            .ok_or_else(|| Error::corruption("sealing an empty group head"))?;
        self.clear_head(ts_arena, val_arena)?;
        Ok(Some((first_ts, last_ts, chunk)))
    }

    /// Buffered rows of one member: a sample for each non-NULL row.
    pub fn head_samples_of(
        &self,
        ts_arena: &ChunkArena,
        val_arena: &ChunkArena,
        slot: SeriesRef,
    ) -> Result<Vec<Sample>> {
        let member = self
            .members
            .get(slot as usize)
            .ok_or_else(|| Error::invalid(format!("member slot {slot} out of range")))?;
        if self.head_count == 0 {
            return Ok(Vec::new());
        }
        let ts = decode_ts(&ts_arena.read(self.ts_handle)?)?;
        let col = decode_vals(&val_arena.read(member.handle)?)?;
        Ok(ts
            .iter()
            .zip(col)
            .filter_map(|(&t, v)| v.map(|v| Sample::new(t, v)))
            .collect())
    }

    /// The head's rows, to be logged again one record each under sequence
    /// numbers from `first_seq` on, which they count as from now on (see
    /// `SeriesObject::relog_head`).
    pub fn relog_head(
        &mut self,
        ts_arena: &ChunkArena,
        val_arena: &ChunkArena,
        first_seq: u64,
    ) -> Result<Vec<Row>> {
        if self.head_count == 0 {
            return Ok(Vec::new());
        }
        self.head_seq = first_seq;
        let ts = decode_ts(&ts_arena.read(self.ts_handle)?)?;
        let mut rows: Vec<Row> = ts.into_iter().map(|t| (t, Vec::new())).collect();
        for (slot, member) in self.members.iter().enumerate() {
            let col = decode_vals(&val_arena.read(member.handle)?)?;
            for ((_, entries), v) in rows.iter_mut().zip(col) {
                if let Some(v) = v {
                    entries.push((slot as SeriesRef, v));
                }
            }
        }
        Ok(rows)
    }

    /// Releases all arena slots (retention purge of the whole group).
    pub fn release(self, ts_arena: &ChunkArena, val_arena: &ChunkArena) -> Result<()> {
        ts_arena.free(self.ts_handle)?;
        for m in self.members {
            val_arena.free(m.handle)?;
        }
        Ok(())
    }

    /// Iterates member slots with their unique tags.
    pub fn members(&self) -> impl Iterator<Item = (SeriesRef, &Labels)> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (i as SeriesRef, &m.unique_tags))
    }

    /// Rough heap footprint (head data is file-backed).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.group_tags.heap_bytes()
            + self
                .members
                .iter()
                .map(|m| std::mem::size_of::<Member>() + m.unique_tags.heap_bytes())
                .sum::<usize>()
            + self.member_index.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tu_common::GROUP_ID_FLAG;
    use tu_compress::nullxor::GroupChunkDecoder;
    use tu_mmap::pagecache::{PageCache, PAGE_SIZE};

    fn arenas(cap: usize) -> (tempfile::TempDir, ChunkArena, ChunkArena) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        let ts = ChunkArena::open(
            Arc::clone(&cache),
            dir.path().join("gts"),
            ts_slot_size(cap),
            64,
        )
        .unwrap();
        let vals =
            ChunkArena::open(cache, dir.path().join("gvals"), val_slot_size(cap), 256).unwrap();
        (dir, ts, vals)
    }

    fn tags(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    fn group(ts: &ChunkArena) -> GroupObject {
        GroupObject::new(1 | GROUP_ID_FLAG, tags(&[("host", "h1")]), ts).unwrap()
    }

    #[test]
    fn members_register_and_lookup() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        let a = g.add_member(&va, tags(&[("metric", "cpu")])).unwrap();
        let b = g.add_member(&va, tags(&[("metric", "mem")])).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(g.member_slot(&tags(&[("metric", "mem")])), Some(1));
        assert_eq!(g.member_slot(&tags(&[("metric", "disk")])), None);
        assert_eq!(g.member_count(), 2);
    }

    #[test]
    fn rows_buffer_and_seal_with_nulls() {
        let (_d, tsa, va) = arenas(3);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.add_member(&va, tags(&[("m", "b")])).unwrap();
        assert_eq!(
            g.insert_row(&tsa, &va, 10, &[(0, 1.0), (1, 10.0)], 3)
                .unwrap(),
            GroupInsert::Buffered
        );
        // Member 1 missing this round (§3.1 case 3).
        assert_eq!(
            g.insert_row(&tsa, &va, 20, &[(0, 2.0)], 3).unwrap(),
            GroupInsert::Buffered
        );
        match g
            .insert_row(&tsa, &va, 30, &[(0, 3.0), (1, 30.0)], 3)
            .unwrap()
        {
            GroupInsert::Sealed {
                first_ts,
                last_ts,
                chunk,
            } => {
                assert_eq!((first_ts, last_ts), (10, 30));
                let dec = GroupChunkDecoder::new(&chunk).unwrap();
                assert_eq!(dec.decode_timestamps().unwrap(), vec![10, 20, 30]);
                assert_eq!(
                    dec.decode_column(1).unwrap(),
                    vec![Some(10.0), None, Some(30.0)]
                );
            }
            other => panic!("expected seal, got {other:?}"),
        }
        assert_eq!(g.head_len(), 0);
    }

    #[test]
    fn late_member_gets_null_backfill() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.insert_row(&tsa, &va, 10, &[(0, 1.0)], 8).unwrap();
        g.insert_row(&tsa, &va, 20, &[(0, 2.0)], 8).unwrap();
        let b = g.add_member(&va, tags(&[("m", "b")])).unwrap();
        g.insert_row(&tsa, &va, 30, &[(0, 3.0), (b, 33.0)], 8)
            .unwrap();
        assert_eq!(
            g.head_samples_of(&tsa, &va, b).unwrap(),
            vec![Sample::new(30, 33.0)],
            "backfilled rows must read as NULL"
        );
        assert_eq!(
            g.head_samples_of(&tsa, &va, 0).unwrap(),
            vec![
                Sample::new(10, 1.0),
                Sample::new(20, 2.0),
                Sample::new(30, 3.0)
            ]
        );
    }

    #[test]
    fn out_of_order_within_head_inserts_row() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.add_member(&va, tags(&[("m", "b")])).unwrap();
        g.insert_row(&tsa, &va, 10, &[(0, 1.0)], 8).unwrap();
        g.insert_row(&tsa, &va, 30, &[(0, 3.0)], 8).unwrap();
        g.insert_row(&tsa, &va, 20, &[(1, 22.0)], 8).unwrap();
        assert_eq!(
            g.head_samples_of(&tsa, &va, 0).unwrap(),
            vec![Sample::new(10, 1.0), Sample::new(30, 3.0)]
        );
        assert_eq!(
            g.head_samples_of(&tsa, &va, 1).unwrap(),
            vec![Sample::new(20, 22.0)]
        );
        assert_eq!(g.head_len(), 3);
    }

    #[test]
    fn duplicate_timestamp_replaces_only_provided_members() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.add_member(&va, tags(&[("m", "b")])).unwrap();
        g.insert_row(&tsa, &va, 10, &[(0, 1.0), (1, 2.0)], 8)
            .unwrap();
        g.insert_row(&tsa, &va, 10, &[(1, 9.0)], 8).unwrap();
        assert_eq!(
            g.head_samples_of(&tsa, &va, 0).unwrap(),
            vec![Sample::new(10, 1.0)]
        );
        assert_eq!(
            g.head_samples_of(&tsa, &va, 1).unwrap(),
            vec![Sample::new(10, 9.0)]
        );
        assert_eq!(g.head_len(), 1);
    }

    #[test]
    fn older_than_head_signalled() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.insert_row(&tsa, &va, 1000, &[(0, 1.0)], 8).unwrap();
        assert_eq!(
            g.insert_row(&tsa, &va, 500, &[(0, 0.5)], 8).unwrap(),
            GroupInsert::OlderThanHead
        );
    }

    #[test]
    fn relogged_head_keeps_nulls_and_counts_from_its_new_numbers() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        g.add_member(&va, tags(&[("m", "b")])).unwrap();
        assert!(g.relog_head(&tsa, &va, 7).unwrap().is_empty());
        assert_eq!(g.head_seq(), None);
        for (t, entries) in [(10, vec![(0, 1.0)]), (20, vec![(0, 2.0), (1, 22.0)])] {
            g.seq += 1;
            g.insert_row(&tsa, &va, t, &entries, 8).unwrap();
        }
        assert_eq!(g.head_seq(), Some(1), "numbered by the row that opened it");
        let rows = g.relog_head(&tsa, &va, 3).unwrap();
        assert_eq!(
            rows,
            vec![(10, vec![(0, 1.0)]), (20, vec![(0, 2.0), (1, 22.0)])]
        );
        assert_eq!(g.head_seq(), Some(3));
        assert_eq!(g.head_len(), 2, "the head itself is unchanged");
    }

    #[test]
    fn bad_slot_is_rejected() {
        let (_d, tsa, va) = arenas(8);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        assert!(g.insert_row(&tsa, &va, 10, &[(5, 1.0)], 8).is_err());
        assert!(g.head_samples_of(&tsa, &va, 9).is_err());
    }

    #[test]
    fn manual_seal_round_trips() {
        let (_d, tsa, va) = arenas(32);
        let mut g = group(&tsa);
        g.add_member(&va, tags(&[("m", "a")])).unwrap();
        assert!(g.seal(&tsa, &va).unwrap().is_none());
        g.insert_row(&tsa, &va, 10, &[(0, 1.5)], 32).unwrap();
        let (first, last, chunk) = g.seal(&tsa, &va).unwrap().expect("sealed");
        assert_eq!((first, last), (10, 10));
        let dec = GroupChunkDecoder::new(&chunk).unwrap();
        assert_eq!(dec.decode_column(0).unwrap(), vec![Some(1.5)]);
        assert_eq!(g.head_len(), 0);
    }
}

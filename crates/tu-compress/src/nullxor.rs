//! The group chunk format: one shared timestamp column plus one
//! NULL-capable XOR value column per member series (§3.1, Figure 7).
//!
//! The paper extends the Gorilla XOR algorithm with an extra control bit so
//! a column can record NULL for rows where its series reported no sample
//! (new series joining mid-chunk, or series missing from an insertion
//! round). Each column is an independent bitstream, so queries that touch a
//! subset of a group's series decode only those columns plus the shared
//! timestamps.
//!
//! Serialized layout:
//!
//! ```text
//! u16 LE row count | u16 LE column count
//! varint len | timestamp bitstream (delta-of-delta)
//! repeat per column: varint len | column bitstream
//! ```

use crate::agg::{self, AggKind, AggState, ChunkStats};
use crate::bitstream::{BitReader, BitWriter};
use crate::gorilla::{TsCodec, XorDecoder, XorEncoder, STREAM_CAPACITY};
use tu_common::varint;
use tu_common::{Error, Result, Timestamp, Value};

/// One NULL-capable XOR value column under construction.
#[derive(Debug, Clone)]
struct ColEncoder {
    w: BitWriter,
    xor: XorEncoder,
}

impl ColEncoder {
    fn new() -> Self {
        ColEncoder {
            w: BitWriter::with_capacity(STREAM_CAPACITY),
            xor: XorEncoder::new(),
        }
    }

    fn push(&mut self, v: Option<Value>) {
        match v {
            None => self.w.write_bit(false),
            Some(v) => {
                self.w.write_bit(true);
                self.xor.encode(&mut self.w, v);
            }
        }
    }
}

/// Encoder for a group chunk.
///
/// Rows must be appended in strictly increasing timestamp order; columns
/// may be added at any point (earlier rows are backfilled with NULL, §3.1
/// case 2).
#[derive(Debug, Clone)]
pub struct GroupChunkEncoder {
    ts_w: BitWriter,
    ts: TsCodec,
    cols: Vec<ColEncoder>,
    rows: u16,
    first_ts: Timestamp,
    last_ts: Timestamp,
    vstats: AggState,
}

impl Default for GroupChunkEncoder {
    fn default() -> Self {
        Self::new(0)
    }
}

impl GroupChunkEncoder {
    /// Creates an encoder with `columns` initial value columns.
    pub fn new(columns: usize) -> Self {
        GroupChunkEncoder {
            ts_w: BitWriter::new(),
            ts: TsCodec::new(),
            cols: (0..columns).map(|_| ColEncoder::new()).collect(),
            rows: 0,
            first_ts: 0,
            last_ts: i64::MIN,
            vstats: AggState::new(),
        }
    }

    /// Number of value columns.
    pub fn columns(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows appended.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn first_ts(&self) -> Timestamp {
        self.first_ts
    }

    pub fn last_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// Adds a new column (a series joining the group), backfilling NULLs
    /// for all rows already encoded. Returns the new column index.
    pub fn add_column(&mut self) -> usize {
        let mut col = ColEncoder::new();
        for _ in 0..self.rows {
            col.push(None);
        }
        self.cols.push(col);
        self.cols.len() - 1
    }

    /// Appends one row: a shared timestamp plus one optional value per
    /// column (`None` marks a missing series, §3.1 case 3).
    pub fn append_row(&mut self, t: Timestamp, values: &[Option<Value>]) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(Error::invalid(format!(
                "row has {} values but the group has {} columns",
                values.len(),
                self.cols.len()
            )));
        }
        self.append_row_with(t, |c| values[c])
    }

    /// Appends one row whose value in column `c` is `value(c)`, asked of
    /// every column in order, so the caller needs no row buffer.
    pub fn append_row_with(
        &mut self,
        t: Timestamp,
        mut value: impl FnMut(usize) -> Option<Value>,
    ) -> Result<()> {
        if self.rows > 0 && t <= self.last_ts {
            return Err(Error::invalid(format!(
                "group rows must be strictly increasing: {t} after {}",
                self.last_ts
            )));
        }
        let rows = self
            .rows
            .checked_add(1)
            .ok_or_else(|| Error::invalid("a group chunk holds at most 65535 rows"))?;
        self.ts.encode(&mut self.ts_w, t)?;
        if self.rows == 0 {
            self.first_ts = t;
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            let v = value(c);
            col.push(v);
            // Row by row, column by column: the order the stats footer's
            // float sum was always folded in.
            if let Some(v) = v {
                self.vstats.observe(t, v);
            }
        }
        self.last_ts = t;
        self.rows = rows;
        Ok(())
    }

    /// Stats footer over the chunk: time bounds from the shared timestamp
    /// column, value bounds/sum/count folded across the present (non-NULL)
    /// values of every column. `None` when the chunk has no rows.
    pub fn stats(&self) -> Option<ChunkStats> {
        if self.rows == 0 {
            return None;
        }
        Some(ChunkStats {
            min_ts: self.first_ts,
            max_ts: self.last_ts,
            count: self.vstats.count.min(u64::from(u32::MAX)) as u32,
            min_v: self.vstats.min,
            max_v: self.vstats.max,
            sum: self.vstats.sum,
        })
    }

    /// Serializes the chunk.
    pub fn finish(self) -> Vec<u8> {
        self.serialize(None)
    }

    /// Serializes the chunk inside a stats envelope; chunks with no rows
    /// fall back to the legacy layout.
    pub fn finish_framed(self) -> Vec<u8> {
        let stats = self.stats();
        self.serialize(stats.as_ref())
    }

    /// The envelope for `stats`, if any, the header and every bitstream,
    /// in one buffer sized up front.
    fn serialize(self, stats: Option<&ChunkStats>) -> Vec<u8> {
        let columns = self.cols.len() as u16;
        let streams: Vec<Vec<u8>> = std::iter::once(self.ts_w)
            .chain(self.cols.into_iter().map(|c| c.w))
            .map(BitWriter::finish)
            .collect();
        let body: usize = streams
            .iter()
            .map(|b| varint::encoded_len_u64(b.len() as u64) + b.len())
            .sum();
        let mut out = Vec::with_capacity(agg::ENVELOPE_HEADER_LEN + 4 + body);
        if let Some(stats) = stats {
            agg::put_envelope(stats, &mut out);
        }
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&columns.to_le_bytes());
        for bytes in &streams {
            varint::write_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        out
    }
}

/// Decoder for group chunks.
///
/// Accepts both stats-framed (version 1) and legacy pre-stats bytes;
/// [`GroupChunkDecoder::stats`] exposes the footer when present.
pub struct GroupChunkDecoder<'a> {
    rows: u16,
    ts_bytes: &'a [u8],
    col_bytes: Vec<&'a [u8]>,
    stats: Option<ChunkStats>,
}

impl<'a> GroupChunkDecoder<'a> {
    pub fn new(outer: &'a [u8]) -> Result<Self> {
        let (stats, bytes) = agg::split_envelope(outer);
        if bytes.len() < 4 {
            return Err(Error::corruption("group chunk shorter than its header"));
        }
        let rows = u16::from_le_bytes([bytes[0], bytes[1]]);
        let cols = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        let mut off = 4;
        let ts_bytes = stream(bytes, &mut off, || "timestamp column".into())?;
        let mut col_bytes = Vec::with_capacity(cols);
        for i in 0..cols {
            col_bytes.push(stream(bytes, &mut off, || format!("column {i}"))?);
        }
        Ok(GroupChunkDecoder {
            rows,
            ts_bytes,
            col_bytes,
            stats,
        })
    }

    pub fn rows(&self) -> u16 {
        self.rows
    }

    pub fn columns(&self) -> usize {
        self.col_bytes.len()
    }

    /// The per-chunk stats footer, when the chunk was stats-framed.
    pub fn stats(&self) -> Option<&ChunkStats> {
        self.stats.as_ref()
    }

    /// Decodes the shared timestamp column.
    pub fn decode_timestamps(&self) -> Result<Vec<Timestamp>> {
        let mut out = Vec::new();
        self.decode_timestamps_into(&mut out)?;
        Ok(out)
    }

    /// Decodes the shared timestamp column into a reusable buffer
    /// (cleared first).
    pub fn decode_timestamps_into(&self, out: &mut Vec<Timestamp>) -> Result<()> {
        let mut r = BitReader::new(self.ts_bytes);
        let mut codec = TsCodec::new();
        out.clear();
        out.reserve(self.rows as usize);
        for _ in 0..self.rows {
            out.push(codec.decode(&mut r)?);
        }
        Ok(())
    }

    /// Streams the present (non-NULL) samples of one column through `f`,
    /// pairing each with the already-decoded shared timestamps, without
    /// materializing an `Option<Value>` vector.
    pub fn for_each_in_column(
        &self,
        idx: usize,
        ts: &[Timestamp],
        mut f: impl FnMut(Timestamp, Value),
    ) -> Result<()> {
        let bytes = self
            .col_bytes
            .get(idx)
            .ok_or_else(|| Error::invalid(format!("column {idx} out of range")))?;
        if ts.len() != self.rows as usize {
            return Err(Error::invalid(format!(
                "timestamp buffer has {} rows but the chunk has {}",
                ts.len(),
                self.rows
            )));
        }
        let mut r = BitReader::new(bytes);
        let mut xor = XorDecoder::new();
        for &t in ts {
            if r.read_bit()? {
                f(t, xor.decode(&mut r)?);
            }
        }
        Ok(())
    }

    /// Streaming fold: computes one [`AggKind`] over the present samples
    /// of one column in a single pass. `None` means the aggregate is
    /// undefined for the column (all NULL; rate over fewer than two
    /// samples).
    pub fn fold_column(
        &self,
        idx: usize,
        kind: AggKind,
        ts: &[Timestamp],
    ) -> Result<Option<Value>> {
        let mut st = AggState::new();
        self.for_each_in_column(idx, ts, |t, v| st.observe(t, v))?;
        Ok(st.value(kind))
    }

    /// Batch decode of one column into reusable columnar buffers holding
    /// only the present samples (buffers are cleared first).
    pub fn decode_column_into(
        &self,
        idx: usize,
        ts: &[Timestamp],
        out_ts: &mut Vec<Timestamp>,
        out_vs: &mut Vec<Value>,
    ) -> Result<()> {
        out_ts.clear();
        out_vs.clear();
        self.for_each_in_column(idx, ts, |t, v| {
            out_ts.push(t);
            out_vs.push(v);
        })
    }

    /// Decodes one value column; `None` entries are NULL rows.
    pub fn decode_column(&self, idx: usize) -> Result<Vec<Option<Value>>> {
        let bytes = self
            .col_bytes
            .get(idx)
            .ok_or_else(|| Error::invalid(format!("column {idx} out of range")))?;
        let mut r = BitReader::new(bytes);
        let mut xor = XorDecoder::new();
        let mut out = Vec::with_capacity(self.rows as usize);
        for _ in 0..self.rows {
            if r.read_bit()? {
                out.push(Some(xor.decode(&mut r)?));
            } else {
                out.push(None);
            }
        }
        Ok(out)
    }

    /// Decodes the whole chunk into rows of `(timestamp, values)`.
    pub fn decode_all(&self) -> Result<(Vec<Timestamp>, Vec<Vec<Option<Value>>>)> {
        let ts = self.decode_timestamps()?;
        let cols = (0..self.columns())
            .map(|i| self.decode_column(i))
            .collect::<Result<Vec<_>>>()?;
        Ok((ts, cols))
    }
}

/// The length-prefixed bitstream at `*off` in `bytes`, moving `off` past
/// it; `what` names it in the error when it runs past the end.
fn stream<'a>(bytes: &'a [u8], off: &mut usize, what: impl Fn() -> String) -> Result<&'a [u8]> {
    let (len, n) = varint::read_u64(&bytes[*off..])?;
    let start = *off + n;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| start.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| Error::corruption(format!("group chunk {} truncated", what())))?;
    *off = end;
    Ok(&bytes[start..end])
}

/// Puts legacy group chunk bytes in a stats envelope: the bytes
/// [`GroupChunkEncoder::finish_framed`] wrote for the same rows. A framed
/// or empty chunk is refused.
pub fn frame_chunk(inner: &[u8]) -> Result<(ChunkStats, Vec<u8>)> {
    let dec = GroupChunkDecoder::new(inner)?;
    if dec.stats().is_some() {
        return Err(Error::invalid("chunk is framed already"));
    }
    let (ts, cols) = dec.decode_all()?;
    let mut enc = GroupChunkEncoder::new(cols.len());
    for (i, &t) in ts.iter().enumerate() {
        enc.append_row_with(t, |c| cols[c][i])?;
    }
    let stats = enc
        .stats()
        .ok_or_else(|| Error::corruption("empty chunk"))?;
    Ok((stats, enc.finish_framed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_chunk_restores_the_framed_bytes() {
        let encoder = || {
            let mut enc = GroupChunkEncoder::new(2);
            enc.append_row(5, &[Some(1.5), None]).unwrap();
            enc.append_row(9, &[None, Some(-2.0)]).unwrap();
            enc
        };
        let framed = encoder().finish_framed();
        let (stats, again) = frame_chunk(&encoder().finish()).unwrap();
        assert_eq!(again, framed);
        assert_eq!((stats.min_ts, stats.max_ts, stats.count), (5, 9, 2));
        assert!(frame_chunk(&framed).is_err(), "framed twice");
        let empty = GroupChunkEncoder::new(1).finish();
        assert!(frame_chunk(&empty).is_err(), "empty");
    }

    fn round_trip(ts: &[Timestamp], cols: &[Vec<Option<f64>>]) {
        let mut enc = GroupChunkEncoder::new(cols.len());
        for (row, &t) in ts.iter().enumerate() {
            let values: Vec<Option<f64>> = cols.iter().map(|c| c[row]).collect();
            enc.append_row(t, &values).unwrap();
        }
        let bytes = enc.finish();
        let dec = GroupChunkDecoder::new(&bytes).unwrap();
        assert_eq!(dec.rows() as usize, ts.len());
        assert_eq!(dec.columns(), cols.len());
        assert_eq!(dec.decode_timestamps().unwrap(), ts);
        for (i, col) in cols.iter().enumerate() {
            let got = dec.decode_column(i).unwrap();
            assert_eq!(got.len(), col.len());
            for (a, b) in col.iter().zip(&got) {
                match (a, b) {
                    (Some(x), Some(y)) => assert!(x == y || (x.is_nan() && y.is_nan())),
                    (None, None) => {}
                    other => panic!("null mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_group_chunk() {
        round_trip(&[], &[]);
        round_trip(&[], &[vec![], vec![]]);
    }

    #[test]
    fn dense_group_all_present() {
        let ts: Vec<i64> = (0..32).map(|i| 1_000 + i * 10_000).collect();
        let cols: Vec<Vec<Option<f64>>> = (0..5)
            .map(|c| (0..32).map(|r| Some((c * 100 + r) as f64 * 0.5)).collect())
            .collect();
        round_trip(&ts, &cols);
    }

    #[test]
    fn null_rows_round_trip() {
        let ts = vec![10, 20, 30, 40];
        let cols = vec![
            vec![Some(1.0), None, Some(3.0), None],
            vec![None, None, None, None],
            vec![None, Some(2.0), Some(2.0), Some(5.5)],
        ];
        round_trip(&ts, &cols);
    }

    #[test]
    fn add_column_backfills_nulls() {
        let mut enc = GroupChunkEncoder::new(1);
        enc.append_row(10, &[Some(1.0)]).unwrap();
        enc.append_row(20, &[Some(2.0)]).unwrap();
        let idx = enc.add_column();
        assert_eq!(idx, 1);
        enc.append_row(30, &[Some(3.0), Some(30.0)]).unwrap();
        let bytes = enc.finish();
        let dec = GroupChunkDecoder::new(&bytes).unwrap();
        assert_eq!(dec.decode_column(1).unwrap(), vec![None, None, Some(30.0)]);
        assert_eq!(
            dec.decode_column(0).unwrap(),
            vec![Some(1.0), Some(2.0), Some(3.0)]
        );
    }

    #[test]
    fn wrong_arity_and_regressing_time_are_rejected() {
        let mut enc = GroupChunkEncoder::new(2);
        assert!(enc.append_row(10, &[Some(1.0)]).is_err());
        enc.append_row(10, &[Some(1.0), None]).unwrap();
        assert!(enc.append_row(10, &[None, None]).is_err());
        assert!(enc.append_row(5, &[None, None]).is_err());
    }

    #[test]
    fn shared_timestamps_beat_per_series_storage() {
        // The Table 3 effect: a group of 20 series sharing timestamps is
        // much smaller than 20 individual chunks. Scrape timestamps jitter
        // by a few milliseconds, as they do in real deployments, so each
        // individual chunk pays delta-of-delta bits for every sample while
        // the group pays them once.
        let ts: Vec<i64> = (0..32).map(|i| i * 30_000 + (i % 7) * 13).collect();
        let mut group = GroupChunkEncoder::new(20);
        for &t in &ts {
            let vals: Vec<Option<f64>> = (0..20).map(|c| Some(c as f64)).collect();
            group.append_row(t, &vals).unwrap();
        }
        let group_bytes = group.finish().len();

        let mut individual = 0;
        for c in 0..20 {
            let samples: Vec<tu_common::Sample> = ts
                .iter()
                .map(|&t| tu_common::Sample::new(t, c as f64))
                .collect();
            individual += crate::gorilla::compress_chunk(&samples).unwrap().len();
        }
        assert!(
            (group_bytes as f64) < individual as f64 * 0.7,
            "group {group_bytes} B vs individual {individual} B"
        );
    }

    #[test]
    fn framed_group_chunk_round_trips_and_exposes_stats() {
        let mut enc = GroupChunkEncoder::new(2);
        enc.append_row(10, &[Some(1.0), None]).unwrap();
        enc.append_row(20, &[Some(-3.0), Some(8.0)]).unwrap();
        enc.append_row(30, &[None, Some(2.0)]).unwrap();
        let legacy_len = enc.clone().finish().len();
        let framed = enc.finish_framed();
        assert_eq!(framed.len(), legacy_len + agg::ENVELOPE_HEADER_LEN);

        let dec = GroupChunkDecoder::new(&framed).unwrap();
        let stats = *dec.stats().expect("framed group chunk carries stats");
        assert_eq!(stats.min_ts, 10);
        assert_eq!(stats.max_ts, 30);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.min_v, -3.0);
        assert_eq!(stats.max_v, 8.0);
        assert_eq!(dec.rows(), 3);
        assert_eq!(dec.decode_timestamps().unwrap(), vec![10, 20, 30]);
        assert_eq!(
            dec.decode_column(0).unwrap(),
            vec![Some(1.0), Some(-3.0), None]
        );
    }

    #[test]
    fn streaming_column_paths_match_decode_column() {
        let ts: Vec<i64> = (0..40).map(|i| i * 15_000 + (i % 5)).collect();
        let mut enc = GroupChunkEncoder::new(3);
        for (i, &t) in ts.iter().enumerate() {
            let vals: Vec<Option<f64>> = (0..3)
                .map(|c| ((i + c) % 4 != 0).then(|| (i * 3 + c) as f64 - 17.5))
                .collect();
            enc.append_row(t, &vals).unwrap();
        }
        let bytes = enc.finish_framed();
        let dec = GroupChunkDecoder::new(&bytes).unwrap();
        let mut ts_buf = Vec::new();
        dec.decode_timestamps_into(&mut ts_buf).unwrap();
        assert_eq!(ts_buf, ts);

        for col in 0..3 {
            let reference: Vec<(i64, f64)> = dec
                .decode_column(col)
                .unwrap()
                .into_iter()
                .zip(&ts)
                .filter_map(|(v, &t)| v.map(|v| (t, v)))
                .collect();

            let mut streamed = Vec::new();
            dec.for_each_in_column(col, &ts_buf, |t, v| streamed.push((t, v)))
                .unwrap();
            assert_eq!(streamed, reference);

            let (mut out_ts, mut out_vs) = (Vec::new(), Vec::new());
            dec.decode_column_into(col, &ts_buf, &mut out_ts, &mut out_vs)
                .unwrap();
            assert_eq!(out_ts.len(), reference.len());

            for kind in AggKind::ALL {
                let mut st = AggState::new();
                for &(t, v) in &reference {
                    st.observe(t, v);
                }
                assert_eq!(
                    dec.fold_column(col, kind, &ts_buf)
                        .unwrap()
                        .map(Value::to_bits),
                    st.value(kind).map(Value::to_bits),
                    "col {col} {kind:?}"
                );
            }
        }
        // A mismatched timestamp buffer is rejected, not misread.
        assert!(dec.for_each_in_column(0, &ts_buf[..5], |_, _| {}).is_err());
    }

    #[test]
    fn decoder_rejects_truncation_and_bad_column() {
        let mut enc = GroupChunkEncoder::new(2);
        enc.append_row(1, &[Some(1.0), Some(2.0)]).unwrap();
        let bytes = enc.finish();
        assert!(GroupChunkDecoder::new(&bytes[..3]).is_err());
        assert!(GroupChunkDecoder::new(&bytes[..bytes.len() - 1]).is_err());
        let dec = GroupChunkDecoder::new(&bytes).unwrap();
        assert!(dec.decode_column(2).is_err());
    }

    proptest! {
        #[test]
        fn prop_group_round_trip(
            n_cols in 0usize..6,
            raw in proptest::collection::vec((0i64..1i64<<32, any::<u32>()), 0..60),
        ) {
            let mut ts: Vec<i64> = raw.iter().map(|&(t, _)| t).collect();
            ts.sort_unstable();
            ts.dedup();
            let cols: Vec<Vec<Option<f64>>> = (0..n_cols).map(|c| {
                ts.iter().enumerate().map(|(r, _)| {
                    let bits = raw.get(r).map(|&(_, b)| b).unwrap_or(0);
                    if (bits >> (c % 16)) & 1 == 1 {
                        Some(f64::from_bits(((bits as u64) << 20) | c as u64))
                    } else {
                        None
                    }
                }).collect()
            }).collect();
            round_trip(&ts, &cols);
        }
    }
}

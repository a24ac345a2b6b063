//! Gorilla compression for timeseries chunks (§2.2 of the paper).
//!
//! Timestamps are delta-of-delta coded with the Prometheus bucket widths;
//! values are XOR coded against the previous value with leading/trailing
//! zero-window reuse, exactly as in Facebook Gorilla. The streaming
//! [`TsCodec`]/[`XorEncoder`] pieces are reused by the group chunk format in
//! [`crate::nullxor`]; [`ChunkEncoder`]/[`ChunkDecoder`] wrap them into the
//! self-contained chunk bytes stored for individual timeseries.

use crate::agg::{self, AggKind, AggState, ChunkStats};
use crate::bitstream::{BitReader, BitWriter};
use tu_common::varint;
use tu_common::{Error, Result, Sample, Timestamp, Value};

// Delta-of-delta buckets, as in Prometheus XOR chunks:
//   '0'                       -> dod == 0
//   '10'   + 14 bits          -> dod in [-8191, 8192)
//   '110'  + 17 bits          -> dod in [-65535, 65536)
//   '1110' + 20 bits          -> dod in [-524287, 524288)
//   '1111' + 64 bits          -> anything else
const DOD_BUCKETS: [(u8, u8, i64); 3] = [
    (0b10, 2, 1 << 13),
    (0b110, 3, 1 << 16),
    (0b1110, 4, 1 << 19),
];
const DOD_BITS: [u8; 3] = [14, 17, 20];

/// Initial capacity of an encoder's bitstream: a 32-sample chunk (the
/// paper's head size) at up to 10 bytes a sample fits without regrowth.
pub(crate) const STREAM_CAPACITY: usize = 320;

/// Streaming delta-of-delta timestamp codec state.
///
/// The same struct drives encoding and decoding; it holds the previous
/// timestamp and delta.
#[derive(Debug, Default, Clone)]
pub struct TsCodec {
    count: usize,
    prev_ts: Timestamp,
    prev_delta: i64,
}

impl TsCodec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the next timestamp into `w`.
    ///
    /// The first timestamp is written as a zigzag varint bit-aligned into
    /// the stream; the second as a zigzag-varint delta; the rest as
    /// bucketed delta-of-deltas. A delta or delta-of-delta outside `i64`
    /// is refused before anything is written: the decoder could not add it
    /// back.
    pub fn encode(&mut self, w: &mut BitWriter, t: Timestamp) -> Result<()> {
        let prev = self.prev_ts;
        let too_far = move || Error::invalid(format!("timestamp {t} is too far from {prev}"));
        match self.count {
            0 => {
                write_varint_bits(w, varint::zigzag_encode(t));
                self.prev_ts = t;
            }
            1 => {
                let delta = t.checked_sub(self.prev_ts).ok_or_else(too_far)?;
                write_varint_bits(w, varint::zigzag_encode(delta));
                self.prev_delta = delta;
                self.prev_ts = t;
            }
            _ => {
                let delta = t.checked_sub(self.prev_ts).ok_or_else(too_far)?;
                let dod = delta.checked_sub(self.prev_delta).ok_or_else(too_far)?;
                if dod == 0 {
                    w.write_bit(false);
                } else {
                    let mut written = false;
                    for (i, &(prefix, prefix_bits, half_range)) in DOD_BUCKETS.iter().enumerate() {
                        if dod >= -half_range + 1 && dod <= half_range {
                            // Prefix and offset in one write of at most 24 bits.
                            let bits = DOD_BITS[i];
                            let offset = (dod + half_range - 1) as u64;
                            w.write_bits(u64::from(prefix) << bits | offset, prefix_bits + bits);
                            written = true;
                            break;
                        }
                    }
                    if !written {
                        w.write_bits(0b1111, 4);
                        w.write_bits(dod as u64, 64);
                    }
                }
                self.prev_delta = delta;
                self.prev_ts = t;
            }
        }
        self.count += 1;
        Ok(())
    }

    /// Decodes the next timestamp from `r`. A delta that takes the time
    /// outside `i64` is corruption: the encoder never writes one.
    pub fn decode(&mut self, r: &mut BitReader<'_>) -> Result<Timestamp> {
        let overflow = || Error::corruption("timestamp delta overflows i64");
        let t = match self.count {
            0 => {
                let raw = read_varint_bits(r)?;
                varint::zigzag_decode(raw)
            }
            1 => {
                let raw = read_varint_bits(r)?;
                let delta = varint::zigzag_decode(raw);
                self.prev_delta = delta;
                self.prev_ts.checked_add(delta).ok_or_else(overflow)?
            }
            _ => {
                let dod = if !r.read_bit()? {
                    0
                } else if !r.read_bit()? {
                    read_bucket(r, DOD_BITS[0], DOD_BUCKETS[0].2)?
                } else if !r.read_bit()? {
                    read_bucket(r, DOD_BITS[1], DOD_BUCKETS[1].2)?
                } else if !r.read_bit()? {
                    read_bucket(r, DOD_BITS[2], DOD_BUCKETS[2].2)?
                } else {
                    r.read_bits(64)? as i64
                };
                self.prev_delta = self.prev_delta.checked_add(dod).ok_or_else(overflow)?;
                self.prev_ts
                    .checked_add(self.prev_delta)
                    .ok_or_else(overflow)?
            }
        };
        self.prev_ts = t;
        self.count += 1;
        Ok(t)
    }
}

fn read_bucket(r: &mut BitReader<'_>, bits: u8, half_range: i64) -> Result<i64> {
    Ok(r.read_bits(bits)? as i64 - half_range + 1)
}

/// Writes a LEB128 varint bit-aligned into the bitstream: the bytes
/// [`varint::write_u64`] gives, low 7-bit group first.
fn write_varint_bits(w: &mut BitWriter, mut v: u64) {
    while v >= 0x80 {
        w.write_bits(v & 0x7f | 0x80, 8);
        v >>= 7;
    }
    w.write_bits(v, 8);
}

fn read_varint_bits(r: &mut BitReader<'_>) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.read_bits(8)? as u8;
        if shift >= 63 && byte > 1 {
            return Err(Error::corruption("varint in bitstream overflows u64"));
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::corruption("varint in bitstream too long"));
        }
    }
}

/// Streaming Gorilla XOR value encoder.
#[derive(Debug, Default, Clone)]
pub struct XorEncoder {
    first: bool,
    prev_bits: u64,
    leading: u8,
    trailing: u8,
}

impl XorEncoder {
    pub fn new() -> Self {
        XorEncoder {
            first: true,
            prev_bits: 0,
            leading: 0xff, // sentinel: no window established yet
            trailing: 0,
        }
    }

    /// Encodes the next value into `w`.
    pub fn encode(&mut self, w: &mut BitWriter, v: Value) {
        let bits = v.to_bits();
        if self.first {
            w.write_bits(bits, 64);
            self.prev_bits = bits;
            self.first = false;
            return;
        }
        let xor = bits ^ self.prev_bits;
        self.prev_bits = bits;
        if xor == 0 {
            w.write_bit(false);
            return;
        }
        let mut leading = xor.leading_zeros() as u8;
        let trailing = xor.trailing_zeros() as u8;
        // The leading-zero field is 5 bits wide; clamp like Gorilla does.
        if leading > 31 {
            leading = 31;
        }
        if self.leading != 0xff && leading >= self.leading && trailing >= self.trailing {
            // Fits the previous window: '10' + meaningful bits in that window.
            w.write_bits(0b10, 2);
            let sig = 64 - self.leading - self.trailing;
            w.write_bits(xor >> self.trailing, sig);
        } else {
            // New window: '11' + 5 bits leading + 6 bits sig-length + bits.
            self.leading = leading;
            self.trailing = trailing;
            let sig = 64 - leading - trailing;
            // sig is in 1..=64; store sig-1 in 6 bits.
            let header = 0b11 << 11 | u64::from(leading) << 6 | u64::from(sig - 1);
            w.write_bits(header, 13);
            w.write_bits(xor >> trailing, sig);
        }
    }
}

/// Streaming Gorilla XOR value decoder.
#[derive(Debug, Default, Clone)]
pub struct XorDecoder {
    first: bool,
    prev_bits: u64,
    leading: u8,
    trailing: u8,
}

impl XorDecoder {
    pub fn new() -> Self {
        XorDecoder {
            first: true,
            prev_bits: 0,
            leading: 0,
            trailing: 0,
        }
    }

    /// Decodes the next value from `r`.
    pub fn decode(&mut self, r: &mut BitReader<'_>) -> Result<Value> {
        if self.first {
            self.prev_bits = r.read_bits(64)?;
            self.first = false;
            return Ok(Value::from_bits(self.prev_bits));
        }
        if !r.read_bit()? {
            return Ok(Value::from_bits(self.prev_bits));
        }
        if r.read_bit()? {
            let leading = r.read_bits(5)? as u8;
            let sig = r.read_bits(6)? as u8 + 1;
            // The encoder's window always fits the word.
            self.trailing = 64u8
                .checked_sub(leading + sig)
                .ok_or_else(|| Error::corruption("xor window wider than 64 bits"))?;
            self.leading = leading;
        }
        let sig = 64 - self.leading - self.trailing;
        let xor = r.read_bits(sig)? << self.trailing;
        self.prev_bits ^= xor;
        Ok(Value::from_bits(self.prev_bits))
    }
}

/// Encoder for a self-contained individual-timeseries chunk.
///
/// Timestamps and values are interleaved in one bitstream, as in the
/// Gorilla paper. Samples must be appended in ascending timestamp order;
/// the engine handles out-of-order samples before they reach the encoder
/// (see §3.1 case 4 and the head-chunk logic in `tu-core`).
#[derive(Debug, Clone)]
pub struct ChunkEncoder {
    w: BitWriter,
    ts: TsCodec,
    xor: XorEncoder,
    count: u16,
    first_ts: Timestamp,
    last_ts: Timestamp,
    stats: AggState,
}

impl Default for ChunkEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkEncoder {
    pub fn new() -> Self {
        ChunkEncoder {
            w: BitWriter::with_capacity(STREAM_CAPACITY),
            ts: TsCodec::new(),
            xor: XorEncoder::new(),
            count: 0,
            first_ts: 0,
            last_ts: i64::MIN,
            stats: AggState::new(),
        }
    }

    /// Appends one sample. Returns an error on non-increasing timestamps.
    pub fn append(&mut self, t: Timestamp, v: Value) -> Result<()> {
        if self.count > 0 && t <= self.last_ts {
            return Err(Error::invalid(format!(
                "chunk samples must be strictly increasing: {t} after {}",
                self.last_ts
            )));
        }
        if self.count == 0 {
            self.first_ts = t;
        }
        self.ts.encode(&mut self.w, t)?;
        self.xor.encode(&mut self.w, v);
        self.stats.observe(t, v);
        self.last_ts = t;
        self.count += 1;
        Ok(())
    }

    /// Stats footer for the samples appended so far (`None` when empty).
    pub fn stats(&self) -> Option<ChunkStats> {
        ChunkStats::from_fold(&self.stats)
    }

    pub fn count(&self) -> u16 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Timestamp of the first sample (only meaningful when non-empty).
    pub fn first_ts(&self) -> Timestamp {
        self.first_ts
    }

    /// Timestamp of the last appended sample.
    pub fn last_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// Serializes the chunk: `u16 LE sample count` followed by the
    /// bitstream.
    pub fn finish(self) -> Vec<u8> {
        self.serialize(None)
    }

    /// Serializes the chunk inside a stats envelope
    /// ([`crate::agg::frame_with_stats`]). Empty chunks are emitted in
    /// the legacy layout (there is nothing to summarize).
    pub fn finish_framed(self) -> Vec<u8> {
        let stats = self.stats();
        self.serialize(stats.as_ref())
    }

    /// The envelope for `stats`, if any, the count and the bitstream, in
    /// one buffer.
    fn serialize(self, stats: Option<&ChunkStats>) -> Vec<u8> {
        let body = self.w.finish();
        let mut out = Vec::with_capacity(agg::ENVELOPE_HEADER_LEN + 2 + body.len());
        if let Some(stats) = stats {
            agg::put_envelope(stats, &mut out);
        }
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// Decoder for chunks produced by [`ChunkEncoder`].
///
/// Accepts both stats-framed (version 1) and legacy pre-stats bytes;
/// [`ChunkDecoder::stats`] exposes the footer when one was present.
pub struct ChunkDecoder<'a> {
    r: BitReader<'a>,
    ts: TsCodec,
    xor: XorDecoder,
    remaining: u16,
    stats: Option<ChunkStats>,
}

impl<'a> ChunkDecoder<'a> {
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let (stats, inner) = agg::split_envelope(bytes);
        if inner.len() < 2 {
            return Err(Error::corruption("chunk shorter than its header"));
        }
        let count = u16::from_le_bytes([inner[0], inner[1]]);
        Ok(ChunkDecoder {
            r: BitReader::new(&inner[2..]),
            ts: TsCodec::new(),
            xor: XorDecoder::new(),
            remaining: count,
            stats,
        })
    }

    /// The per-chunk stats footer, when the chunk was stats-framed.
    pub fn stats(&self) -> Option<&ChunkStats> {
        self.stats.as_ref()
    }

    /// Number of samples not yet decoded.
    pub fn remaining(&self) -> u16 {
        self.remaining
    }

    /// Decodes the next sample, or `None` at end of chunk.
    pub fn next_sample(&mut self) -> Result<Option<Sample>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let t = self.ts.decode(&mut self.r)?;
        let v = self.xor.decode(&mut self.r)?;
        self.remaining -= 1;
        Ok(Some(Sample::new(t, v)))
    }

    /// Streams every remaining sample through `f` without materializing
    /// a sample vector; the inner loop carries no per-sample `Option` or
    /// `Result` wrapping.
    pub fn for_each(mut self, mut f: impl FnMut(Timestamp, Value)) -> Result<()> {
        for _ in 0..self.remaining {
            let t = self.ts.decode(&mut self.r)?;
            let v = self.xor.decode(&mut self.r)?;
            f(t, v);
        }
        self.remaining = 0;
        Ok(())
    }

    /// Streaming fold: computes one [`AggKind`] over the remaining
    /// samples in a single pass, without materializing them. `None`
    /// means the aggregate is undefined (empty chunk; rate over fewer
    /// than two samples).
    pub fn fold(self, kind: AggKind) -> Result<Option<Value>> {
        let mut st = AggState::new();
        self.for_each(|t, v| st.observe(t, v))?;
        Ok(st.value(kind))
    }

    /// Batch decode into reusable columnar buffers. The buffers are
    /// cleared first, so callers can recycle them across chunks.
    pub fn decode_into(mut self, ts: &mut Vec<Timestamp>, vs: &mut Vec<Value>) -> Result<()> {
        ts.clear();
        vs.clear();
        ts.reserve(self.remaining as usize);
        vs.reserve(self.remaining as usize);
        for _ in 0..self.remaining {
            ts.push(self.ts.decode(&mut self.r)?);
            vs.push(self.xor.decode(&mut self.r)?);
        }
        self.remaining = 0;
        Ok(())
    }

    /// Decodes all remaining samples.
    pub fn decode_all(mut self) -> Result<Vec<Sample>> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        for _ in 0..self.remaining {
            let t = self.ts.decode(&mut self.r)?;
            let v = self.xor.decode(&mut self.r)?;
            out.push(Sample::new(t, v));
        }
        self.remaining = 0;
        Ok(out)
    }
}

/// Convenience: compresses a sorted slice of samples into chunk bytes
/// (legacy layout, no stats envelope).
pub fn compress_chunk(samples: &[Sample]) -> Result<Vec<u8>> {
    let mut enc = ChunkEncoder::new();
    for s in samples {
        enc.append(s.t, s.v)?;
    }
    Ok(enc.finish())
}

/// Convenience: compresses a sorted slice of samples into stats-framed
/// chunk bytes. This is what the engine seal paths write.
pub fn compress_chunk_framed(samples: &[Sample]) -> Result<Vec<u8>> {
    let mut enc = ChunkEncoder::new();
    for s in samples {
        enc.append(s.t, s.v)?;
    }
    Ok(enc.finish_framed())
}

/// Convenience: decompresses chunk bytes (framed or legacy) into samples.
pub fn decompress_chunk(bytes: &[u8]) -> Result<Vec<Sample>> {
    ChunkDecoder::new(bytes)?.decode_all()
}

/// Puts legacy chunk bytes in a stats envelope, folding the stats from
/// the samples: the bytes [`ChunkEncoder::finish_framed`] wrote for them.
/// A framed or empty chunk is refused.
pub fn frame_chunk(inner: &[u8]) -> Result<(ChunkStats, Vec<u8>)> {
    let dec = ChunkDecoder::new(inner)?;
    if dec.stats().is_some() {
        return Err(Error::invalid("chunk is framed already"));
    }
    let mut st = AggState::new();
    dec.for_each(|t, v| st.observe(t, v))?;
    let stats = ChunkStats::from_fold(&st).ok_or_else(|| Error::corruption("empty chunk"))?;
    let framed = agg::frame_with_stats(&stats, inner);
    Ok((stats, framed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(samples: &[Sample]) {
        let bytes = compress_chunk(samples).unwrap();
        let back = decompress_chunk(&bytes).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.t, b.t);
            assert!(a.v == b.v || (a.v.is_nan() && b.v.is_nan()));
        }
    }

    #[test]
    fn empty_chunk() {
        round_trip(&[]);
    }

    #[test]
    fn single_sample() {
        round_trip(&[Sample::new(1_600_000_000_000, 3.25)]);
    }

    #[test]
    fn regular_interval_compresses_well() {
        // 10s scrape interval with a gauge that changes every tenth scrape:
        // a typical monitoring series. Raw storage is 16 B/sample; Gorilla
        // should land well under 4 B/sample here.
        let samples: Vec<Sample> = (0..120)
            .map(|i| Sample::new(1_600_000_000_000 + i * 10_000, (i / 10) as f64))
            .collect();
        let bytes = compress_chunk(&samples).unwrap();
        round_trip(&samples);
        assert!(
            bytes.len() < samples.len() * 4,
            "expected <4 B/sample, got {} B for {} samples",
            bytes.len(),
            samples.len()
        );

        // A noisy gauge (mantissa changes every sample) still beats raw.
        let noisy: Vec<Sample> = (0..120)
            .map(|i| Sample::new(1_600_000_000_000 + i * 10_000, 0.5 + (i % 7) as f64 * 0.001))
            .collect();
        let noisy_bytes = compress_chunk(&noisy).unwrap();
        round_trip(&noisy);
        assert!(
            noisy_bytes.len() < noisy.len() * 9,
            "noisy gauge should stay under 9 B/sample, got {} B",
            noisy_bytes.len()
        );
    }

    #[test]
    fn constant_values_are_one_bit_each() {
        let samples: Vec<Sample> = (0..100).map(|i| Sample::new(i * 60_000, 42.0)).collect();
        let bytes = compress_chunk(&samples).unwrap();
        // ~2 bits/sample after the header: 1 dod bit + 1 xor bit.
        assert!(bytes.len() < 64, "got {} bytes", bytes.len());
        round_trip(&samples);
    }

    #[test]
    fn irregular_timestamps_and_values() {
        let samples = vec![
            Sample::new(-5_000, f64::MIN),
            Sample::new(-1, 0.0),
            Sample::new(0, -0.0),
            Sample::new(1, f64::MAX),
            Sample::new(1_000_000_007, f64::NAN),
            Sample::new(i64::MAX / 2, 1e-300),
        ];
        round_trip(&samples);
    }

    #[test]
    fn framed_chunk_round_trips_and_exposes_stats() {
        let samples = vec![
            Sample::new(1_000, 4.0),
            Sample::new(2_000, -2.5),
            Sample::new(3_000, f64::NAN),
            Sample::new(4_000, 9.0),
        ];
        let framed = compress_chunk_framed(&samples).unwrap();
        let legacy = compress_chunk(&samples).unwrap();
        assert_eq!(framed.len(), legacy.len() + agg::ENVELOPE_HEADER_LEN);

        let dec = ChunkDecoder::new(&framed).unwrap();
        let stats = *dec.stats().expect("framed chunk carries stats");
        assert_eq!(stats.min_ts, 1_000);
        assert_eq!(stats.max_ts, 4_000);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.min_v, -2.5);
        assert_eq!(stats.max_v, 9.0);
        // Sum folds in order and keeps NaN (4.0 + -2.5 + NaN + 9.0).
        assert!(stats.sum.is_nan());
        let back = dec.decode_all().unwrap();
        assert_eq!(back.len(), samples.len());

        // Legacy bytes decode with no stats.
        let dec = ChunkDecoder::new(&legacy).unwrap();
        assert!(dec.stats().is_none());
        assert_eq!(dec.decode_all().unwrap().len(), samples.len());
    }

    #[test]
    fn streaming_paths_match_decode_all() {
        let samples: Vec<Sample> = (0..200)
            .map(|i| Sample::new(i * 5_000 + (i % 3), ((i * 37) % 11) as f64 - 4.5))
            .collect();
        let bytes = compress_chunk_framed(&samples).unwrap();

        let mut streamed = Vec::new();
        ChunkDecoder::new(&bytes)
            .unwrap()
            .for_each(|t, v| streamed.push(Sample::new(t, v)))
            .unwrap();
        assert_eq!(streamed, samples);

        let (mut ts, mut vs) = (Vec::new(), Vec::new());
        ChunkDecoder::new(&bytes)
            .unwrap()
            .decode_into(&mut ts, &mut vs)
            .unwrap();
        assert_eq!(ts.len(), samples.len());
        assert!(ts
            .iter()
            .zip(&vs)
            .zip(&samples)
            .all(|((t, v), s)| *t == s.t && v.to_bits() == s.v.to_bits()));

        // Fold agrees with materialize-then-fold for every kind.
        for kind in AggKind::ALL {
            let folded = ChunkDecoder::new(&bytes).unwrap().fold(kind).unwrap();
            let mut st = AggState::new();
            for s in &samples {
                st.observe(s.t, s.v);
            }
            assert_eq!(
                folded.map(Value::to_bits),
                st.value(kind).map(Value::to_bits),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn rejects_non_increasing_timestamps() {
        let mut enc = ChunkEncoder::new();
        enc.append(10, 1.0).unwrap();
        assert!(enc.append(10, 2.0).is_err());
        assert!(enc.append(5, 2.0).is_err());
        enc.append(11, 2.0).unwrap();
    }

    #[test]
    fn refuses_deltas_outside_i64() {
        let mut enc = ChunkEncoder::new();
        enc.append(i64::MIN + 1, 1.0).unwrap();
        assert!(enc.append(i64::MAX, 2.0).is_err(), "second delta");
        enc.append(-1, 2.0).unwrap();
        assert!(enc.append(i64::MAX, 3.0).is_err(), "later delta");
        enc.append(0, 3.0).unwrap();
        // A refused sample leaves the chunk as it was.
        let back = decompress_chunk(&enc.finish()).unwrap();
        let ts: Vec<i64> = back.iter().map(|s| s.t).collect();
        assert_eq!(ts, [i64::MIN + 1, -1, 0]);
    }

    #[test]
    fn decoder_rejects_truncation() {
        let samples: Vec<Sample> = (0..32).map(|i| Sample::new(i, i as f64 * 1.7)).collect();
        let bytes = compress_chunk(&samples).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        // Either an explicit error or fewer samples — never a panic.
        match ChunkDecoder::new(cut) {
            Ok(d) => {
                let _ = d.decode_all(); // must not panic
            }
            Err(_) => {}
        }
    }

    #[test]
    fn framing_legacy_bytes_gives_what_the_encoder_framed() {
        let samples: Vec<Sample> = [(5, 1.5), (9, -2.0), (40, 0.25)]
            .map(|(t, v)| Sample::new(t, v))
            .to_vec();
        let framed = compress_chunk_framed(&samples).unwrap();
        let (stats, again) = frame_chunk(&compress_chunk(&samples).unwrap()).unwrap();
        assert_eq!(again, framed);
        assert_eq!((stats.min_ts, stats.max_ts), (5, 40));
        assert!(frame_chunk(&framed).is_err(), "framed twice");
        assert!(frame_chunk(&compress_chunk(&[]).unwrap()).is_err(), "empty");
    }

    #[test]
    fn chunk_metadata_tracks_bounds() {
        let mut enc = ChunkEncoder::new();
        enc.append(100, 1.0).unwrap();
        enc.append(200, 2.0).unwrap();
        assert_eq!(enc.first_ts(), 100);
        assert_eq!(enc.last_ts(), 200);
        assert_eq!(enc.count(), 2);
    }

    proptest! {
        #[test]
        fn prop_round_trip(raw in proptest::collection::vec((0i64..1i64<<40, any::<f64>()), 0..200)) {
            let mut samples: Vec<Sample> = raw.into_iter().map(|(t, v)| Sample::new(t, v)).collect();
            samples.sort_by_key(|s| s.t);
            samples.dedup_by_key(|s| s.t);
            round_trip(&samples);
        }

        #[test]
        fn prop_extreme_deltas(deltas in proptest::collection::vec(0i64..1i64<<35, 1..50)) {
            let mut t = 0i64;
            let mut samples = Vec::new();
            for (i, d) in deltas.iter().enumerate() {
                t += d + 1; // strictly increasing
                samples.push(Sample::new(t, i as f64));
            }
            round_trip(&samples);
        }
    }
}

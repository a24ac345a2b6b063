//! Aggregation pushdown primitives shared by the codecs and the engine.
//!
//! Three pieces live here:
//!
//! * [`AggKind`] / [`AggState`] — the fold every aggregate path uses. The
//!   engine's reference path (materialize samples, then fold), the codec
//!   streaming folds, and the per-chunk stats footer all run the *same*
//!   fold so pushdown results are bit-identical to the reference.
//! * [`ChunkStats`] — the compact per-chunk footer
//!   (`min_ts/max_ts/count/min_v/max_v/sum`) emitted at encode time.
//! * The versioned stats envelope ([`frame_with_stats`] /
//!   [`split_envelope`]) that carries a [`ChunkStats`] in front of the
//!   legacy chunk bytes. Chunk values stay opaque to tu-lsm, so framed
//!   chunks flow through SSTables and memtables with zero tree-format
//!   changes, and pre-stats chunks remain readable: the decoders strip
//!   the envelope when present and fall back to the legacy layout when
//!   not.
//!
//! # Envelope layout (version 1)
//!
//! ```text
//! [u16 0x0000] [u8 version = 1] [44-byte ChunkStats, LE] [legacy chunk bytes]
//! ```
//!
//! The leading zero `u16` is the discriminator: legacy gorilla chunks
//! start with a nonzero sample count and legacy group chunks with a
//! nonzero row count (sealed chunks are never empty), while the legacy
//! empty gorilla chunk is exactly the two bytes `[0, 0]` — shorter than
//! any envelope — so `split_envelope` never misreads old bytes.

use tu_common::{bytes, Timestamp, Value};

/// The aggregate functions the pushdown layer can compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    Sum,
    Min,
    Max,
    Count,
    Avg,
    Rate,
}

impl AggKind {
    /// All kinds, for exhaustive tests and benches.
    pub const ALL: [AggKind; 6] = [
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Count,
        AggKind::Avg,
        AggKind::Rate,
    ];

    /// Stable lowercase name (`sum`, `min`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Count => "count",
            AggKind::Avg => "avg",
            AggKind::Rate => "rate",
        }
    }
}

/// Maximum of two values under a total order: NaN is the identity
/// (ignored unless both sides are NaN) and `+0.0 > -0.0`, so the fold is
/// associative and a chunk footer can be merged into a running window
/// with a bit-identical result to folding the samples one by one.
#[inline]
pub fn value_max(a: Value, b: Value) -> Value {
    if a.is_nan() {
        b
    } else if b.is_nan() || a > b {
        a
    } else if b > a {
        b
    } else if a.to_bits() == b.to_bits() {
        a
    } else {
        // Equal but different bits: only ±0.0. +0.0 wins for max.
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    }
}

/// Minimum counterpart of [`value_max`]: NaN-ignoring, `-0.0 < +0.0`.
#[inline]
pub fn value_min(a: Value, b: Value) -> Value {
    if a.is_nan() {
        b
    } else if b.is_nan() || a < b {
        a
    } else if b < a {
        b
    } else if a.to_bits() == b.to_bits() {
        a
    } else if a.is_sign_negative() {
        a
    } else {
        b
    }
}

/// `a + b`, with a NaN result that is a function of the inputs alone.
///
/// IEEE 754 leaves open which NaN the sum of two NaNs, or of +inf and
/// -inf, comes out, and the code generator may swap the operands, so a
/// debug and a release build could frame different stats bytes. Here a
/// NaN input wins, `a` before `b`, quieted as hardware quiets it; +inf
/// plus -inf gives the positive quiet NaN.
#[inline]
fn value_sum(a: Value, b: Value) -> Value {
    let sum = a + b;
    if !sum.is_nan() {
        sum
    } else if a.is_nan() {
        quiet(a)
    } else if b.is_nan() {
        quiet(b)
    } else {
        f64::NAN
    }
}

/// `nan` with its quiet bit set.
fn quiet(nan: Value) -> Value {
    f64::from_bits(nan.to_bits() | 1 << 51)
}

/// Running state of one aggregation window.
///
/// [`AggState::observe`] folds samples in timestamp order; `sum` is
/// seeded from the first value (not `0.0`), which both avoids the
/// `0.0 + (-0.0)` sign flip and makes a chunk footer's `sum` bitwise
/// equal to the fold of that chunk's samples.
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    pub count: u64,
    pub sum: Value,
    pub min: Value,
    pub max: Value,
    pub first_t: Timestamp,
    pub first_v: Value,
    pub last_t: Timestamp,
    pub last_v: Value,
}

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

impl AggState {
    pub fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: Value::NAN,
            max: Value::NAN,
            first_t: 0,
            first_v: 0.0,
            last_t: 0,
            last_v: 0.0,
        }
    }

    /// Folds one sample. Samples must arrive in timestamp order for
    /// `first`/`last` (and therefore `rate`) to be meaningful.
    #[inline]
    pub fn observe(&mut self, t: Timestamp, v: Value) {
        if self.count == 0 {
            self.sum = v;
            self.min = v;
            self.max = v;
            self.first_t = t;
            self.first_v = v;
        } else {
            self.sum = value_sum(self.sum, v);
            self.min = value_min(self.min, v);
            self.max = value_max(self.max, v);
        }
        self.last_t = t;
        self.last_v = v;
        self.count += 1;
    }

    /// Merges a whole chunk's footer into this window without decoding.
    ///
    /// Only sound when the chunk lies entirely inside this window's time
    /// range. `min`/`max`/`count` merge associatively and are always
    /// exact; `sum` is bit-exact only when this state is still empty
    /// (float addition is not associative), and `first`/`last` are *not*
    /// updated — the engine never meta-answers `Sum`/`Avg` into a
    /// non-empty window and never meta-answers `Rate` at all.
    #[inline]
    pub fn merge_stats(&mut self, s: &ChunkStats) {
        if self.count == 0 {
            self.sum = s.sum;
            self.min = s.min_v;
            self.max = s.max_v;
        } else {
            self.sum = value_sum(self.sum, s.sum);
            self.min = value_min(self.min, s.min_v);
            self.max = value_max(self.max, s.max_v);
        }
        self.count += u64::from(s.count);
    }

    /// The window's aggregate value, or `None` when the window should be
    /// omitted (no samples; rate over fewer than two samples or a zero
    /// time span).
    pub fn value(&self, kind: AggKind) -> Option<Value> {
        if self.count == 0 {
            return None;
        }
        match kind {
            AggKind::Sum => Some(self.sum),
            AggKind::Min => Some(self.min),
            AggKind::Max => Some(self.max),
            AggKind::Count => Some(self.count as Value),
            AggKind::Avg => Some(self.sum / self.count as Value),
            AggKind::Rate => {
                if self.count < 2 || self.last_t <= self.first_t {
                    None
                } else {
                    let span_s = (self.last_t - self.first_t) as Value / 1000.0;
                    Some((self.last_v - self.first_v) / span_s)
                }
            }
        }
    }
}

/// Per-chunk statistics footer persisted in the stats envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    pub min_ts: Timestamp,
    pub max_ts: Timestamp,
    pub count: u32,
    pub min_v: Value,
    pub max_v: Value,
    pub sum: Value,
}

impl ChunkStats {
    /// Encoded size: `i64 + i64 + u32 + f64 + f64 + f64`, little-endian.
    pub const ENCODED_LEN: usize = 44;

    /// Builds stats by folding samples in order with the shared
    /// [`AggState`] fold (so `sum` is seeded from the first value).
    pub fn from_fold(st: &AggState) -> Option<ChunkStats> {
        if st.count == 0 {
            return None;
        }
        Some(ChunkStats {
            min_ts: st.first_t,
            max_ts: st.last_t,
            count: st.count.min(u64::from(u32::MAX)) as u32,
            min_v: st.min,
            max_v: st.max,
            sum: st.sum,
        })
    }

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.min_ts.to_le_bytes());
        out.extend_from_slice(&self.max_ts.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.min_v.to_le_bytes());
        out.extend_from_slice(&self.max_v.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
    }

    /// Decodes a footer from exactly [`Self::ENCODED_LEN`] bytes.
    pub fn decode(b: &[u8]) -> Option<ChunkStats> {
        if b.len() < Self::ENCODED_LEN {
            return None;
        }
        Some(ChunkStats {
            min_ts: bytes::i64_le(&b[0..]),
            max_ts: bytes::i64_le(&b[8..]),
            count: bytes::u32_le(&b[16..]),
            min_v: bytes::f64_le(&b[20..]),
            max_v: bytes::f64_le(&b[28..]),
            sum: bytes::f64_le(&b[36..]),
        })
    }
}

/// Current stats-envelope format version.
pub const ENVELOPE_VERSION: u8 = 1;

/// Bytes the envelope prepends: discriminator (2) + version (1) + stats.
pub const ENVELOPE_HEADER_LEN: usize = 3 + ChunkStats::ENCODED_LEN;

/// Appends a version-1 stats envelope for `stats` to `out`: the legacy
/// chunk bytes follow it.
pub(crate) fn put_envelope(stats: &ChunkStats, out: &mut Vec<u8>) {
    out.extend_from_slice(&[0, 0, ENVELOPE_VERSION]);
    stats.encode_into(out);
}

/// Wraps legacy chunk bytes in a version-1 stats envelope.
pub fn frame_with_stats(stats: &ChunkStats, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + inner.len());
    put_envelope(stats, &mut out);
    out.extend_from_slice(inner);
    out
}

/// Splits chunk bytes into their optional stats footer and the inner
/// legacy chunk. Legacy (pre-stats) bytes pass through unchanged with
/// `None` stats; unknown future envelope versions also fall back to the
/// legacy interpretation so the decoder reports a clean corruption error
/// rather than misreading the header here.
pub fn split_envelope(b: &[u8]) -> (Option<ChunkStats>, &[u8]) {
    if b.len() >= ENVELOPE_HEADER_LEN && b[0] == 0 && b[1] == 0 && b[2] == ENVELOPE_VERSION {
        if let Some(stats) = ChunkStats::decode(&b[3..3 + ChunkStats::ENCODED_LEN]) {
            return (Some(stats), &b[ENVELOPE_HEADER_LEN..]);
        }
    }
    (None, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_sums_depend_on_the_inputs_alone() {
        let (nan, neg_nan) = (f64::NAN, -f64::NAN);
        let signalling = f64::from_bits(0x7ff0_0000_0000_0001);
        let cases = [
            (nan, neg_nan, nan),
            (neg_nan, nan, neg_nan),
            (1.0, neg_nan, neg_nan),
            (neg_nan, f64::INFINITY, neg_nan),
            (f64::INFINITY, f64::NEG_INFINITY, nan),
            (f64::NEG_INFINITY, f64::INFINITY, nan),
            (signalling, 1.0, f64::from_bits(0x7ff8_0000_0000_0001)),
        ];
        for (a, b, want) in cases {
            let got = value_sum(a, b);
            assert_eq!(got.to_bits(), want.to_bits(), "{a} + {b}");
        }
        assert_eq!(value_sum(1.5, -0.25), 1.25);
    }

    #[test]
    fn stats_round_trip_through_envelope() {
        let stats = ChunkStats {
            min_ts: -5,
            max_ts: 12_345,
            count: 7,
            min_v: -0.0,
            max_v: f64::INFINITY,
            sum: 41.5,
        };
        let inner = vec![3u8, 0, 0xAB, 0xCD];
        let framed = frame_with_stats(&stats, &inner);
        assert_eq!(framed.len(), ENVELOPE_HEADER_LEN + inner.len());
        let (got, rest) = split_envelope(&framed);
        let got = got.expect("stats present");
        assert_eq!(got.min_ts, stats.min_ts);
        assert_eq!(got.max_ts, stats.max_ts);
        assert_eq!(got.count, stats.count);
        assert_eq!(got.min_v.to_bits(), stats.min_v.to_bits());
        assert_eq!(got.max_v.to_bits(), stats.max_v.to_bits());
        assert_eq!(got.sum.to_bits(), stats.sum.to_bits());
        assert_eq!(rest, &inner[..]);
    }

    #[test]
    fn legacy_bytes_pass_through() {
        // A legacy gorilla chunk starts with its nonzero u16 count.
        let legacy = vec![3u8, 0, 1, 2, 3];
        let (stats, rest) = split_envelope(&legacy);
        assert!(stats.is_none());
        assert_eq!(rest, &legacy[..]);
        // The legacy empty chunk is exactly [0, 0]: too short to be an
        // envelope, still legacy.
        let empty = vec![0u8, 0];
        let (stats, rest) = split_envelope(&empty);
        assert!(stats.is_none());
        assert_eq!(rest, &empty[..]);
    }

    #[test]
    fn unknown_version_is_left_alone() {
        let stats = ChunkStats {
            min_ts: 0,
            max_ts: 1,
            count: 1,
            min_v: 0.0,
            max_v: 0.0,
            sum: 0.0,
        };
        let mut framed = frame_with_stats(&stats, &[9, 9]);
        framed[2] = 2; // future version
        let (got, rest) = split_envelope(&framed);
        assert!(got.is_none());
        assert_eq!(rest, &framed[..]);
    }

    #[test]
    fn value_bounds_use_a_total_order() {
        assert_eq!(value_max(0.0, -0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(value_max(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(value_min(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(value_min(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(value_max(f64::NAN, 2.0), 2.0);
        assert_eq!(value_max(2.0, f64::NAN), 2.0);
        assert!(value_max(f64::NAN, f64::NAN).is_nan());
        assert_eq!(value_min(f64::NAN, 2.0), 2.0);
        assert_eq!(value_max(1.0, 2.0), 2.0);
        assert_eq!(value_min(1.0, 2.0), 1.0);
    }

    #[test]
    fn fold_matches_meta_merge_for_min_max_count() {
        let samples = [(10, 2.0), (20, f64::NAN), (30, -7.5), (40, 2.0)];
        let mut chunk = AggState::new();
        for (t, v) in samples {
            chunk.observe(t, v);
        }
        let stats = ChunkStats::from_fold(&chunk).expect("non-empty");

        // Window that already holds a sample: meta-merge vs per-sample fold.
        let mut by_meta = AggState::new();
        by_meta.observe(5, 1.0);
        by_meta.merge_stats(&stats);
        let mut by_fold = AggState::new();
        by_fold.observe(5, 1.0);
        for (t, v) in samples {
            by_fold.observe(t, v);
        }
        for kind in [AggKind::Min, AggKind::Max, AggKind::Count] {
            assert_eq!(
                by_meta.value(kind).map(Value::to_bits),
                by_fold.value(kind).map(Value::to_bits),
                "{kind:?}"
            );
        }

        // Empty window: Sum/Avg are bit-exact too.
        let mut empty_meta = AggState::new();
        empty_meta.merge_stats(&stats);
        for kind in [
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::Count,
        ] {
            assert_eq!(
                empty_meta.value(kind).map(Value::to_bits),
                chunk.value(kind).map(Value::to_bits),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn rate_needs_two_samples_and_a_span() {
        let mut st = AggState::new();
        assert_eq!(st.value(AggKind::Rate), None);
        st.observe(1_000, 10.0);
        assert_eq!(st.value(AggKind::Rate), None);
        st.observe(3_000, 14.0);
        // 4.0 over 2 seconds.
        assert_eq!(st.value(AggKind::Rate), Some(2.0));
    }
}

//! Query results and sample merging.
//!
//! A Get returns a *timeseries set*; each member exposes its tag set and
//! its samples merged across MemTables, SSTables, and the in-memory head
//! chunk (§3.4). Chunk-level versions are resolved by the tree
//! (newest-wins per chunk key); sample-level overlaps — produced by
//! out-of-order backfills — are resolved here with later-starting chunks
//! overriding earlier ones at equal timestamps, matching "keep the data
//! sample from the newest SSTable".

use std::collections::BTreeMap;

use tu_common::{Labels, Result, Sample, SeriesId, Timestamp, Value};
pub use tu_compress::agg::AggKind;
use tu_compress::agg::{self, AggState, ChunkStats};
use tu_compress::{gorilla, nullxor};
use tu_obs::TracedCounter;

/// One matched timeseries with its samples in `[start, end)`, sorted by
/// timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    pub id: SeriesId,
    pub labels: Labels,
    pub samples: Vec<Sample>,
}

/// The result of a Get: every matched series, sorted by label bytes.
pub type QueryResult = Vec<SeriesResult>;

/// Accumulates samples from multiple overlapping sources. Sources must be
/// offered in oldest-to-newest order; later offers override earlier ones
/// at equal timestamps.
#[derive(Debug, Default, Clone)]
pub struct SampleMerger {
    map: BTreeMap<Timestamp, Value>,
    start: Timestamp,
    end: Timestamp,
}

impl SampleMerger {
    /// Creates a merger clipping to `[start, end)`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        SampleMerger {
            map: BTreeMap::new(),
            start,
            end,
        }
    }

    /// Offers one sample.
    pub fn offer(&mut self, t: Timestamp, v: Value) {
        if t >= self.start && t < self.end {
            self.map.insert(t, v);
        }
    }

    /// Offers a batch of samples.
    pub fn offer_all(&mut self, samples: impl IntoIterator<Item = Sample>) {
        for s in samples {
            self.offer(s.t, s.v);
        }
    }

    /// Finishes into sorted samples.
    pub fn finish(self) -> Vec<Sample> {
        self.map
            .into_iter()
            .map(|(t, v)| Sample::new(t, v))
            .collect()
    }
}

/// Step-aggregation shared by the engine's reference/fallback path and
/// the TSBS query patterns: one [`AggKind`] per aligned window of
/// `step_ms` over `[start, end)`. Samples must be sorted by timestamp
/// (as every query path produces them). Windows without a defined value
/// are omitted (no samples, or a rate over fewer than two samples).
///
/// This is the reference fold the aggregation pushdown in
/// `TimeUnion::query_aggregate` is pinned bit-identical against: both
/// run [`AggState`] over the same samples in the same order.
pub fn aggregate_step(
    kind: AggKind,
    samples: &[Sample],
    start: Timestamp,
    end: Timestamp,
    step_ms: i64,
) -> Vec<Sample> {
    let mut win = StepWindows::new(start, end, step_ms);
    for s in samples {
        win.observe(s.t, s.v);
    }
    win.finish(kind)
}

/// The per-series window accumulator behind [`aggregate_step`] *and* the
/// engine's pushdown path — both fold samples through the exact same
/// code, which is what makes pushdown results bit-identical to the
/// materialize-then-fold reference.
#[derive(Debug, Clone)]
pub(crate) struct StepWindows {
    start: Timestamp,
    end: Timestamp,
    step_ms: i64,
    buckets: Vec<(Timestamp, AggState)>,
}

impl StepWindows {
    pub(crate) fn new(start: Timestamp, end: Timestamp, step_ms: i64) -> Self {
        assert!(step_ms > 0);
        StepWindows {
            start,
            end,
            step_ms,
            buckets: Vec::new(),
        }
    }

    /// The aligned window start covering `t`.
    #[inline]
    pub(crate) fn bucket_of(&self, t: Timestamp) -> Timestamp {
        self.start + ((t - self.start) / self.step_ms) * self.step_ms
    }

    /// Folds one sample (samples must arrive in timestamp order; values
    /// outside `[start, end)` are clipped).
    #[inline]
    pub(crate) fn observe(&mut self, t: Timestamp, v: Value) {
        if t < self.start || t >= self.end {
            return;
        }
        // Fast path: most samples land in the current window, which a
        // range check answers without the bucket division.
        if let Some((b, st)) = self.buckets.last_mut() {
            if t >= *b && t - *b < self.step_ms {
                st.observe(t, v);
                return;
            }
        }
        let bucket = self.bucket_of(t);
        let mut st = AggState::new();
        st.observe(t, v);
        self.buckets.push((bucket, st));
    }

    /// The window a chunk with footer `s` lies inside, or `None` when it
    /// crosses a window boundary or an end of `[start, end)`.
    fn window_of(&self, s: &ChunkStats) -> Option<Timestamp> {
        let bucket = self.bucket_of(s.min_ts);
        (s.min_ts >= self.start && s.max_ts < self.end && bucket == self.bucket_of(s.max_ts))
            .then_some(bucket)
    }

    /// Whether a chunk inside window `bucket`, with footer `s`, cannot
    /// move the window's running `Max` or `Min`.
    fn holds_extremum(&self, kind: AggKind, bucket: Timestamp, s: &ChunkStats) -> bool {
        matches!(self.buckets.last(), Some((b, acc)) if *b == bucket && match kind {
            AggKind::Max => agg::value_max(acc.max, s.max_v).to_bits() == acc.max.to_bits(),
            AggKind::Min => agg::value_min(acc.min, s.min_v).to_bits() == acc.min.to_bits(),
            _ => false,
        })
    }

    /// Merges the footer of a chunk inside window `bucket` where that is
    /// bit-exact, and says whether it did: extremes and counts into any
    /// window, and all but `Rate` into a fresh one. The footer's sum was
    /// folded in sample order; adding it to an open sum would not be.
    fn merge_footer(&mut self, kind: AggKind, bucket: Timestamp, s: &ChunkStats) -> bool {
        match self.buckets.last_mut() {
            Some((b, acc)) if *b == bucket => {
                let exact = matches!(kind, AggKind::Max | AggKind::Min | AggKind::Count);
                if exact {
                    acc.merge_stats(s);
                }
                exact
            }
            _ if kind == AggKind::Rate => false,
            _ => {
                let mut acc = AggState::new();
                acc.merge_stats(s);
                self.buckets.push((bucket, acc));
                true
            }
        }
    }

    /// Folds samples that all lie in window `bucket` straight into it,
    /// without `observe`'s range check; no samples open no window.
    fn fold_window(
        &mut self,
        bucket: Timestamp,
        fold: impl FnOnce(&mut AggState) -> Result<()>,
    ) -> Result<()> {
        match self.buckets.last_mut() {
            Some((b, acc)) if *b == bucket => fold(acc),
            _ => {
                let mut acc = AggState::new();
                fold(&mut acc)?;
                if acc.count > 0 {
                    self.buckets.push((bucket, acc));
                }
                Ok(())
            }
        }
    }

    /// Emits one sample per window with a defined aggregate value.
    pub(crate) fn finish(self, kind: AggKind) -> Vec<Sample> {
        self.buckets
            .into_iter()
            .filter_map(|(b, st)| st.value(kind).map(|v| Sample::new(b, v)))
            .collect()
    }
}

/// How an object's chunks are encoded: Gorilla for a series, NULL-XOR
/// for a group.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChunkFormat {
    Gorilla,
    NullXor,
}

/// A stored chunk as columns: one for Gorilla, one per member slot the
/// group had when it was sealed for NULL-XOR. The format is matched once
/// per chunk, never per sample.
enum ChunkView<'a> {
    Gorilla(&'a [u8]),
    NullXor {
        dec: nullxor::GroupChunkDecoder<'a>,
        ts: &'a [Timestamp],
    },
}

impl<'a> ChunkView<'a> {
    /// Opens `bytes`, decoding NULL-XOR's shared timestamps into `ts_buf`.
    fn open(format: ChunkFormat, bytes: &'a [u8], ts_buf: &'a mut Vec<Timestamp>) -> Result<Self> {
        Ok(match format {
            ChunkFormat::Gorilla => ChunkView::Gorilla(bytes),
            ChunkFormat::NullXor => {
                let dec = nullxor::GroupChunkDecoder::new(bytes)?;
                dec.decode_timestamps_into(ts_buf)?;
                ChunkView::NullXor { dec, ts: ts_buf }
            }
        })
    }

    fn columns(&self) -> usize {
        match self {
            ChunkView::Gorilla(_) => 1,
            ChunkView::NullXor { dec, .. } => dec.columns(),
        }
    }

    /// Streams column `col`'s present samples through `f`, in time order.
    fn for_each(&self, col: usize, f: impl FnMut(Timestamp, Value)) -> Result<()> {
        match self {
            ChunkView::Gorilla(bytes) => gorilla::ChunkDecoder::new(bytes)?.for_each(f),
            ChunkView::NullXor { dec, ts } => dec.for_each_in_column(col, ts, f),
        }
    }

    /// The footer of the chunk's one column: a framed Gorilla chunk's.
    /// A group chunk's footer covers all its members together.
    fn column_stats(&self) -> Option<ChunkStats> {
        match self {
            ChunkView::Gorilla(bytes) => agg::split_envelope(bytes).0,
            ChunkView::NullXor { .. } => None,
        }
    }
}

/// One column of a read: a series, or one matched member of a group.
pub(crate) struct Column {
    /// Its column in the object's chunks; 0 for a series.
    pub(crate) slot: usize,
    pub(crate) labels: Labels,
    /// Its samples still in the head, in time order.
    pub(crate) head: Vec<Sample>,
}

/// What a step aggregation computes: `kind` per aligned `step_ms` window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggSpec {
    pub(crate) kind: AggKind,
    pub(crate) step_ms: i64,
}

/// The `core.query.agg.*` counters of [`ObjectRead::fold`].
pub(crate) struct AggCounters {
    pub(crate) pushdown_chunks: TracedCounter,
    pub(crate) meta_answered: TracedCounter,
    pub(crate) skipped_chunks: TracedCounter,
}

/// One object's columns over `[start, end)`, and its chunks oldest first.
pub(crate) struct ObjectRead<'a> {
    pub(crate) format: ChunkFormat,
    pub(crate) cols: &'a [Column],
    pub(crate) chunks: &'a [(Timestamp, &'a [u8])],
    pub(crate) start: Timestamp,
    pub(crate) end: Timestamp,
}

impl ObjectRead<'_> {
    /// Each column through a [`SampleMerger`], chunks then head, so the
    /// newest value wins. A chunk may predate a column's member.
    pub(crate) fn merge(&self) -> Result<Vec<Vec<Sample>>> {
        let mut mergers = vec![SampleMerger::new(self.start, self.end); self.cols.len()];
        let mut ts_buf = Vec::new();
        for (_, bytes) in self.chunks {
            let view = ChunkView::open(self.format, bytes, &mut ts_buf)?;
            for (col, merger) in self.cols.iter().zip(&mut mergers) {
                if col.slot < view.columns() {
                    view.for_each(col.slot, |t, v| merger.offer(t, v))?;
                }
            }
        }
        for (col, merger) in self.cols.iter().zip(&mut mergers) {
            merger.offer_all(col.head.iter().copied());
        }
        Ok(mergers.into_iter().map(SampleMerger::finish).collect())
    }

    /// The chunk footers, when a fold needs no merge: every chunk has
    /// one, chunks are disjoint and ascending, and the head's samples in
    /// range come after them. Pre-stats chunks, late chunks and repeated
    /// timestamps need the merger's newest-wins semantics.
    pub(crate) fn pushdown_stats(&self) -> Option<Vec<ChunkStats>> {
        let mut stats: Vec<ChunkStats> = Vec::with_capacity(self.chunks.len());
        for (_, bytes) in self.chunks {
            let s = agg::split_envelope(bytes).0?;
            if stats.last().is_some_and(|prev| s.min_ts <= prev.max_ts) {
                return None;
            }
            stats.push(s);
        }
        if let Some(last) = stats.last().map(|s| s.max_ts) {
            let mut heads = self.cols.iter().flat_map(|c| &c.head);
            if heads.any(|s| s.t >= self.start && s.t < self.end && s.t <= last) {
                return None;
            }
        }
        Some(stats)
    }

    /// The pushdown fold over [`ObjectRead::pushdown_stats`]; it visits
    /// samples in the merger's order. Each chunk takes the first branch
    /// that applies:
    ///
    /// 1. outside `[start, end)`: skipped;
    /// 2. inside one window where no column's extremum can move: skipped;
    /// 3. inside one window, and its footer answers exactly: merged;
    /// 4. inside one window: decoded straight into it;
    /// 5. otherwise: stream-folded.
    pub(crate) fn fold(
        &self,
        spec: AggSpec,
        stats: &[ChunkStats],
        counters: &AggCounters,
    ) -> Result<Vec<Vec<Sample>>> {
        let mut wins = vec![StepWindows::new(self.start, self.end, spec.step_ms); self.cols.len()];
        let mut ts_buf = Vec::new();
        // Counts post once per object: each post charges the active trace
        // context under its mutex.
        let (mut n_push, mut n_meta, mut n_skip) = (0u64, 0u64, 0u64);
        for ((_, bytes), s) in self.chunks.iter().zip(stats) {
            if s.max_ts < self.start || s.min_ts >= self.end {
                n_skip += 1;
                continue;
            }
            let window = wins[0].window_of(s);
            if window.is_some_and(|b| wins.iter().all(|w| w.holds_extremum(spec.kind, b, s))) {
                n_skip += 1;
                continue;
            }
            let view = ChunkView::open(self.format, bytes, &mut ts_buf)?;
            if let (Some(b), Some(col_stats), [w]) = (window, view.column_stats(), &mut wins[..]) {
                if w.merge_footer(spec.kind, b, &col_stats) {
                    n_meta += 1;
                    continue;
                }
            }
            n_push += 1;
            for (col, w) in self.cols.iter().zip(&mut wins) {
                match window {
                    _ if col.slot >= view.columns() => {}
                    Some(b) => {
                        w.fold_window(b, |acc| view.for_each(col.slot, |t, v| acc.observe(t, v)))?
                    }
                    None => view.for_each(col.slot, |t, v| w.observe(t, v))?,
                }
            }
        }
        for (col, w) in self.cols.iter().zip(&mut wins) {
            for s in &col.head {
                w.observe(s.t, s.v);
            }
        }
        for (counter, n) in [
            (&counters.pushdown_chunks, n_push),
            (&counters.meta_answered, n_meta),
            (&counters.skipped_chunks, n_skip),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
        Ok(wins.into_iter().map(|w| w.finish(spec.kind)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_clips_and_dedups_latest_wins() {
        let mut m = SampleMerger::new(10, 30);
        m.offer_all([
            Sample::new(5, 0.0),
            Sample::new(10, 1.0),
            Sample::new(20, 2.0),
        ]);
        m.offer(20, 9.0); // newer source overrides
        m.offer(30, 3.0); // end-exclusive
        assert_eq!(m.finish(), vec![Sample::new(10, 1.0), Sample::new(20, 9.0)]);
    }

    #[test]
    fn merger_sorts_out_of_order_offers() {
        let mut m = SampleMerger::new(0, 100);
        m.offer(50, 5.0);
        m.offer(10, 1.0);
        m.offer(30, 3.0);
        let out = m.finish();
        let ts: Vec<i64> = out.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![10, 30, 50]);
    }

    #[test]
    fn aggregate_max_buckets_correctly() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample::new(i * 60_000, (i % 4) as f64))
            .collect();
        let out = aggregate_step(AggKind::Max, &samples, 0, 600_000, 300_000);
        // Bucket 0 covers minutes 0-4 (values 0,1,2,3,0), bucket 1 covers
        // minutes 5-9 (values 1,2,3,0,1).
        assert_eq!(out, vec![Sample::new(0, 3.0), Sample::new(300_000, 3.0)]);
    }

    #[test]
    fn aggregate_max_omits_empty_windows() {
        let samples = vec![Sample::new(0, 1.0), Sample::new(900_000, 2.0)];
        let out = aggregate_step(AggKind::Max, &samples, 0, 1_200_000, 300_000);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].t, 900_000);
    }

    #[test]
    fn aggregate_step_covers_every_kind() {
        let samples = vec![
            Sample::new(0, 4.0),
            Sample::new(60_000, 1.0),
            Sample::new(120_000, 7.0),
            Sample::new(300_000, 10.0),
        ];
        let range = (0, 600_000, 300_000);
        let first = |out: Vec<Sample>| out.first().map(|s| s.v);
        let agg = |kind| aggregate_step(kind, &samples, range.0, range.1, range.2);
        assert_eq!(first(agg(AggKind::Sum)), Some(12.0));
        assert_eq!(first(agg(AggKind::Min)), Some(1.0));
        assert_eq!(first(agg(AggKind::Max)), Some(7.0));
        assert_eq!(first(agg(AggKind::Count)), Some(3.0));
        assert_eq!(first(agg(AggKind::Avg)), Some(4.0));
        // Rate over window 0: (7.0 - 4.0) / 120s.
        assert_eq!(first(agg(AggKind::Rate)), Some(3.0 / 120.0));
        // Window 1 has a single sample: rate is undefined and omitted.
        assert_eq!(agg(AggKind::Rate).len(), 1);
        assert_eq!(agg(AggKind::Sum).len(), 2);
    }
}

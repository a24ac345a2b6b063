//! How far past its key a stored chunk reaches, summed up per table and
//! per memtable so that a query can tell which keys can hold samples of
//! its window ([`crate::tree::TimeTree::plan_reads`]).
//!
//! A chunk is stored under the timestamp of its first sample, and its
//! stats envelope (`tu_compress::agg`) records its last one. Over a set of
//! chunks, the *reach* is the latest sample timestamp and the longest span
//! from a chunk's key to its last sample. A chunk with a sample at or after
//! `start` then has a key at or after `start − span`, and a set whose
//! latest sample lies before `start` holds no such chunk at all.

use tu_common::keys::decode_ts;
use tu_common::Timestamp;
use tu_compress::agg::ChunkStats;

/// The reach of a set of chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    /// The latest sample timestamp (never below a key timestamp).
    pub last_ts: Timestamp,
    /// The longest span from a chunk's key timestamp to its last sample
    /// (never negative).
    pub span: i64,
}

impl Reach {
    /// The lowest key a chunk of the set with a sample at or after `start`
    /// can have; `None` if no chunk of the set reaches `start`.
    pub fn key_bound(self, start: Timestamp) -> Option<Timestamp> {
        (self.last_ts >= start).then(|| start.saturating_sub(self.span))
    }

    fn union(self, other: Reach) -> Reach {
        Reach {
            last_ts: self.last_ts.max(other.last_ts),
            span: self.span.max(other.span),
        }
    }
}

/// The reach of chunks folded in one at a time, as a table builder or a
/// memtable takes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachFold {
    /// The reach of the chunks that carried a stats envelope.
    known: Option<Reach>,
    /// The lowest key timestamp of a chunk without an envelope, whose
    /// samples may run on past any bound: `i64::MIN` for a key that holds
    /// no timestamp.
    unknown_from: Option<Timestamp>,
}

impl ReachFold {
    /// Folds in the chunk stored under `key`, whose envelope held `stats`.
    pub fn add(&mut self, key: &[u8], stats: Option<&ChunkStats>) {
        let key_ts = decode_ts(key).ok();
        let (Some(key_ts), Some(stats)) = (key_ts, stats) else {
            let from = key_ts.unwrap_or(i64::MIN);
            self.unknown_from = Some(self.unknown_from.map_or(from, |f| f.min(from)));
            return;
        };
        let last_ts = stats.max_ts.max(key_ts);
        let reach = Reach {
            last_ts,
            span: last_ts - key_ts,
        };
        self.known = Some(self.known.map_or(reach, |r| r.union(reach)));
    }

    /// The reach of every chunk folded in; `None` if one had no envelope
    /// (or none was folded in).
    pub fn reach(&self) -> Option<Reach> {
        self.known.filter(|_| self.unknown_from.is_none())
    }

    /// The lowest key a folded-in chunk with a sample at or after `start`
    /// can have; `None` if none can have one.
    pub fn key_bound(&self, start: Timestamp) -> Option<Timestamp> {
        let known = self.known.and_then(|r| r.key_bound(start));
        match (known, self.unknown_from) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_common::keys::{encode_key, encode_versioned_key};

    fn stats(min_ts: Timestamp, max_ts: Timestamp) -> ChunkStats {
        ChunkStats {
            min_ts,
            max_ts,
            count: 2,
            min_v: 0.0,
            max_v: 1.0,
            sum: 1.0,
        }
    }

    #[test]
    fn reach_is_the_latest_sample_and_the_longest_span() {
        let mut fold = ReachFold::default();
        assert_eq!((fold.reach(), fold.key_bound(0)), (None, None));
        fold.add(&encode_key(1, 100), Some(&stats(100, 190)));
        fold.add(&encode_versioned_key(2, 500, 7), Some(&stats(500, 520)));
        let want = Reach {
            last_ts: 520,
            span: 90,
        };
        assert_eq!(fold.reach(), Some(want));
        assert_eq!(fold.key_bound(520), Some(430));
        assert_eq!(fold.key_bound(521), None, "nothing reaches past 520");
        // A chunk whose envelope ends before its key reaches its key.
        fold.add(&encode_key(3, 1_000), Some(&stats(900, 950)));
        assert_eq!(fold.key_bound(1_000), Some(910));
    }

    #[test]
    fn a_chunk_without_an_envelope_leaves_the_reach_unknown() {
        let mut fold = ReachFold::default();
        fold.add(&encode_key(1, 100), Some(&stats(100, 190)));
        fold.add(&encode_key(1, 40), None);
        assert_eq!(fold.reach(), None);
        // Its key bounds every later start; the known chunk's bound wins
        // where it is lower.
        assert_eq!(fold.key_bound(1 << 40), Some(40));
        assert_eq!(fold.key_bound(120), Some(30));
        fold.add(b"not a key", Some(&stats(0, 1)));
        assert_eq!(fold.key_bound(1 << 40), Some(i64::MIN));
    }
}

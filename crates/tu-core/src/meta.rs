//! `engine.meta`: what the engine must still know after a restart that no
//! surviving WAL record tells it.
//!
//! Layout, little-endian: `i64 max_chunk_span`, `u64 late_seq`, then one
//! `(u64 object id, i64 timestamp)` pair per object in `late_ts`, by id. A
//! file of only the first field is the layout from before late chunks. The
//! file is replaced whole ([`tu_cloud::block::BlockStore::replace_file`]),
//! so any other length is corruption.
//!
//! The first field is unused: it is written as 0 and ignored on read, so
//! files written while it held a query slack still open. Queries bound
//! their keys by the reach each table and memtable records
//! (`TimeTree::plan_reads`).

use std::collections::BTreeMap;

use tu_common::bytes::{i64_le, u64_le};
use tu_common::{Error, Result, SeriesId, Timestamp};

/// The file's name in the block store.
pub const FILE: &str = "engine.meta";

/// The persisted hints.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EngineMeta {
    /// Highest sequence number any late chunk has had, which is also its
    /// version in the tree; numbering carries on above it after a reopen.
    pub late_seq: u64,
    /// Per series or group, the newest timestamp any of its late chunks
    /// holds. A reopened object treats rows at or below it as late, so a
    /// rewrite of a late sample outranks the old chunk instead of opening
    /// a head whose plain chunk the old, versioned one would override.
    pub late_ts: BTreeMap<SeriesId, Timestamp>,
}

impl EngineMeta {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * self.late_ts.len());
        out.extend_from_slice(&0i64.to_le_bytes());
        out.extend_from_slice(&self.late_seq.to_le_bytes());
        for (id, t) in &self.late_ts {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut meta = EngineMeta::default();
        match bytes.len() {
            8 => {}
            n if n >= 16 && n % 16 == 0 => {
                meta.late_seq = u64_le(&bytes[8..16]);
                for pair in bytes[16..].chunks_exact(16) {
                    meta.late_ts.insert(u64_le(pair), i64_le(&pair[8..]));
                }
            }
            n => return Err(Error::corruption(format!("{FILE} is {n} bytes long"))),
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_reads_the_span_only_layout() {
        let meta = EngineMeta {
            late_seq: 41,
            late_ts: BTreeMap::from([(3, -5), (9, 1 << 40)]),
        };
        let bytes = meta.encode();
        assert_eq!(bytes.len(), 48);
        assert_eq!(bytes[..8], [0; 8], "the old span field is written as 0");
        assert_eq!(EngineMeta::decode(&bytes).unwrap(), meta);
        // A span written before is ignored, in either layout.
        let mut spanned = bytes.clone();
        spanned[..8].copy_from_slice(&7_200_000i64.to_le_bytes());
        assert_eq!(EngineMeta::decode(&spanned).unwrap(), meta);
        let old = EngineMeta::decode(&310i64.to_le_bytes()).unwrap();
        assert_eq!(old, EngineMeta::default());
    }

    #[test]
    fn any_other_length_is_corruption() {
        let bytes = EngineMeta::default().encode();
        for n in [0, 5, 12, 20, 31] {
            let mut b = bytes.clone();
            b.resize(n, 0);
            assert!(EngineMeta::decode(&b).is_err(), "{n} bytes");
        }
    }
}

//! Order-preserving key encoding for the time-partitioned LSM-tree.
//!
//! The paper (§3.3, Figure 10) stores each chunk under a 16-byte key:
//! the series/group ID in the first 8 bytes and the chunk's starting
//! timestamp in the second 8 bytes, both big-endian, so that
//!
//! * chunks of the same series/group are adjacent (ID prefix), and
//! * within a series they are sorted by starting timestamp.
//!
//! Timestamps are signed; to keep byte order equal to numeric order the sign
//! bit is flipped before the big-endian write (the standard order-preserving
//! transform for two's-complement integers).
//!
//! A *versioned* key appends a big-endian `u64` version: it sorts right
//! after the plain key of its `(id, start_ts)` and before the next start
//! timestamp, so range bounds built from plain keys cover it, and two
//! versions never replace each other or a plain key.

use crate::error::{Error, Result};
use crate::types::{SeriesId, Timestamp};

/// Length in bytes of an encoded chunk key.
pub const KEY_LEN: usize = 16;

/// Length in bytes of a versioned chunk key.
pub const VERSIONED_KEY_LEN: usize = KEY_LEN + 8;

/// Encodes `(id, start_ts)` into a 16-byte key whose lexicographic order
/// equals the order of `(id, start_ts)` tuples.
#[inline]
pub fn encode_key(id: SeriesId, start_ts: Timestamp) -> [u8; KEY_LEN] {
    let mut out = [0u8; KEY_LEN];
    out[..8].copy_from_slice(&id.to_be_bytes());
    out[8..].copy_from_slice(&((start_ts as u64) ^ (1 << 63)).to_be_bytes());
    out
}

/// Encodes `(id, start_ts, version)` into a 24-byte key: see the module
/// documentation.
#[inline]
pub fn encode_versioned_key(
    id: SeriesId,
    start_ts: Timestamp,
    version: u64,
) -> [u8; VERSIONED_KEY_LEN] {
    let mut out = [0u8; VERSIONED_KEY_LEN];
    out[..KEY_LEN].copy_from_slice(&encode_key(id, start_ts));
    out[KEY_LEN..].copy_from_slice(&version.to_be_bytes());
    out
}

/// Decodes the `(id, start_ts)` of a key produced by [`encode_key`] or
/// [`encode_versioned_key`].
#[inline]
pub fn decode_key(key: &[u8]) -> Result<(SeriesId, Timestamp)> {
    if key.len() != KEY_LEN && key.len() != VERSIONED_KEY_LEN {
        return Err(Error::corruption(format!(
            "chunk key must be {KEY_LEN} or {VERSIONED_KEY_LEN} bytes, got {}",
            key.len()
        )));
    }
    let id = u64::from_be_bytes(key[..8].try_into().expect("checked length"));
    let ts_bits = u64::from_be_bytes(key[8..KEY_LEN].try_into().expect("checked length"));
    Ok((id, (ts_bits ^ (1 << 63)) as i64))
}

/// The version of a versioned key; `None` for a plain one.
#[inline]
pub fn decode_version(key: &[u8]) -> Option<u64> {
    let version = key.get(KEY_LEN..)?.try_into().ok()?;
    Some(u64::from_be_bytes(version))
}

/// Decodes only the series/group ID prefix of a key.
#[inline]
pub fn decode_id(key: &[u8]) -> Result<SeriesId> {
    if key.len() < 8 {
        return Err(Error::corruption("chunk key shorter than 8-byte ID prefix"));
    }
    Ok(u64::from_be_bytes(
        key[..8].try_into().expect("checked length"),
    ))
}

/// Decodes only the starting-timestamp suffix of a key.
#[inline]
pub fn decode_ts(key: &[u8]) -> Result<Timestamp> {
    decode_key(key).map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for &(id, ts) in &[
            (0u64, 0i64),
            (1, -1),
            (42, 1_600_000_000_000),
            (u64::MAX, i64::MAX),
            (u64::MAX, i64::MIN),
        ] {
            let k = encode_key(id, ts);
            assert_eq!(decode_key(&k).unwrap(), (id, ts));
            assert_eq!(decode_id(&k).unwrap(), id);
            assert_eq!(decode_ts(&k).unwrap(), ts);
        }
    }

    #[test]
    fn byte_order_matches_tuple_order() {
        let tuples = [
            (0u64, i64::MIN),
            (0, -5),
            (0, 0),
            (0, 7),
            (0, i64::MAX),
            (1, i64::MIN),
            (1, 0),
            (u64::MAX, -3),
        ];
        for w in tuples.windows(2) {
            let a = encode_key(w[0].0, w[0].1);
            let b = encode_key(w[1].0, w[1].1);
            assert!(a < b, "{:?} should sort before {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        assert!(decode_key(&[0; 15]).is_err());
        assert!(decode_key(&[0; 17]).is_err());
        assert!(decode_key(&[0; 25]).is_err());
        assert!(decode_id(&[0; 7]).is_err());
    }

    #[test]
    fn versioned_keys_sort_after_their_plain_key_and_before_the_next() {
        let k = encode_versioned_key(7, -5, 3);
        assert_eq!(decode_key(&k).unwrap(), (7, -5));
        assert_eq!(decode_ts(&k).unwrap(), -5);
        assert_eq!(decode_version(&k), Some(3));
        assert_eq!(decode_version(&encode_key(7, -5)), None);
        let order = [
            encode_key(7, -5).to_vec(),
            encode_versioned_key(7, -5, 0).to_vec(),
            encode_versioned_key(7, -5, 3).to_vec(),
            encode_versioned_key(7, -5, u64::MAX).to_vec(),
            encode_key(7, -4).to_vec(),
        ];
        for w in order.windows(2) {
            assert!(w[0] < w[1], "{:?} should sort before {:?}", w[0], w[1]);
        }
    }
}

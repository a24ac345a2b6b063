//! The series/group catalog: the durable registry of identifiers.
//!
//! Tag sets must survive restarts so the inverted index and the memory
//! objects can be rebuilt. The catalog is an append-only, CRC-framed file
//! on the fast tier with four record kinds:
//!
//! * `Series(id, labels)` — an individual timeseries was created.
//! * `Group(gid, group_tags)` — a group was created.
//! * `Member(gid, slot, unique_tags)` — a member joined a group at `slot`
//!   (slots are append-only positions, §3.4).
//! * `Removed(id)` — retention purged a series or group (members
//!   included). Recovery drops it again, and never hands its id out anew.

use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

use tu_cloud::block::BlockStore;
use tu_common::{varint, Error, GroupId, Labels, Result, SeriesId, SeriesRef};
use tu_compress::crc;

/// One catalog record.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogRecord {
    Series {
        id: SeriesId,
        labels: Labels,
    },
    Group {
        gid: GroupId,
        group_tags: Labels,
    },
    Member {
        gid: GroupId,
        slot: SeriesRef,
        unique_tags: Labels,
    },
    Removed {
        id: SeriesId,
    },
}

fn write_labels(out: &mut Vec<u8>, labels: &Labels) {
    varint::write_u64(out, labels.len() as u64);
    for (k, v) in labels.iter() {
        varint::write_u64(out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
        varint::write_u64(out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
}

fn read_labels(buf: &[u8]) -> Result<(Labels, usize)> {
    let (n, mut off) = varint::read_u64(buf)?;
    // Each pair takes at least two bytes, so the bytes that remain bound
    // the count a well-formed record can hold.
    let mut pairs = Vec::with_capacity((n as usize).min((buf.len() - off) / 2));
    for _ in 0..n {
        let (k, used) = read_str(&buf[off..], "key")?;
        off += used;
        let (v, used) = read_str(&buf[off..], "value")?;
        off += used;
        pairs.push((k, v));
    }
    Ok((Labels::from_pairs(pairs), off))
}

/// Reads one length-prefixed UTF-8 string, returning it and the bytes it
/// took.
fn read_str(buf: &[u8], what: &str) -> Result<(String, usize)> {
    let (len, used) = varint::read_u64(buf)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| used.checked_add(len))
        .ok_or_else(|| Error::corruption(format!("catalog label {what} length overflows")))?;
    let bytes = buf
        .get(used..end)
        .ok_or_else(|| Error::corruption(format!("catalog label {what} truncated")))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| Error::corruption(format!("catalog label {what} not utf-8")))?;
    Ok((s.to_string(), end))
}

impl CatalogRecord {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            CatalogRecord::Series { id, labels } => {
                body.push(1);
                body.extend_from_slice(&id.to_le_bytes());
                write_labels(&mut body, labels);
            }
            CatalogRecord::Group { gid, group_tags } => {
                body.push(2);
                body.extend_from_slice(&gid.to_le_bytes());
                write_labels(&mut body, group_tags);
            }
            CatalogRecord::Member {
                gid,
                slot,
                unique_tags,
            } => {
                body.push(3);
                body.extend_from_slice(&gid.to_le_bytes());
                body.extend_from_slice(&slot.to_le_bytes());
                write_labels(&mut body, unique_tags);
            }
            CatalogRecord::Removed { id } => {
                body.push(4);
                body.extend_from_slice(&id.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(8 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc::mask(crc::crc32c(&body)).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode(body: &[u8]) -> Result<Self> {
        let tag = *body
            .first()
            .ok_or_else(|| Error::corruption("empty catalog record"))?;
        match tag {
            1 => {
                let id = tu_common::bytes::u64_le(
                    body.get(1..9)
                        .ok_or_else(|| Error::corruption("catalog series id truncated"))?,
                );
                let (labels, _) = read_labels(&body[9..])?;
                Ok(CatalogRecord::Series { id, labels })
            }
            2 => {
                let gid = tu_common::bytes::u64_le(
                    body.get(1..9)
                        .ok_or_else(|| Error::corruption("catalog group id truncated"))?,
                );
                let (group_tags, _) = read_labels(&body[9..])?;
                Ok(CatalogRecord::Group { gid, group_tags })
            }
            3 => {
                let gid = tu_common::bytes::u64_le(
                    body.get(1..9)
                        .ok_or_else(|| Error::corruption("catalog member gid truncated"))?,
                );
                let slot = tu_common::bytes::u32_le(
                    body.get(9..13)
                        .ok_or_else(|| Error::corruption("catalog member slot truncated"))?,
                );
                let (unique_tags, _) = read_labels(&body[13..])?;
                Ok(CatalogRecord::Member {
                    gid,
                    slot,
                    unique_tags,
                })
            }
            4 => {
                let id = tu_common::bytes::u64_le(
                    body.get(1..9)
                        .ok_or_else(|| Error::corruption("catalog removed id truncated"))?,
                );
                Ok(CatalogRecord::Removed { id })
            }
            other => Err(Error::corruption(format!(
                "unknown catalog record tag {other}"
            ))),
        }
    }
}

/// The append-only catalog file.
pub struct Catalog {
    store: Arc<BlockStore>,
    name: String,
    pending: Mutex<Vec<u8>>,
}

impl Catalog {
    pub fn open(store: Arc<BlockStore>, name: impl Into<String>) -> Self {
        Catalog {
            store,
            name: name.into(),
            pending: Mutex::new(&lockdep::CORE_CATALOG_PENDING, Vec::new()),
        }
    }

    /// Queues a record; [`Catalog::flush`] persists the batch.
    pub fn append(&self, record: &CatalogRecord) {
        self.pending.lock().extend_from_slice(&record.encode());
    }

    /// Appends every queued record. The queue stays locked across the
    /// append, so a flush that returns `Ok` finds everything queued before
    /// it durable; a failed append leaves the records queued for the next
    /// flush.
    pub fn flush(&self) -> Result<()> {
        let mut pending = self.pending.lock();
        if pending.is_empty() {
            return Ok(());
        }
        self.store.append(&self.name, &pending)?;
        pending.clear();
        Ok(())
    }

    /// Replays all intact records; a torn tail ends replay silently.
    pub fn replay(&self) -> Result<Vec<CatalogRecord>> {
        let bytes = match self.store.read_file(&self.name) {
            Ok(b) => b,
            Err(e) if e.is_not_found() => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 8 <= bytes.len() {
            let len = tu_common::bytes::u32_le(&bytes[off..off + 4]) as usize;
            let stored = crc::unmask(tu_common::bytes::u32_le(&bytes[off + 4..off + 8]));
            let start = off + 8;
            if start + len > bytes.len() {
                break;
            }
            let body = &bytes[start..start + len];
            if crc::crc32c(body) != stored {
                if start + len == bytes.len() {
                    break;
                }
                return Err(Error::corruption("catalog record checksum mismatch"));
            }
            out.push(CatalogRecord::decode(body)?);
            off = start + len;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};

    fn catalog() -> (tempfile::TempDir, Catalog) {
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        (dir, Catalog::open(store, "catalog"))
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let (_d, c) = catalog();
        let records = vec![
            CatalogRecord::Series {
                id: 7,
                labels: labels(&[("metric", "cpu"), ("host", "h1")]),
            },
            CatalogRecord::Group {
                gid: 1 | tu_common::GROUP_ID_FLAG,
                group_tags: labels(&[("host", "h1")]),
            },
            CatalogRecord::Member {
                gid: 1 | tu_common::GROUP_ID_FLAG,
                slot: 0,
                unique_tags: labels(&[("metric", "mem")]),
            },
            CatalogRecord::Series {
                id: 8,
                labels: Labels::new(),
            },
            CatalogRecord::Removed { id: 7 },
            CatalogRecord::Removed {
                id: 1 | tu_common::GROUP_ID_FLAG,
            },
        ];
        for r in &records {
            c.append(r);
        }
        c.flush().unwrap();
        assert_eq!(c.replay().unwrap(), records);
    }

    #[test]
    fn empty_catalog_replays_empty() {
        let (_d, c) = catalog();
        assert!(c.replay().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let (_d, c) = catalog();
        c.append(&CatalogRecord::Series {
            id: 1,
            labels: labels(&[("a", "b")]),
        });
        c.flush().unwrap();
        let tail = CatalogRecord::Series {
            id: 2,
            labels: labels(&[("c", "d")]),
        }
        .encode();
        c.store.append("catalog", &tail[..tail.len() - 3]).unwrap();
        let got = c.replay().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn failed_flush_keeps_the_records_queued() {
        let (d, c) = catalog();
        let rec = CatalogRecord::Series {
            id: 1,
            labels: labels(&[("a", "b")]),
        };
        c.append(&rec);
        // A directory where the file belongs makes the append fail.
        let path = d.path().join("b").join("catalog");
        std::fs::create_dir_all(&path).unwrap();
        assert!(c.flush().is_err());
        std::fs::remove_dir(&path).unwrap();
        c.flush().unwrap();
        assert_eq!(c.replay().unwrap(), vec![rec]);
    }

    #[test]
    fn unicode_labels_survive() {
        let (_d, c) = catalog();
        let rec = CatalogRecord::Series {
            id: 1,
            labels: labels(&[("城市", "東京"), ("emoji", "📈")]),
        };
        c.append(&rec);
        c.flush().unwrap();
        assert_eq!(c.replay().unwrap(), vec![rec]);
    }

    /// Every record kind, cut at every length and with each byte flipped,
    /// decodes to a record or to `Error::corruption`, never a panic. The
    /// input is a record body that passed its CRC.
    #[test]
    fn damaged_bodies_decode_or_fail_as_corruption() {
        let records = [
            CatalogRecord::Series {
                id: 7,
                labels: labels(&[("metric", "cpu"), ("host", "h1")]),
            },
            CatalogRecord::Group {
                gid: 1 | tu_common::GROUP_ID_FLAG,
                group_tags: labels(&[("host", "h1")]),
            },
            CatalogRecord::Member {
                gid: 1 | tu_common::GROUP_ID_FLAG,
                slot: 3,
                unique_tags: labels(&[("metric", "mem")]),
            },
            CatalogRecord::Removed { id: 7 },
        ];
        let check = |body: &[u8]| match CatalogRecord::decode(body) {
            Ok(_) => {}
            Err(e) => assert!(e.is_corruption(), "{body:?}: {e}"),
        };
        for record in &records {
            let body = record.encode()[8..].to_vec();
            for len in 0..body.len() {
                check(&body[..len]);
            }
            for i in 0..body.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut damaged = body.clone();
                    damaged[i] ^= mask;
                    check(&damaged);
                }
            }
        }
        // A label count or length near u64::MAX asks for no allocation
        // and overflows no offset.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut body = vec![1];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&huge);
        check(&body);
        let mut body = vec![1];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.push(1);
        body.extend_from_slice(&huge);
        check(&body);
    }
}

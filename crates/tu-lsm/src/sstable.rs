//! SSTable format: prefix-compressed data blocks, an index block, and a
//! properties footer.
//!
//! Layout (offsets grow downward):
//!
//! ```text
//! [data block 0][data block 1]...      Snappy-compressed, CRC-guarded
//! [index block]                        last-key -> (offset, len) per block
//! [properties]                         entry count, first/last key
//! [footer: 2 x (u64 offset, u64 len) + 2 x u64 zero + u64 magic]
//! ```
//!
//! Tables are read only by key range (a series' chunks over a time
//! range), so there is no point-lookup filter.
//!
//! Every block (data, index, properties) is framed as
//! `[payload][compression tag: 1 byte][masked crc32c: 4 bytes]`, like
//! LevelDB. Keys are the 16-byte `(id, start_ts)` chunk keys of
//! `tu_common::keys`, so the properties' first/last key double as the
//! table's ID range — which the patch mechanism needs (Figure 11).

use std::sync::Arc;

use tu_cloud::block::BlockStore;
use tu_cloud::cost::RangesRead;
use tu_cloud::object::ObjectStore;
use tu_common::{varint, Error, Result};
use tu_compress::{crc, snappy};

use crate::cache::BlockCache;
use crate::reach::{Reach, ReachFold};

/// A parsed data block as stored in the cache.
type Block = Arc<Vec<(Vec<u8>, Vec<u8>)>>;

const MAGIC: u64 = 0x7475_5353_5441_424c; // "tuSSTABL"
const FOOTER_LEN: usize = 6 * 8 + 8;
const RESTART_INTERVAL: usize = 16;
/// Target uncompressed data-block size; the paper's cost model bills one
/// slow-storage Get per 4 KiB block (Table 1: `S_block`).
pub const BLOCK_SIZE: usize = 4096;

const COMPRESS_NONE: u8 = 0;
const COMPRESS_SNAPPY: u8 = 1;

/// Block-load and readahead counters, resolved once per process. Traced,
/// so profiled operations see which block fetches they caused.
struct SstObs {
    block_loads: tu_obs::TracedCounter,
    block_load_bytes: tu_obs::TracedCounter,
    coalesced_requests: tu_obs::TracedCounter,
    coalesced_blocks: tu_obs::TracedCounter,
    gap_bytes: tu_obs::TracedCounter,
}

fn sst_obs() -> &'static SstObs {
    static OBS: std::sync::OnceLock<SstObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SstObs {
        block_loads: tu_obs::traced("lsm.sstable.block_loads"),
        block_load_bytes: tu_obs::traced("lsm.sstable.block_load_bytes"),
        coalesced_requests: tu_obs::traced("lsm.readahead.coalesced_requests"),
        coalesced_blocks: tu_obs::traced("lsm.readahead.coalesced_blocks"),
        gap_bytes: tu_obs::traced("lsm.readahead.gap_bytes"),
    })
}

// --- block building ---------------------------------------------------------

/// Builds one prefix-compressed block.
struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    fn new() -> Self {
        BlockBuilder {
            buf: Vec::with_capacity(BLOCK_SIZE),
            restarts: vec![0],
            last_key: Vec::new(),
            entries: 0,
        }
    }

    fn add(&mut self, key: &[u8], value: &[u8]) {
        let shared = if self.entries % RESTART_INTERVAL == 0 {
            self.restarts.push(self.buf.len() as u32);
            0
        } else {
            key.iter()
                .zip(&self.last_key)
                .take_while(|(a, b)| a == b)
                .count()
        };
        varint::write_u64(&mut self.buf, shared as u64);
        varint::write_u64(&mut self.buf, (key.len() - shared) as u64);
        varint::write_u64(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
    }

    fn estimated_len(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn finish(mut self) -> Vec<u8> {
        // The first restart pushed at construction is a duplicate of the
        // one pushed by the first add(); drop it.
        let restarts = if self.restarts.len() > 1 {
            &self.restarts[1..]
        } else {
            &self.restarts[..]
        };
        for &r in restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(restarts.len() as u32).to_le_bytes());
        self.buf
    }
}

/// Parses entries out of one uncompressed block.
fn block_entries(block: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    if block.len() < 4 {
        return Err(Error::corruption("sstable block shorter than trailer"));
    }
    let n_restarts = tu_common::bytes::u32_le(&block[block.len() - 4..]) as usize;
    let data_end = block
        .len()
        .checked_sub(4 + n_restarts * 4)
        .ok_or_else(|| Error::corruption("sstable block restart count invalid"))?;
    let mut out = Vec::new();
    let mut off = 0usize;
    let mut last_key: Vec<u8> = Vec::new();
    while off < data_end {
        let (shared, n) = varint::read_u64(&block[off..])?;
        off += n;
        let (non_shared, n) = varint::read_u64(&block[off..])?;
        off += n;
        let (vlen, n) = varint::read_u64(&block[off..])?;
        off += n;
        let shared = shared as usize;
        let non_shared = non_shared as usize;
        let vlen = vlen as usize;
        if shared > last_key.len() || off + non_shared + vlen > data_end {
            return Err(Error::corruption("sstable block entry out of bounds"));
        }
        let mut key = last_key[..shared].to_vec();
        key.extend_from_slice(&block[off..off + non_shared]);
        off += non_shared;
        let value = block[off..off + vlen].to_vec();
        off += vlen;
        last_key = key.clone();
        out.push((key, value));
    }
    Ok(out)
}

fn frame_block(payload: &[u8]) -> Vec<u8> {
    // Compress if it helps.
    let compressed = snappy::compress(payload);
    let (tag, body) = if compressed.len() < payload.len() {
        (COMPRESS_SNAPPY, compressed)
    } else {
        (COMPRESS_NONE, payload.to_vec())
    };
    let mut out = body;
    out.push(tag);
    let checksum = crc::mask(crc::crc32c(&out));
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn unframe_block(framed: &[u8]) -> Result<Vec<u8>> {
    if framed.len() < 5 {
        return Err(Error::corruption("sstable block frame truncated"));
    }
    let (body_tag, crc_bytes) = framed.split_at(framed.len() - 4);
    let stored = crc::unmask(tu_common::bytes::u32_le(crc_bytes));
    if crc::crc32c(body_tag) != stored {
        return Err(Error::corruption("sstable block checksum mismatch"));
    }
    let (body, tag) = body_tag.split_at(body_tag.len() - 1);
    match tag[0] {
        COMPRESS_NONE => Ok(body.to_vec()),
        COMPRESS_SNAPPY => snappy::decompress(body),
        other => Err(Error::corruption(format!(
            "unknown sstable compression tag {other}"
        ))),
    }
}

// --- table building ----------------------------------------------------------

/// Summary of a finished table, persisted by the tree's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProps {
    pub entries: u64,
    pub first_key: Vec<u8>,
    pub last_key: Vec<u8>,
    /// Total file size in bytes.
    pub file_len: u64,
    /// How many entries carry a `tu_compress::agg` stats envelope — the
    /// pushdown-eligible fraction the introspection plane reports as
    /// "stats-footer coverage".
    pub stats_chunks: u64,
    /// How far the table's chunks reach past their keys; `None` when one
    /// has no stats envelope. Kept by the tree's manifest, not in the
    /// table file: a table opened from its file reports `None`.
    pub reach: Option<Reach>,
}

/// Builds a serialized SSTable in memory from sorted `(key, value)` adds.
pub struct TableBuilder {
    buf: Vec<u8>,
    current: BlockBuilder,
    index: Vec<(Vec<u8>, u64, u64)>, // (last key, offset, len)
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    entries: u64,
    stats_chunks: u64,
    reach: ReachFold,
}

impl Default for TableBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TableBuilder {
    pub fn new() -> Self {
        TableBuilder {
            buf: Vec::new(),
            current: BlockBuilder::new(),
            index: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
            entries: 0,
            stats_chunks: 0,
            reach: ReachFold::default(),
        }
    }

    /// Adds an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid("sstable keys must be strictly increasing"));
        }
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.current.add(key, value);
        let stats = tu_compress::agg::split_envelope(value).0;
        self.stats_chunks += u64::from(stats.is_some());
        self.reach.add(key, stats.as_ref());
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
        if self.current.estimated_len() >= BLOCK_SIZE {
            self.flush_block();
        }
        Ok(())
    }

    fn flush_block(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let block = std::mem::replace(&mut self.current, BlockBuilder::new());
        let framed = frame_block(&block.finish());
        let offset = self.buf.len() as u64;
        self.buf.extend_from_slice(&framed);
        self.index
            .push((self.last_key.clone(), offset, framed.len() as u64));
    }

    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Current approximate size of the table being built.
    pub fn estimated_len(&self) -> usize {
        self.buf.len() + self.current.estimated_len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finalizes the table, returning the file bytes and properties.
    pub fn finish(mut self) -> Result<(Vec<u8>, TableProps)> {
        if self.entries == 0 {
            return Err(Error::invalid("cannot finish an empty sstable"));
        }
        self.flush_block();
        // Index block.
        let mut idx = BlockBuilder::new();
        for (last_key, offset, len) in &self.index {
            let mut v = Vec::with_capacity(16);
            varint::write_u64(&mut v, *offset);
            varint::write_u64(&mut v, *len);
            idx.add(last_key, &v);
        }
        let index_framed = frame_block(&idx.finish());
        let index_off = self.buf.len() as u64;
        self.buf.extend_from_slice(&index_framed);
        // Properties block.
        let first_key = self
            .first_key
            .ok_or_else(|| Error::invalid("sstable has entries but no first key"))?;
        let mut props = Vec::new();
        varint::write_u64(&mut props, self.entries);
        varint::write_u64(&mut props, first_key.len() as u64);
        props.extend_from_slice(&first_key);
        varint::write_u64(&mut props, self.last_key.len() as u64);
        props.extend_from_slice(&self.last_key);
        varint::write_u64(&mut props, self.stats_chunks);
        let props_framed = frame_block(&props);
        let props_off = self.buf.len() as u64;
        self.buf.extend_from_slice(&props_framed);
        // Footer.
        for v in [
            index_off,
            index_framed.len() as u64,
            props_off,
            props_framed.len() as u64,
            0,
            0,
        ] {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.buf.extend_from_slice(&MAGIC.to_le_bytes());
        let props = TableProps {
            entries: self.entries,
            first_key,
            last_key: self.last_key,
            file_len: self.buf.len() as u64,
            stats_chunks: self.stats_chunks,
            reach: self.reach.reach(),
        };
        Ok((self.buf, props))
    }
}

// --- reading ------------------------------------------------------------------

/// Random-access byte source an SSTable can be read from: a fast-tier file
/// or a slow-tier object.
pub enum TableSource {
    Block(Arc<BlockStore>, String),
    Object(Arc<ObjectStore>, String),
}

impl TableSource {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = match self {
            TableSource::Block(store, name) => store.read_range(name, offset, len)?,
            TableSource::Object(store, key) => store.get_range(key, offset, len)?,
        };
        if data.len() != len {
            return Err(Error::corruption(format!(
                "short read: wanted {len} bytes at {offset}, got {}",
                data.len()
            )));
        }
        Ok(data)
    }

    /// Fetches several ranges (sorted by offset) with the requests the
    /// tier's latency model prices cheapest.
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> Result<RangesRead> {
        let read = match self {
            TableSource::Block(store, name) => store.read_ranges(name, ranges)?,
            TableSource::Object(store, key) => store.get_ranges(key, ranges)?,
        };
        for (part, &(offset, len)) in read.parts.iter().zip(ranges) {
            if part.len() != len {
                return Err(Error::corruption(format!(
                    "short read: wanted {len} bytes at {offset}, got {}",
                    part.len()
                )));
            }
        }
        Ok(read)
    }

    fn len(&self) -> Result<u64> {
        match self {
            TableSource::Block(store, name) => store.len(name),
            TableSource::Object(store, key) => store.len(key),
        }
    }

    /// A cache identity for this table.
    fn cache_name(&self) -> String {
        match self {
            TableSource::Block(_, name) => format!("b:{name}"),
            TableSource::Object(_, key) => format!("o:{key}"),
        }
    }
}

/// A table's footer, checked against the table's length.
struct Footer {
    file_len: u64,
    /// Where the data blocks end and the tail begins: the index block and
    /// the properties block, back to back up to the footer.
    index_off: u64,
    index_len: usize,
}

/// What a table's tail holds, parsed.
struct Tail {
    index: Vec<(Vec<u8>, u64, u64)>,
    props: TableProps,
}

impl Footer {
    /// Where the footer of a `file_len`-byte table starts.
    fn offset(file_len: u64) -> Result<u64> {
        file_len
            .checked_sub(FOOTER_LEN as u64)
            .ok_or_else(|| Error::corruption("sstable shorter than its footer"))
    }

    /// Parses the last `FOOTER_LEN` bytes of a `file_len`-byte table. Only
    /// the layout [`TableBuilder::finish`] writes is accepted — the two
    /// tail sections contiguous and ending at the footer, the reserved pair
    /// zero — so a damaged word is corruption, never an offset to follow.
    fn parse(footer: &[u8], file_len: u64) -> Result<Footer> {
        let footer_off = Footer::offset(file_len)?;
        let word = |i: usize| tu_common::bytes::u64_le(&footer[i * 8..i * 8 + 8]);
        if word(6) != MAGIC {
            return Err(Error::corruption("sstable footer magic mismatch"));
        }
        let [index_off, index_len, props_off, props_len, r0, r1] = std::array::from_fn(word);
        let laid_out = index_off.checked_add(index_len) == Some(props_off)
            && props_off.checked_add(props_len) == Some(footer_off)
            && r0 == 0
            && r1 == 0;
        if !laid_out {
            return Err(Error::corruption("sstable footer sections out of bounds"));
        }
        Ok(Footer {
            file_len,
            index_off,
            index_len: index_len as usize,
        })
    }

    /// Length of the tail, `[index_off, footer)`.
    fn tail_len(&self) -> usize {
        (self.file_len - FOOTER_LEN as u64 - self.index_off) as usize
    }

    /// Parses the tail's `tail_len()` bytes: the index (every block it
    /// names must lie in the data region) and the properties.
    fn parse_tail(&self, tail: &[u8]) -> Result<Tail> {
        let (index_framed, props_framed) = tail.split_at(self.index_len);
        let mut index = Vec::new();
        for (key, value) in block_entries(&unframe_block(index_framed)?)? {
            let (off, n) = varint::read_u64(&value)?;
            let (len, _) = varint::read_u64(&value[n..])?;
            if off.checked_add(len).is_none_or(|end| end > self.index_off) {
                return Err(Error::corruption("sstable data block out of bounds"));
            }
            index.push((key, off, len));
        }
        let props_block = unframe_block(props_framed)?;
        let mut rest = props_block.as_slice();
        let (entries, n) = varint::read_u64(rest)?;
        rest = &rest[n..];
        let mut key = || -> Result<Vec<u8>> {
            let (len, n) = varint::read_u64(rest)?;
            let key = usize::try_from(len)
                .ok()
                .and_then(|len| rest[n..].get(..len))
                .ok_or_else(|| Error::corruption("sstable properties truncated"))?;
            rest = &rest[n + key.len()..];
            Ok(key.to_vec())
        };
        let first_key = key()?;
        let last_key = key()?;
        // Tables written before stats coverage was recorded simply end
        // here; treat them as having no stats envelopes.
        let stats_chunks = if rest.is_empty() {
            0
        } else {
            varint::read_u64(rest)?.0
        };
        Ok(Tail {
            index,
            props: TableProps {
                entries,
                first_key,
                last_key,
                file_len: self.file_len,
                stats_chunks,
                reach: None,
            },
        })
    }
}

/// An open SSTable: footer and index loaded; data blocks fetched on demand
/// through the block cache.
pub struct Table {
    source: TableSource,
    cache: Option<Arc<BlockCache>>,
    cache_name: String,
    index: Vec<(Vec<u8>, u64, u64)>,
    props: TableProps,
}

/// The data blocks a set of key ranges needs from one table, fetched and
/// parsed. Holding the blocks here — not relying on the cache to still
/// have them — is what lets the ranges be decoded later, on other threads,
/// without another trip to storage.
pub struct TableRead {
    /// Needed blocks, ascending by position in the table.
    blocks: Vec<Block>,
    /// Per key range: its blocks, as positions in `blocks`.
    spans: Vec<std::ops::Range<usize>>,
}

impl TableRead {
    /// Entries of key range `i` of the read, which was `[start, end)`.
    pub fn entries<'a>(
        &'a self,
        i: usize,
        start: &'a [u8],
        end: &'a [u8],
    ) -> impl Iterator<Item = &'a (Vec<u8>, Vec<u8>)> + 'a {
        self.blocks[self.spans[i].clone()]
            .iter()
            .flat_map(|block| block.iter())
            .skip_while(move |(k, _)| k.as_slice() < start)
            .take_while(move |(k, _)| k.as_slice() < end)
    }
}

impl Table {
    /// Opens a table, reading footer + index + properties.
    pub fn open(source: TableSource, cache: Option<Arc<BlockCache>>) -> Result<Self> {
        let file_len = source.len()?;
        let footer_off = Footer::offset(file_len)?;
        let footer = Footer::parse(&source.read_at(footer_off, FOOTER_LEN)?, file_len)?;
        // Index and properties are laid out contiguously at the file tail;
        // fetch them in a single request (one Get on the slow tier instead
        // of two).
        let tail = source.read_at(footer.index_off, footer.tail_len())?;
        let Tail { index, props } = footer.parse_tail(&tail)?;
        Ok(Table {
            cache_name: source.cache_name(),
            source,
            cache,
            index,
            props,
        })
    }

    /// Every entry of the table at `source`, in key order — what a
    /// compaction reads from each input. The whole file comes back in one
    /// request (its length is known to the store and costs none), and the
    /// footer, tail and every data block are parsed out of that buffer
    /// with the checks [`Table::open`] makes. No handle is kept and no
    /// block is cached: a compaction input is read once, then deleted.
    pub fn scan_file(source: TableSource) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let file_len = source.len()?;
        let footer_off = Footer::offset(file_len)? as usize;
        let file = source.read_at(0, file_len as usize)?;
        let (body, footer) = file.split_at(footer_off);
        let footer = Footer::parse(footer, file_len)?;
        let (data, tail) = body.split_at(footer.index_off as usize);
        let tail = footer.parse_tail(tail)?;
        let mut out = Vec::new();
        for &(_, off, len) in &tail.index {
            // In bounds: `parse_tail` checked every block against the data
            // region.
            let framed = &data[off as usize..(off + len) as usize];
            out.extend(block_entries(&unframe_block(framed)?)?);
        }
        Ok(out)
    }

    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Loads the blocks at the given ascending index positions: one cache
    /// probe per block (one hit or one miss each), then all the misses in
    /// as few store requests as the tier's latency model prices cheapest —
    /// blocks a request latency apart or less share one, whatever lies
    /// between them. Each fetched frame is parsed and dropped before the
    /// next, so a read never holds a block in both forms.
    ///
    /// `lsm.sstable.block_loads`/`block_load_bytes` count every block that
    /// reached storage; `lsm.readahead.coalesced_requests`/`coalesced_blocks`
    /// the requests that carried two or more and the blocks they carried
    /// (the per-request term of Equations 4/6 that was saved);
    /// `lsm.readahead.gap_bytes` what was transferred only to bridge gaps.
    fn load_blocks(&self, needed: &[usize]) -> Result<Vec<Block>> {
        let mut out: Vec<Option<Block>> = Vec::with_capacity(needed.len());
        let mut missing: Vec<usize> = Vec::new(); // positions in `needed`
        for (pos, &idx) in needed.iter().enumerate() {
            let hit = self
                .cache
                .as_ref()
                .and_then(|cache| cache.get(&self.cache_name, self.index[idx].1));
            if hit.is_none() {
                missing.push(pos);
            }
            out.push(hit);
        }
        if !missing.is_empty() {
            let wanted: Vec<(u64, usize)> = missing
                .iter()
                .map(|&pos| {
                    let (_, off, len) = self.index[needed[pos]];
                    (off, len as usize)
                })
                .collect();
            let read = self.source.read_ranges(&wanted)?;
            let wanted_bytes: u64 = wanted.iter().map(|&(_, len)| len as u64).sum();
            let transferred: u64 = read.requests.iter().map(|r| r.len).sum();
            let merged = read.requests.iter().filter(|r| r.ranges.len() >= 2);
            let merged_blocks: u64 = merged.clone().map(|r| r.ranges.len() as u64).sum();
            let obs = sst_obs();
            obs.block_loads.add(wanted.len() as u64);
            obs.block_load_bytes.add(wanted_bytes);
            if merged_blocks > 0 {
                obs.coalesced_requests.add(merged.count() as u64);
                obs.coalesced_blocks.add(merged_blocks);
            }
            if transferred > wanted_bytes {
                obs.gap_bytes.add(transferred - wanted_bytes);
            }
            for ((pos, framed), (off, len)) in missing.into_iter().zip(read.parts).zip(wanted) {
                let entries = Arc::new(block_entries(&unframe_block(&framed)?)?);
                if let Some(cache) = &self.cache {
                    cache.insert(&self.cache_name, off, entries.clone(), len);
                }
                out[pos] = Some(entries);
            }
        }
        out.into_iter()
            .map(|b| b.ok_or_else(|| Error::corruption("block neither cached nor fetched")))
            .collect()
    }

    /// Fetches what the key ranges `[start, end)` — sorted and disjoint —
    /// need from this table. Every range's bounding blocks are located in
    /// the in-memory index first, so the union of needed blocks is known
    /// before any data is fetched and is loaded in one pass
    /// (see `load_blocks`).
    pub fn read(&self, ranges: &[(&[u8], &[u8])]) -> Result<TableRead> {
        let mut needed: Vec<usize> = Vec::new();
        let mut spans = Vec::with_capacity(ranges.len());
        let mut prev_end: &[u8] = &[];
        for &(start, end) in ranges {
            if start < prev_end {
                return Err(Error::invalid(
                    "table read ranges must be sorted and disjoint",
                ));
            }
            prev_end = end;
            let first = self
                .index
                .partition_point(|(last, _, _)| last.as_slice() < start);
            if start >= end || first >= self.index.len() {
                spans.push(needed.len()..needed.len());
                continue;
            }
            // The first block whose last key reaches `end` is the final
            // block that can still hold keys `< end`; later blocks start
            // past it.
            let last = self
                .index
                .partition_point(|(last, _, _)| last.as_slice() < end)
                .min(self.index.len() - 1);
            let from = needed.partition_point(|&b| b < first);
            let next = needed.last().map_or(first, |&b| (b + 1).max(first));
            needed.extend(next..=last);
            spans.push(from..needed.len());
        }
        Ok(TableRead {
            blocks: self.load_blocks(&needed)?,
            spans,
        })
    }

    /// Entries with keys in `[start, end)`: the one-range case of
    /// [`Table::read`].
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let read = self.read(&[(start, end)])?;
        Ok(read.entries(0, start, end).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};
    use tu_common::keys::encode_key;

    fn build_table(n: u64) -> (Vec<u8>, TableProps) {
        let mut b = TableBuilder::new();
        for i in 0..n {
            let key = encode_key(i / 8, (i % 8) as i64 * 1000);
            b.add(&key, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap()
    }

    fn block_store(dir: &tempfile::TempDir) -> Arc<BlockStore> {
        Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        )
    }

    /// The value stored under `key`, read the way every engine read is: as
    /// the key range `[key, key ++ 0x00)`, which holds `key` alone.
    fn lookup(t: &Table, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let end = [key, &[0]].concat();
        Ok(t.range(key, &end)?.pop().map(|(_, v)| v))
    }

    fn open_on_block(bytes: &[u8]) -> (tempfile::TempDir, Table) {
        let dir = tempfile::tempdir().unwrap();
        let store = block_store(&dir);
        store.write_file("sst-1", bytes).unwrap();
        let t = Table::open(TableSource::Block(store, "sst-1".into()), None).unwrap();
        (dir, t)
    }

    #[test]
    fn build_and_point_lookup() {
        let (bytes, props) = build_table(500);
        assert_eq!(props.entries, 500);
        let (_d, t) = open_on_block(&bytes);
        assert_eq!(t.props().entries, 500);
        for i in (0..500u64).step_by(37) {
            let key = encode_key(i / 8, (i % 8) as i64 * 1000);
            assert_eq!(
                lookup(&t, &key).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "entry {i}"
            );
        }
        assert_eq!(lookup(&t, &encode_key(999, 0)).unwrap(), None);
        assert_eq!(lookup(&t, &encode_key(0, 999)).unwrap(), None);
    }

    #[test]
    fn multi_block_tables_have_many_blocks() {
        let (bytes, _) = build_table(5000);
        let (_d, t) = open_on_block(&bytes);
        assert!(t.block_count() > 1, "5000 entries should span blocks");
        assert_eq!(t.range(ALL.0, ALL.1).unwrap().len(), 5000);
    }

    #[test]
    fn scan_file_reads_every_entry_in_one_request() {
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let block = block_store(&dir);
        block.write_file("sst", &bytes).unwrap();
        let object = object_store(&dir);
        object.put("sst", &bytes).unwrap();
        let want = Table::open(TableSource::Block(block.clone(), "sst".into()), None)
            .unwrap()
            .range(ALL.0, ALL.1)
            .unwrap();
        assert_eq!(want.len(), 5000);
        let before = (block.stats(), object.stats());
        let on_block = Table::scan_file(TableSource::Block(block.clone(), "sst".into())).unwrap();
        let on_object =
            Table::scan_file(TableSource::Object(object.clone(), "sst".into())).unwrap();
        assert_eq!(on_block, want);
        assert_eq!(on_object, want);
        for d in [
            block.stats().since(&before.0),
            object.stats().since(&before.1),
        ] {
            assert_eq!(d.get_requests, 1);
            assert_eq!(d.bytes_read, bytes.len() as u64);
        }
    }

    /// Every footer word and every truncation is an error from both
    /// readers — never a panic, an overflow or a huge allocation.
    #[test]
    fn damaged_footers_and_truncations_are_errors() {
        let (bytes, _) = build_table(300);
        let dir = tempfile::tempdir().unwrap();
        let store = block_store(&dir);
        let check = |image: &[u8], what: &str| {
            store.write_file("sst", image).unwrap();
            let source = || TableSource::Block(store.clone(), "sst".into());
            let open = Table::open(source(), None);
            assert!(open.is_err(), "open accepted {what}");
            let scan = Table::scan_file(source());
            assert!(scan.is_err(), "scan_file accepted {what}");
        };
        let footer = bytes.len() - FOOTER_LEN;
        let file_len = bytes.len() as u64;
        for word in 0..FOOTER_LEN / 8 {
            let at = footer + word * 8;
            let old = tu_common::bytes::u64_le(&bytes[at..at + 8]);
            for new in [
                0,
                1,
                old.wrapping_add(1),
                old.wrapping_sub(1),
                file_len,
                u64::MAX,
            ] {
                if new == old {
                    continue;
                }
                let mut image = bytes.clone();
                image[at..at + 8].copy_from_slice(&new.to_le_bytes());
                check(
                    &image,
                    &format!("footer word {word} = {new:#x} (was {old:#x})"),
                );
            }
        }
        for len in [
            0,
            1,
            FOOTER_LEN - 1,
            FOOTER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            check(&bytes[..len], &format!("a truncation to {len} bytes"));
        }
    }

    /// Every single-bit flip in a table's tail (index and properties) or in
    /// its footer is corruption to both readers: no byte of the tail is
    /// read unchecked.
    #[test]
    fn every_bit_flip_in_the_tail_is_corruption() {
        let (bytes, _) = build_table(300);
        let dir = tempfile::tempdir().unwrap();
        let store = block_store(&dir);
        let footer = bytes.len() - FOOTER_LEN;
        let tail = tu_common::bytes::u64_le(&bytes[footer..footer + 8]) as usize;
        for bit in tail * 8..bytes.len() * 8 {
            let mut image = bytes.clone();
            image[bit / 8] ^= 1 << (bit % 8);
            store.write_file("sst", &image).unwrap();
            let source = || TableSource::Block(store.clone(), "sst".into());
            for (reader, read) in [
                ("open", Table::open(source(), None).map(drop)),
                ("scan_file", Table::scan_file(source()).map(drop)),
            ] {
                match read {
                    Err(e) => assert!(e.is_corruption(), "{reader}, bit {bit} flipped: {e}"),
                    Ok(()) => panic!("{reader} accepted bit {bit} flipped (tail from byte {tail})"),
                }
            }
        }
    }

    #[test]
    fn range_scan_respects_bounds() {
        let (bytes, _) = build_table(256);
        let (_d, t) = open_on_block(&bytes);
        // Keys of series id 3 (entries 24..32): timestamps 0..8000.
        let start = encode_key(3, 0);
        let end = encode_key(4, 0);
        let hits = t.range(&start, &end).unwrap();
        assert_eq!(hits.len(), 8);
        for (k, _) in &hits {
            assert_eq!(tu_common::keys::decode_id(k).unwrap(), 3);
        }
        // Sub-range of timestamps.
        let hits = t.range(&encode_key(3, 2000), &encode_key(3, 5000)).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(t.range(&end, &start).unwrap().is_empty());
    }

    #[test]
    fn keys_must_be_strictly_increasing() {
        let mut b = TableBuilder::new();
        b.add(b"aaaaaaaaaaaaaaaa", b"1").unwrap();
        assert!(b.add(b"aaaaaaaaaaaaaaaa", b"2").is_err());
        assert!(b.add(b"a", b"2").is_err());
    }

    #[test]
    fn empty_table_cannot_finish() {
        assert!(TableBuilder::new().finish().is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let (mut bytes, _) = build_table(100);
        // Flip a byte in the middle of the first data block.
        bytes[10] ^= 0xff;
        let (_d, t) = open_on_block(&bytes);
        let key = encode_key(0, 0);
        let err = lookup(&t, &key).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn bad_magic_rejected_at_open() {
        let (mut bytes, _) = build_table(10);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        store.write_file("sst", &bytes).unwrap();
        assert!(Table::open(TableSource::Block(store, "sst".into()), None).is_err());
    }

    #[test]
    fn works_from_object_store_with_cache() {
        let (bytes, _) = build_table(2000);
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            ObjectStore::open(
                dir.path().join("o"),
                LatencyModel::s3(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        );
        store.put("l2/sst-9", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = Table::open(
            TableSource::Object(store.clone(), "l2/sst-9".into()),
            Some(cache),
        )
        .unwrap();
        let key = encode_key(5, 3000);
        let before = store.stats();
        assert!(lookup(&t, &key).unwrap().is_some());
        let after_first = store.stats();
        assert!(lookup(&t, &key).unwrap().is_some());
        let after_second = store.stats();
        assert!(after_first.get_requests > before.get_requests);
        assert_eq!(
            after_second.get_requests, after_first.get_requests,
            "second read must be served from the block cache"
        );
    }

    fn object_store(dir: &tempfile::TempDir) -> Arc<ObjectStore> {
        Arc::new(
            ObjectStore::open(
                dir.path().join("o"),
                LatencyModel::s3(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        )
    }

    const ALL: (&[u8], &[u8]) = (&[0u8; 16], &[0xffu8; 16]);

    #[test]
    fn cold_range_scan_costs_one_request_with_or_without_a_cache() {
        // A long cold range scan over a multi-block table knows every
        // block it needs up front, so it costs one Get, not one per block
        // (Equations 4/6 bill per request). Stats are read per store
        // instance, so this is immune to other tests' global counters.
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let store = object_store(&dir);
        store.put("l2/sst", &bytes).unwrap();
        let open = |cache| {
            Table::open(TableSource::Object(store.clone(), "l2/sst".into()), cache).unwrap()
        };
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = open(Some(cache.clone()));
        let blocks = t.block_count();
        assert!(blocks >= 4, "need a multi-block table, got {blocks}");

        let before = store.stats();
        assert_eq!(t.range(ALL.0, ALL.1).unwrap().len(), 5000);
        let cold = store.stats().since(&before);
        assert_eq!(cold.get_requests, 1, "one Get for {blocks} blocks");
        let data_len = t.index.iter().map(|&(_, _, len)| len).sum::<u64>();
        assert_eq!(cold.bytes_read, data_len, "adjacent blocks: no gap bytes");

        // Warm re-scan: everything is cached, zero requests.
        let before = store.stats();
        t.range(ALL.0, ALL.1).unwrap();
        assert_eq!(store.stats().since(&before).get_requests, 0);

        // The plan does not lean on the cache keeping anything: a cache
        // too small for a single block and no cache at all read the same
        // entries with the same single request, every time.
        for cache in [Some(Arc::new(BlockCache::new(64))), None] {
            let t = open(cache);
            for _ in 0..2 {
                let before = store.stats();
                assert_eq!(t.range(ALL.0, ALL.1).unwrap().len(), 5000);
                assert_eq!(store.stats().since(&before), cold);
            }
        }
    }

    #[test]
    fn gaps_are_bridged_only_where_the_tier_prices_it_cheaper() {
        let (bytes, _) = build_table(40_000);
        let dir = tempfile::tempdir().unwrap();
        let block = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        );
        block.write_file("sst", &bytes).unwrap();
        let object = object_store(&dir);
        object.put("sst", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(8 << 20));
        let on_block =
            Table::open(TableSource::Block(block.clone(), "sst".into()), Some(cache)).unwrap();
        let on_object =
            Table::open(TableSource::Object(object.clone(), "sst".into()), None).unwrap();
        let blocks = on_block.block_count() as u64;

        // A cached hole inside the run: one middle block is warm, so the
        // cold scan wants the blocks either side of it. The hole is far
        // smaller than what one EBS request latency buys, so it is bridged:
        // one request, billed the hole's bytes too, one block not loaded.
        let hole_key = encode_key(2500, 0);
        lookup(&on_block, &hole_key).unwrap();
        let hole = on_block
            .index
            .partition_point(|(last, _, _)| last.as_slice() < hole_key.as_slice());
        let data_len = on_block.index.iter().map(|&(_, _, len)| len).sum::<u64>();
        let ctx = tu_obs::TraceContext::start("hole");
        let before = block.stats();
        assert_eq!(on_block.range(ALL.0, ALL.1).unwrap().len(), 40_000);
        let d = block.stats().since(&before);
        let trace = ctx.finish();
        assert_eq!(d.get_requests, 1);
        assert_eq!(d.bytes_read, data_len);
        assert_eq!(trace.counter("lsm.sstable.block_loads"), blocks - 1);
        assert_eq!(trace.counter("lsm.cache.hits"), 1);
        assert_eq!(trace.counter("lsm.cache.misses"), blocks - 1);
        assert_eq!(trace.counter("lsm.readahead.coalesced_requests"), 1);
        assert_eq!(trace.counter("lsm.readahead.coalesced_blocks"), blocks - 1);
        assert_eq!(
            trace.counter("lsm.readahead.gap_bytes"),
            on_block.index[hole].2
        );

        // Two series at opposite ends of the table, read together: the
        // gap is worth bridging at S3's 20 ms a request, not at EBS's
        // 100 µs.
        let (a, b) = (encode_key(3, 0), encode_key(4, 0));
        let (y, z) = (encode_key(4990, 0), encode_key(4991, 0));
        let ranges: [(&[u8], &[u8]); 2] = [(&a, &b), (&y, &z)];
        let gap = on_object.index[on_object.index.len() - 2].1;
        assert!(gap > 64 << 10, "ends must be far apart, got {gap}");
        on_block.cache.as_ref().unwrap().clear();
        for (table, requests) in [(&on_block, 2), (&on_object, 1)] {
            let before = (block.stats(), object.stats());
            let read = table.read(&ranges).unwrap();
            assert_eq!(read.entries(0, &a, &b).count(), 8);
            assert_eq!(read.entries(1, &y, &z).count(), 8);
            let d = block.stats().since(&before.0).get_requests
                + object.stats().since(&before.1).get_requests;
            assert_eq!(d, requests);
        }
    }

    #[test]
    fn blocks_past_end_of_object_are_a_short_read_not_data() {
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let store = object_store(&dir);
        store.put("sst", &bytes).unwrap();
        let t = Table::open(TableSource::Object(store.clone(), "sst".into()), None).unwrap();
        // The object shrinks under the open table: its last blocks now lie
        // past end-of-object, and the planned read must say so.
        store.put("sst", &bytes[..bytes.len() / 3]).unwrap();
        let err = t.range(ALL.0, ALL.1).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // Blocks that still exist read fine.
        assert_eq!(
            t.range(&encode_key(0, 0), &encode_key(1, 0)).unwrap().len(),
            8
        );
    }

    #[test]
    fn chunk_key_prefix_compression_is_effective() {
        // Consecutive chunks of one series share 8-byte ID prefixes and
        // most timestamp bytes (§3.3); prefix compression should make the
        // per-entry key overhead small.
        let mut b = TableBuilder::new();
        for i in 0..1000i64 {
            b.add(&encode_key(42, i * 60_000), &[0u8; 8]).unwrap();
        }
        let (bytes, _) = b.finish().unwrap();
        // 1000 entries x (16B key + 8B value) = 24 KB raw; expect much less.
        assert!(bytes.len() < 12_000, "got {} bytes", bytes.len());
    }
}

//! The elastic time-partitioned LSM-tree (§3.3 of the paper), plus the
//! classic leveled LSM used by the paper's baselines.
//!
//! * [`sstable`] — LevelDB-style SSTables: prefix-compressed 4 KiB data
//!   blocks (Snappy), an index block, and a properties footer recording
//!   the key/ID range (patches need ID ranges, Fig. 11).
//! * [`cache`] — the block LRU cache (1 GiB in the paper's evaluation).
//! * [`memtable`] — sorted write buffer plus the immutable-memtable queue
//!   that lets multiple flushes proceed without blocking inserts.
//! * [`reach`] — how far a table's or memtable's chunks reach past their
//!   keys, which bounds the keys a query for a time window must read.
//! * [`wal`] — record-framed write-ahead log with sequence-ID checkpoints
//!   (§3.3 "Logging").
//! * [`tree`] — the time-partitioned three-level tree: L0/L1 on the fast
//!   tier, a single L2 on the slow tier, time-partition compaction,
//!   out-of-order patches, dynamic size control (Algorithm 1), retention.
//! * [`leveled`] — a classic leveled LSM (overlap-based compaction) for
//!   the tsdb-LDB and TU-LDB baselines.
//! * [`analysis`] — the closed-form compaction cost model (Equations 7–10).

pub mod analysis;
pub mod cache;
pub mod leveled;
pub mod memtable;
pub mod reach;
pub mod sstable;
pub mod tree;
pub mod wal;

pub use leveled::{LeveledOptions, LeveledTree};
pub use memtable::MemTable;
pub use reach::Reach;
pub use tree::{
    CacheIntrospect, LevelIntrospect, LsmIntrospect, PartitionIntrospect, ReadPlan,
    TableIntrospect, TimeTree, TreeOptions,
};

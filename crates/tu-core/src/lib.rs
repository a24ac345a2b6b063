//! The TimeUnion engine — the paper's primary contribution.
//!
//! Pulls the substrates together into the system of Figure 7/10:
//!
//! * the **unified data model** (§3.1): individual timeseries and
//!   timeseries groups behind one tag-based identifier space ([`model`]),
//! * **memory-efficient structures** (§3.2): the global trie-backed
//!   inverted index, plus one kind of *memory object* for series and
//!   groups whose in-progress sample chunks live in file-backed chunk
//!   arenas so cold series can be swapped out ([`object`]),
//! * the **elastic time-partitioned LSM-tree** (§3.3) as the persistent
//!   store for sealed chunks,
//! * the **operations** of §3.4: slow/fast-path Put for series and
//!   groups, and selector-based Get with merge iterators ([`engine`],
//!   [`query`]),
//! * sequence-ID **logging and recovery** (§3.3) via the catalog and WAL
//!   ([`catalog`], recovery in [`engine`]),
//! * the **grouping cost model** of Equations 1–6 ([`analysis`]),
//! * the **storage introspection plane**: per-query cost profiles
//!   ([`profile`]) and the stable JSON body behind the `/introspect/lsm`
//!   endpoint ([`introspect`]).

pub mod analysis;
pub mod catalog;
pub mod engine;
pub mod introspect;
pub mod maintenance;
mod meta;
pub mod model;
pub mod object;
pub mod profile;
pub mod query;
pub mod shard;

pub use engine::{Options, TimeUnion};
pub use profile::{QueryProfile, StageTiming, TierProfile};
pub use query::{aggregate_step, AggKind, QueryResult, SeriesResult};

/// A series' head slot size, under the path the end-to-end harness
/// (`tu-e2e`) imports it by.
pub mod series {
    pub use crate::object::slot_size;
}

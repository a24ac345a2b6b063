//! # TimeUnion
//!
//! A from-scratch Rust reproduction of *TimeUnion: An Efficient Architecture
//! with Unified Data Model for Timeseries Management Systems on Hybrid Cloud
//! Storage* (SIGMOD '22).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`engine`] — the TimeUnion engine (put/get, groups, retention).
//! * [`model`] — the unified data model (tags, series, groups).
//! * [`cloud`] — the simulated hybrid cloud storage substrate.
//! * [`lsm`] — the elastic time-partitioned LSM-tree.
//! * [`index`] — the double-array-trie inverted index.
//! * [`compress`] — Gorilla / NULL-XOR / Snappy codecs.
//! * [`baselines`] — tsdb, tsdb-LDB, TU-LDB, and Cortex-sim comparators.
//! * [`tsbs`] — the TSBS DevOps workload generator.
//!
//! ## Quickstart
//!
//! ```no_run
//! use timeunion::engine::{TimeUnion, Options};
//! use timeunion::model::Labels;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db = TimeUnion::open(dir.path(), Options::default()).unwrap();
//!
//! // Insert an individual timeseries sample (slow path returns the ID).
//! let labels = Labels::from_pairs([("metric", "cpu"), ("host", "h1")]);
//! let id = db.put(&labels, 1_000, 0.42).unwrap();
//! // Fast path: insert by ID, skipping tag comparison.
//! db.put_by_id(id, 2_000, 0.43).unwrap();
//!
//! // Query back by tag selector over a time range.
//! use timeunion::engine::Selector;
//! let results = db
//!     .query(&[Selector::exact("metric", "cpu")], 0, 10_000)
//!     .unwrap();
//! assert_eq!(results.len(), 1);
//! ```

/// The TimeUnion engine: open/put/get, groups, retention, recovery.
pub mod engine {
    pub use tu_core::engine::{Options, TimeUnion};
    pub use tu_core::introspect;
    pub use tu_core::profile::{QueryProfile, StageTiming, TierProfile};
    pub use tu_core::query::{aggregate_step, AggKind, QueryResult, SeriesResult};
    pub use tu_index::matcher::Selector;
}

/// The unified data model: tag sets, samples, identifiers.
pub mod model {
    pub use tu_common::types::{
        GroupId, Labels, Sample, SeriesId, SeriesRef, TimeRange, Timestamp, Value,
    };
}

/// Simulated hybrid cloud storage (block store ≈ EBS, object store ≈ S3).
pub mod cloud {
    pub use tu_cloud::block::BlockStore;
    pub use tu_cloud::cost::{CostClock, LatencyModel};
    pub use tu_cloud::object::ObjectStore;
    pub use tu_cloud::pricing;
    pub use tu_cloud::StorageEnv;
}

/// The elastic time-partitioned LSM-tree and the classic leveled baseline.
pub mod lsm {
    pub use tu_lsm::leveled::LeveledTree;
    pub use tu_lsm::tree::{
        CacheIntrospect, LevelIntrospect, LsmIntrospect, PartitionIntrospect, TableIntrospect,
        TimeTree, TreeOptions,
    };
}

/// The memory-efficient inverted index.
pub mod index {
    pub use tu_index::inverted::InvertedIndex;
    pub use tu_index::matcher::Selector;
    pub use tu_index::trie::DoubleArrayTrie;
}

/// Timeseries codecs: Gorilla, NULL-extended XOR, Snappy, CRC32C.
pub mod compress {
    pub use tu_compress::gorilla::{ChunkDecoder, ChunkEncoder};
    pub use tu_compress::nullxor::{GroupChunkDecoder, GroupChunkEncoder};
    pub use tu_compress::snappy;
}

/// Baseline engines the paper compares against.
pub mod baselines {
    pub use tu_tsdb::cortex::CortexSim;
    pub use tu_tsdb::tsdb::{Tsdb, TsdbOptions};
    pub use tu_tsdb::tsdb_ldb::TsdbLdb;
    pub use tu_tsdb::tu_ldb::TuLdb;
}

/// TSBS DevOps workload generation and the Table 2 query patterns.
pub mod tsbs {
    pub use tu_tsbs::devops::{DevOpsGenerator, DevOpsOptions};
    pub use tu_tsbs::queries::QueryPattern;
}

/// Observability: process-wide counters, gauges, latency histograms, and
/// RAII spans recorded by every crate above, plus per-operation trace
/// contexts, the flight recorder, the Prometheus / chrome-trace exporters,
/// and the live plane — the embedded HTTP endpoint, vitals monitor, health
/// model, and structured event log (see `docs/OBSERVABILITY.md`).
pub mod obs {
    pub use tu_obs::log;
    pub use tu_obs::{
        chrome_trace_json, counter, flight, gauge, global, histogram, parse_prometheus_text,
        prometheus_text, span, span_of, traced, Counter, Endpoint, FlightEvent, FlightPhase,
        FlightRecorder, Gauge, Health, HealthCheck, HealthReport, HealthSource, Histogram,
        HistogramSnapshot, MetricsSnapshot, Monitor, MonitorOptions, ObsServer, Registry,
        ServeSources, SpanDelta, SpanQuantiles, SpanTimer, TierRates, TraceContext, TraceHandle,
        TraceSummary, TracedCounter, Vitals,
    };
}

//! Shared foundation types for the TimeUnion workspace.
//!
//! This crate holds everything more than one subsystem needs and nothing
//! else: sample/identifier types, tag sets, order-preserving key encoding,
//! varint coding, error handling, a clock abstraction, and the global
//! memory-accounting hooks used to reproduce the paper's memory experiments
//! (Figures 3, 13d, and 16).

pub mod alloc;
pub mod bytes;
pub mod clock;
pub mod error;
pub mod fs;
pub mod keys;
pub mod pool;
pub mod types;
pub mod varint;

/// The debug-build runtime lock witness (lives in `tu-obs` because that
/// crate sits at the bottom of the dependency graph; re-exported here so
/// every subsystem wraps its locks through one path).
pub use tu_obs::lockdep;

pub use error::{Error, Result};
pub use types::{
    GroupId, Labels, Sample, SeriesId, SeriesRef, TimeRange, Timestamp, Value, GROUP_ID_FLAG,
};

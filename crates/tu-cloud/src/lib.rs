//! Simulated hybrid cloud storage for TimeUnion.
//!
//! The paper deploys on AWS with EBS (fast block storage) and S3 (slow
//! object storage). This crate provides directory-backed stand-ins whose
//! *cost behaviour* is calibrated to the measurements in §2.1 / Figure 1 of
//! the paper:
//!
//! * [`block::BlockStore`] — byte-addressable files, microsecond-scale
//!   request latency, high bandwidth, a first-read penalty, and usage
//!   accounting (the "EBS limit" experiments need the occupied size).
//! * [`object::ObjectStore`] — whole-object / range GETs and PUTs with
//!   tens-of-milliseconds per-request latency and Get/Put request counters
//!   (Equations 4/6 charge one Get per SSTable data block).
//! * [`cost`] — the latency models and the virtual [`cost::CostClock`] that
//!   accumulates modelled storage time deterministically.
//! * [`pricing`] — the Figure 1a price sheet (RAM vs. EBS vs. S3) plus the
//!   per-request prices Eq. 4/6 charge on object storage.
//! * [`ledger`] — [`ledger::price_window`]: two metric snapshots priced
//!   into a per-tier $-decomposition of the window between them.
//!
//! Data lives in real files under a root directory, so large datasets do not
//! inflate the heap-memory measurements of the engines above.

pub mod block;
pub mod cost;
pub mod ledger;
pub mod object;
pub mod pricing;

use std::path::Path;
use std::sync::Arc;

use crate::block::BlockStore;
use crate::cost::{CostClock, LatencyMode, LatencyModel};
use crate::object::ObjectStore;
use tu_common::Result;

/// A bundled hybrid storage environment: one fast tier and one slow tier
/// sharing a cost clock, as a TimeUnion deployment would attach one EBS
/// volume and one S3 bucket.
#[derive(Clone)]
pub struct StorageEnv {
    pub block: Arc<BlockStore>,
    pub object: Arc<ObjectStore>,
    pub clock: CostClock,
}

impl StorageEnv {
    /// Opens (creating if needed) a storage environment rooted at `dir`,
    /// with `block/` and `object/` subdirectories.
    pub fn open(dir: impl AsRef<Path>, mode: LatencyMode) -> Result<Self> {
        Self::open_with_models(dir, mode, LatencyModel::ebs(), LatencyModel::s3())
    }

    /// Opens an environment with explicit latency models per tier. The
    /// EBS-only evaluation (Figure 17) uses this with the EBS model on
    /// *both* tiers, emulating all data living on block storage.
    pub fn open_with_models(
        dir: impl AsRef<Path>,
        mode: LatencyMode,
        block_model: LatencyModel,
        object_model: LatencyModel,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let clock = CostClock::new(mode);
        let block = Arc::new(BlockStore::open(
            dir.join("block"),
            block_model,
            clock.clone(),
        )?);
        let object = Arc::new(ObjectStore::open(
            dir.join("object"),
            object_model,
            clock.clone(),
        )?);
        Ok(StorageEnv {
            block,
            object,
            clock,
        })
    }

    /// Opens an environment with latency modelling disabled — fastest, for
    /// tests that only care about correctness.
    pub fn open_unmetered(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open(dir, LatencyMode::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_opens_both_tiers_under_one_root() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open_unmetered(dir.path()).unwrap();
        env.block.write_file("a", b"hello").unwrap();
        env.object.put("b", b"world").unwrap();
        assert_eq!(env.block.read_file("a").unwrap(), b"hello");
        assert_eq!(env.object.get("b").unwrap(), b"world");
        assert!(dir.path().join("block").is_dir());
        assert!(dir.path().join("object").is_dir());
    }
}

//! Latency models and the virtual cost clock.
//!
//! Each storage tier charges requests according to a [`LatencyModel`]
//! calibrated to the paper's §2.1 measurements. Charges are accumulated on a
//! shared [`CostClock`], which either tracks *virtual* nanoseconds
//! (deterministic, the default for the figure harness) or is disabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How modelled latency is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMode {
    /// No accounting at all (pure-correctness tests).
    Off,
    /// Accumulate virtual nanoseconds. Deterministic and fast.
    Virtual,
}

/// Per-tier latency/bandwidth parameters.
///
/// The modelled duration of a request of `size` bytes is
/// `base + max(0, size - free_bytes) / bandwidth`, where `free_bytes`
/// captures the paper's observation that read latency is flat below 16 KiB.
/// The first read of an object multiplies `base` by `first_read_factor`
/// (Figure 1c: 1.8× for EBS, 1.71× for S3).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed per-request latency for reads, in nanoseconds.
    pub read_base_ns: u64,
    /// Fixed per-request latency for writes, in nanoseconds.
    pub write_base_ns: u64,
    /// Sustained throughput in bytes per second.
    pub bandwidth_bps: u64,
    /// Bytes included in the base latency (the flat-latency knee).
    pub free_bytes: u64,
    /// Multiplier on `read_base_ns` for the first read of an object.
    pub first_read_factor: f64,
}

impl LatencyModel {
    /// EBS gp2-like parameters (Figure 1b/1c): ~100 µs request latency,
    /// ~250 MB/s, flat below 16 KiB, first read 1.8× slower.
    pub fn ebs() -> Self {
        LatencyModel {
            read_base_ns: 100_000,
            write_base_ns: 120_000,
            bandwidth_bps: 250 * 1024 * 1024,
            free_bytes: 16 * 1024,
            first_read_factor: 1.8,
        }
    }

    /// Same-region S3-like parameters: ~20 ms GET / ~40 ms PUT request
    /// latency, ~100 MB/s per stream, flat below 16 KiB, first read 1.71×.
    pub fn s3() -> Self {
        LatencyModel {
            read_base_ns: 20_000_000,
            write_base_ns: 40_000_000,
            bandwidth_bps: 100 * 1024 * 1024,
            free_bytes: 16 * 1024,
            first_read_factor: 1.71,
        }
    }

    /// Modelled duration of a read of `size` bytes.
    pub fn read_ns(&self, size: u64, first_read: bool) -> u64 {
        let base = if first_read {
            (self.read_base_ns as f64 * self.first_read_factor) as u64
        } else {
            self.read_base_ns
        };
        base + self.transfer_ns(size)
    }

    /// Modelled duration of a write of `size` bytes.
    pub fn write_ns(&self, size: u64) -> u64 {
        self.write_base_ns + self.transfer_ns(size)
    }

    fn transfer_ns(&self, size: u64) -> u64 {
        let billed = size.saturating_sub(self.free_bytes);
        // ns = bytes / (bytes/s) * 1e9, computed in u128 to avoid overflow.
        ((billed as u128 * 1_000_000_000) / self.bandwidth_bps as u128) as u64
    }

    /// Groups wanted byte ranges of one object (sorted by offset) into the
    /// requests that read them cheapest under this model: neighbours are
    /// merged into one covering-span request while the merged request is
    /// priced no higher than the two it replaces — the gap's transfer time
    /// against one request latency, so about `read_base_ns` worth of
    /// bandwidth (≈ 2 MiB on S3, ≈ 26 KiB on EBS). This is what the
    /// per-block Get term of Equations 4/6 becomes once a reader knows all
    /// the blocks it needs up front.
    ///
    /// Touching ranges are folded first, so every gap is priced against
    /// the whole runs on either side of it. Each merge is taken only when
    /// it does not raise the total, hence the plan never costs more than
    /// one request per range, nor more than merging touching ranges alone.
    /// Which request pays the first-read factor does not matter: every
    /// plan has exactly one such request.
    pub fn plan_requests(&self, ranges: &[(u64, usize)]) -> Vec<PlannedRequest> {
        let each = ranges
            .iter()
            .enumerate()
            .map(|(i, &(offset, len))| PlannedRequest {
                offset,
                len: len as u64,
                ranges: i..i + 1,
            })
            .collect();
        self.merge_while_cheaper(self.merge_while_cheaper(each, 0), u64::MAX)
    }

    /// One left-to-right pass of the merge rule over neighbours at most
    /// `max_gap` bytes apart.
    fn merge_while_cheaper(&self, reads: Vec<PlannedRequest>, max_gap: u64) -> Vec<PlannedRequest> {
        let mut out: Vec<PlannedRequest> = Vec::with_capacity(reads.len());
        for next in reads {
            if let Some(cur) = out.last_mut() {
                let merged = cur.end().max(next.end()) - cur.offset;
                if next.offset.saturating_sub(cur.end()) <= max_gap
                    && self.read_ns(merged, false)
                        <= self.read_ns(cur.len, false) + self.read_ns(next.len, false)
                {
                    cur.len = merged;
                    cur.ranges.end = next.ranges.end;
                    continue;
                }
            }
            out.push(next);
        }
        out
    }
}

/// One request of a read plan: the covering span it transfers and is
/// billed for, and which of the wanted ranges it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRequest {
    pub offset: u64,
    pub len: u64,
    /// Indices into the wanted-range list.
    pub ranges: std::ops::Range<usize>,
}

impl PlannedRequest {
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Result of a planned multi-range read: the wanted ranges' bytes, in
/// input order, and the requests that were issued for them (`len` is the
/// span actually transferred, clipped at end-of-object).
#[derive(Debug, Default)]
pub struct RangesRead {
    pub parts: Vec<Vec<u8>>,
    pub requests: Vec<PlannedRequest>,
}

/// The per-tier request/byte counters of one store, mirrored into the
/// global `tu-obs` registry under `cloud.<tier>.*` names so experiment
/// harnesses can read one [`tu_obs::MetricsSnapshot`] for everything.
///
/// Each store keeps its own local [`StorageStats`] too: the local stats
/// isolate one store instance, while the registry aggregates across every
/// store in the process (in single-store runs the two agree exactly —
/// `tests/obs_matches_stats.rs` pins that equality).
///
/// The counters are [`tu_obs::TracedCounter`]s: every charge also lands on
/// the active trace context, so a profiled query knows exactly how many
/// billable Gets and bytes each tier charged it (Eq. 4/6 per operation).
///
/// Every charge is also mirrored into the partition heat registry
/// ([`tu_obs::heat`]) through the same call, so per-partition heat totals
/// equal the `cloud.<tier>.*` counter deltas *exactly* — the invariant
/// `tests/introspection.rs` pins. Charges made while no partition guard is
/// installed (WAL, manifest, catalog IO) land in the heat registry's
/// unattributed bucket, keeping the totals balanced either way.
pub(crate) struct TierCounters {
    tier: &'static str,
    gets: tu_obs::TracedCounter,
    puts: tu_obs::TracedCounter,
    deletes: tu_obs::TracedCounter,
    bytes_read: tu_obs::TracedCounter,
    bytes_written: tu_obs::TracedCounter,
    first_reads: tu_obs::TracedCounter,
}

/// Attribution-quality counters: how much cloud traffic carried a partition
/// attribution versus fell through to the heat catch-all bucket. These let
/// dashboards (and the lint self-test) verify attribution coverage without
/// walking the heat map.
struct HeatObs {
    attributed_requests: tu_obs::TracedCounter,
    attributed_bytes: tu_obs::TracedCounter,
    unattributed_requests: tu_obs::TracedCounter,
    unattributed_bytes: tu_obs::TracedCounter,
}

fn heat_obs() -> &'static HeatObs {
    static OBS: std::sync::OnceLock<HeatObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| HeatObs {
        attributed_requests: tu_obs::traced("heat.attributed.requests"),
        attributed_bytes: tu_obs::traced("heat.attributed.bytes"),
        unattributed_requests: tu_obs::traced("heat.unattributed.requests"),
        unattributed_bytes: tu_obs::traced("heat.unattributed.bytes"),
    })
}

fn charge_heat_quality(attributed: bool, requests: u64, bytes: u64) {
    let obs = heat_obs();
    if attributed {
        obs.attributed_requests.add(requests);
        obs.attributed_bytes.add(bytes);
    } else {
        obs.unattributed_requests.add(requests);
        obs.unattributed_bytes.add(bytes);
    }
}

impl TierCounters {
    /// Resolves the `cloud.<tier>.*` counters from the global registry.
    pub fn for_tier(tier: &str) -> Self {
        // The heat registry keys tiers by `&'static str`; both stores use
        // one of the two canonical names.
        let tier_name: &'static str = if tier == "block" { "block" } else { "object" };
        TierCounters {
            tier: tier_name,
            gets: tu_obs::traced(&format!("cloud.{tier}.get_requests")),
            puts: tu_obs::traced(&format!("cloud.{tier}.put_requests")),
            deletes: tu_obs::traced(&format!("cloud.{tier}.delete_requests")),
            bytes_read: tu_obs::traced(&format!("cloud.{tier}.bytes_read")),
            bytes_written: tu_obs::traced(&format!("cloud.{tier}.bytes_written")),
            first_reads: tu_obs::traced(&format!("cloud.{tier}.first_reads")),
        }
    }

    /// Charges one read request of `bytes` (plus the first-read marker) to
    /// the registry, the active trace, and the partition heat map.
    pub fn record_read(&self, bytes: u64, first: bool) {
        self.gets.inc();
        self.bytes_read.add(bytes);
        if first {
            self.first_reads.inc();
        }
        let attributed = tu_obs::heat::record_read(self.tier, 1, bytes, first as u64);
        charge_heat_quality(attributed, 1, bytes);
    }

    /// Charges one write request of `bytes`.
    pub fn record_write(&self, bytes: u64) {
        self.puts.inc();
        self.bytes_written.add(bytes);
        let attributed = tu_obs::heat::record_write(self.tier, 1, bytes);
        charge_heat_quality(attributed, 1, bytes);
    }

    /// Charges one delete request.
    pub fn record_delete(&self) {
        self.deletes.inc();
        let attributed = tu_obs::heat::record_delete(self.tier, 1);
        charge_heat_quality(attributed, 1, 0);
    }
}

/// Per-tier operation counters, snapshotted by experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    pub get_requests: u64,
    pub put_requests: u64,
    pub delete_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl StorageStats {
    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &StorageStats) -> StorageStats {
        StorageStats {
            get_requests: self.get_requests - earlier.get_requests,
            put_requests: self.put_requests - earlier.put_requests,
            delete_requests: self.delete_requests - earlier.delete_requests,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

#[derive(Default)]
struct ClockInner {
    virtual_ns: AtomicU64,
}

/// Shared accumulator of modelled storage time.
///
/// Cloning shares the accumulator; the block and object tiers of one
/// [`crate::StorageEnv`] charge the same clock so an experiment can read one
/// total. Use [`CostClock::virtual_ns`] snapshots around an operation to
/// attribute cost to it (single-threaded measurement sections).
#[derive(Clone)]
pub struct CostClock {
    inner: Arc<ClockInner>,
    mode: LatencyMode,
}

impl CostClock {
    pub fn new(mode: LatencyMode) -> Self {
        CostClock {
            inner: Arc::new(ClockInner::default()),
            mode,
        }
    }

    pub fn mode(&self) -> LatencyMode {
        self.mode
    }

    /// Charges `ns` of modelled time.
    pub fn charge(&self, ns: u64) {
        if self.mode == LatencyMode::Virtual {
            self.inner.virtual_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Total modelled nanoseconds charged so far.
    pub fn virtual_ns(&self) -> u64 {
        self.inner.virtual_ns.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CostClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostClock")
            .field("mode", &self.mode)
            .field("virtual_ns", &self.virtual_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_reads_have_flat_latency() {
        let m = LatencyModel::ebs();
        assert_eq!(m.read_ns(1, false), m.read_ns(16 * 1024, false));
        assert!(m.read_ns(17 * 1024, false) > m.read_ns(16 * 1024, false));
    }

    #[test]
    fn first_read_penalty_applies() {
        let m = LatencyModel::s3();
        let first = m.read_ns(4096, true);
        let later = m.read_ns(4096, false);
        assert!(first > later);
        assert!((first as f64 / later as f64 - 1.71).abs() < 0.01);
    }

    #[test]
    fn small_write_gap_is_orders_of_magnitude() {
        // Figure 1b: for small writes EBS is ≥3 orders of magnitude faster.
        let ebs = LatencyModel::ebs().write_ns(4);
        let s3 = LatencyModel::s3().write_ns(4);
        assert!(s3 / ebs >= 100, "s3 {s3} vs ebs {ebs}");
    }

    #[test]
    fn large_write_gap_shrinks_with_size() {
        // Figure 1b: the gap narrows as write size grows (bandwidth term
        // dominates), approaching the bandwidth ratio.
        let small_gap =
            LatencyModel::s3().write_ns(4) as f64 / LatencyModel::ebs().write_ns(4) as f64;
        let sz = 32 * 1024 * 1024;
        let big_gap =
            LatencyModel::s3().write_ns(sz) as f64 / LatencyModel::ebs().write_ns(sz) as f64;
        assert!(big_gap < small_gap / 10.0);
        assert!(big_gap >= 2.0, "EBS still ~3x faster at 32MB: {big_gap}");
    }

    #[test]
    fn cost_clock_accumulates_in_virtual_mode() {
        let c = CostClock::new(LatencyMode::Virtual);
        let c2 = c.clone();
        c.charge(100);
        c2.charge(50);
        assert_eq!(c.virtual_ns(), 150);
    }

    #[test]
    fn cost_clock_off_mode_ignores_charges() {
        let c = CostClock::new(LatencyMode::Off);
        c.charge(1_000_000);
        assert_eq!(c.virtual_ns(), 0);
    }

    #[test]
    fn stats_since_subtracts() {
        let a = StorageStats {
            get_requests: 10,
            put_requests: 4,
            delete_requests: 1,
            bytes_read: 100,
            bytes_written: 50,
        };
        let b = StorageStats {
            get_requests: 3,
            put_requests: 1,
            delete_requests: 0,
            bytes_read: 20,
            bytes_written: 5,
        };
        let d = a.since(&b);
        assert_eq!(d.get_requests, 7);
        assert_eq!(d.bytes_written, 45);
    }
}

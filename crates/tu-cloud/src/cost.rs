//! Latency models and the virtual cost clock.
//!
//! Each storage tier charges requests according to a [`LatencyModel`]
//! calibrated to the paper's §2.1 measurements. Charges are accumulated on a
//! shared [`CostClock`], which either tracks *virtual* nanoseconds
//! (deterministic, the default for the figure harness) or is disabled.
//! Requests issued together are charged as one wave: the clock gains what
//! the caller waits for them, and keeps what they took one by one apart.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::pool::WorkerPool;

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
pub(crate) struct TierCounters {
    gets: tu_obs::TracedCounter,
    puts: tu_obs::TracedCounter,
    deletes: tu_obs::TracedCounter,
    bytes_read: tu_obs::TracedCounter,
    bytes_written: tu_obs::TracedCounter,
    first_reads: tu_obs::TracedCounter,
}

impl TierCounters {
    /// Resolves the `cloud.<tier>.*` counters from the global registry.
    pub fn for_tier(tier: &str) -> Self {
        TierCounters {
            gets: tu_obs::traced(&format!("cloud.{tier}.get_requests")),
            puts: tu_obs::traced(&format!("cloud.{tier}.put_requests")),
            deletes: tu_obs::traced(&format!("cloud.{tier}.delete_requests")),
            bytes_read: tu_obs::traced(&format!("cloud.{tier}.bytes_read")),
            bytes_written: tu_obs::traced(&format!("cloud.{tier}.bytes_written")),
            first_reads: tu_obs::traced(&format!("cloud.{tier}.first_reads")),
        }
    }

    /// Charges one read request of `bytes` (plus the first-read marker) to
    /// the registry and the active trace.
    pub fn record_read(&self, bytes: u64, first: bool) {
        self.gets.inc();
        self.bytes_read.add(bytes);
        if first {
            self.first_reads.inc();
        }
    }

    /// Charges one write request of `bytes`.
    pub fn record_write(&self, bytes: u64) {
        self.puts.inc();
        self.bytes_written.add(bytes);
    }

    /// Charges one delete request.
    pub fn record_delete(&self) {
        self.deletes.inc();
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

/// How many lanes of a wave ([`CostClock::charge_wave`]) are in flight at
/// once: the reader issues at most this many requests together, and the
/// wave's makespan is modelled over this many slots.
pub const WAVE_IN_FLIGHT: usize = 16;

#[derive(Default)]
struct ClockInner {
    /// What the callers waited: every charge outside a lane, and the
    /// makespan of every wave.
    virtual_ns: AtomicU64,
    /// What the requests took: every charge outside a lane, and the sum of
    /// every wave's lanes.
    work_ns: AtomicU64,
}

thread_local! {
    /// The lanes open on this thread, innermost last: the identity of the
    /// clock each captures, and the nanoseconds charged to it so far.
    static LANES: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes the innermost lane of this thread when dropped, so a panicking
/// lane does not leave it open to swallow later charges.
struct LaneGuard;

impl Drop for LaneGuard {
    fn drop(&mut self) {
        // Never panics: the stack is borrowed only inside `CostClock`'s own
        // calls, none of which is open while a guard drops.
        let _ = LANES.try_with(|lanes| lanes.try_borrow_mut().map(|mut lanes| lanes.pop()));
    }
}

/// Shared accumulator of modelled storage time.
///
/// Cloning shares the accumulator; the block and object tiers of one
/// [`crate::StorageEnv`] charge the same clock so an experiment can read one
/// total. Use [`CostClock::virtual_ns`] snapshots around an operation to
/// attribute cost to it.
///
/// Requests issued together are charged as a *wave*: each runs in a
/// [`CostClock::lane`], and [`CostClock::charge_wave`] charges what the
/// caller waits for all of them ([`CostClock::virtual_ns`]) and what they
/// took one by one ([`CostClock::work_ns`]). A charge outside a lane adds
/// to both.
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

    /// The identity a lane captures charges by: shared by every clone.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Charges `ns` of modelled time: to the innermost lane of this clock
    /// open on this thread, if there is one, else to the clock.
    pub fn charge(&self, ns: u64) {
        if self.mode != LatencyMode::Virtual {
            return;
        }
        let id = self.id();
        let in_lane = LANES.with(|lanes| {
            let mut lanes = lanes.borrow_mut();
            let lane = lanes.iter_mut().rev().find(|(clock, _)| *clock == id);
            lane.map(|(_, charged)| *charged += ns).is_some()
        });
        if !in_lane {
            self.inner.virtual_ns.fetch_add(ns, Ordering::Relaxed);
            self.inner.work_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Runs `f` and returns, with its result, the nanoseconds this thread
    /// charged to this clock inside it. Those charges are *not* added to
    /// the clock: the caller charges them as one lane of a wave
    /// ([`CostClock::charge_wave`]). Charges to any other clock pass
    /// through unchanged.
    pub fn lane<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        LANES.with(|lanes| lanes.borrow_mut().push((self.id(), 0)));
        let guard = LaneGuard;
        let out = f();
        let charged = LANES.with(|lanes| lanes.borrow().last().map_or(0, |&(_, ns)| ns));
        drop(guard);
        (out, charged)
    }

    /// Charges a wave of lanes issued together, each lane's nanoseconds
    /// as [`CostClock::lane`] returned them, in the order they were
    /// issued. At most [`WAVE_IN_FLIGHT`] lanes run at once, and each
    /// starts as soon as a slot frees (list scheduling in lane order); the
    /// clock's wait grows by the wave's makespan and its work by the sum.
    /// A wave is charged to the clock itself, never to an open lane.
    pub fn charge_wave(&self, lanes: &[u64]) {
        if self.mode != LatencyMode::Virtual {
            return;
        }
        let mut slots = vec![0u64; lanes.len().min(WAVE_IN_FLIGHT)];
        for &ns in lanes {
            if let Some(first_free) = slots.iter_mut().min() {
                *first_free += ns;
            }
        }
        let makespan = slots.into_iter().max().unwrap_or(0);
        self.inner.virtual_ns.fetch_add(makespan, Ordering::Relaxed);
        self.inner
            .work_ns
            .fetch_add(lanes.iter().sum(), Ordering::Relaxed);
    }

    /// Issues `n` independent requests together as one wave: runs
    /// `lane(0), .., lane(n - 1)` on `pool`, at most one thread per lane,
    /// each in its own [`CostClock::lane`], charges them once with
    /// [`CostClock::charge_wave`], and returns their results in lane
    /// order. The charge depends only on what each lane charged, never on
    /// the pool's width or how its threads were scheduled: the width only
    /// bounds how many lanes hold their buffers at once. A caller with
    /// nothing to bound passes [`WorkerPool::new`]`(WAVE_IN_FLIGHT)`.
    /// Thread-local state the requests need must be installed inside
    /// `lane`: only the trace context follows a lane onto its thread.
    pub fn wave<T: Send>(
        &self,
        pool: WorkerPool,
        n: usize,
        lane: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let lanes = pool.run(n, |i| self.lane(|| lane(i)));
        let (out, ns): (Vec<T>, Vec<u64>) = lanes.into_iter().unzip();
        self.charge_wave(&ns);
        out
    }

    /// Total modelled nanoseconds the callers waited so far.
    pub fn virtual_ns(&self) -> u64 {
        self.inner.virtual_ns.load(Ordering::Relaxed)
    }

    /// Total modelled nanoseconds of every request, as if each had been
    /// issued alone: `virtual_ns` with every wave charged its sum.
    pub fn work_ns(&self) -> u64 {
        self.inner.work_ns.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CostClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostClock")
            .field("mode", &self.mode)
            .field("virtual_ns", &self.virtual_ns())
            .field("work_ns", &self.work_ns())
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

    /// Charges `lanes` as one wave on a fresh virtual clock; returns its
    /// wait and its work.
    fn wave(lanes: &[u64]) -> (u64, u64) {
        let c = CostClock::new(LatencyMode::Virtual);
        c.charge_wave(lanes);
        (c.virtual_ns(), c.work_ns())
    }

    #[test]
    fn an_empty_wave_charges_nothing() {
        assert_eq!(wave(&[]), (0, 0));
    }

    #[test]
    fn a_wave_that_fits_in_flight_waits_for_its_longest_lane() {
        assert_eq!(wave(&[5]), (5, 5));
        assert_eq!(wave(&[3, 9, 4]), (9, 16));
        let full = vec![7u64; WAVE_IN_FLIGHT];
        assert_eq!(wave(&full), (7, 7 * WAVE_IN_FLIGHT as u64));
    }

    #[test]
    fn lanes_past_the_in_flight_limit_wait_for_a_free_slot() {
        let lanes = vec![10u64; 2 * WAVE_IN_FLIGHT];
        assert_eq!(wave(&lanes), (20, 10 * lanes.len() as u64));
        // List scheduling in lane order: the 17th lane starts when the
        // shortest of the first sixteen ends.
        let mut lanes = vec![100u64; WAVE_IN_FLIGHT];
        lanes[3] = 1;
        lanes.push(50);
        assert_eq!(wave(&lanes).0, 100);
    }

    #[test]
    fn off_mode_charges_no_wave() {
        let c = CostClock::new(LatencyMode::Off);
        c.charge_wave(&[10, 20]);
        assert_eq!((c.virtual_ns(), c.work_ns()), (0, 0));
    }

    #[test]
    fn work_gains_every_charge_and_every_wave_sum() {
        let c = CostClock::new(LatencyMode::Virtual);
        c.charge(4);
        c.charge_wave(&[10, 30]);
        c.charge(6);
        assert_eq!(c.virtual_ns(), 4 + 30 + 6);
        assert_eq!(c.work_ns(), 4 + 40 + 6);
    }

    #[test]
    fn a_lane_captures_its_clocks_charges_and_passes_others_through() {
        let c = CostClock::new(LatencyMode::Virtual);
        let other = CostClock::new(LatencyMode::Virtual);
        let shared = c.clone();
        let (out, ns) = c.lane(|| {
            c.charge(5);
            shared.charge(7);
            other.charge(11);
            "done"
        });
        assert_eq!((out, ns), ("done", 12));
        assert_eq!((c.virtual_ns(), c.work_ns()), (0, 0));
        assert_eq!((other.virtual_ns(), other.work_ns()), (11, 11));
        // Closed: later charges reach the clock again.
        c.charge(3);
        assert_eq!(c.virtual_ns(), 3);
    }

    #[test]
    fn nested_lanes_each_capture_their_own_clock() {
        let a = CostClock::new(LatencyMode::Virtual);
        let b = CostClock::new(LatencyMode::Virtual);
        let (((), b_ns), a_ns) = a.lane(|| {
            a.charge(1);
            b.lane(|| {
                a.charge(2);
                b.charge(4);
            })
        });
        assert_eq!((a_ns, b_ns), (3, 4));
        assert_eq!((a.virtual_ns(), b.virtual_ns()), (0, 0));
    }

    #[test]
    fn lanes_on_other_threads_capture_only_their_own_charges() {
        let c = CostClock::new(LatencyMode::Virtual);
        let lanes: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4u64)
                .map(|i| {
                    let c = &c;
                    s.spawn(move || c.lane(|| c.charge(i * 10)).1)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(lanes, vec![10, 20, 30, 40]);
        assert_eq!(c.virtual_ns(), 0);
        c.charge_wave(&lanes);
        assert_eq!((c.virtual_ns(), c.work_ns()), (40, 100));
    }

    #[test]
    fn a_wave_returns_lanes_in_order_and_charges_them_once() {
        for width in [1, 2, WAVE_IN_FLIGHT] {
            let pool = WorkerPool::new(width);
            let c = CostClock::new(LatencyMode::Virtual);
            c.charge(1);
            let out = c.wave(pool, 4, |i| {
                c.charge(10 * (i as u64 + 1));
                i * i
            });
            assert_eq!(out, vec![0, 1, 4, 9]);
            assert_eq!((c.virtual_ns(), c.work_ns()), (1 + 40, 1 + 100), "{width}");
            // Past the in-flight limit the lanes queue for a slot.
            let lanes = 2 * WAVE_IN_FLIGHT + 1;
            let c = CostClock::new(LatencyMode::Virtual);
            assert_eq!(c.wave(pool, lanes, |_| c.charge(5)).len(), lanes);
            assert_eq!((c.virtual_ns(), c.work_ns()), (15, 5 * lanes as u64));
            assert!(c.wave(pool, 0, |_| c.charge(5)).is_empty());
            assert_eq!(c.virtual_ns(), 15);
        }
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

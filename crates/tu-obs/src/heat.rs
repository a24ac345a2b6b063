//! Process-global partition heat registry.
//!
//! The cost model measures *what* the process spent per tier; this module
//! answers *where*: which time partition's data caused each storage
//! request. Every billable charge in `tu-cloud` is mirrored here with the
//! same quantities, attributed to the partition the calling thread
//! declared via [`attribute`] (an RAII guard, like a trace context) or to
//! a catch-all unattributed bucket (WAL, manifest, catalog I/O). Because
//! the mirror happens in the same call that charges the `cloud.<tier>.*`
//! counters, the heat totals and the counter deltas are *exactly* equal —
//! the invariant `tests/introspection.rs` pins.
//!
//! Besides lifetime totals, each `(partition, tier)` cell keeps three
//! exponential-decay request rates (1m / 10m / 1h windows) so hot/cold
//! classification — the input of a placement policy (ROADMAP item 3) — is
//! O(1) to read. Time comes from an installable clock (the engine installs
//! its virtual clock), per clock-discipline.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use crate::lockdep::{self, Mutex, RwLock};

/// Storage tier names, in the order of the per-tier arrays below.
pub const HEAT_TIERS: [&str; 2] = ["block", "object"];

/// Decay windows of the three access-rate columns, in milliseconds.
pub const HEAT_WINDOWS_MS: [i64; 3] = [60_000, 600_000, 3_600_000];

/// Identity of one time partition: its `[start, end)` range in ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionKey {
    pub start_ms: i64,
    pub end_ms: i64,
}

/// Accumulated heat of one `(partition, tier)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierHeat {
    pub get_requests: u64,
    pub put_requests: u64,
    pub delete_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub first_reads: u64,
    /// Clock time of the most recent charge (0 when never touched).
    pub last_access_ms: i64,
    /// Exponentially decayed request counts over [`HEAT_WINDOWS_MS`].
    pub rates: [f64; 3],
}

impl TierHeat {
    /// Total billable requests (Get + Put + Delete) of this cell.
    pub fn requests(&self) -> u64 {
        self.get_requests + self.put_requests + self.delete_requests
    }

    fn merge_totals(&mut self, other: &TierHeat) {
        self.get_requests += other.get_requests;
        self.put_requests += other.put_requests;
        self.delete_requests += other.delete_requests;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.first_reads += other.first_reads;
        self.last_access_ms = self.last_access_ms.max(other.last_access_ms);
        for (r, o) in self.rates.iter_mut().zip(other.rates.iter()) {
            *r += o;
        }
    }

    /// Decays the rate columns from `self.last_access_ms` to `now_ms`
    /// (presentation only; totals are unaffected).
    fn decayed_to(mut self, now_ms: i64) -> TierHeat {
        let dt = (now_ms - self.last_access_ms).max(0) as f64;
        for (r, w) in self.rates.iter_mut().zip(HEAT_WINDOWS_MS.iter()) {
            *r *= (-dt / *w as f64).exp();
        }
        self
    }
}

/// Hot/cold classification from the decayed rate columns: `hot` when the
/// 1-minute window still holds at least one request's worth of weight,
/// `warm` when the 10-minute or 1-hour window does, `cold` otherwise.
pub fn classify(rates: &[f64; 3]) -> &'static str {
    if rates[0] >= 1.0 {
        "hot"
    } else if rates[1] >= 1.0 || rates[2] >= 1.0 {
        "warm"
    } else {
        "cold"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Cell2 {
    tiers: [TierHeat; 2],
}

const SHARDS: usize = 16;

struct HeatMap {
    /// Lock-sharded partition cells; the unattributed bucket lives
    /// separately so it never contends with partition traffic.
    shards: [Mutex<HashMap<PartitionKey, Cell2>>; SHARDS],
    unattributed: Mutex<Cell2>,
}

fn map() -> &'static HeatMap {
    static MAP: OnceLock<HeatMap> = OnceLock::new();
    MAP.get_or_init(|| HeatMap {
        shards: std::array::from_fn(|_| Mutex::new(&lockdep::OBS_HEAT_SHARD, HashMap::new())),
        unattributed: Mutex::new(&lockdep::OBS_HEAT_UNATTRIBUTED, Cell2::default()),
    })
}

type NowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

fn clock_slot() -> &'static RwLock<Option<NowFn>> {
    static CLOCK: OnceLock<RwLock<Option<NowFn>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(&lockdep::OBS_HEAT_CLOCK, None))
}

/// Installs the clock heat timestamps and decay windows run on. The engine
/// installs its (possibly simulated) clock at open; without one, process
/// uptime is used.
pub fn install_clock(now_ms: NowFn) {
    *clock_slot().write() = Some(now_ms);
}

fn now_ms() -> i64 {
    if let Some(f) = clock_slot().read().as_ref() {
        return f();
    }
    crate::monitor::process_now_ms()
}

thread_local! {
    /// The partition this thread is currently doing storage I/O for.
    static CURRENT: Cell<Option<PartitionKey>> = const { Cell::new(None) };
}

/// RAII partition-attribution guard from [`attribute`]; restores the
/// previous attribution (if any) on drop. Not `Send`: attribution is
/// per-thread, like trace contexts.
#[derive(Debug)]
pub struct HeatGuard {
    prev: Option<PartitionKey>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for HeatGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Declares that storage I/O on this thread, until the guard drops,
/// belongs to the time partition `[start_ms, end_ms)`. Nested guards
/// shadow (innermost wins) and restore on drop.
pub fn attribute(start_ms: i64, end_ms: i64) -> HeatGuard {
    let key = PartitionKey { start_ms, end_ms };
    let prev = CURRENT.with(|c| c.replace(Some(key)));
    HeatGuard {
        prev,
        _not_send: PhantomData,
    }
}

fn tier_index(tier: &str) -> Option<usize> {
    HEAT_TIERS.iter().position(|t| *t == tier)
}

fn shard_of(key: &PartitionKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Applies `f` to the heat cell of the current attribution (or the
/// unattributed bucket) and returns true when a partition was attributed.
fn with_cell(tier: &str, f: impl FnOnce(&mut TierHeat, i64)) -> bool {
    let Some(ti) = tier_index(tier) else {
        return false;
    };
    let at = now_ms();
    let key = CURRENT.with(|c| c.get());
    let decay_add = |cell: &mut TierHeat, n: u64| {
        let dt = (at - cell.last_access_ms).max(0) as f64;
        for (r, w) in cell.rates.iter_mut().zip(HEAT_WINDOWS_MS.iter()) {
            *r = *r * (-dt / *w as f64).exp() + n as f64;
        }
        cell.last_access_ms = at;
    };
    match key {
        Some(key) => {
            let m = map();
            let mut shard = m.shards[shard_of(&key)].lock();
            let cell = &mut shard.entry(key).or_default().tiers[ti];
            let before = cell.requests();
            f(cell, at);
            decay_add(cell, cell.requests() - before);
            true
        }
        None => {
            let mut cell2 = map().unattributed.lock();
            let cell = &mut cell2.tiers[ti];
            let before = cell.requests();
            f(cell, at);
            decay_add(cell, cell.requests() - before);
            false
        }
    }
}

/// Mirrors a read charge (`requests` Gets, `bytes` read, of which
/// `first_reads` paid the first-read penalty). Returns true when the
/// charge was attributed to a partition.
pub fn record_read(tier: &str, requests: u64, bytes: u64, first_reads: u64) -> bool {
    with_cell(tier, |c, _| {
        c.get_requests += requests;
        c.bytes_read += bytes;
        c.first_reads += first_reads;
    })
}

/// Mirrors a write charge (`requests` Puts, `bytes` written).
pub fn record_write(tier: &str, requests: u64, bytes: u64) -> bool {
    with_cell(tier, |c, _| {
        c.put_requests += requests;
        c.bytes_written += bytes;
    })
}

/// Mirrors a delete charge.
pub fn record_delete(tier: &str, requests: u64) -> bool {
    with_cell(tier, |c, _| {
        c.delete_requests += requests;
    })
}

/// Heat of one partition across both tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionHeat {
    pub key: PartitionKey,
    /// Per-tier heat in [`HEAT_TIERS`] order.
    pub tiers: [TierHeat; 2],
}

impl PartitionHeat {
    /// Combined decayed rate columns across both tiers.
    pub fn rates(&self) -> [f64; 3] {
        let mut out = [0.0; 3];
        for t in &self.tiers {
            for (o, r) in out.iter_mut().zip(t.rates.iter()) {
                *o += r;
            }
        }
        out
    }
}

/// A point-in-time copy of the whole heat map, rates decayed to `at_ms`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatSnapshot {
    pub at_ms: i64,
    /// Partitions sorted by `(start_ms, end_ms)`.
    pub partitions: Vec<PartitionHeat>,
    /// The catch-all bucket for I/O no partition claimed.
    pub unattributed: [TierHeat; 2],
}

impl HeatSnapshot {
    /// Sum over every partition *and* the unattributed bucket for one tier
    /// — by construction equal to the `cloud.<tier>.*` counter totals.
    pub fn tier_totals(&self, tier: &str) -> TierHeat {
        let mut out = TierHeat::default();
        if let Some(ti) = tier_index(tier) {
            for p in &self.partitions {
                out.merge_totals(&p.tiers[ti]);
            }
            out.merge_totals(&self.unattributed[ti]);
        }
        out
    }

    /// The heat of one partition, when present.
    pub fn partition(&self, start_ms: i64, end_ms: i64) -> Option<&PartitionHeat> {
        self.partitions
            .iter()
            .find(|p| p.key.start_ms == start_ms && p.key.end_ms == end_ms)
    }
}

/// Snapshots the heat map (rates decayed to the current clock).
pub fn snapshot() -> HeatSnapshot {
    let at = now_ms();
    let m = map();
    let mut partitions = Vec::new();
    for shard in &m.shards {
        let shard = shard.lock();
        for (key, cell) in shard.iter() {
            partitions.push(PartitionHeat {
                key: *key,
                tiers: [cell.tiers[0].decayed_to(at), cell.tiers[1].decayed_to(at)],
            });
        }
    }
    partitions.sort_by_key(|p| (p.key.start_ms, p.key.end_ms));
    let un = *m.unattributed.lock();
    HeatSnapshot {
        at_ms: at,
        partitions,
        unattributed: [un.tiers[0].decayed_to(at), un.tiers[1].decayed_to(at)],
    }
}

/// Clears every cell (tests). Totals mirrored into `cloud.<tier>.*`
/// counters are *not* reset, so only delta-based comparisons remain valid
/// across a reset.
pub fn reset() {
    let m = map();
    for shard in &m.shards {
        shard.lock().clear();
    }
    *m.unattributed.lock() = Cell2::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Serializes tests in this module: the heat map is process-global.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn manual_clock() -> Arc<AtomicI64> {
        let t = Arc::new(AtomicI64::new(1_000));
        let h = t.clone();
        install_clock(Arc::new(move || h.load(Ordering::SeqCst)));
        t
    }

    #[test]
    fn unattributed_without_guard_attributed_with() {
        let _l = LOCK.lock().unwrap();
        reset();
        let _t = manual_clock();
        assert!(!record_read("block", 1, 100, 0));
        {
            let _g = attribute(0, 60_000);
            assert!(record_read("object", 2, 300, 1));
            assert!(record_write("object", 1, 50));
        }
        assert!(!record_delete("block", 1));
        let s = snapshot();
        assert_eq!(s.partitions.len(), 1);
        let p = s.partition(0, 60_000).unwrap();
        assert_eq!(p.tiers[1].get_requests, 2);
        assert_eq!(p.tiers[1].bytes_read, 300);
        assert_eq!(p.tiers[1].first_reads, 1);
        assert_eq!(p.tiers[1].put_requests, 1);
        assert_eq!(p.tiers[1].bytes_written, 50);
        assert_eq!(s.unattributed[0].get_requests, 1);
        assert_eq!(s.unattributed[0].delete_requests, 1);
        // Totals across partitions + unattributed always balance.
        assert_eq!(s.tier_totals("block").requests(), 2);
        assert_eq!(s.tier_totals("object").requests(), 3);
        assert_eq!(s.tier_totals("object").bytes_read, 300);
    }

    #[test]
    fn guards_nest_and_restore() {
        let _l = LOCK.lock().unwrap();
        reset();
        let _t = manual_clock();
        let g1 = attribute(0, 10);
        {
            let _g2 = attribute(10, 20);
            record_read("block", 1, 1, 0);
        }
        record_read("block", 1, 1, 0);
        drop(g1);
        record_read("block", 1, 1, 0);
        let s = snapshot();
        assert_eq!(s.partition(10, 20).unwrap().tiers[0].get_requests, 1);
        assert_eq!(s.partition(0, 10).unwrap().tiers[0].get_requests, 1);
        assert_eq!(s.unattributed[0].get_requests, 1);
    }

    #[test]
    fn rates_decay_with_the_installed_clock() {
        let _l = LOCK.lock().unwrap();
        reset();
        let t = manual_clock();
        {
            let _g = attribute(0, 10);
            record_read("block", 10, 0, 0);
        }
        let r0 = snapshot().partition(0, 10).unwrap().tiers[0].rates;
        assert!((r0[0] - 10.0).abs() < 1e-9, "{r0:?}");
        // One full 1m window later the 1m column decayed to 10/e, while
        // the 1h column barely moved.
        t.fetch_add(60_000, Ordering::SeqCst);
        let r1 = snapshot().partition(0, 10).unwrap().tiers[0].rates;
        assert!((r1[0] - 10.0 / std::f64::consts::E).abs() < 1e-6, "{r1:?}");
        assert!(r1[2] > 9.8, "{r1:?}");
        // Totals never decay.
        let s = snapshot();
        assert_eq!(s.partition(0, 10).unwrap().tiers[0].get_requests, 10);
        assert_eq!(s.at_ms, 61_000);
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify(&[2.0, 2.0, 2.0]), "hot");
        assert_eq!(classify(&[0.5, 1.5, 2.0]), "warm");
        assert_eq!(classify(&[0.0, 0.2, 0.4]), "cold");
    }

    #[test]
    fn concurrent_records_balance() {
        let _l = LOCK.lock().unwrap();
        reset();
        let _t = manual_clock();
        std::thread::scope(|s| {
            for w in 0..8i64 {
                s.spawn(move || {
                    let _g = attribute(w * 100, w * 100 + 100);
                    for _ in 0..50 {
                        record_read("object", 1, 10, 0);
                    }
                });
            }
        });
        let s = snapshot();
        assert_eq!(s.partitions.len(), 8);
        assert_eq!(s.tier_totals("object").get_requests, 400);
        assert_eq!(s.tier_totals("object").bytes_read, 4_000);
    }
}

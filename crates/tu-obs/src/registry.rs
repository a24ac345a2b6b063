//! The metric types and the name → metric registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::lockdep::{self, RwLock};

use crate::snapshot::MetricsSnapshot;

/// A monotonically increasing counter. Incrementing is a single relaxed
/// atomic add.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed level that can move both ways (resident bytes, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets. Bucket `i` counts values whose
/// bit-length is `i`, i.e. `v == 0` lands in bucket 0 and otherwise
/// bucket `i` covers `[2^(i-1), 2^i)`; everything ≥ `2^62` saturates into
/// the last bucket. For nanosecond latencies that spans sub-ns to ~146
/// years, at 2× resolution per step.
pub const BUCKETS: usize = 64;

/// A fixed-bucket histogram of `u64` observations (nanoseconds by
/// convention for `span.*` metrics). Recording performs two relaxed
/// atomic adds; no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `v`: 0 for 0, else `64 - leading_zeros`,
/// saturated to the last bucket.
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// that land in it).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (buckets are read one by
    /// one; concurrent recording can skew totals by in-flight updates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket containing that rank (an overestimate of at most 2×,
    /// the bucket resolution). Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-quantile among `count` sorted observations.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(bucket_upper_bound(BUCKETS - 1))
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The distribution of observations recorded since `earlier`:
    /// count, sum, and every bucket subtract (saturating, since concurrent
    /// recording can skew individual loads).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Names → metrics. `counter`/`gauge`/`histogram` intern a metric on
/// first use and hand back a `&'static` the caller can cache; after that
/// the hot path is purely atomic. The interior `RwLock` is taken only to
/// register or snapshot.
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            metrics: RwLock::new(&lockdep::OBS_REGISTRY, BTreeMap::new()),
        }
    }
}

/// The process-wide registry behind [`crate::global`].
pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> &'static Counter {
        if let Some(Metric::Counter(c)) = self.metrics.read().get(name) {
            return c;
        }
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        if let Some(Metric::Gauge(g)) = self.metrics.read().get(name) {
            return g;
        }
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        if let Some(Metric::Histogram(h)) = self.metrics.read().get(name) {
            return h;
        }
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every counter and histogram (names stay registered).
    /// Benchmarks call this between phases to attribute flows to one run.
    ///
    /// Gauges are exempt: they are *levels* published when the owning
    /// component was configured (`cache.shard.count`,
    /// `core.query.parallel.threads`), not flows since a point in time —
    /// zeroing them would report a stale zero until the owner happened to
    /// republish. [`MetricsSnapshot::since`] treats gauges the same way.
    pub fn reset(&self) {
        let metrics = self.metrics.read();
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(_) => {}
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g");
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_collision_across_types_panics() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's upper bound maps back into that bucket.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_quantiles_use_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        // Sorted: 1,2,3,4,100,1000 → p50 rank 3 → value 3 → bucket [2,4) → ub 3.
        assert_eq!(s.p50(), Some(3));
        // p99 rank 6 → 1000 → bucket [512,1024) → ub 1023.
        assert_eq!(s.p99(), Some(1023));
        assert!(s.mean().unwrap() > 100.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn quantile_extremes() {
        let h = Histogram::default();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // q=0 clamps to the first occupied bucket; q=1 to the last.
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(127));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = std::sync::Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("shared.counter");
                    let h = r.histogram("shared.hist");
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared.counter").get(), threads * per_thread);
        let s = r.histogram("shared.hist").snapshot();
        assert_eq!(s.count, threads * per_thread);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = Registry::new();
        r.counter("a").add(7);
        r.histogram("h").record(42);
        r.reset();
        assert_eq!(r.counter("a").get(), 0);
        assert_eq!(r.histogram("h").count(), 0);
        let snap = r.snapshot();
        assert!(snap.counters.contains_key("a"));
    }

    #[test]
    fn reset_preserves_gauge_levels() {
        let r = Registry::new();
        r.counter("cloud.block.get_requests").add(9);
        r.gauge("cache.shard.count").set(8);
        r.gauge("core.query.parallel.threads").set(4);
        r.reset();
        // Flows zero; levels survive inter-phase resets.
        assert_eq!(r.counter("cloud.block.get_requests").get(), 0);
        assert_eq!(r.gauge("cache.shard.count").get(), 8);
        assert_eq!(r.gauge("core.query.parallel.threads").get(), 4);
    }

    #[test]
    fn histogram_snapshot_since_subtracts_buckets() {
        let h = Histogram::default();
        h.record(3);
        h.record(100);
        let before = h.snapshot();
        h.record(100);
        h.record(5000);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 5100);
        assert_eq!(delta.buckets[bucket_index(3)], 0);
        assert_eq!(delta.buckets[bucket_index(100)], 1);
        assert_eq!(delta.buckets[bucket_index(5000)], 1);
    }
}

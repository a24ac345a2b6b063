//! A continuous sampler deriving windowed rates from metric snapshots.
//!
//! The registry's counters are lifetime totals; operators watching a live
//! engine want *rates* — samples ingested per second, S3 Gets per second
//! (the per-second denomination of the paper's Eq. 4/6 cost terms), cache
//! hit ratio over the last few minutes. The [`Monitor`] keeps a
//! fixed-capacity ring of timestamped [`MetricsSnapshot`]s of the global
//! registry and computes [`Vitals`] from the oldest and newest samples
//! using [`MetricsSnapshot::since`] — the same delta machinery the
//! figure harness uses per phase, so window semantics (counters delta,
//! gauges stay levels, new-in-window metrics count from zero) are
//! identical everywhere.
//!
//! Time is pluggable: by default samples are stamped with a process-local
//! monotonic millisecond clock, but an engine passes its own
//! `tu_common` virtual clock via [`MonitorOptions::now_ms`], so simulated
//! runs produce simulated-time rates and tests can pin exact windows by
//! pairing [`Monitor::sample`] with a manual clock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lockdep::{self, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use crate::snapshot::MetricsSnapshot;

/// Sampling cadence, ring depth, and time source for a [`Monitor`].
#[derive(Clone)]
pub struct MonitorOptions {
    /// Wall-clock pause between background samples.
    pub interval: Duration,
    /// Samples kept; with the default 1 s interval, 300 ≈ a 5-minute
    /// vitals window.
    pub capacity: usize,
    /// Millisecond timestamps for samples and window widths. `None` uses
    /// a process-local monotonic clock; engines install their
    /// `tu_common` clock here so clock discipline holds end to end.
    pub now_ms: Option<Arc<dyn Fn() -> i64 + Send + Sync>>,
}

impl Default for MonitorOptions {
    fn default() -> MonitorOptions {
        MonitorOptions {
            interval: Duration::from_secs(1),
            capacity: 300,
            now_ms: None,
        }
    }
}

/// Request/byte rates for one storage tier over the vitals window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierRates {
    pub get_per_s: f64,
    pub put_per_s: f64,
    pub read_bytes_per_s: f64,
    pub written_bytes_per_s: f64,
}

/// Windowed latency quantiles of one `span.*` histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanQuantiles {
    /// Full histogram name (`span.<op>.ns`).
    pub name: String,
    /// Completions inside the window.
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Windowed rates over the monitor ring (oldest sample → newest).
#[derive(Debug, Clone, PartialEq)]
pub struct Vitals {
    /// Width of the window the rates are averaged over.
    pub window_ms: i64,
    /// Timestamp of the newest sample (monitor clock domain).
    pub at_ms: i64,
    /// `core.ingest.samples` per second.
    pub ingest_samples_per_s: f64,
    /// `core.query.requests` per second.
    pub queries_per_s: f64,
    /// `lsm.wal.flushed_bytes` per second.
    pub wal_flushed_bytes_per_s: f64,
    /// Memtable flushes per second (completed `span.lsm.flush.ns` spans).
    pub flushes_per_s: f64,
    /// Fast-tier (`cloud.block.*`) request and byte rates.
    pub block: TierRates,
    /// Slow-tier (`cloud.object.*`) request and byte rates.
    pub object: TierRates,
    /// `hits / (hits + misses)` within the window; `None` when the window
    /// saw no block accesses.
    pub cache_hit_ratio: Option<f64>,
    /// Windowed p50/p95/p99 of every `span.*` histogram that completed at
    /// least once inside the window, sorted by name.
    pub spans: Vec<SpanQuantiles>,
}

impl Vitals {
    /// Stable JSON with every rate rounded to 3 decimals.
    pub fn to_json(&self) -> String {
        let tier = |t: &TierRates| {
            format!(
                "{{\"get_per_s\":{:.3},\"put_per_s\":{:.3},\"read_bytes_per_s\":{:.3},\"written_bytes_per_s\":{:.3}}}",
                t.get_per_s, t.put_per_s, t.read_bytes_per_s, t.written_bytes_per_s
            )
        };
        let mut spans = String::from("{");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            spans.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                crate::snapshot::escape(&s.name),
                s.count,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns
            ));
        }
        spans.push('}');
        format!(
            "{{\"window_ms\":{},\"at_ms\":{},\"ingest_samples_per_s\":{:.3},\"queries_per_s\":{:.3},\"wal_flushed_bytes_per_s\":{:.3},\"flushes_per_s\":{:.3},\"block\":{},\"object\":{},\"cache_hit_ratio\":{},\"spans\":{}}}",
            self.window_ms,
            self.at_ms,
            self.ingest_samples_per_s,
            self.queries_per_s,
            self.wal_flushed_bytes_per_s,
            self.flushes_per_s,
            tier(&self.block),
            tier(&self.object),
            match self.cache_hit_ratio {
                Some(r) => format!("{r:.4}"),
                None => "null".to_string(),
            },
            spans
        )
    }
}

impl std::fmt::Display for Vitals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "vitals over {} ms:", self.window_ms)?;
        writeln!(
            f,
            "  ingest     {:>12.1} samples/s",
            self.ingest_samples_per_s
        )?;
        writeln!(f, "  queries    {:>12.1} /s", self.queries_per_s)?;
        writeln!(f, "  wal flush  {:>12.1} B/s", self.wal_flushed_bytes_per_s)?;
        writeln!(
            f,
            "  block tier {:>12.1} Get/s {:>10.1} Put/s",
            self.block.get_per_s, self.block.put_per_s
        )?;
        writeln!(
            f,
            "  object tier{:>12.1} Get/s {:>10.1} Put/s",
            self.object.get_per_s, self.object.put_per_s
        )?;
        match self.cache_hit_ratio {
            Some(r) => writeln!(f, "  cache hit  {:>12.1} %", r * 100.0)?,
            None => writeln!(f, "  cache hit  (no accesses)")?,
        }
        for s in &self.spans {
            writeln!(
                f,
                "  span {:<28} count={:<8} p50={}ns p95={}ns p99={}ns",
                s.name, s.count, s.p50_ns, s.p95_ns, s.p99_ns
            )?;
        }
        Ok(())
    }
}

struct SamplerState {
    stop: bool,
}

/// The sampler. Construct with [`Monitor::new`], then either call
/// [`Monitor::sample`] manually (deterministic tests) or
/// [`Monitor::start`] a background thread.
pub struct Monitor {
    ring: Mutex<VecDeque<(i64, MetricsSnapshot)>>,
    capacity: usize,
    interval: Duration,
    now_ms: Arc<dyn Fn() -> i64 + Send + Sync>,
    sampler: Mutex<Option<thread::JoinHandle<()>>>,
    state: Arc<(Mutex<SamplerState>, Condvar)>,
    running: AtomicBool,
}

/// Milliseconds since an arbitrary process-local epoch — the default
/// monitor clock when no virtual clock is installed.
pub(crate) fn process_now_ms() -> i64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_millis().min(i64::MAX as u128) as i64
}

impl Monitor {
    pub fn new(opts: MonitorOptions) -> Monitor {
        Monitor {
            ring: Mutex::new(&lockdep::OBS_MONITOR_RING, VecDeque::new()),
            capacity: opts.capacity.max(2),
            interval: opts.interval.max(Duration::from_millis(10)),
            now_ms: opts.now_ms.unwrap_or_else(|| Arc::new(process_now_ms)),
            sampler: Mutex::new(&lockdep::OBS_MONITOR_SAMPLER, None),
            state: Arc::new((
                Mutex::new(&lockdep::OBS_MONITOR_STATE, SamplerState { stop: false }),
                Condvar::new(),
            )),
            running: AtomicBool::new(false),
        }
    }

    fn lock_ring(&self) -> lockdep::MutexGuard<'_, VecDeque<(i64, MetricsSnapshot)>> {
        self.ring.lock()
    }

    /// Takes one timestamped snapshot of the global registry now.
    pub fn sample(&self) {
        let at = (self.now_ms)();
        let snap = crate::global().snapshot();
        let mut ring = self.lock_ring();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back((at, snap));
    }

    /// Number of samples currently buffered.
    pub fn len(&self) -> usize {
        self.lock_ring().len()
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `f` to each pair of consecutive buffered samples, oldest
    /// first, under the ring lock: `f` must take no lock. A ring of `n`
    /// samples yields `n - 1` results (none while warming up).
    pub fn map_pairs<R>(
        &self,
        mut f: impl FnMut(&(i64, MetricsSnapshot), &(i64, MetricsSnapshot)) -> R,
    ) -> Vec<R> {
        let ring = self.lock_ring();
        ring.iter()
            .zip(ring.iter().skip(1))
            .map(|(a, b)| f(a, b))
            .collect()
    }

    /// Windowed rates from the oldest to the newest buffered sample, or
    /// `None` until two samples exist (the monitor is still warming up).
    /// The window width is the samples' timestamp difference, clamped to
    /// ≥ 1 ms so rates stay finite even under a frozen virtual clock.
    pub fn vitals(&self) -> Option<Vitals> {
        let ring = self.lock_ring();
        if ring.len() < 2 {
            return None;
        }
        let (t0, oldest) = ring.front()?;
        let (t1, newest) = ring.back()?;
        Some(Self::derive(*t0, oldest, *t1, newest))
    }

    /// Like [`Monitor::vitals`], but deltas from the newest buffered
    /// sample at least `window_ms` older than the latest one instead of
    /// the ring's front. Requests reaching further back than the ring
    /// holds clamp to the oldest sample (i.e. degrade to [`Monitor::vitals`]).
    pub fn vitals_window(&self, window_ms: i64) -> Option<Vitals> {
        let ring = self.lock_ring();
        if ring.len() < 2 {
            return None;
        }
        let (t1, newest) = ring.back()?;
        let cutoff = t1.saturating_sub(window_ms.max(1));
        let (t0, oldest) = ring
            .iter()
            .rev()
            .skip(1)
            .find(|(t, _)| *t <= cutoff)
            .or_else(|| ring.front())?;
        Some(Self::derive(*t0, oldest, *t1, newest))
    }

    /// The shared vitals computation between two ring entries.
    fn derive(t0: i64, oldest: &MetricsSnapshot, t1: i64, newest: &MetricsSnapshot) -> Vitals {
        let window_ms = (t1 - t0).max(1);
        let delta = newest.since(oldest);
        let secs = window_ms as f64 / 1_000.0;
        let rate = |name: &str| delta.counter(name).unwrap_or(0) as f64 / secs;
        let tier = |t: &str| TierRates {
            get_per_s: rate(&format!("cloud.{t}.get_requests")),
            put_per_s: rate(&format!("cloud.{t}.put_requests")),
            read_bytes_per_s: rate(&format!("cloud.{t}.bytes_read")),
            written_bytes_per_s: rate(&format!("cloud.{t}.bytes_written")),
        };
        let hits = delta.counter("lsm.cache.hits").unwrap_or(0);
        let misses = delta.counter("lsm.cache.misses").unwrap_or(0);
        let spans = delta
            .histograms
            .iter()
            .filter(|(name, h)| name.starts_with("span.") && h.count > 0)
            .map(|(name, h)| SpanQuantiles {
                name: name.clone(),
                count: h.count,
                p50_ns: h.p50().unwrap_or(0),
                p95_ns: h.p95().unwrap_or(0),
                p99_ns: h.p99().unwrap_or(0),
            })
            .collect();
        Vitals {
            window_ms,
            at_ms: t1,
            ingest_samples_per_s: rate("core.ingest.samples"),
            queries_per_s: rate("core.query.requests"),
            wal_flushed_bytes_per_s: rate("lsm.wal.flushed_bytes"),
            flushes_per_s: delta
                .histogram("span.lsm.flush.ns")
                .map_or(0.0, |h| h.count as f64 / secs),
            block: tier("block"),
            object: tier("object"),
            cache_hit_ratio: if hits + misses > 0 {
                Some(hits as f64 / (hits + misses) as f64)
            } else {
                None
            },
            spans,
        }
    }

    /// Starts the background sampler thread (idempotent). The thread
    /// takes a sample immediately, then every `interval` until
    /// [`Monitor::stop`].
    pub fn start(self: &Arc<Self>) {
        if self.running.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let (lock, _) = &*self.state;
            lock.lock().stop = false;
        }
        let me = Arc::clone(self);
        let handle = thread::Builder::new()
            .name("tu-obs-monitor".to_string())
            .spawn(move || loop {
                me.sample();
                let (lock, cvar) = &*me.state;
                let mut st = lock.lock();
                while !st.stop {
                    let (next, timeout) = cvar.wait_timeout(st, me.interval);
                    st = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if st.stop {
                    return;
                }
            });
        match handle {
            Ok(h) => {
                *self.sampler.lock() = Some(h);
            }
            Err(_) => {
                // Spawn failure (resource exhaustion): fall back to
                // manual sampling; vitals just stay in warm-up.
                self.running.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Stops and joins the sampler thread (idempotent, safe if never
    /// started).
    pub fn stop(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        {
            let (lock, cvar) = &*self.state;
            lock.lock().stop = true;
            cvar.notify_all();
        }
        if let Some(h) = self.sampler.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn manual_clock() -> (Arc<AtomicI64>, Arc<dyn Fn() -> i64 + Send + Sync>) {
        let t = Arc::new(AtomicI64::new(0));
        let c = t.clone();
        (t, Arc::new(move || c.load(Ordering::Relaxed)))
    }

    #[test]
    fn warms_up_then_reports_windowed_rates() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 8,
            now_ms: Some(now),
            ..Default::default()
        });
        assert!(m.vitals().is_none(), "no samples yet");
        m.sample();
        assert!(m.vitals().is_none(), "one sample is still warming up");

        // 2s window with unique-to-this-test counters: the global
        // registry is shared across tests, so rates for shared names are
        // only asserted > 0, while these fresh names pin exact values.
        crate::counter("montest.exact").add(10);
        t.store(2_000, Ordering::Relaxed);
        m.sample();
        let v = m.vitals().expect("two samples");
        assert_eq!(v.window_ms, 2_000);
        assert_eq!(v.at_ms, 2_000);
        // montest.exact was new-in-window at 10 → but it's not a vitals
        // field; instead verify through the same delta machinery:
        let ring = m.lock_ring();
        let delta = ring.back().unwrap().1.since(&ring.front().unwrap().1);
        assert_eq!(delta.counter("montest.exact"), Some(10));
    }

    #[test]
    fn rates_divide_by_window() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 4,
            now_ms: Some(now),
            ..Default::default()
        });
        let before_ingest = crate::global()
            .snapshot()
            .counter("core.ingest.samples")
            .unwrap_or(0);
        m.sample();
        crate::counter("core.ingest.samples").add(500);
        crate::counter("cloud.object.put_requests").add(4);
        crate::counter("lsm.cache.hits").add(3);
        crate::counter("lsm.cache.misses").add(1);
        t.store(2_000, Ordering::Relaxed);
        m.sample();
        let v = m.vitals().expect("vitals");
        // Other tests in this binary may also bump these counters
        // concurrently, so pin lower bounds, not equality.
        assert!(
            v.ingest_samples_per_s >= 250.0,
            "500 samples / 2 s, got {}",
            v.ingest_samples_per_s
        );
        assert!(v.object.put_per_s >= 2.0, "4 puts / 2 s");
        let ratio = v.cache_hit_ratio.expect("accesses in window");
        assert!(ratio > 0.0 && ratio <= 1.0);
        let _ = before_ingest;

        // JSON shape.
        let json = v.to_json();
        assert!(json.starts_with("{\"window_ms\":2000,"));
        assert!(json.contains("\"block\":{\"get_per_s\":"));
        assert!(json.contains("\"object\":{\"get_per_s\":"));
        assert!(json.contains("\"cache_hit_ratio\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(v.to_string().contains("samples/s"));
    }

    #[test]
    fn ring_caps_at_capacity_and_window_tracks_survivors() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 3,
            now_ms: Some(now),
            ..Default::default()
        });
        for i in 0..10 {
            t.store(i * 1_000, Ordering::Relaxed);
            m.sample();
        }
        assert_eq!(m.len(), 3);
        let v = m.vitals().expect("vitals");
        // Samples at 7s, 8s, 9s survive → 2s window ending at 9s.
        assert_eq!(v.window_ms, 2_000);
        assert_eq!(v.at_ms, 9_000);
    }

    #[test]
    fn vitals_window_selects_the_delta_base() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 8,
            now_ms: Some(now),
            ..Default::default()
        });
        for i in 0..6 {
            t.store(i * 1_000, Ordering::Relaxed);
            m.sample();
            crate::counter("montest.windowed").add(10);
        }
        // Ring holds samples at 0..=5s; full window is 5s.
        assert_eq!(m.vitals().expect("vitals").window_ms, 5_000);
        // A 2s request deltas from the sample at 3s (newest ≤ 5s − 2s).
        let v = m.vitals_window(2_000).expect("windowed vitals");
        assert_eq!(v.window_ms, 2_000);
        assert_eq!(v.at_ms, 5_000);
        // Reaching past the ring clamps to the oldest sample.
        let v = m.vitals_window(60_000).expect("clamped vitals");
        assert_eq!(v.window_ms, 5_000);
        // Degenerate requests still take the adjacent sample.
        let v = m.vitals_window(0).expect("minimal window");
        assert_eq!(v.window_ms, 1_000);
    }

    #[test]
    fn frozen_clock_clamps_window() {
        let (_t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 4,
            now_ms: Some(now),
            ..Default::default()
        });
        m.sample();
        m.sample();
        let v = m.vitals().expect("vitals");
        assert_eq!(v.window_ms, 1, "frozen clock still yields a finite rate");
    }

    #[test]
    fn map_pairs_visits_consecutive_samples_in_order() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 3,
            now_ms: Some(now),
            ..Default::default()
        });
        assert!(m.map_pairs(|a, b| (a.0, b.0)).is_empty());
        for at in [0, 500, 1_500, 4_000] {
            t.store(at, Ordering::Relaxed);
            m.sample();
        }
        // The ring holds the newest three samples.
        assert_eq!(
            m.map_pairs(|a, b| (a.0, b.0)),
            [(500, 1_500), (1_500, 4_000)]
        );
    }

    #[test]
    fn vitals_report_windowed_span_quantiles() {
        let (t, now) = manual_clock();
        let m = Monitor::new(MonitorOptions {
            capacity: 4,
            now_ms: Some(now),
            ..Default::default()
        });
        m.sample();
        crate::histogram("span.montest.window.ns").record(1_000);
        crate::histogram("span.montest.window.ns").record(1_000);
        t.store(1_000, Ordering::Relaxed);
        m.sample();
        let v = m.vitals().expect("vitals");
        let q = v
            .spans
            .iter()
            .find(|s| s.name == "span.montest.window.ns")
            .expect("span quantiles surfaced");
        assert_eq!(q.count, 2);
        assert!(q.p50_ns >= 1_000 && q.p99_ns >= q.p50_ns);
        let json = v.to_json();
        assert!(json.contains("\"spans\":{"));
        assert!(json.contains("\"span.montest.window.ns\":{\"count\":2,\"p50_ns\":"));
        assert!(v.to_string().contains("span span.montest.window.ns"));
        // A later window without observations drops the span again (the
        // ring caps at 4, so the pre-observation sample rotates out).
        for at in [2_000, 3_000, 4_000, 5_000] {
            t.store(at, Ordering::Relaxed);
            m.sample();
        }
        let v = m.vitals().expect("vitals");
        assert!(
            !v.spans.iter().any(|s| s.name == "span.montest.window.ns"),
            "{:?}",
            v.spans
        );
    }

    #[test]
    fn background_sampler_starts_and_stops() {
        let m = Arc::new(Monitor::new(MonitorOptions {
            interval: Duration::from_millis(10),
            capacity: 16,
            now_ms: None,
        }));
        m.start();
        m.start(); // idempotent
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while m.len() < 2 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(m.len() >= 2, "sampler produced samples");
        assert!(m.vitals().is_some());
        m.stop();
        m.stop(); // idempotent
        let n = m.len();
        thread::sleep(Duration::from_millis(40));
        assert_eq!(m.len(), n, "no samples after stop");
    }
}

//! Observability for TimeUnion: a lock-light metrics registry plus RAII
//! span timers, with zero dependencies beyond `std`.
//!
//! The paper's whole evaluation (§6, Figures 13–19) is computed from
//! counters the system itself must expose — S3 Get/Put request counts
//! (Equations 4 and 6 charge one Get per SSTable data block), bytes moved
//! per tier, memory occupied, and per-stage latencies. This crate is the
//! single place those counters live:
//!
//! * [`Counter`] — monotonically increasing `u64` (requests, bytes,
//!   samples). One relaxed atomic add on the hot path.
//! * [`Gauge`] — a signed level (bytes resident, queue depths).
//! * [`Histogram`] — fixed power-of-two buckets over nanoseconds with
//!   p50/p95/p99 estimates; recording is two relaxed atomic adds.
//! * [`Registry`] — names → metrics. Metric handles are `&'static`
//!   (registration leaks one small allocation per metric), so steady-state
//!   instrumentation never takes a lock; the registry's `RwLock` guards
//!   only registration and snapshotting.
//! * [`span!`] / [`span_of`] — RAII timers that record wall-clock (or
//!   caller-supplied virtual) nanoseconds into a histogram on drop.
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric with a
//!   stable [`std::fmt::Display`] rendering and a [`MetricsSnapshot::to_json`]
//!   encoding, dumped by `tu-bench`'s figure binaries and the examples so
//!   each figure regeneration also emits the raw counters behind it.
//! * [`TraceContext`] / [`traced`] — scoped per-operation attribution:
//!   while a context is installed on a thread (and attached to its
//!   workers), every [`TracedCounter`] charge and span completion is also
//!   accumulated into the context, so a finished operation knows exactly
//!   which `cloud.<tier>.*` requests it caused (the paper's Eq. 3–6,
//!   denominated per operation instead of per process).
//! * [`flight`] — a fixed-capacity ring buffer of begin/end/instant/
//!   complete events, off by default (one atomic load when disabled),
//!   drained on demand.
//! * [`prometheus_text`] / [`chrome_trace_json`] — exporters for registry
//!   snapshots (Prometheus text exposition, re-checkable with
//!   [`parse_prometheus_text`]) and flight recordings (chrome://tracing
//!   `trace_event` JSON).
//! * [`ObsServer`] — a zero-dependency embedded HTTP server exposing the
//!   live endpoints (`/metrics`, `/metrics.json`, `/flight`, `/healthz`,
//!   `/readyz`, `/vitals`) on a `std::net::TcpListener`.
//! * [`Monitor`] — a background sampler keeping a ring of snapshots and
//!   deriving windowed [`Vitals`] rates via [`MetricsSnapshot::since`];
//!   [`Monitor::map_pairs`] lends its consecutive samples to other
//!   windowed views (the `/costs` pricing).
//! * [`log`] — a leveled, rate-limited structured event log (JSON lines,
//!   trace-id-correlated with the flight recorder).
//! * [`HealthReport`] — aggregated engine health driving `/healthz` and
//!   `/readyz`.
//!
//! Instrumented metric names, units, and the paper figure/equation each
//! one maps to are catalogued in `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use tu_obs::{counter, global, span};
//!
//! {
//!     let _timer = span("compaction"); // records span.compaction.ns on drop
//!     counter("cloud.object.get_requests").add(3);
//! }
//! let snap = global().snapshot();
//! assert_eq!(snap.counter("cloud.object.get_requests"), Some(3));
//! println!("{snap}");
//! ```

mod export;
mod flight;
pub mod health;
pub mod lockdep;
pub mod log;
mod monitor;
mod registry;
mod serve;
mod snapshot;
mod spans;
pub mod trace;

pub use export::{
    chrome_trace_json, parse_prometheus_text, prometheus_name, prometheus_text, PromHistogram,
    PromParsed,
};
pub use flight::{flight, FlightEvent, FlightPhase, FlightRecorder};
pub use health::{Health, HealthCheck, HealthReport, HealthSource};
pub use monitor::{Monitor, MonitorOptions, SpanQuantiles, TierRates, Vitals};
pub use registry::{
    bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry, BUCKETS,
};
pub use serve::{Endpoint, ObsServer, ServeSources};
pub use snapshot::MetricsSnapshot;
pub use spans::{span, span_of, SpanTimer, Stopwatch};
pub use trace::{traced, SpanDelta, TraceContext, TraceHandle, TraceSummary, TracedCounter};

/// The process-wide default registry every instrumented crate records to.
pub fn global() -> &'static Registry {
    registry::global()
}

/// Shorthand for [`Registry::counter`] on the [`global`] registry.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Shorthand for [`Registry::gauge`] on the [`global`] registry.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Shorthand for [`Registry::histogram`] on the [`global`] registry.
pub fn histogram(name: &str) -> &'static Histogram {
    global().histogram(name)
}

/// Starts an RAII span timer recording `span.<name>.ns` in the [`global`]
/// registry when dropped.
///
/// ```
/// let _guard = tu_obs::span!("flush");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

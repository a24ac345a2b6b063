//! A fixed-capacity flight recorder of structured trace events.
//!
//! The recorder is a ring buffer of begin/end/instant/complete events,
//! disabled by default. The fast path is one relaxed atomic load
//! ([`FlightRecorder::is_enabled`]); only when a harness has enabled
//! recording does an event take the ring mutex. The ring overwrites the
//! oldest events when full (counting drops), so a long run keeps the most
//! recent window — drain it on demand and feed it to
//! [`crate::export::chrome_trace_json`] for a chrome://tracing timeline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::lockdep::{self, Mutex};
use std::time::Instant;

use crate::registry::Gauge;

/// How an event marks time, mapping onto chrome `trace_event` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightPhase {
    /// Start of an interval (`ph:"B"`).
    Begin,
    /// End of an interval (`ph:"E"`).
    End,
    /// A point event (`ph:"i"`).
    Instant,
    /// A complete interval with a duration (`ph:"X"`).
    Complete,
}

impl FlightPhase {
    /// The chrome `trace_event` phase character.
    pub fn chrome_ph(&self) -> char {
        match self {
            FlightPhase::Begin => 'B',
            FlightPhase::End => 'E',
            FlightPhase::Instant => 'i',
            FlightPhase::Complete => 'X',
        }
    }
}

/// One recorded event. Timestamps are microseconds since the recorder was
/// enabled (chrome traces are denominated in µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (total order of recording).
    pub seq: u64,
    /// Event name (span name or caller-chosen label).
    pub name: String,
    pub phase: FlightPhase,
    /// Microseconds since enable.
    pub ts_us: u64,
    /// Duration in microseconds; only meaningful for [`FlightPhase::Complete`].
    pub dur_us: u64,
    /// Innermost active trace context id at record time, 0 when none.
    pub trace_id: u64,
    /// Operation label of that context, empty when none.
    pub op: String,
    /// Small per-thread id (first-use order, not an OS tid).
    pub tid: u64,
}

struct Ring {
    buf: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
    epoch: Option<Instant>,
}

/// The recorder. One global instance lives behind [`flight`].
pub struct FlightRecorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    ring: Mutex<Ring>,
    /// Mirrors `Ring::dropped` into the registry as
    /// `obs.flight.dropped_events`, so ring overflow shows up in /metrics
    /// instead of only via [`FlightRecorder::dropped`]. A gauge, not a
    /// counter: it resets with each [`FlightRecorder::enable`].
    dropped_gauge: &'static Gauge,
}

/// The process-wide flight recorder.
pub fn flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder {
        enabled: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        ring: Mutex::new(
            &lockdep::OBS_FLIGHT_RING,
            Ring {
                buf: VecDeque::new(),
                capacity: 0,
                dropped: 0,
                epoch: None,
            },
        ),
        dropped_gauge: crate::gauge("obs.flight.dropped_events"),
    })
}

/// Small dense thread ids for trace rows (chrome groups events by tid).
fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl FlightRecorder {
    /// Starts recording with room for `capacity` events (clamped to ≥ 16),
    /// clearing anything from a previous enablement and restarting the
    /// event clock.
    pub fn enable(&self, capacity: usize) {
        let mut ring = self.ring.lock();
        ring.buf.clear();
        ring.capacity = capacity.max(16);
        ring.dropped = 0;
        self.dropped_gauge.set(0);
        ring.epoch = Some(Instant::now());
        self.seq.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording; buffered events stay drainable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// One relaxed load — the no-op fast path every instrumentation site
    /// checks before building an event.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Records the start of an interval named `name`.
    pub fn begin(&self, name: &str) {
        self.record(name, FlightPhase::Begin, None, 0);
    }

    /// Records the end of an interval named `name`.
    pub fn end(&self, name: &str) {
        self.record(name, FlightPhase::End, None, 0);
    }

    /// Records a point event.
    pub fn instant(&self, name: &str) {
        self.record(name, FlightPhase::Instant, None, 0);
    }

    /// Records a complete interval that started at `start` and lasted
    /// `dur_ns` (span drops use this: one event instead of a B/E pair).
    pub fn complete(&self, name: &str, start: Instant, dur_ns: u64) {
        self.record(name, FlightPhase::Complete, Some(start), dur_ns / 1_000);
    }

    fn record(&self, name: &str, phase: FlightPhase, start: Option<Instant>, dur_us: u64) {
        if !self.is_enabled() {
            return;
        }
        let (trace_id, op) = crate::trace::current_id_op().unwrap_or((0, String::new()));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tid = tid();
        let mut ring = self.ring.lock();
        let Some(epoch) = ring.epoch else { return };
        let at = start.unwrap_or_else(Instant::now);
        let ts_us = at.saturating_duration_since(epoch).as_micros() as u64;
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
            self.dropped_gauge.set(ring.dropped as i64);
        }
        ring.buf.push_back(FlightEvent {
            seq,
            name: name.to_string(),
            phase,
            ts_us,
            dur_us,
            trace_id,
            op,
            tid,
        });
    }

    /// Removes and returns every buffered event, oldest first.
    pub fn drain(&self) -> Vec<FlightEvent> {
        let mut ring = self.ring.lock();
        ring.buf.drain(..).collect()
    }

    /// Copies every buffered event, oldest first, leaving the ring
    /// intact — a non-destructive read for human scrapes (`/flight?peek=1`)
    /// that must not race the exporter out of its events.
    pub fn peek(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock();
        ring.buf.iter().cloned().collect()
    }

    /// Number of events overwritten since enable (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serializes tests (across modules) that mutate the global recorder.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is global state shared by every test in this binary, so
    // all flight tests live in this one serialized function, under the
    // cross-module lock (the serve tests drain the recorder too).
    #[test]
    fn recorder_lifecycle() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = flight();

        // Disabled: recording is a no-op.
        assert!(!f.is_enabled());
        f.instant("ignored");
        assert!(f.is_empty());

        // Enabled: events buffer in order with phases and tids.
        f.enable(64);
        f.begin("op.a");
        f.instant("tick");
        f.end("op.a");
        f.complete("op.b", Instant::now(), 2_500);
        let events = f.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].phase, FlightPhase::Begin);
        assert_eq!(events[1].phase, FlightPhase::Instant);
        assert_eq!(events[2].phase, FlightPhase::End);
        assert_eq!(events[3].phase, FlightPhase::Complete);
        assert_eq!(events[3].dur_us, 2);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.iter().all(|e| e.tid > 0));
        // No trace context was active.
        assert!(events.iter().all(|e| e.trace_id == 0 && e.op.is_empty()));
        assert!(f.is_empty());

        // Ring overflow keeps the newest events and counts drops.
        f.enable(16);
        for i in 0..40 {
            f.instant(&format!("e{i}"));
        }
        assert_eq!(f.len(), 16);
        assert_eq!(f.dropped(), 24);
        // Overflow is mirrored into the registry so /metrics shows it.
        assert_eq!(
            crate::global()
                .snapshot()
                .gauge("obs.flight.dropped_events"),
            Some(24)
        );
        let tail = f.drain();
        assert_eq!(tail.first().unwrap().name, "e24");
        assert_eq!(tail.last().unwrap().name, "e39");

        // Events inherit the innermost trace context's id and label.
        f.enable(16);
        // Re-enabling resets the overflow gauge along with the ring.
        assert_eq!(
            crate::global()
                .snapshot()
                .gauge("obs.flight.dropped_events"),
            Some(0)
        );
        {
            let ctx = crate::trace::TraceContext::start("flight-test");
            f.instant("inside");
            let id = ctx.id();
            let events = f.drain();
            assert_eq!(events[0].trace_id, id);
            assert_eq!(events[0].op, "flight-test");
        }

        // Peek copies without draining; a following drain still sees all.
        f.enable(16);
        f.instant("peeked");
        let peeked = f.peek();
        assert_eq!(peeked.len(), 1);
        assert_eq!(peeked[0].name, "peeked");
        assert_eq!(f.len(), 1, "peek leaves the ring intact");
        assert_eq!(f.peek(), f.drain(), "peek and drain see the same events");
        assert!(f.is_empty());

        f.disable();
        f.instant("after-disable");
        assert!(f.is_empty());
    }
}

//! A leveled, rate-limited, structured event log.
//!
//! Counters answer "how much"; events answer "what happened". This module
//! is the diagnostics channel for the engine crates: one JSON object per
//! line, written to stderr (default), a file, or an in-memory buffer for
//! tests. Events carry the innermost active [`crate::TraceContext`] id, so
//! a warning in a log file can be joined against the flight recorder's
//! timeline for the same operation.
//!
//! Design constraints, in order:
//!
//! * **Cheap when quiet.** The level check is one relaxed atomic load; a
//!   filtered-out event allocates nothing. The default level is `Warn`, so
//!   instrumented hot-ish paths (flush, compaction) cost only that load.
//! * **Bounded when loud.** Each target gets a token window
//!   (`max_per_window` events per `window_ms`); excess events are counted,
//!   not written, and the first event of the next window reports how many
//!   were suppressed. A compaction storm cannot turn the log into the
//!   bottleneck. Emission and suppression are visible as the
//!   `obs.log.emitted` / `obs.log.suppressed` counters.
//! * **Machine-first.** Output is JSON lines with a fixed envelope
//!   (`ts_ms`, `level`, `target`, `msg`, optional `trace`/`op`,
//!   `fields`); values are typed, keys are escaped.
//!
//! ```
//! use tu_obs::log::{self, Level};
//! log::log().set_sink_memory();
//! log::log().set_level(Some(Level::Info));
//! log::info("doc.example", "flushed", &[("tables", 3u64.into())]);
//! let lines = log::log().drain_memory();
//! assert!(lines.last().unwrap().contains("\"target\":\"doc.example\""));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lockdep::{self, Mutex};

use crate::registry::Counter;
use crate::snapshot::escape;

/// Event severity, ordered. `Off` disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses `debug|info|warn|error|off` (case-insensitive); `None` means
    /// off, and unknown strings fall back to `Warn`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            "off" | "none" => None,
            _ => Some(Level::Warn),
        }
    }
}

/// A typed field value. Numbers render unquoted; strings are escaped.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&format!("{v:.3}")),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                out.push_str(escape(s).as_ref());
                out.push('"');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

/// Where emitted lines go.
enum Sink {
    Stderr,
    File(std::io::BufWriter<std::fs::File>),
    /// Test sink: lines buffer in memory and are read back with
    /// [`EventLog::drain_memory`].
    Memory(Vec<String>),
}

/// Per-target token window for rate limiting.
struct RateWindow {
    window_start_ms: i64,
    emitted_in_window: u64,
    suppressed_in_window: u64,
}

struct LogInner {
    sink: Sink,
    windows: HashMap<String, RateWindow>,
    max_per_window: u64,
    window_ms: i64,
    now_ms: Arc<dyn Fn() -> i64 + Send + Sync>,
}

/// The event log. One global instance lives behind [`log`].
pub struct EventLog {
    /// `Level as u8`, or [`LEVEL_OFF`] when disabled. The fast path is one
    /// relaxed load against this.
    min_level: AtomicU8,
    inner: Mutex<LogInner>,
    emitted: &'static Counter,
    suppressed: &'static Counter,
}

const LEVEL_OFF: u8 = u8::MAX;

/// Milliseconds since an arbitrary process-local epoch; the default event
/// timestamp and rate-limit clock when no virtual clock is installed.
fn process_ms() -> i64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_millis().min(i64::MAX as u128) as i64
}

/// The process-wide event log.
///
/// Defaults: level `Warn` (override with the `TU_LOG` environment
/// variable: `debug|info|warn|error|off`), sink stderr (override with
/// `TU_LOG_FILE=<path>`), 32 events per target per second.
pub fn log() -> &'static EventLog {
    static GLOBAL: OnceLock<EventLog> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let level = match std::env::var("TU_LOG") {
            Ok(v) => Level::parse(&v),
            Err(_) => Some(Level::Warn),
        };
        let sink = match std::env::var("TU_LOG_FILE") {
            Ok(path) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map(|f| Sink::File(std::io::BufWriter::new(f)))
                .unwrap_or(Sink::Stderr),
            Err(_) => Sink::Stderr,
        };
        EventLog {
            min_level: AtomicU8::new(level.map_or(LEVEL_OFF, |l| l as u8)),
            inner: Mutex::new(
                &lockdep::OBS_LOG_INNER,
                LogInner {
                    sink,
                    windows: HashMap::new(),
                    max_per_window: 32,
                    window_ms: 1_000,
                    now_ms: Arc::new(process_ms),
                },
            ),
            emitted: crate::counter("obs.log.emitted"),
            suppressed: crate::counter("obs.log.suppressed"),
        }
    })
}

impl EventLog {
    /// True when an event at `level` would be written (the one-atomic-load
    /// fast path; call before building expensive fields).
    pub fn enabled(&self, level: Level) -> bool {
        level as u8 >= self.min_level.load(Ordering::Relaxed)
    }

    /// Sets the minimum level; `None` disables the log entirely.
    pub fn set_level(&self, level: Option<Level>) {
        self.min_level
            .store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
    }

    /// The current minimum level, `None` when off.
    pub fn level(&self) -> Option<Level> {
        match self.min_level.load(Ordering::Relaxed) {
            0 => Some(Level::Debug),
            1 => Some(Level::Info),
            2 => Some(Level::Warn),
            3 => Some(Level::Error),
            _ => None,
        }
    }

    /// Routes events to stderr (the default).
    pub fn set_sink_stderr(&self) {
        self.lock_inner().sink = Sink::Stderr;
    }

    /// Routes events to `path`, appending.
    pub fn set_sink_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        self.lock_inner().sink = Sink::File(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Routes events to an in-memory buffer ([`EventLog::drain_memory`]).
    pub fn set_sink_memory(&self) {
        self.lock_inner().sink = Sink::Memory(Vec::new());
    }

    /// Removes and returns buffered lines (memory sink only).
    pub fn drain_memory(&self) -> Vec<String> {
        match &mut self.lock_inner().sink {
            Sink::Memory(lines) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }

    /// Reconfigures rate limiting: at most `max_per_window` events per
    /// target per `window_ms` (both clamped to ≥ 1). Existing windows
    /// reset on the next event.
    pub fn set_rate_limit(&self, max_per_window: u64, window_ms: i64) {
        let mut inner = self.lock_inner();
        inner.max_per_window = max_per_window.max(1);
        inner.window_ms = window_ms.max(1);
        inner.windows.clear();
    }

    /// Installs the clock used for event timestamps and rate-limit
    /// windows. Engines pass their `tu_common::clock` here so simulated
    /// runs produce simulated-time logs.
    pub fn set_time_source(&self, now_ms: Arc<dyn Fn() -> i64 + Send + Sync>) {
        self.lock_inner().now_ms = now_ms;
    }

    fn lock_inner(&self) -> lockdep::MutexGuard<'_, LogInner> {
        // Poison recovery now lives in the lockdep wrapper; a panic while
        // holding the short critical sections below cannot leave the
        // state inconsistent.
        self.inner.lock()
    }

    /// Emits one event. Prefer the level shorthands ([`info`], [`warn`],
    /// …) on the global log.
    pub fn event(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let trace = crate::trace::current_id_op();
        let mut inner = self.lock_inner();
        let now = (inner.now_ms)();
        let window_ms = inner.window_ms;
        let max = inner.max_per_window;
        let window = inner
            .windows
            .entry(target.to_string())
            .or_insert(RateWindow {
                window_start_ms: now,
                emitted_in_window: 0,
                suppressed_in_window: 0,
            });
        let mut suppressed_prev = 0;
        if now.saturating_sub(window.window_start_ms) >= window_ms {
            suppressed_prev = window.suppressed_in_window;
            window.window_start_ms = now;
            window.emitted_in_window = 0;
            window.suppressed_in_window = 0;
        }
        if window.emitted_in_window >= max {
            window.suppressed_in_window += 1;
            self.suppressed.inc();
            return;
        }
        window.emitted_in_window += 1;
        self.emitted.inc();

        let mut line = String::with_capacity(128);
        line.push_str(&format!(
            "{{\"ts_ms\":{now},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
            level.as_str(),
            escape(target),
            escape(msg)
        ));
        if let Some((id, op)) = trace {
            line.push_str(&format!(",\"trace\":{id},\"op\":\"{}\"", escape(&op)));
        }
        if suppressed_prev > 0 {
            line.push_str(&format!(",\"suppressed\":{suppressed_prev}"));
        }
        if !fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                line.push_str(escape(k).as_ref());
                line.push_str("\":");
                v.render(&mut line);
            }
            line.push('}');
        }
        line.push('}');

        match &mut inner.sink {
            Sink::Stderr => {
                let _ = writeln!(std::io::stderr().lock(), "{line}");
            }
            Sink::File(f) => {
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
            Sink::Memory(lines) => lines.push(line),
        }
    }
}

/// Emits a debug event on the global log.
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log().event(Level::Debug, target, msg, fields);
}

/// Emits an info event on the global log.
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log().event(Level::Info, target, msg, fields);
}

/// Emits a warn event on the global log.
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log().event(Level::Warn, target, msg, fields);
}

/// Emits an error event on the global log.
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log().event(Level::Error, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    // The log is global state shared by every test in this binary, so all
    // log tests live in this one serialized function (the flight recorder
    // tests use the same pattern).
    #[test]
    fn event_log_lifecycle() {
        let l = log();
        l.set_sink_memory();
        l.set_level(Some(Level::Info));

        // Shape: envelope keys, typed fields, escaping.
        info(
            "test.shape",
            "hello \"world\"",
            &[
                ("count", 7u64.into()),
                ("ratio", 0.5f64.into()),
                ("ok", true.into()),
                ("name", "a\\b".into()),
            ],
        );
        let lines = l.drain_memory();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"target\":\"test.shape\""));
        assert!(line.contains("\"msg\":\"hello \\\"world\\\"\""));
        assert!(line.contains("\"count\":7"));
        assert!(line.contains("\"ratio\":0.500"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"name\":\"a\\\\b\""));
        assert_eq!(line.matches('{').count(), line.matches('}').count());

        // Level filtering: debug is below info.
        debug("test.level", "dropped", &[]);
        assert!(l.drain_memory().is_empty());
        assert!(!l.enabled(Level::Debug));
        assert!(l.enabled(Level::Error));

        // Off drops everything.
        l.set_level(None);
        error("test.level", "dropped", &[]);
        assert!(l.drain_memory().is_empty());
        l.set_level(Some(Level::Info));

        // Trace correlation: events inside a context carry its id and op.
        {
            let ctx = crate::TraceContext::start("log-test");
            info("test.trace", "inside", &[]);
            let lines = l.drain_memory();
            assert!(lines[0].contains(&format!("\"trace\":{}", ctx.id())));
            assert!(lines[0].contains("\"op\":\"log-test\""));
        }

        // Rate limiting under a manual clock: 2 events per 1000 ms window,
        // then suppression, then a new window reporting the drops.
        let clock = Arc::new(AtomicI64::new(0));
        let c = clock.clone();
        l.set_time_source(Arc::new(move || c.load(Ordering::Relaxed)));
        l.set_rate_limit(2, 1_000);
        for _ in 0..5 {
            info("test.rate", "burst", &[]);
        }
        assert_eq!(l.drain_memory().len(), 2, "window caps at 2");
        clock.store(1_000, Ordering::Relaxed);
        info("test.rate", "next window", &[]);
        let lines = l.drain_memory();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("\"suppressed\":3"),
            "first event of the new window reports drops: {}",
            lines[0]
        );
        // Other targets are unaffected by test.rate's window.
        info("test.other", "independent", &[]);
        assert_eq!(l.drain_memory().len(), 1);

        // Counters moved.
        assert!(crate::global().snapshot().counter("obs.log.emitted") >= Some(5));
        assert!(crate::global().snapshot().counter("obs.log.suppressed") >= Some(3));

        // Restore defaults for any other test in this binary.
        l.set_rate_limit(32, 1_000);
        l.set_time_source(Arc::new(process_ms));
        l.set_level(Some(Level::Warn));
        l.set_sink_stderr();
    }

    #[test]
    fn level_parse() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("bogus"), Some(Level::Warn));
    }
}

//! A zero-dependency embedded HTTP server for the live endpoints.
//!
//! `std::net::TcpListener`, one accept thread, a small worker pool, and a
//! deliberately tiny HTTP/1.x subset: `GET` only, requests capped at 8 KiB,
//! every response `Connection: close`. That subset is exactly what
//! Prometheus scrapers, Kubernetes probes, and `curl` emit — anything else
//! is answered with a 4xx and the connection dropped, never trusted.
//!
//! | endpoint        | payload |
//! |-----------------|---------|
//! | `/metrics`      | Prometheus text exposition of the global registry |
//! | `/metrics.json` | [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) |
//! | `/flight`       | chrome://tracing JSON **drain** of the flight recorder (`?peek=1` copies without draining) |
//! | `/healthz`      | aggregated [`HealthReport`] JSON; 503 when unhealthy |
//! | `/readyz`       | same report; 503 until ready / after shutdown begins |
//! | `/vitals`       | windowed [`Vitals`](crate::Vitals) JSON from the monitor (`?window=<secs>` picks the delta window) |
//!
//! Embedders register additional routes via [`ServeSources::extra`] (the
//! engine adds `/introspect/lsm` and `/costs`).
//!
//! Shutdown is graceful and bounded: [`ObsServer::shutdown`] flips a flag,
//! nudges the accept loop awake with a loopback connect, and joins every
//! thread before returning.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};

use crate::lockdep::{self, Mutex};
use std::thread;
use std::time::Duration;

use crate::health::HealthSource;
use crate::monitor::Monitor;
use crate::registry::Counter;

/// Largest request we read before answering 400: callers are scrapers
/// sending one short GET line plus a handful of headers.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout; a stalled scraper cannot pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
const WORKERS: usize = 2;

/// A caller-registered endpoint: the handler runs per request and returns
/// `(content_type, body)`.
pub struct Endpoint {
    /// Absolute path the endpoint answers on (e.g. `/costs`).
    pub path: String,
    /// Per-request handler (must be cheap and never block on I/O).
    pub handler: Arc<dyn Fn() -> (String, String) + Send + Sync>,
}

impl Endpoint {
    /// An endpoint at `path` answering 200 with `handler`'s
    /// `(content_type, body)`; any query string is ignored.
    pub fn new(
        path: impl Into<String>,
        handler: impl Fn() -> (String, String) + Send + Sync + 'static,
    ) -> Endpoint {
        Endpoint {
            path: path.into(),
            handler: Arc::new(handler),
        }
    }
}

/// The value of `key` in a `k=v&k2=v2` query string, undecoded.
pub(crate) fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// What the endpoints serve. [`ObsServer::bind`] snapshots/drains the
/// global registry and flight recorder on each request; health, vitals,
/// and any extra endpoints come from here.
pub struct ServeSources {
    /// Called per `/healthz` / `/readyz` request (must be cheap).
    pub health: HealthSource,
    /// Backs `/vitals`; `None` answers a `warming-up` placeholder.
    pub monitor: Option<Arc<Monitor>>,
    /// Additional endpoints (the engine registers `/introspect/lsm` and
    /// `/costs` here). Built-in paths win on conflict; extras are matched
    /// in registration order.
    pub extra: Vec<Endpoint>,
}

impl ServeSources {
    /// Always-ok health and no monitor — the minimal sources for a
    /// harness that only wants `/metrics`.
    pub fn always_ok() -> ServeSources {
        ServeSources {
            health: Arc::new(crate::health::HealthReport::ok),
            monitor: None,
            extra: Vec::new(),
        }
    }
}

/// The running server. Dropping it shuts it down.
pub struct ObsServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

struct Shared {
    sources: ServeSources,
    shutdown: Arc<AtomicBool>,
    requests: &'static Counter,
    bad_requests: &'static Counter,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port —
    /// read it back from [`ObsServer::local_addr`]) and starts serving.
    pub fn bind(addr: impl ToSocketAddrs, sources: ServeSources) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            sources,
            shutdown: Arc::clone(&shutdown),
            requests: crate::counter("obs.http.requests"),
            bad_requests: crate::counter("obs.http.bad_requests"),
        });

        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
        let rx = Arc::new(Mutex::new(&lockdep::OBS_SERVE_RX, rx));
        let mut threads = Vec::with_capacity(WORKERS + 1);
        for i in 0..WORKERS {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("tu-obs-http-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while waiting for a
                        // connection, not while serving it.
                        let conn = rx.lock().recv();
                        match conn {
                            Ok(stream) => handle_connection(stream, &shared),
                            Err(_) => return, // accept loop hung up
                        }
                    })?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("tu-obs-http-accept".to_string())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if shared.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            if let Ok(stream) = stream {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                        }
                        // Dropping tx here disconnects the workers.
                    })?,
            );
        }
        Ok(ObsServer {
            local_addr,
            shutdown,
            threads: Mutex::new(&lockdep::OBS_SERVE_THREADS, threads),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, finishes in-flight responses, joins every thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop blocks in `incoming()`; a throwaway loopback
        // connection wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads until the end of the request head (`\r\n\r\n`), the size cap, a
/// timeout, or EOF. Returns what was read; the caller judges validity.
fn read_request_head(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while buf.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    buf
}

/// Strict parse of the request line: exactly `GET <path> HTTP/1.x`.
/// Returns `(path, query)` — the query string is `""` when absent.
/// `Err(status)` carries the 4xx to answer with.
fn parse_request_line(head: &[u8]) -> Result<(String, String), (u16, &'static str)> {
    if head.len() >= MAX_REQUEST_BYTES {
        return Err((400, "Bad Request"));
    }
    let line_end = head
        .iter()
        .position(|&b| b == b'\n')
        .ok_or((400, "Bad Request"))?;
    let line = std::str::from_utf8(&head[..line_end])
        .map_err(|_| (400, "Bad Request"))?
        .trim_end_matches('\r');
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err((400, "Bad Request")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err((400, "Bad Request"));
    }
    if method != "GET" {
        return Err((405, "Method Not Allowed"));
    }
    if !target.starts_with('/') {
        return Err((400, "Bad Request"));
    }
    // Scrapers append query strings (`/metrics?format=...`); split them
    // off so plain routes ignore them and query-aware ones can opt in.
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok((path.to_string(), query.to_string()))
}

fn write_response(stream: &mut TcpStream, status: u16, reason: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = read_request_head(&mut stream);
    if head.is_empty() {
        // The shutdown nudge and port scanners land here; nothing to answer.
        return;
    }
    shared.requests.inc();
    let (path, query) = match parse_request_line(&head) {
        Ok(parts) => parts,
        Err((status, reason)) => {
            shared.bad_requests.inc();
            write_response(&mut stream, status, reason, "text/plain", reason);
            return;
        }
    };
    const JSON: &str = "application/json";
    match path.as_str() {
        "/" => {
            let mut body = String::from(
                "tu-obs live endpoints: /metrics /metrics.json /flight /healthz /readyz /vitals",
            );
            for e in &shared.sources.extra {
                body.push(' ');
                body.push_str(&e.path);
            }
            body.push('\n');
            write_response(&mut stream, 200, "OK", "text/plain", &body);
        }
        "/metrics" => {
            let body = crate::prometheus_text(&crate::global().snapshot());
            write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/metrics.json" => {
            write_response(
                &mut stream,
                200,
                "OK",
                JSON,
                &crate::global().snapshot().to_json(),
            );
        }
        "/flight" => {
            // `?peek=1` copies the ring without draining it, so a human
            // scrape cannot race the chrome-trace exporter out of events.
            let events = if query_param(&query, "peek") == Some("1") {
                crate::flight().peek()
            } else {
                crate::flight().drain()
            };
            let body = crate::chrome_trace_json(&events);
            write_response(&mut stream, 200, "OK", JSON, &body);
        }
        "/healthz" => {
            let report = (shared.sources.health)();
            let (status, reason) = if report.healthy() {
                (200, "OK")
            } else {
                (503, "Service Unavailable")
            };
            write_response(&mut stream, status, reason, JSON, &report.to_json());
        }
        "/readyz" => {
            let report = (shared.sources.health)();
            let (status, reason) = if report.ready {
                (200, "OK")
            } else {
                (503, "Service Unavailable")
            };
            write_response(&mut stream, status, reason, JSON, &report.to_json());
        }
        "/vitals" => {
            // `?window=<secs>` picks how far back in the snapshot ring to
            // delta from; default (and any unparsable value) stays the
            // full-ring window, clamped to ring capacity either way.
            let window_ms = query_param(&query, "window")
                .and_then(|v| v.parse::<i64>().ok())
                .filter(|&s| s > 0)
                .map(|s| s.saturating_mul(1_000));
            let body = shared
                .sources
                .monitor
                .as_ref()
                .and_then(|m| match window_ms {
                    Some(w) => m.vitals_window(w),
                    None => m.vitals(),
                })
                .map(|v| v.to_json())
                .unwrap_or_else(|| "{\"status\":\"warming-up\"}".to_string());
            write_response(&mut stream, 200, "OK", JSON, &body);
        }
        _ => {
            match shared
                .sources
                .extra
                .iter()
                .find(|e| e.path == path.as_str())
            {
                Some(e) => {
                    let (ctype, body) = (e.handler)();
                    write_response(&mut stream, 200, "OK", &ctype, &body);
                }
                None => write_response(&mut stream, 404, "Not Found", "text/plain", "Not Found"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{Health, HealthCheck, HealthReport};

    /// Raw HTTP client: sends `request` bytes, returns the full response.
    fn roundtrip(addr: SocketAddr, request: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(request).expect("write");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        roundtrip(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
    }

    fn status_of(response: &str) -> u16 {
        response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line")
    }

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn serves_every_endpoint() {
        crate::counter("servetest.requests").add(3);
        let health = Arc::new(std::sync::Mutex::new(HealthReport::ok()));
        let h = Arc::clone(&health);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            ServeSources {
                health: Arc::new(move || h.lock().unwrap().clone()),
                monitor: None,
                extra: vec![Endpoint::new("/custom", || {
                    ("application/json".to_string(), "{\"ok\":true}".to_string())
                })],
            },
        )
        .expect("bind");
        let addr = server.local_addr();

        // / lists the endpoints, including registered extras.
        let index = get(addr, "/");
        assert_eq!(status_of(&index), 200);
        assert!(body_of(&index).contains("/metrics"));
        assert!(body_of(&index).contains("/custom"));

        // Extra endpoints answer with their handler's content.
        let custom = get(addr, "/custom");
        assert_eq!(status_of(&custom), 200);
        assert!(custom.contains("Content-Type: application/json"));
        assert_eq!(body_of(&custom), "{\"ok\":true}");

        // /metrics parses with our own validating parser and includes the
        // counter we just bumped.
        let metrics = get(addr, "/metrics");
        assert_eq!(status_of(&metrics), 200);
        assert!(metrics.contains("Content-Type: text/plain"));
        let parsed = crate::parse_prometheus_text(body_of(&metrics)).expect("valid exposition");
        assert_eq!(parsed.counters.get("servetest_requests"), Some(&3u64));

        // /metrics.json is the snapshot encoding.
        let json = get(addr, "/metrics.json");
        assert_eq!(status_of(&json), 200);
        assert!(body_of(&json).starts_with("{\"counters\":{"));
        assert!(body_of(&json).contains("\"servetest.requests\":3"));

        // /flight drains the recorder (under the cross-module lock — the
        // recorder is process-global and flight.rs tests use it too), and
        // ?peek=1 reads without draining.
        {
            let _guard = crate::flight::TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            crate::flight().enable(32);
            crate::flight().instant("servetest.event");
            let peeked = get(addr, "/flight?peek=1");
            assert_eq!(status_of(&peeked), 200);
            assert!(body_of(&peeked).contains("servetest.event"));
            assert!(!crate::flight().is_empty(), "peek leaves the ring intact");
            let flight = get(addr, "/flight");
            assert_eq!(status_of(&flight), 200);
            assert!(body_of(&flight).contains("servetest.event"));
            assert!(crate::flight().is_empty(), "drained by the request");
            crate::flight().disable();
        }

        // Query strings are ignored by plain routes and by extras.
        assert_eq!(status_of(&get(addr, "/metrics?format=prometheus")), 200);
        assert_eq!(body_of(&get(addr, "/custom?x=1")), "{\"ok\":true}");

        // /healthz + /readyz follow the live source: flip it and re-probe.
        assert_eq!(status_of(&get(addr, "/healthz")), 200);
        assert_eq!(status_of(&get(addr, "/readyz")), 200);
        {
            let mut r = health.lock().unwrap();
            r.ready = false;
            r.checks
                .push(HealthCheck::new("wal", Health::Unhealthy, "read-only fs"));
        }
        let unhealthy = get(addr, "/healthz");
        assert_eq!(status_of(&unhealthy), 503);
        assert!(body_of(&unhealthy).contains("read-only fs"));
        assert_eq!(status_of(&get(addr, "/readyz")), 503);

        // /vitals without a monitor answers the warming-up placeholder.
        let vitals = get(addr, "/vitals");
        assert_eq!(status_of(&vitals), 200);
        assert!(body_of(&vitals).contains("warming-up"));

        // Unknown path.
        assert_eq!(status_of(&get(addr, "/nope")), 404);

        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
                || get(addr, "/metrics").is_empty(),
            "no longer serving after shutdown"
        );
    }

    #[test]
    fn vitals_endpoint_reports_monitor_rates() {
        let monitor = Arc::new(Monitor::new(crate::MonitorOptions {
            capacity: 4,
            now_ms: Some({
                let t = Arc::new(std::sync::atomic::AtomicI64::new(0));
                Arc::new(move || t.fetch_add(1_000, Ordering::Relaxed))
            }),
            ..Default::default()
        }));
        monitor.sample();
        crate::counter("core.ingest.samples").add(2_000);
        monitor.sample();
        let server = ObsServer::bind(
            "127.0.0.1:0",
            ServeSources {
                health: Arc::new(HealthReport::ok),
                monitor: Some(monitor),
                extra: Vec::new(),
            },
        )
        .expect("bind");
        let vitals = get(server.local_addr(), "/vitals");
        assert_eq!(status_of(&vitals), 200);
        let body = body_of(&vitals);
        assert!(body.contains("\"window_ms\":1000"), "{body}");
        assert!(body.contains("\"ingest_samples_per_s\":"));
        server.shutdown();
    }

    #[test]
    fn rejects_malformed_requests_and_stays_up() {
        let server = ObsServer::bind("127.0.0.1:0", ServeSources::always_ok()).expect("bind");
        let addr = server.local_addr();
        let bad_before = crate::global()
            .snapshot()
            .counter("obs.http.bad_requests")
            .unwrap_or(0);

        // Wrong method.
        let post = roundtrip(addr, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&post), 405);
        // Garbage request lines.
        assert_eq!(status_of(&roundtrip(addr, b"NONSENSE\r\n\r\n")), 400);
        assert_eq!(
            status_of(&roundtrip(addr, b"GET /metrics SMTP/9\r\n\r\n")),
            400
        );
        assert_eq!(
            status_of(&roundtrip(addr, b"GET /a b HTTP/1.1\r\n\r\n")),
            400,
            "extra request-line token"
        );
        assert_eq!(
            status_of(&roundtrip(addr, b"GET metrics HTTP/1.1\r\n\r\n")),
            400,
            "path must be absolute"
        );
        assert_eq!(
            status_of(&roundtrip(addr, b"\xff\xfe\x00garbage\n\n")),
            400,
            "non-utf8 head"
        );
        // Oversized request line (no header terminator within the cap).
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 100];
        assert_eq!(status_of(&roundtrip(addr, &huge)), 400);

        let bad_after = crate::global()
            .snapshot()
            .counter("obs.http.bad_requests")
            .unwrap_or(0);
        assert!(bad_after >= bad_before + 7, "every rejection counted");

        // The server survived all of it.
        assert_eq!(status_of(&get(addr, "/healthz")), 200);
        server.shutdown();
    }
}

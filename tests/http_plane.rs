//! The live observability plane, end to end: a real engine serving
//! `/metrics`, `/healthz`, `/readyz`, and `/vitals` over its embedded
//! HTTP server while ingest runs against it.
//!
//! Each test opens its own engine on `127.0.0.1:0` (a fresh free port),
//! so the tests parallelize without port clashes. The `tu-obs` registry
//! is process-global and shared across the tests in this binary, so
//! assertions on shared metric names are lower bounds / monotonicity,
//! never exact equalities.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;
use tu_common::clock::SimClock;

fn opts() -> Options {
    Options {
        chunk_samples: 8,
        latency: LatencyMode::Off,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

fn open_serving(dir: &std::path::Path, opts: Options) -> (Arc<TimeUnion>, SocketAddr) {
    let db = Arc::new(TimeUnion::open(dir, opts).unwrap());
    let addr = db.start_serving("127.0.0.1:0").unwrap();
    (db, addr)
}

/// Minimal HTTP/1.0-style client: one request, read to EOF (the server
/// always answers `Connection: close`). Returns the raw response.
fn raw_request(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).unwrap();
    // Read errors are tolerated: a server rejecting an oversized request
    // closes with unread input still buffered, which surfaces client-side
    // as a connection reset after (usually) delivering the response.
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn get(addr: SocketAddr, path: &str) -> String {
    raw_request(addr, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
}

fn status_of(response: &str) -> u32 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

#[test]
fn concurrent_scrapes_during_ingest_always_parse() {
    let dir = tempfile::tempdir().unwrap();
    let (db, addr) = open_serving(dir.path(), opts());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ingester = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let labels = Labels::from_pairs([("metric", "scrape_load"), ("host", "h1")]);
            let id = db.put(&labels, 0, 0.0).unwrap();
            let mut t = 1i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.put_by_id(id, t * 1_000, t as f64).unwrap();
                t += 1;
            }
            t
        })
    };

    // Several scraper threads hammer the plane while ingest runs. Every
    // single response must be a valid Prometheus exposition, and the
    // counters each thread sees must be monotone across its scrapes.
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut last_ingested = 0u64;
                let mut last_requests = 0u64;
                for _ in 0..10 {
                    let response = get(addr, "/metrics");
                    assert_eq!(status_of(&response), 200, "{response:?}");
                    let parsed = timeunion::obs::parse_prometheus_text(body_of(&response))
                        .expect("every scrape under load parses");
                    let ingested = parsed.counters["core_ingest_samples"];
                    let requests = parsed.counters["obs_http_requests"];
                    assert!(ingested >= last_ingested, "counter went backwards");
                    assert!(requests >= last_requests, "counter went backwards");
                    last_ingested = ingested;
                    last_requests = requests;
                }
                last_ingested
            })
        })
        .collect();
    for scraper in scrapers {
        assert!(scraper.join().unwrap() > 0, "scrapes saw live ingest");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(ingester.join().unwrap() > 1);

    // The JSON twin and the index serve too.
    let json = get(addr, "/metrics.json");
    assert_eq!(status_of(&json), 200);
    assert!(body_of(&json).contains("\"counters\""), "{json:?}");
    assert_eq!(status_of(&get(addr, "/")), 200);

    db.stop_serving();
}

#[test]
fn malformed_requests_leave_the_plane_serving() {
    let dir = tempfile::tempdir().unwrap();
    let (db, addr) = open_serving(dir.path(), opts());

    for (request, expected) in [
        (&b"POST /metrics HTTP/1.1\r\n\r\n"[..], 405),
        (&b"NONSENSE\r\n\r\n"[..], 400),
        (&b"GET /metrics SMTP/9\r\n\r\n"[..], 400),
        (&b"GET /metrics HTTP/1.1 extra\r\n\r\n"[..], 400),
        (&b"GET metrics HTTP/1.1\r\n\r\n"[..], 400),
        (&b"\xff\xfe\xfd garbage \xff\r\n\r\n"[..], 400),
    ] {
        let response = raw_request(addr, request);
        assert_eq!(
            status_of(&response),
            expected,
            "{request:?} -> {response:?}"
        );
    }
    // An oversized request head is cut off and rejected. The 400 may be
    // lost to the reset that follows the server's early close — the pinned
    // invariant is that the request is never served and the server stays up.
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 << 10));
    let response = raw_request(addr, huge.as_bytes());
    assert!(
        response.is_empty() || status_of(&response) == 400,
        "{response:?}"
    );

    // None of that brought the server down.
    let response = get(addr, "/healthz");
    assert_eq!(status_of(&response), 200, "{response:?}");
    db.stop_serving();
}

#[test]
fn health_endpoints_flip_with_engine_state() {
    let dir = tempfile::tempdir().unwrap();
    let (db, addr) = open_serving(dir.path(), opts());

    let healthz = get(addr, "/healthz");
    assert_eq!(status_of(&healthz), 200);
    assert!(
        body_of(&healthz).contains("\"status\":\"ok\""),
        "{healthz:?}"
    );
    assert!(body_of(&healthz).contains("\"ready\":true"), "{healthz:?}");
    assert_eq!(status_of(&get(addr, "/readyz")), 200);

    // Draining flips readiness and (via the shutdown check) liveness.
    db.begin_shutdown();
    let healthz = get(addr, "/healthz");
    assert_eq!(status_of(&healthz), 503, "{healthz:?}");
    assert!(body_of(&healthz).contains("\"ready\":false"), "{healthz:?}");
    let readyz = get(addr, "/readyz");
    assert_eq!(status_of(&readyz), 503, "{readyz:?}");

    db.stop_serving();
}

#[test]
fn vitals_report_nonzero_windowed_rates_under_load() {
    let dir = tempfile::tempdir().unwrap();
    let clock = SimClock::new(0);
    let mut o = opts();
    o.clock = Arc::new(clock.clone());
    let (db, addr) = open_serving(dir.path(), o);
    let monitor = db.monitor().expect("serving engine has a monitor");

    // Before two samples exist the endpoint warms up rather than erroring.
    // (The background sampler may already have taken its first sample.)
    monitor.sample();

    let labels = Labels::from_pairs([("metric", "vitals_load"), ("host", "h1")]);
    let id = db.put(&labels, 0, 0.0).unwrap();
    for t in 1..2_000i64 {
        db.put_by_id(id, t * 1_000, t as f64).unwrap();
    }
    db.flush_all().unwrap();
    db.sync().unwrap();
    db.query(&[Selector::exact("metric", "vitals_load")], 0, i64::MAX / 4)
        .unwrap();

    // Ten simulated seconds pass; the window is the oldest→newest span,
    // so the load above lands inside it.
    clock.advance(10_000);
    monitor.sample();

    let vitals = monitor.vitals().expect("two samples -> vitals");
    assert!(vitals.window_ms >= 10_000, "{vitals:?}");
    assert!(vitals.ingest_samples_per_s > 0.0, "{vitals:?}");
    assert!(vitals.queries_per_s > 0.0, "{vitals:?}");
    // flush_all + sync pushed WAL batches and SSTables to the fast tier.
    assert!(vitals.block.put_per_s > 0.0, "{vitals:?}");
    assert!(vitals.wal_flushed_bytes_per_s > 0.0, "{vitals:?}");

    // The endpoint serves the same numbers.
    let response = get(addr, "/vitals");
    assert_eq!(status_of(&response), 200);
    let body = body_of(&response);
    assert!(!body.contains("warming-up"), "{body:?}");
    assert!(body.contains("\"ingest_samples_per_s\":"), "{body:?}");
    assert!(body.contains("\"block\":"), "{body:?}");

    db.stop_serving();
}

//! The storage introspection plane, end to end: the `/costs` pricing vs.
//! the cost-model totals, and the introspection endpoints under load.
//!
//! The metric registry and the `cloud.<tier>.*` gauges are process-global,
//! so every test here takes a file-local lock and compares *deltas* —
//! absolute values belong to whichever test ran first.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;
use tu_cloud::ledger::{self, price_window};
use tu_cloud::pricing::{self, Tier};
use tu_cloud::StorageEnv;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Milliseconds in the 30-day month the GB-month price sheet assumes
/// (mirrors the pricing's internal proration constant).
const MONTH_MS: f64 = 30.0 * 24.0 * 3600.0 * 1000.0;

#[test]
fn ledger_totals_match_storage_stats_dollars() {
    let _g = lock();
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open_unmetered(dir.path()).unwrap();
    // A synthetic sample ring, timestamped the way the monitor stamps it.
    let mut ring = Vec::new();

    let blk0 = env.block.stats();
    let obj0 = env.object.stats();
    ring.push((0, tu_obs::global().snapshot()));

    env.object.put("sst/a", &[1u8; 4096]).unwrap();
    env.object.get("sst/a").unwrap();
    env.block.write_file("wal/w", &[0u8; 512]).unwrap();
    ring.push((60_000, tu_obs::global().snapshot()));
    let used_obj_w1 = env.object.used_bytes();
    let used_blk_w1 = env.block.used_bytes();

    env.object.put("sst/b", &[2u8; 2048]).unwrap();
    env.object.get_range("sst/a", 0, 1024).unwrap();
    env.object.delete("sst/a").unwrap();
    env.block.read_file("wal/w").unwrap();
    ring.push((120_000, tu_obs::global().snapshot()));
    let used_obj_w2 = env.object.used_bytes();
    let used_blk_w2 = env.block.used_bytes();

    let blk = env.block.stats().since(&blk0);
    let obj = env.object.stats().since(&obj0);
    let windows: Vec<_> = ring
        .windows(2)
        .map(|p| price_window(&p[0], &p[1]))
        .collect();
    assert_eq!(windows.len(), 2);
    let totals = ledger::totals(&windows);

    // Integer traffic totals equal the per-store StorageStats deltas.
    assert_eq!(totals[0].tier, "block");
    assert_eq!(totals[0].get_requests, blk.get_requests);
    assert_eq!(totals[0].put_requests, blk.put_requests);
    assert_eq!(totals[0].bytes_read, blk.bytes_read);
    assert_eq!(totals[0].bytes_written, blk.bytes_written);
    assert_eq!(totals[1].tier, "object");
    assert_eq!(totals[1].get_requests, obj.get_requests);
    assert_eq!(totals[1].put_requests, obj.put_requests);
    assert_eq!(totals[1].delete_requests, obj.delete_requests);
    assert_eq!(totals[1].bytes_read, obj.bytes_read);
    assert_eq!(totals[1].bytes_written, obj.bytes_written);
    // ... and the counter deltas between the ring's first and last sample.
    let delta = ring[2].1.since(&ring[0].1);
    for t in &totals {
        let counter = |suffix: &str| {
            let name = format!("cloud.{}.{suffix}", t.tier);
            delta.counter(&name).unwrap_or(0)
        };
        assert_eq!(t.get_requests, counter("get_requests"), "{}", t.tier);
        assert_eq!(t.put_requests, counter("put_requests"), "{}", t.tier);
        assert_eq!(t.delete_requests, counter("delete_requests"), "{}", t.tier);
        assert_eq!(t.bytes_read, counter("bytes_read"), "{}", t.tier);
        assert_eq!(t.bytes_written, counter("bytes_written"), "{}", t.tier);
    }

    // Request-traffic $: Eq. 4/6 applied to those deltas. Block storage
    // bills no per-request cost (Eq. 3) — that asymmetry must survive.
    let expect_obj = pricing::request_cost_usd(Tier::Object, obj.get_requests, obj.put_requests);
    assert!((totals[1].request_usd - expect_obj).abs() < 1e-12);
    assert!(expect_obj > 0.0);
    assert_eq!(totals[0].request_usd, 0.0);

    // Capacity $: each window prorates the tier's end-of-window capacity
    // over its duration (Eq. 3/5).
    let expect_obj_store = (pricing::monthly_cost_usd(Tier::Object, used_obj_w1)
        + pricing::monthly_cost_usd(Tier::Object, used_obj_w2))
        * 60_000.0
        / MONTH_MS;
    assert!((totals[1].storage_usd - expect_obj_store).abs() < 1e-12);
    let expect_blk_store = (pricing::monthly_cost_usd(Tier::Block, used_blk_w1)
        + pricing::monthly_cost_usd(Tier::Block, used_blk_w2))
        * 60_000.0
        / MONTH_MS;
    assert!((totals[0].storage_usd - expect_blk_store).abs() < 1e-12);

    // The JSON rendering carries the same totals.
    let json = ledger::to_json(&windows);
    assert!(json.contains(&format!("\"get_requests\":{}", obj.get_requests)));
    assert!(json.contains("\"totals\":{"));
}

// --- endpoint plumbing (mirrors tests/http_plane.rs) ------------------------

fn open_serving(dir: &std::path::Path, o: Options) -> (Arc<TimeUnion>, SocketAddr) {
    let db = Arc::new(TimeUnion::open(dir, o).unwrap());
    let addr = db.start_serving("127.0.0.1:0").unwrap();
    (db, addr)
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
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

/// Structural JSON well-formedness without a parser dependency.
fn assert_json_shaped(body: &str, path: &str) {
    assert!(body.starts_with('{'), "{path}: {body:?}");
    assert!(body.trim_end().ends_with('}'), "{path}: {body:?}");
    assert_eq!(
        body.matches('{').count(),
        body.matches('}').count(),
        "{path}: unbalanced braces"
    );
    assert_eq!(
        body.matches('[').count(),
        body.matches(']').count(),
        "{path}: unbalanced brackets"
    );
    assert_eq!(
        body.matches('"').count() % 2,
        0,
        "{path}: unbalanced quotes"
    );
}

/// Every JSON object key in `body` (a quoted token directly followed by a
/// colon). The key *vocabulary* is the schema fingerprint the endpoints
/// promise to keep stable.
fn key_set(body: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = body;
    while let Some(i) = rest.find('"') {
        let after = &rest[i + 1..];
        let Some(j) = after.find('"') else { break };
        let token = &after[..j];
        let tail = &after[j + 1..];
        if tail.starts_with(':') {
            out.insert(token.to_string());
        }
        rest = tail;
    }
    out
}

#[test]
fn introspection_endpoints_serve_stable_json_under_ingest() {
    let _g = lock();
    let dir = tempfile::tempdir().unwrap();
    let (db, addr) = open_serving(dir.path(), opts());

    // Seed enough data that partitions and tables exist before the first
    // scrape (so both scrapes see the full key vocabulary).
    let labels = Labels::from_pairs([("metric", "introspect_load"), ("host", "h1")]);
    let id = db.put(&labels, 0, 0.0).unwrap();
    for t in 1..1_000i64 {
        db.put_by_id(id, t * 60_000, t as f64).unwrap();
    }
    db.flush_all().unwrap();
    db.sync().unwrap();
    db.query(
        &[Selector::exact("metric", "introspect_load")],
        0,
        i64::MAX / 4,
    )
    .unwrap();
    // Two manual monitor samples give `/costs` at least one window.
    let monitor = db.monitor().expect("serving engine has a monitor");
    monitor.sample();
    monitor.sample();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ingester = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut t = 1_000i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.put_by_id(id, t * 60_000, t as f64).unwrap();
                t += 1;
            }
        })
    };

    for path in ["/introspect/lsm", "/costs"] {
        let r1 = get(addr, path);
        assert_eq!(status_of(&r1), 200, "{path}: {r1:?}");
        assert!(r1.contains("application/json"), "{path}: {r1:?}");
        let b1 = body_of(&r1).to_string();
        assert_json_shaped(&b1, path);
        let r2 = get(addr, path);
        assert_eq!(status_of(&r2), 200, "{path}: {r2:?}");
        let b2 = body_of(&r2).to_string();
        assert_json_shaped(&b2, path);
        assert_eq!(
            key_set(&b1),
            key_set(&b2),
            "{path}: key vocabulary drifted between scrapes"
        );
    }

    // Spot-check each endpoint's content.
    let lsm = body_of(&get(addr, "/introspect/lsm")).to_string();
    for needle in ["\"r1_ms\":", "\"levels\":[", "\"cache\":{"] {
        assert!(
            lsm.contains(needle),
            "/introspect/lsm missing {needle}: {lsm}"
        );
    }
    let costs = body_of(&get(addr, "/costs")).to_string();
    for needle in [
        "\"windows\":[",
        "\"totals\":{",
        "\"request_usd\":",
        "\"storage_usd\":",
    ] {
        assert!(costs.contains(needle), "/costs missing {needle}: {costs}");
    }
    // The manual samples above priced at least one window.
    assert!(costs.contains("\"start_ms\":"), "no window closed: {costs}");

    // The live plane's own index advertises the engine's endpoints.
    let index = get(addr, "/");
    for path in ["/introspect/lsm", "/costs"] {
        assert!(body_of(&index).contains(path), "index missing {path}");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ingester.join().unwrap();
    db.stop_serving();
}

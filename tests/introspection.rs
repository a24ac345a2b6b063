//! The storage introspection plane, end to end: partition heat vs. the
//! `cloud.<tier>.*` counters, the windowed cost ledger vs. the
//! cost-model totals, and the three introspection endpoints under load.
//!
//! The heat registry, the metric registry, and the `cloud.<tier>.*`
//! gauges are process-global, so every test here takes a file-local lock
//! and compares *deltas* — absolute values belong to whichever test ran
//! first.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;
use tu_cloud::ledger::CostLedger;
use tu_cloud::pricing::{self, Tier};
use tu_cloud::StorageEnv;
use tu_common::clock::SimClock;

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

fn tier_delta(d: &tu_obs::MetricsSnapshot, tier: &str, suffix: &str) -> u64 {
    d.counter(&format!("cloud.{tier}.{suffix}")).unwrap_or(0)
}

/// The tentpole invariant: the heat registry's per-tier totals (partitions
/// plus the unattributed bucket) move in lockstep with the traced
/// `cloud.<tier>.*` counters, because both are charged by the same
/// `TierCounters` record call. Checked across ingest, flush, and a
/// profiled query at the given fan-out width.
fn heat_matches_cloud_counters(threads: usize) {
    let _g = lock();
    let dir = tempfile::tempdir().unwrap();
    let clock = SimClock::new(0);
    let mut o = opts();
    o.clock = Arc::new(clock.clone());
    let db = TimeUnion::open(dir.path(), o).unwrap();
    db.set_query_threads(threads);

    let snap0 = tu_obs::global().snapshot();
    let heat0 = tu_obs::heat::snapshot();

    let ids: Vec<_> = (0..4)
        .map(|s| {
            let labels =
                Labels::from_pairs([("metric", "heat_exact"), ("host", &format!("h{s}") as &str)]);
            db.put(&labels, 0, 0.0).unwrap()
        })
        .collect();
    // Samples span many partition lengths so several heat cells exist.
    for t in 1..1_500i64 {
        let id = ids[(t % 4) as usize];
        db.put_by_id(id, t * 60_000, t as f64).unwrap();
    }
    db.flush_all().unwrap();
    db.sync().unwrap();
    let (out, profile) = db
        .query_profiled(&[Selector::exact("metric", "heat_exact")], 0, i64::MAX / 4)
        .unwrap();
    assert_eq!(out.len(), 4);

    let delta = tu_obs::global().snapshot().since(&snap0);
    let heat1 = tu_obs::heat::snapshot();
    for tier in tu_obs::heat::HEAT_TIERS {
        let h0 = heat0.tier_totals(tier);
        let h1 = heat1.tier_totals(tier);
        for (field, got, want) in [
            (
                "get_requests",
                h1.get_requests - h0.get_requests,
                tier_delta(&delta, tier, "get_requests"),
            ),
            (
                "put_requests",
                h1.put_requests - h0.put_requests,
                tier_delta(&delta, tier, "put_requests"),
            ),
            (
                "delete_requests",
                h1.delete_requests - h0.delete_requests,
                tier_delta(&delta, tier, "delete_requests"),
            ),
            (
                "bytes_read",
                h1.bytes_read - h0.bytes_read,
                tier_delta(&delta, tier, "bytes_read"),
            ),
            (
                "bytes_written",
                h1.bytes_written - h0.bytes_written,
                tier_delta(&delta, tier, "bytes_written"),
            ),
            (
                "first_reads",
                h1.first_reads - h0.first_reads,
                tier_delta(&delta, tier, "first_reads"),
            ),
        ] {
            assert_eq!(
                got, want,
                "heat vs cloud.{tier}.{field} at {threads} threads"
            );
        }
    }
    // The workload definitely moved bytes, so the equality is not vacuous,
    // and some of it landed in actual partitions (not just the WAL bucket).
    let block = heat1.tier_totals("block");
    assert!(block.bytes_written > heat0.tier_totals("block").bytes_written);
    assert!(
        heat1.partitions.iter().any(|p| p.tiers[0].requests() > 0),
        "no partition-attributed heat at {threads} threads"
    );

    // The profiled query surfaced its own partition contributions: the
    // read came from freshly flushed, uncached SSTables (on whichever
    // tier compaction left them).
    assert!(
        profile.heat.iter().any(|h| h.requests > 0),
        "profile carried no heat lines: {profile}"
    );
    assert!(profile.to_string().contains("heat partition=["));
    assert!(profile.to_json().contains("\"heat\":[{"));
}

#[test]
fn heat_equals_cloud_deltas_single_thread() {
    heat_matches_cloud_counters(1);
}

#[test]
fn heat_equals_cloud_deltas_eight_threads() {
    heat_matches_cloud_counters(8);
}

/// Milliseconds in the 30-day month the GB-month price sheet assumes
/// (mirrors the ledger's internal proration constant).
const MONTH_MS: f64 = 30.0 * 24.0 * 3600.0 * 1000.0;

#[test]
fn ledger_totals_match_storage_stats_dollars() {
    let _g = lock();
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open_unmetered(dir.path()).unwrap();
    let ledger = CostLedger::new(8);

    let blk0 = env.block.stats();
    let obj0 = env.object.stats();
    ledger.record(0, &tu_obs::global().snapshot());

    env.object.put("sst/a", &[1u8; 4096]).unwrap();
    env.object.get("sst/a").unwrap();
    env.block.write_file("wal/w", &[0u8; 512]).unwrap();
    ledger.record(60_000, &tu_obs::global().snapshot());
    let used_obj_w1 = env.object.used_bytes();
    let used_blk_w1 = env.block.used_bytes();

    env.object.put("sst/b", &[2u8; 2048]).unwrap();
    env.object.get_range("sst/a", 0, 1024).unwrap();
    env.object.delete("sst/a").unwrap();
    env.block.read_file("wal/w").unwrap();
    ledger.record(120_000, &tu_obs::global().snapshot());
    let used_obj_w2 = env.object.used_bytes();
    let used_blk_w2 = env.block.used_bytes();

    let blk = env.block.stats().since(&blk0);
    let obj = env.object.stats().since(&obj0);
    let totals = ledger.totals();

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
    let json = ledger.to_json();
    assert!(json.contains(&format!("\"get_requests\":{}", obj.get_requests)));
    assert!(json.contains("\"totals\":{"));
}

// --- endpoint plumbing (mirrors tests/http_plane.rs) ------------------------

fn open_serving(dir: &std::path::Path, mut o: Options) -> (Arc<TimeUnion>, SocketAddr) {
    o.serve_addr = Some("127.0.0.1:0".to_string());
    let db = Arc::new(TimeUnion::open(dir, o).unwrap());
    let addr = db
        .serve_if_configured()
        .unwrap()
        .expect("serve_addr was configured");
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
    // Two manual monitor samples close at least one ledger window.
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

    for path in ["/introspect/lsm", "/introspect/partitions", "/costs"] {
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
    let parts = body_of(&get(addr, "/introspect/partitions")).to_string();
    for needle in [
        "\"partitions\":[",
        "\"heat\":{",
        "\"class\":\"",
        "\"unattributed\":{",
    ] {
        assert!(
            parts.contains(needle),
            "/introspect/partitions missing {needle}: {parts}"
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
    // The manual samples above closed at least one window.
    assert!(costs.contains("\"start_ms\":"), "no window closed: {costs}");

    // The live plane's own index advertises the new endpoints.
    let index = get(addr, "/");
    for path in ["/introspect/lsm", "/introspect/partitions", "/costs"] {
        assert!(body_of(&index).contains(path), "index missing {path}");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ingester.join().unwrap();
    db.stop_serving();
}

//! End-to-end observability: a small ingest + query run must leave the
//! global `tu-obs` registry with non-zero counters that agree with the
//! cloud layer's own cost-model accounting ([`StorageStats`]).
//!
//! This file holds a single test on purpose: integration-test files run in
//! their own process, so nothing else touches the global registry and the
//! equality assertions below can be exact.
//!
//! [`StorageStats`]: timeunion::cloud::StorageEnv

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;

#[test]
fn ingest_and_query_populate_consistent_counters() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(
        dir.path(),
        Options {
            chunk_samples: 8,
            latency: LatencyMode::Virtual,
            tree: TreeOptions {
                memtable_bytes: 16 << 10,
                max_sstable_bytes: 16 << 10,
                ..TreeOptions::default()
            },
            ..Options::default()
        },
    )
    .unwrap();

    let mut expected_samples = 0u64;
    let mut ids = Vec::new();
    for s in 0..4 {
        let labels = Labels::from_pairs([("metric", "cpu"), ("host", format!("h{s}").as_str())]);
        ids.push(db.put(&labels, 0, s as f64).unwrap());
        expected_samples += 1;
    }
    for step in 1..512i64 {
        for (s, id) in ids.iter().enumerate() {
            db.put_by_id(*id, step * 1_000, (s as f64) + (step as f64) * 0.01)
                .unwrap();
            expected_samples += 1;
        }
    }
    db.flush_all().unwrap();
    db.sync().unwrap();

    let results = db
        .query(&[Selector::exact("metric", "cpu")], 0, 512_000)
        .unwrap();
    assert_eq!(results.len(), 4);

    let snap = timeunion::obs::global().snapshot();

    // Engine-level counters.
    assert_eq!(snap.counter("core.ingest.samples"), Some(expected_samples));
    assert_eq!(snap.counter("core.query.requests"), Some(1));
    let q = snap.histogram("span.core.query.ns").expect("query span");
    assert_eq!(q.count, 1);

    // LSM activity: the tiny memtable forces flushes, and every sample was
    // WAL-logged before being applied (checkpoint records add a few more).
    let wal_records = snap.counter("lsm.wal.append_records").unwrap_or(0);
    assert!(
        wal_records >= expected_samples,
        "{wal_records} WAL records < {expected_samples} samples"
    );
    let flushes = snap.histogram("span.lsm.flush.ns").expect("flush span");
    assert!(flushes.count > 0, "no memtable flushes recorded");
    assert_eq!(flushes.count, db.tree_stats().flushes);

    // Cloud counters must be non-zero and agree exactly with the cost
    // model's per-store accounting: both count every request.
    let blk = db.storage().block.stats();
    let obj = db.storage().object.stats();
    assert!(blk.put_requests > 0 && blk.bytes_written > 0);
    assert!(
        obj.put_requests > 0,
        "flush_all must upload to the slow tier"
    );
    for (name, want) in [
        ("cloud.block.get_requests", blk.get_requests),
        ("cloud.block.put_requests", blk.put_requests),
        ("cloud.block.bytes_read", blk.bytes_read),
        ("cloud.block.bytes_written", blk.bytes_written),
        ("cloud.object.get_requests", obj.get_requests),
        ("cloud.object.put_requests", obj.put_requests),
        ("cloud.object.bytes_read", obj.bytes_read),
        ("cloud.object.bytes_written", obj.bytes_written),
    ] {
        assert_eq!(snap.counter(name), Some(want), "mismatch for {name}");
    }

    // The snapshot serializes without losing the counters we just checked.
    let json = snap.to_json();
    assert!(json.contains("\"core.ingest.samples\""));
    assert!(json.contains("\"cloud.object.put_requests\""));
    let shown = snap.to_string();
    assert!(shown.contains("core.ingest.samples"));
}

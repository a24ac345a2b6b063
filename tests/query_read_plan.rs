//! A query's storage reads are planned once, per table, for every matched
//! id — so what a cold query costs on the slow tier is a property of the
//! query and the data, not of the fan-out width, the scheduler or the
//! block cache's size:
//!
//! * the object-tier Get count of each cold query is identical at 1, 2
//!   and 8 query threads (before the plan, two workers missing the same
//!   block both fetched it) and with an 8 MiB, a 64 KiB or no block cache;
//! * results are identical across all of those;
//! * k series confined to one L2 table, with gaps the S3 model prices
//!   cheaper to bridge than to re-request, cost exactly one Get.

use rand::{Rng, SeedableRng};
use timeunion::engine::{AggKind, Options, QueryResult, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;

const MIN: i64 = 60_000;

fn opts(block_cache_bytes: usize, max_sstable_bytes: usize) -> Options {
    Options {
        chunk_samples: 8,
        latency: LatencyMode::Virtual,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            max_sstable_bytes,
            block_cache_bytes,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

/// 48 series over 4 metrics plus 4 groups of 5 members, ~10 hours of
/// jittered (partly out-of-order) samples, everything flushed to L2.
fn seeded_store(dir: &std::path::Path, block_cache_bytes: usize) -> TimeUnion {
    let db = TimeUnion::open(dir, opts(block_cache_bytes, 16 << 10)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_F00D);
    let ids: Vec<_> = (0..48)
        .map(|s| {
            let labels = Labels::from_pairs([
                ("metric", format!("m{}", s % 4).as_str()),
                ("host", format!("h{s}").as_str()),
            ]);
            db.put(&labels, 0, s as f64).unwrap()
        })
        .collect();
    let groups: Vec<_> = (0..4)
        .map(|g| {
            let gtags =
                Labels::from_pairs([("job", "node"), ("instance", format!("i{g}").as_str())]);
            let members: Vec<Labels> = (0..5)
                .map(|m| Labels::from_pairs([("cpu", format!("c{m}").as_str())]))
                .collect();
            db.put_group(&gtags, &members, 0, &[0.0; 5]).unwrap()
        })
        .collect();
    for step in 1..600i64 {
        for &id in &ids {
            let jitter: i64 = rng.gen_range(-3 * MIN..MIN / 2);
            db.put_by_id(id, (step * MIN + jitter).max(1), rng.gen_range(0.0..100.0))
                .unwrap();
        }
        for (gid, refs) in &groups {
            let values: Vec<f64> = refs.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
            db.put_group_fast(*gid, refs, step * MIN, &values).unwrap();
        }
    }
    db.flush_all().unwrap();
    db
}

enum Case {
    Raw(Vec<Selector>, i64, i64),
    Agg(Vec<Selector>, AggKind, i64, i64),
}

fn cases() -> Vec<Case> {
    let hosts = Selector::regex("host", "(h3|h4|h17|h40)").unwrap();
    vec![
        Case::Raw(vec![Selector::exact("metric", "m1")], 0, 600 * MIN),
        Case::Raw(vec![hosts.clone()], 100 * MIN, 160 * MIN),
        Case::Raw(vec![Selector::exact("host", "h9")], 0, 600 * MIN),
        Case::Raw(vec![Selector::exact("job", "node")], 200 * MIN, 420 * MIN),
        Case::Raw(
            vec![Selector::exact("job", "node"), Selector::exact("cpu", "c2")],
            0,
            600 * MIN,
        ),
        Case::Agg(
            vec![Selector::exact("metric", "m2")],
            AggKind::Max,
            0,
            600 * MIN,
        ),
        Case::Agg(vec![hosts], AggKind::Avg, 30 * MIN, 300 * MIN),
        Case::Agg(
            vec![Selector::exact("job", "node")],
            AggKind::Sum,
            0,
            600 * MIN,
        ),
    ]
}

/// Runs `case` cold; returns its result and what it cost on the slow tier.
fn run_cold(db: &TimeUnion, case: &Case) -> (QueryResult, u64) {
    db.clear_block_cache();
    let before = db.storage().object.stats();
    let out = match case {
        Case::Raw(sel, start, end) => db.query(sel, *start, *end),
        Case::Agg(sel, kind, start, end) => db.query_aggregate(sel, *kind, *start, *end, 15 * MIN),
    }
    .unwrap();
    let gets = db.storage().object.stats().since(&before).get_requests;
    (out, gets)
}

#[test]
fn cold_query_gets_do_not_depend_on_threads_or_cache_size() {
    let mut reference: Option<Vec<(QueryResult, u64)>> = None;
    // 8 MiB holds everything; 64 KiB thrashes within a query; 0 caches
    // nothing at all.
    for cache_bytes in [8 << 20, 64 << 10, 0] {
        let dir = tempfile::tempdir().unwrap();
        let db = seeded_store(dir.path(), cache_bytes);
        // Open every table (footer + index, two Gets each) before counting:
        // the counts below are data-block requests only.
        for case in cases() {
            run_cold(&db, &case);
        }
        for threads in [1usize, 2, 8] {
            db.set_query_threads(threads);
            let got: Vec<_> = cases().iter().map(|c| run_cold(&db, c)).collect();
            for (i, (out, gets)) in got.iter().enumerate() {
                assert!(!out.is_empty(), "case {i} matched nothing");
                assert!(*gets > 0, "case {i} never reached the slow tier");
            }
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            g.1, w.1,
                            "case {i}: Gets differ at {threads} threads, {cache_bytes} B cache"
                        );
                        assert_eq!(
                            g.0, w.0,
                            "case {i}: result differs at {threads} threads, {cache_bytes} B cache"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn series_sharing_one_l2_table_share_one_get() {
    let dir = tempfile::tempdir().unwrap();
    // Tables up to 2 MiB: the hour of data below is one L2 table, and no
    // two of its blocks are further apart than S3's merge limit.
    let db = TimeUnion::open(dir.path(), opts(8 << 20, 2 << 20)).unwrap();
    let ids: Vec<_> = (0..200)
        .map(|s| {
            let labels =
                Labels::from_pairs([("metric", "cpu"), ("host", format!("h{s}").as_str())]);
            db.put(&labels, 0, s as f64).unwrap()
        })
        .collect();
    for step in 1..60i64 {
        for (s, &id) in ids.iter().enumerate() {
            db.put_by_id(id, step * MIN, (step * s as i64) as f64)
                .unwrap();
        }
    }
    db.flush_all().unwrap();
    let l2 = db.storage().object.list_prefix("l2/");
    assert_eq!(l2.len(), 1, "one L2 table: {l2:?}");
    let table_len = db.storage().object.len(&l2[0]).unwrap();
    assert!(table_len > 64 << 10, "of many blocks ({table_len} B)");

    // Six series spread over the table's id range: their blocks are not
    // adjacent, and still one request fetches them all.
    let sel = [Selector::regex("host", "(h2|h41|h77|h120|h163|h198)").unwrap()];
    db.query(&sel, 0, 60 * MIN).unwrap(); // opens the table: footer + index
    for threads in [1usize, 2, 8] {
        db.set_query_threads(threads);
        db.clear_block_cache();
        let (out, profile) = db.query_profiled(&sel, 0, 60 * MIN).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|s| s.samples.len() == 60));
        assert_eq!(profile.object.get_requests, 1, "{threads} threads");
        assert!(profile.block_loads >= 6);
        assert_eq!(profile.readahead_requests, 1);
        assert_eq!(profile.readahead_blocks, profile.block_loads);
        assert_eq!(
            profile.object.bytes_read,
            profile.block_load_bytes + profile.readahead_gap_bytes,
            "the request is billed its blocks plus the gaps it bridged"
        );
        assert!(profile.readahead_gap_bytes > 0);
    }
}

//! Exact aggregation-pushdown branch counts. Every chunk a step
//! aggregation reads takes one branch: it is skipped (time bounds, or
//! value bounds that cannot move a running extremum), answered from its
//! stats footer, or decoded (folded into one window, or streamed across
//! several). `query_aggregate_profiled` scopes the
//! `core.query.agg.{pushdown_chunks,meta_answered,skipped_chunks}`
//! counters to its own trace, so the counts below are exact: a change to
//! the read path that sends any chunk down another branch fails here even
//! when its results stay bit-identical.

use timeunion::engine::{AggKind, Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;

const SEC: i64 = 1_000;

fn opts() -> Options {
    Options {
        chunk_samples: 8,
        latency: LatencyMode::Virtual,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

/// Row `i` of both workloads: the first two rows of every 16-row run
/// carry the extremes, so with a 16 s step the second chunk of each
/// window can move neither its maximum nor its minimum.
fn value(i: i64, member: i64) -> f64 {
    match i % 16 {
        0 => 100.0 + member as f64,
        1 => -100.0 - member as f64,
        r => (r % 7) as f64 * 0.5 + member as f64,
    }
}

/// One series, one sample a second for 100 s: twelve sealed 8-sample
/// chunks flushed to the tree, and four samples left in the head.
fn series_db(dir: &std::path::Path) -> TimeUnion {
    let db = TimeUnion::open(dir.join("series"), opts()).unwrap();
    let id = db
        .put(
            &Labels::from_pairs([("metric", "cpu"), ("host", "h0")]),
            0,
            value(0, 0),
        )
        .unwrap();
    for i in 1..96 {
        db.put_by_id(id, i * SEC, value(i, 0)).unwrap();
    }
    db.flush_all().unwrap();
    for i in 96..100 {
        db.put_by_id(id, i * SEC, value(i, 0)).unwrap();
    }
    db
}

/// One three-member group, one row a second for 100 s, with the same
/// chunk layout as `series_db`. Member `c2` misses every fifth row.
fn group_db(dir: &std::path::Path) -> TimeUnion {
    let db = TimeUnion::open(dir.join("group"), opts()).unwrap();
    let members: Vec<Labels> = (0..3)
        .map(|m| Labels::from_pairs([("cpu", format!("c{m}").as_str())]))
        .collect();
    let row = |i: i64| -> Vec<f64> { (0..3).map(|m| value(i, m)).collect() };
    let (gid, refs) = db
        .put_group(
            &Labels::from_pairs([("metric", "cpu"), ("host", "h0")]),
            &members,
            0,
            &row(0),
        )
        .unwrap();
    for i in 1..100 {
        if i == 96 {
            db.flush_all().unwrap();
        }
        let (refs, vals) = if i % 5 == 0 {
            (&refs[..2], &row(i)[..2])
        } else {
            (&refs[..], &row(i)[..])
        };
        db.put_group_fast(gid, refs, i * SEC, vals).unwrap();
    }
    db
}

/// `(pushdown_chunks, meta_answered, skipped_chunks)` of one aggregation.
type Counts = (u64, u64, u64);

/// The [`Counts`] of one profiled aggregation, checked equal at one and
/// at four query threads.
fn branch_counts(
    db: &TimeUnion,
    sel: &[Selector],
    kind: AggKind,
    (start, end, step): (i64, i64, i64),
) -> Counts {
    let mut seen = None;
    for threads in [1, 4] {
        db.set_query_threads(threads);
        let (rows, profile) = db
            .query_aggregate_profiled(sel, kind, start, end, step)
            .unwrap();
        assert!(!rows.is_empty(), "{kind:?} returned no rows");
        let get = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
        let counts = (
            get("core.query.agg.pushdown_chunks"),
            get("core.query.agg.meta_answered"),
            get("core.query.agg.skipped_chunks"),
        );
        if let Some(prev) = seen {
            assert_eq!(counts, prev, "{kind:?}: counts depend on the thread count");
        }
        seen = Some(counts);
    }
    seen.unwrap()
}

/// The two ranges every kind is asked for: one whose windows hold whole
/// chunks (footer answers and value skips), and one that starts
/// mid-stream with a step that cuts chunks across windows (stream folds).
/// The chunk that ends at 23 s, just before `CUT` starts, is not read at
/// all: no chunk of its table reaches past its key by more than 7 s.
const ALIGNED: (i64, i64, i64) = (0, 100 * SEC, 16 * SEC);
const CUT: (i64, i64, i64) = (23 * SEC + 1, 88 * SEC, 12 * SEC);

/// Runs every kind over both ranges and compares against `want`, one
/// `(kind, aligned counts, cut counts)` row per kind; a mismatch prints
/// the whole observed table.
fn assert_counts(db: &TimeUnion, sel: &[Selector], want: &[(AggKind, [Counts; 2])]) {
    let got: Vec<(AggKind, [Counts; 2])> = AggKind::ALL
        .iter()
        .map(|&kind| {
            (
                kind,
                [
                    branch_counts(db, sel, kind, ALIGNED),
                    branch_counts(db, sel, kind, CUT),
                ],
            )
        })
        .collect();
    assert_eq!(got, want, "observed (push, meta, skip) per kind: {got:?}");
}

#[test]
fn series_pushdown_branch_counts_are_exact() {
    let dir = tempfile::tempdir().unwrap();
    let db = series_db(dir.path());
    let sel = [Selector::exact("metric", "cpu")];
    assert_counts(
        &db,
        &sel,
        &[
            (AggKind::Sum, [(6, 6, 0), (5, 3, 0)]),
            (AggKind::Min, [(0, 6, 6), (3, 4, 1)]),
            (AggKind::Max, [(0, 6, 6), (3, 4, 1)]),
            (AggKind::Count, [(0, 12, 0), (3, 5, 0)]),
            (AggKind::Avg, [(6, 6, 0), (5, 3, 0)]),
            (AggKind::Rate, [(12, 0, 0), (8, 0, 0)]),
        ],
    );
}

#[test]
fn group_pushdown_branch_counts_are_exact() {
    let dir = tempfile::tempdir().unwrap();
    let db = group_db(dir.path());
    let all = [Selector::exact("metric", "cpu")];
    assert_counts(
        &db,
        &all,
        &[
            (AggKind::Sum, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Min, [(7, 0, 5), (8, 0, 0)]),
            (AggKind::Max, [(6, 0, 6), (8, 0, 0)]),
            (AggKind::Count, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Avg, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Rate, [(12, 0, 0), (8, 0, 0)]),
        ],
    );
    let one = [
        Selector::exact("metric", "cpu"),
        Selector::exact("cpu", "c1"),
    ];
    assert_counts(
        &db,
        &one,
        &[
            (AggKind::Sum, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Min, [(6, 0, 6), (8, 0, 0)]),
            (AggKind::Max, [(6, 0, 6), (8, 0, 0)]),
            (AggKind::Count, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Avg, [(12, 0, 0), (8, 0, 0)]),
            (AggKind::Rate, [(12, 0, 0), (8, 0, 0)]),
        ],
    );
}

/// One series with 7-second chunks beside one with 70-second chunks, in
/// the same tables: the long chunks make the tables reach 70 s back, so
/// a `CUT` query of the short-chunk series reads its chunks that end
/// before the range starts too, and skips them on time.
#[test]
fn short_chunks_read_beside_long_ones_skip_on_time() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("mixed"), opts()).unwrap();
    let labels = |host: &str| Labels::from_pairs([("metric", "cpu"), ("host", host)]);
    let short = db.put(&labels("short"), 0, value(0, 0)).unwrap();
    let long = db.put(&labels("long"), 0, value(0, 1)).unwrap();
    for i in 1..96 {
        db.put_by_id(short, i * SEC, value(i, 0)).unwrap();
        db.put_by_id(long, i * 10 * SEC, value(i, 1)).unwrap();
    }
    db.flush_all().unwrap();
    for i in 96..100 {
        db.put_by_id(short, i * SEC, value(i, 0)).unwrap();
    }
    let sel = [Selector::exact("host", "short")];
    assert_counts(
        &db,
        &sel,
        &[
            (AggKind::Sum, [(6, 6, 0), (5, 3, 3)]),
            (AggKind::Min, [(0, 6, 6), (3, 4, 4)]),
            (AggKind::Max, [(0, 6, 6), (3, 4, 4)]),
            (AggKind::Count, [(0, 12, 0), (3, 5, 3)]),
            (AggKind::Avg, [(6, 6, 0), (5, 3, 3)]),
            (AggKind::Rate, [(12, 0, 0), (8, 0, 3)]),
        ],
    );
}

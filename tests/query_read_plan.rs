//! A query's storage reads are planned once, per table, for every matched
//! id — so what a cold query costs on the slow tier is a property of the
//! query and the data, not of the fan-out width, the scheduler or the
//! block cache's size:
//!
//! * the object-tier Get count of each cold query, and the modelled time
//!   its caller waits, are identical at 1, 2 and 8 query threads (before
//!   the plan, two workers missing the same block both fetched it) and
//!   with an 8 MiB, a 64 KiB or no block cache;
//! * results are identical across all of those;
//! * k series confined to one L2 table, with gaps the S3 model prices
//!   cheaper to bridge than to re-request, cost exactly one Get;
//! * the tables of one cold query are fetched as one wave: it waits for
//!   its slowest table, not for the sum of them;
//! * a cold query reads only the partitions its window can reach: a late
//!   chunk that spans most of one partition does not send a query of that
//!   partition back into the one before.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use timeunion::engine::{AggKind, Options, QueryResult, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::{Labels, Sample};
use tu_cloud::cost::{LatencyMode, LatencyModel};

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

/// Runs `case` cold; returns its result, its Gets on the slow tier and
/// the modelled nanoseconds the caller waited for storage.
fn run_cold(db: &TimeUnion, case: &Case) -> (QueryResult, u64, u64) {
    db.clear_block_cache();
    let before = db.storage().object.stats();
    let waited = db.storage().clock.virtual_ns();
    let out = match case {
        Case::Raw(sel, start, end) => db.query(sel, *start, *end),
        Case::Agg(sel, kind, start, end) => db.query_aggregate(sel, *kind, *start, *end, 15 * MIN),
    }
    .unwrap();
    let gets = db.storage().object.stats().since(&before).get_requests;
    (out, gets, db.storage().clock.virtual_ns() - waited)
}

#[test]
fn cold_query_gets_do_not_depend_on_threads_or_cache_size() {
    let mut reference: Option<Vec<(QueryResult, u64, u64)>> = None;
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
            for (i, (out, gets, ns)) in got.iter().enumerate() {
                assert!(!out.is_empty(), "case {i} matched nothing");
                assert!(*gets > 0, "case {i} never reached the slow tier");
                assert!(*ns > 0, "case {i} waited for no storage");
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
                            g.2, w.2,
                            "case {i}: modelled ns differ at {threads} threads, {cache_bytes} B cache"
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
    let ids: Vec<_> = (0..210)
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

/// 32 series, an hour of a sample a minute, in one L2 partition of at
/// least 4 small tables (each well under the 16 KiB the S3 model reads at
/// a flat latency). Eight hosts spread over the id range touch every one
/// of them, so a cold query of the eight costs one Get per table. The
/// Gets go out as one wave: at every query-thread count, the time the
/// caller waits grows by less than two Gets, while the work — the sum of
/// the lanes — grows by one Get per table.
#[test]
fn a_cold_query_waits_for_its_slowest_table() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path(), opts(8 << 20, 4 << 10)).unwrap();
    let ids: Vec<_> = (0..32)
        .map(|s| {
            let labels =
                Labels::from_pairs([("metric", "cpu"), ("host", format!("h{s:02}").as_str())]);
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
    let partition = |name: &String| name.rsplit_once('/').map(|(p, _)| p.to_string());
    assert!(
        l2.iter().all(|t| partition(t) == partition(&l2[0])),
        "one partition: {l2:?}"
    );
    let tables = l2.len() as u64;
    assert!((4..=8).contains(&tables), "{tables} tables");

    let get_ns = LatencyModel::s3().read_ns(0, false);
    let sel = [Selector::regex("host", "h(03|07|11|15|19|23|27|31)").unwrap()];
    db.query(&sel, 0, HOUR).unwrap(); // opens the tables: footer + index
    for threads in [1usize, 2, 8] {
        db.set_query_threads(threads);
        db.clear_block_cache();
        let clock = &db.storage().clock;
        let before = (
            db.storage().object.stats(),
            clock.virtual_ns(),
            clock.work_ns(),
        );
        let out = db.query(&sel, 0, HOUR).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|s| s.samples.len() == 60));
        let gets = db.storage().object.stats().since(&before.0).get_requests;
        let (waited, work) = (clock.virtual_ns() - before.1, clock.work_ns() - before.2);
        assert_eq!(gets, tables, "one Get per table at {threads} threads");
        assert_eq!(work, gets * get_ns, "the lanes' sum at {threads} threads");
        assert!(
            waited < 2 * get_ns,
            "waited {waited} ns at {threads} threads, a Get is {get_ns} ns"
        );
    }
}

const HOUR: i64 = 60 * MIN;

/// Samples of every series by id, as written.
type Reference = BTreeMap<u64, BTreeMap<i64, f64>>;

/// What `out` holds, by id, and what `reference` holds in `[start, end)`;
/// series without samples in the window are left out of both.
fn answers(
    out: &QueryResult,
    reference: &Reference,
    (start, end): (i64, i64),
) -> (Reference, Reference) {
    let got: Reference = out
        .iter()
        .filter(|s| !s.samples.is_empty())
        .map(|s| (s.id, s.samples.iter().map(|x| (x.t, x.v)).collect()))
        .collect();
    let want: Reference = reference
        .iter()
        .map(|(&id, all)| (id, all.range(start..end).map(|(&t, &v)| (t, v)).collect()))
        .filter(|(_, s): &(u64, BTreeMap<i64, f64>)| !s.is_empty())
        .collect();
    (got, want)
}

/// Two 2-hour L2 partitions, A = [0, 2 h) and B = [2 h, 4 h). Four series
/// write a sample a minute from 0 to 127 min in 32-sample chunks, so
/// their last chunk is keyed in A and straddles 7 minutes into B, less
/// than one chunk span. Four more series open a head at 3 h 58 min and
/// then backfill a sample a minute from 2 h 5 min to 3 h 55 min: one late
/// chunk each, covering most of B.
///
/// A cold one-hour query in B that starts after A's last sample reads
/// only B: exactly one Get per B table (each holds a late chunk of a
/// queried series, so each costs at least one), none in A. At the parent
/// commit every query moved its start back by the longest chunk span the
/// engine had written (the late chunks' 110 minutes), into A, for 4 Gets
/// more. A query that starts inside the straddle still returns the
/// straddling chunks' samples, and both answers match the samples written.
#[test]
fn a_cold_query_reads_only_the_partitions_its_window_reaches() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(
        dir.path(),
        Options {
            chunk_samples: 32,
            ..opts(8 << 20, 512)
        },
    )
    .unwrap();
    let mut reference = Reference::new();
    let mut put = |host: String, t: i64, v: f64| {
        let labels = Labels::from_pairs([("metric", "cpu"), ("host", host.as_str())]);
        let id = db.put(&labels, t, v).unwrap();
        reference.entry(id).or_default().insert(t, v);
        id
    };
    for s in 0..4 {
        for m in 0..128 {
            put(format!("in{s}"), m * MIN, (s * 1000 + m) as f64);
        }
    }
    let heads: Vec<u64> = (0..4)
        .map(|s| put(format!("late{s}"), 4 * HOUR - 2 * MIN, -1.0))
        .collect();
    let mut late = Vec::new();
    for (s, &id) in heads.iter().enumerate() {
        let s = s as i64;
        for m in 0..111 {
            let (t, v) = (2 * HOUR + (5 + m) * MIN, (s * 1000 + m) as f64 + 0.5);
            late.push((id, t, v));
            reference.entry(id).or_default().insert(t, v);
        }
    }
    db.put_batch(&late).unwrap();
    db.flush_all().unwrap();
    let tables = |p: &str| db.storage().object.list_prefix(&format!("l2/{p}/")).len() as u64;
    let (a, b) = (tables("p0-7200000"), tables("p7200000-14400000"));
    assert!(a >= 2 && b >= 2, "tables in A: {a}, in B: {b}");

    let sel = [Selector::exact("metric", "cpu")];
    let cold = |window: (i64, i64)| {
        db.query(&sel, window.0, window.1).unwrap(); // opens the tables
        db.clear_block_cache();
        let before = db.storage().object.stats();
        let out = db.query(&sel, window.0, window.1).unwrap();
        (out, db.storage().object.stats().since(&before).get_requests)
    };
    let after_a = (2 * HOUR + 30 * MIN, 3 * HOUR + 30 * MIN);
    let (out, gets) = cold(after_a);
    let (got, want) = answers(&out, &reference, after_a);
    assert_eq!(got, want);
    assert_eq!(got.len(), 4, "the late series");
    assert_eq!(gets, b, "one Get per B table, none in A ({a} tables)");

    let in_straddle = (2 * HOUR + 3 * MIN, 3 * HOUR + 3 * MIN);
    let (out, _) = cold(in_straddle);
    let (got, want) = answers(&out, &reference, in_straddle);
    assert_eq!(got, want);
    assert_eq!(got.len(), 8, "the straddling chunks' samples come back");
}

/// A chunk without a stats envelope (`debug_put_chunk`) gives its table
/// an unknown reach: a query reads that table from its partition's start,
/// so the chunk's samples come back however far past its key they lie.
#[test]
fn a_chunk_without_an_envelope_is_read_however_far_it_reaches() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path(), opts(8 << 20, 16 << 10)).unwrap();
    let labels = Labels::from_pairs([("metric", "cpu"), ("host", "legacy")]);
    let id = db.put(&labels, 5 * HOUR, 0.0).unwrap();
    let samples: Vec<Sample> = (0..12)
        .map(|i| Sample::new(10 * MIN + i * 15 * MIN, i as f64))
        .collect();
    let legacy = tu_compress::gorilla::compress_chunk(&samples).unwrap();
    db.debug_put_chunk(id, 10 * MIN, 175 * MIN, legacy).unwrap();
    db.flush_all().unwrap();
    let sel = [Selector::exact("host", "legacy")];
    for (start, end) in [(2 * HOUR, 3 * HOUR), (0, HOUR), (170 * MIN, 6 * HOUR)] {
        let out = db.query(&sel, start, end).unwrap();
        let got: Vec<Sample> = out.iter().flat_map(|s| s.samples.clone()).collect();
        let mut want: Vec<Sample> = samples
            .iter()
            .copied()
            .filter(|s| (start..end).contains(&s.t))
            .collect();
        if (start..end).contains(&(5 * HOUR)) {
            want.push(Sample::new(5 * HOUR, 0.0));
        }
        assert_eq!(got, want, "[{start}, {end})");
    }
}

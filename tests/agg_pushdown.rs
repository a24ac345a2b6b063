//! Aggregation-pushdown equivalence: for every [`AggKind`] and any thread
//! count, `TimeUnion::query_aggregate` must be *bit-identical* to the
//! materialize-then-fold reference (`query` + `aggregate_step`). The
//! randomized workloads deliberately include out-of-order writes,
//! duplicate timestamps, NaN values, mid-stream flushes (so chunks land
//! in SSTables with stats footers), and chunks written by the pre-stats
//! legacy format.

use proptest::prelude::*;

use timeunion::engine::{aggregate_step, AggKind, Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::{Labels, Sample};
use tu_cloud::cost::LatencyMode;
use tu_compress::gorilla;

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

/// The reference the pushdown is pinned against: materialize every sample
/// via `query`, then fold with `aggregate_step`. Series whose windows are
/// all empty are dropped, mirroring the engine.
fn reference_aggregate(
    db: &TimeUnion,
    selectors: &[Selector],
    kind: AggKind,
    start: i64,
    end: i64,
    step_ms: i64,
) -> Vec<(Labels, Vec<Sample>)> {
    db.query(selectors, start, end)
        .unwrap()
        .into_iter()
        .filter_map(|s| {
            let agg = aggregate_step(kind, &s.samples, start, end, step_ms);
            (!agg.is_empty()).then_some((s.labels, agg))
        })
        .collect()
}

/// Asserts pushdown == reference with f64 bit equality, across 1/2/8
/// query threads.
fn assert_pushdown_matches(
    db: &TimeUnion,
    selectors: &[Selector],
    start: i64,
    end: i64,
    step: i64,
) {
    for kind in AggKind::ALL {
        let expect = reference_aggregate(db, selectors, kind, start, end, step);
        for threads in [1usize, 2, 8] {
            db.set_query_threads(threads);
            let got = db
                .query_aggregate(selectors, kind, start, end, step)
                .unwrap();
            assert_eq!(
                got.len(),
                expect.len(),
                "{kind:?} @ {threads} threads: series count"
            );
            for (g, (labels, samples)) in got.iter().zip(&expect) {
                assert_eq!(&g.labels, labels, "{kind:?} @ {threads} threads: labels");
                assert_eq!(
                    g.samples.len(),
                    samples.len(),
                    "{kind:?} @ {threads} threads: window count for {labels:?}"
                );
                for (a, b) in g.samples.iter().zip(samples) {
                    assert_eq!(a.t, b.t, "{kind:?} @ {threads} threads: window ts");
                    assert_eq!(
                        a.v.to_bits(),
                        b.v.to_bits(),
                        "{kind:?} @ {threads} threads: value bits at t={} ({} vs {})",
                        a.t,
                        a.v,
                        b.v
                    );
                }
            }
        }
    }
}

/// One randomized write against the engine.
#[derive(Debug, Clone)]
enum Op {
    /// Insert into series `s` at timestamp `t`; `nan` poisons the value.
    Put {
        series: u8,
        t: i64,
        v: u32,
        nan: bool,
    },
    /// Force heads + tree down to SSTables (stats-framed chunks).
    FlushAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        24 => (0u8..5, 0i64..40 * 60_000, any::<u32>())
            .prop_map(|(series, t, v)| Op::Put { series, t, v, nan: v % 13 == 0 }),
        1 => Just(Op::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pushdown == materialize-then-fold for every `AggKind` over
    /// out-of-order, NaN-containing, duplicate-timestamp workloads, at
    /// 1/2/8 threads, bitwise.
    #[test]
    fn pushdown_matches_reference_fold(
        ops in proptest::collection::vec(op_strategy(), 1..220),
        step_min in 1i64..12,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        let mut ids: std::collections::BTreeMap<u8, u64> = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put { series, t, v, nan } => {
                    let vf = if *nan { f64::NAN } else { *v as f64 };
                    match ids.get(series) {
                        Some(id) => db.put_by_id(*id, *t, vf).unwrap(),
                        None => {
                            let l = Labels::from_pairs([
                                ("metric", "agg"),
                                ("series", &format!("s{series}")),
                            ]);
                            ids.insert(*series, db.put(&l, *t, vf).unwrap());
                        }
                    }
                }
                Op::FlushAll => db.flush_all().unwrap(),
            }
        }
        let sel = vec![Selector::exact("metric", "agg")];
        let step = step_min * 60_000;
        assert_pushdown_matches(&db, &sel, 0, 40 * 60_000, step);
        // A mid-stream range start exercises the partially-covered-chunk path.
        assert_pushdown_matches(&db, &sel, 7 * 60_000, 33 * 60_000, step);
    }
}

/// Mixed-version store: legacy pre-stats chunks (no footer) planted next
/// to stats-framed chunks and head samples must aggregate bit-identically
/// to the reference at every thread count.
#[test]
fn mixed_format_store_aggregates_identically() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    let labels = Labels::from_pairs([("metric", "mixed"), ("host", "h0")]);
    let id = db.put(&labels, 200_000, 1.0).unwrap();

    // Plant two legacy-format chunks (written by the pre-stats version)
    // directly into the tree, below everything the engine writes itself.
    for (base, bias) in [(0i64, 0.0f64), (64_000, 100.0)] {
        let samples: Vec<Sample> = (0..8)
            .map(|i| {
                let v = if i == 3 { f64::NAN } else { bias + i as f64 };
                Sample::new(base + i * 8_000, v)
            })
            .collect();
        let legacy = gorilla::compress_chunk(&samples).unwrap();
        assert!(
            gorilla::ChunkDecoder::new(&legacy)
                .unwrap()
                .stats()
                .is_none(),
            "legacy bytes must carry no stats footer"
        );
        db.debug_put_chunk(id, base, base + 7 * 8_000, legacy)
            .unwrap();
    }

    // Fresh engine writes on top: sealed (stats-framed) chunks + head.
    for i in 0..24i64 {
        db.put_by_id(id, 200_000 + i * 8_000, (i * i) as f64)
            .unwrap();
    }
    db.flush_all().unwrap();
    for i in 0..5i64 {
        db.put_by_id(id, 400_000 + i * 8_000, -(i as f64)).unwrap();
    }

    let sel = vec![Selector::exact("metric", "mixed")];
    assert_pushdown_matches(&db, &sel, 0, 500_000, 60_000);
    assert_pushdown_matches(&db, &sel, 30_000, 450_000, 32_000);

    // Sanity: the legacy chunks are actually readable in plain queries.
    let all = db.query(&sel, 0, 500_000).unwrap();
    assert_eq!(all.len(), 1);
    assert!(all[0].samples.iter().any(|s| s.t < 200_000));
}

/// Group (NULL-XOR) aggregation equivalence with per-member NULL gaps,
/// across flush boundaries and thread counts. Member `c4` joins after the
/// mid-stream flush, so the older chunks have no column for it.
#[test]
fn group_pushdown_matches_reference_fold() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    let gtags = Labels::from_pairs([("job", "node"), ("instance", "i0")]);
    let members: Vec<Labels> = (0..4)
        .map(|m| Labels::from_pairs([("cpu", format!("c{m}").as_str())]))
        .collect();
    let (gid, mut refs) = db
        .put_group(&gtags, &members, 0, &[0.0, 1.0, 2.0, 3.0])
        .unwrap();

    for round in 1..60i64 {
        let values: Vec<f64> = (0..5).map(|m| (round * 10 + m) as f64).collect();
        if round == 31 {
            // The late member joins through the slow path.
            let late = [Labels::from_pairs([("cpu", "c4")])];
            let (_, late_ref) = db
                .put_group(&gtags, &late, round * 5_000 - 1, &values[4..])
                .unwrap();
            refs.extend(late_ref);
        }
        let n = refs.len();
        if round % 7 == 0 {
            // Some rounds miss a member (NULL column entries).
            db.put_group_fast(gid, &refs[..n - 1], round * 5_000, &values[..n - 1])
                .unwrap();
        } else {
            db.put_group_fast(gid, &refs, round * 5_000, &values[..n])
                .unwrap();
        }
        if round == 30 {
            db.flush_all().unwrap();
        }
    }

    let all = vec![Selector::exact("job", "node")];
    assert_pushdown_matches(&db, &all, 0, 300_000, 40_000);
    let one = vec![Selector::exact("job", "node"), Selector::exact("cpu", "c2")];
    assert_pushdown_matches(&db, &one, 10_000, 290_000, 25_000);
    let late = vec![Selector::exact("job", "node"), Selector::exact("cpu", "c4")];
    assert_eq!(db.query(&late, 0, 300_000).unwrap().len(), 1);
    assert_pushdown_matches(&db, &late, 0, 300_000, 40_000);
    assert_pushdown_matches(&db, &late, 10_000, 290_000, 25_000);
}

//! End-to-end integration: TSBS DevOps workload through the full
//! TimeUnion stack — ingest, seal, compact to both tiers, query with
//! every Table 2 pattern — validated against generator ground truth.

use timeunion::engine::{Options, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use timeunion::tsbs::{DevOpsGenerator, DevOpsOptions, QueryPattern};
use tu_core::query::{aggregate_step, AggKind};

const MIN: i64 = 60_000;

fn small_options() -> Options {
    Options {
        chunk_samples: 16,
        index_slots_per_segment: 1 << 14,
        tree: TreeOptions {
            memtable_bytes: 256 << 10,
            l0_partition_ms: 30 * MIN,
            l2_partition_ms: 120 * MIN,
            max_sstable_bytes: 256 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

fn generator(hosts: usize, hours: i64) -> DevOpsGenerator {
    DevOpsGenerator::new(DevOpsOptions {
        hosts,
        start_ms: 0,
        interval_ms: 60_000,
        duration_ms: hours * 3_600_000,
        seed: 77,
    })
}

/// Ingests individual series via the fast path; returns ids[host][metric].
fn ingest_series(db: &TimeUnion, gen: &DevOpsGenerator) -> Vec<Vec<u64>> {
    let mut ids = Vec::new();
    for host in 0..gen.options().hosts {
        let row: Vec<u64> = (0..gen.metric_names().len())
            .map(|m| {
                db.put(
                    &gen.series_labels(host, m),
                    gen.ts_of(0),
                    gen.value(host, m, 0),
                )
                .unwrap()
            })
            .collect();
        ids.push(row);
    }
    for step in 1..gen.steps() {
        let t = gen.ts_of(step);
        for (host, row) in ids.iter().enumerate() {
            for (m, id) in row.iter().enumerate() {
                db.put_by_id(*id, t, gen.value(host, m, step)).unwrap();
            }
        }
    }
    ids
}

#[test]
fn tsbs_patterns_match_ground_truth() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), small_options()).unwrap();
    let gen = generator(10, 6);
    ingest_series(&db, &gen);
    db.flush_all().unwrap(); // exercise L0 -> L1 -> L2 before querying

    let stats = db.tree_stats();
    assert!(
        stats.l2_partitions > 0,
        "data must reach the slow tier: {stats:?}"
    );

    for pattern in QueryPattern::all() {
        let spec = pattern.spec(&gen, 4);
        let result = db.query(&spec.selectors, spec.start, spec.end).unwrap();
        // Expected series: hosts x metrics matched by the selectors.
        let expect_series = gen
            .metric_names()
            .iter()
            .filter(|m| spec.selectors[1].matches_value(m))
            .count()
            * (0..gen.options().hosts)
                .filter(|h| spec.selectors[0].matches_value(&format!("host_{h}")))
                .count();
        assert_eq!(
            result.len(),
            expect_series,
            "{}: series count",
            pattern.name()
        );
        // Every returned series matches the generator exactly.
        for series in &result {
            let host: usize = series.labels.get("hostname").unwrap()[5..].parse().unwrap();
            let metric = gen
                .metric_names()
                .iter()
                .position(|m| m == series.labels.get("metric").unwrap())
                .unwrap();
            let expected: Vec<tu_common::Sample> = (0..gen.steps())
                .map(|s| tu_common::Sample::new(gen.ts_of(s), gen.value(host, metric, s)))
                .filter(|s| s.t >= spec.start && s.t < spec.end)
                .collect();
            assert_eq!(
                series.samples,
                expected,
                "{}: samples of {}",
                pattern.name(),
                series.labels
            );
            // Aggregation smoke check: windows are monotone in time.
            let agg = aggregate_step(
                AggKind::Max,
                &series.samples,
                spec.start,
                spec.end,
                spec.step_ms,
            );
            assert!(agg.windows(2).all(|w| w[0].t < w[1].t));
        }
    }
}

#[test]
fn grouped_ingest_equals_individual_ingest() {
    let gen = generator(4, 2);
    let dir = tempfile::tempdir().unwrap();

    let flat = TimeUnion::open(dir.path().join("flat"), small_options()).unwrap();
    ingest_series(&flat, &gen);
    flat.flush_all().unwrap();

    let grouped = TimeUnion::open(dir.path().join("grouped"), small_options()).unwrap();
    let member_tags: Vec<Labels> = gen
        .metric_names()
        .iter()
        .map(|m| Labels::from_pairs([("metric", m.as_str())]))
        .collect();
    let mut handles = Vec::new();
    for host in 0..gen.options().hosts {
        let h = grouped
            .put_group(
                &gen.host_labels(host),
                &member_tags,
                gen.ts_of(0),
                &gen.host_row(host, 0),
            )
            .unwrap();
        handles.push(h);
    }
    for step in 1..gen.steps() {
        for (host, (gid, refs)) in handles.iter().enumerate() {
            grouped
                .put_group_fast(*gid, refs, gen.ts_of(step), &gen.host_row(host, step))
                .unwrap();
        }
    }
    grouped.flush_all().unwrap();

    // Every pattern returns identical (labels, samples) sets from both,
    // and identical aggregates of every kind, bit for bit: a series and
    // a group member are the same column to the read path.
    for pattern in QueryPattern::table2() {
        let spec = pattern.spec(&gen, 1);
        let a = flat.query(&spec.selectors, spec.start, spec.end).unwrap();
        let b = grouped
            .query(&spec.selectors, spec.start, spec.end)
            .unwrap();
        assert_eq!(a.len(), b.len(), "{}", pattern.name());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.labels, y.labels, "{}", pattern.name());
            assert_eq!(x.samples, y.samples, "{}", pattern.name());
        }
        for kind in AggKind::ALL {
            let what = format!("{} {}", pattern.name(), kind.name());
            let [a, b] = [&flat, &grouped].map(|db| {
                db.query_aggregate(&spec.selectors, kind, spec.start, spec.end, spec.step_ms)
                    .unwrap()
            });
            assert_eq!(a.len(), b.len(), "{what}");
            assert!(!a.is_empty(), "{what}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.labels, y.labels, "{what}");
                let bits = |s: &[tu_common::Sample]| -> Vec<(i64, u64)> {
                    s.iter().map(|s| (s.t, s.v.to_bits())).collect()
                };
                assert_eq!(bits(&x.samples), bits(&y.samples), "{what}: {}", x.labels);
            }
        }
    }
}

#[test]
fn out_of_order_volumes_remain_correct() {
    let gen = generator(3, 2);
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), small_options()).unwrap();
    let ids = ingest_series(&db, &gen);
    db.flush_all().unwrap();

    // Inject p10 late data and verify both the late and on-time points.
    let late: Vec<tu_tsbs::ooo::LateSample> = tu_tsbs::ooo::late_samples(&gen, 0.10, 99).collect();
    for s in &late {
        db.put_by_id(ids[s.host][s.metric], s.t, s.v).unwrap();
    }
    db.flush_all().unwrap();

    let stats = db.tree_stats();
    assert!(
        stats.patches_created > 0 || stats.stale_l0_merges > 0,
        "late data must exercise the out-of-order machinery: {stats:?}"
    );

    // Spot-check several late samples are queryable with their values.
    for s in late.iter().step_by(37) {
        let sel = vec![
            timeunion::engine::Selector::exact("hostname", format!("host_{}", s.host)),
            timeunion::engine::Selector::exact("metric", gen.metric_names()[s.metric].clone()),
        ];
        let res = db.query(&sel, s.t, s.t + 1).unwrap();
        assert_eq!(res.len(), 1, "late sample at {} missing", s.t);
        // The newest write for that timestamp wins; duplicates in the late
        // stream may overwrite each other, so only presence is asserted.
        assert_eq!(res[0].samples.len(), 1);
    }
}

/// Writes two group members, `8 + in_head` rows with `chunk_samples = 8`
/// (so the first eight rows seal), then one more row at t = 0 for member
/// `a` only, then drains. The late row follows the series rule: it leaves
/// as a versioned chunk of its own that overrides only `a`'s sample at
/// t = 0, and the sealed chunk starting at t = 0 stays whole.
fn late_group_row_keeps_the_stored_chunk(in_head: i64) {
    let dir = tempfile::tempdir().unwrap();
    let opts = Options {
        chunk_samples: 8,
        index_slots_per_segment: 1 << 14,
        ..Options::default()
    };
    let db = TimeUnion::open(dir.path().join("db"), opts).unwrap();
    let tags = Labels::from_pairs([("host", "h1")]);
    let members = [
        Labels::from_pairs([("metric", "a")]),
        Labels::from_pairs([("metric", "b")]),
    ];
    let rows = 8 + in_head;
    let (gid, refs) = db.put_group(&tags, &members, 0, &[0.0, 100.0]).unwrap();
    for i in 1..rows {
        let values = [i as f64, 100.0 + i as f64];
        db.put_group_fast(gid, &refs, i * 1000, &values).unwrap();
    }
    db.put_group_fast(gid, &refs[..1], 0, &[-1.0]).unwrap();
    db.flush_all().unwrap();

    let read = |metric: &str| -> Vec<(i64, f64)> {
        let sel = [timeunion::engine::Selector::exact("metric", metric)];
        let res = db.query(&sel, 0, i64::MAX / 4).unwrap();
        res.iter()
            .flat_map(|r| r.samples.iter().map(|s| (s.t, s.v)))
            .collect()
    };
    let want_a: Vec<(i64, f64)> = (0..rows)
        .map(|i| (i * 1000, if i == 0 { -1.0 } else { i as f64 }))
        .collect();
    let want_b: Vec<(i64, f64)> = (0..rows).map(|i| (i * 1000, 100.0 + i as f64)).collect();
    let (a, b) = (read("a"), read("b"));
    assert_eq!(a, want_a, "member a read back {} of {rows}", a.len());
    assert_eq!(b, want_b, "member b read back {} of {rows}", b.len());
}

#[test]
fn late_group_row_after_a_sealed_chunk_keeps_it() {
    late_group_row_keeps_the_stored_chunk(0);
}

#[test]
fn late_group_row_below_the_head_keeps_the_sealed_chunk() {
    late_group_row_keeps_the_stored_chunk(4);
}

//! A reader racing a writer whose inline maintenance flushes, compacts and
//! uploads: every sample acknowledged before a read began is in it. A
//! compaction keeps its inputs readable until its outputs replace them.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;

const MIN: i64 = 60_000;
const SERIES: u64 = 4;
const BATCHES: i64 = 200;
/// Samples of one series in a batch, 10 seconds apart: one sealed chunk.
const ROWS: i64 = 8;

#[test]
fn reads_see_every_acknowledged_sample_while_maintenance_compacts() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(
        dir.path().join("db"),
        Options {
            chunk_samples: ROWS as usize,
            index_slots_per_segment: 1 << 12,
            tree: TreeOptions {
                memtable_bytes: 2 << 10,
                l0_partition_ms: MIN,
                l2_partition_ms: 4 * MIN,
                partition_min_ms: 30_000,
                ..TreeOptions::default()
            },
            ..Options::default()
        },
    )
    .unwrap();
    let ids: Vec<u64> = (0..SERIES)
        .map(|s| {
            let labels = Labels::from_pairs([("job", "race".to_string()), ("s", s.to_string())]);
            db.put(&labels, 0, 0.0).unwrap()
        })
        .collect();
    db.sync_wal().unwrap();
    // Every sample below this timestamp is acknowledged.
    let acked = AtomicI64::new(1);
    let done = AtomicBool::new(false);
    let (reads, short) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut short) = (0usize, Vec::new());
            while !done.load(Ordering::SeqCst) {
                let bound = acked.load(Ordering::SeqCst);
                let res = db
                    .query(&[Selector::exact("job", "race")], 0, i64::MAX / 4)
                    .unwrap();
                let seen: usize = res
                    .iter()
                    .map(|r| r.samples.iter().filter(|x| x.t < bound).count())
                    .sum();
                let want = SERIES as usize * (1 + (bound as usize - 1) / 10_000);
                if seen < want {
                    short.push(want - seen);
                }
                reads += 1;
            }
            (reads, short)
        });
        for b in 0..BATCHES {
            let batch: Vec<(u64, i64, f64)> = ids
                .iter()
                .flat_map(|&id| {
                    (0..ROWS).map(move |i| {
                        let t = 10_000 * (1 + b * ROWS + i);
                        (id, t, t as f64)
                    })
                })
                .collect();
            db.put_batch(&batch).unwrap();
            acked.store(10_000 * (1 + (b + 1) * ROWS), Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    let stats = db.tree_stats();
    assert!(
        stats.l0_to_l1_compactions > 0 && stats.l1_to_l2_compactions > 0,
        "{stats:?}"
    );
    assert!(reads > 0);
    assert!(
        short.is_empty(),
        "{} of {reads} reads came back short, by up to {:?} samples",
        short.len(),
        short.iter().max()
    );
}

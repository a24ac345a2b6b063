//! `flush_all` drains in two phases: it seals every head first, flushing
//! a memtable that fills meanwhile only to L0, and uploads afterwards. So
//! each slow-tier partition is written once, holding all of its data,
//! however the heads' map order mixes the windows they belong to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;

const MIN: i64 = 60_000;
const HOUR: i64 = 60 * MIN;
/// The default slow-tier partition length: one generation per window.
const WINDOW: i64 = 2 * HOUR;

fn options(chunk_samples: usize) -> Options {
    Options {
        chunk_samples,
        index_slots_per_segment: 1 << 14,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

fn pod(generation: i64, pod: usize) -> Labels {
    Labels::from_pairs([
        ("job", "churn".to_string()),
        ("gen", generation.to_string()),
        ("pod", pod.to_string()),
    ])
}

type Expected = BTreeMap<u64, Vec<(i64, f64)>>;

/// Every series the `job="churn"` selector matches, as `(t, v)` rows.
fn read_all(db: &TimeUnion) -> Expected {
    db.query(&[Selector::exact("job", "churn")], 0, i64::MAX)
        .unwrap()
        .into_iter()
        .map(|r| (r.id, r.samples.iter().map(|s| (s.t, s.v)).collect()))
        .collect()
}

/// Writes `pods` short-lived series into generation `g`'s window: `samples`
/// each, 15 minutes apart, so they all start the window together.
fn write_generation(db: &TimeUnion, g: i64, pods: usize, samples: i64, want: &mut Expected) {
    for p in 0..pods {
        let labels = pod(g, p);
        for i in 0..samples {
            let (t, v) = (
                g * WINDOW + i * 15 * MIN,
                (g * 1000 + p as i64 * 10 + i) as f64,
            );
            let id = db.put(&labels, t, v).unwrap();
            want.entry(id).or_default().push((t, v));
        }
    }
}

#[test]
fn drain_writes_each_slow_partition_once() {
    const GENERATIONS: i64 = 4;
    let dir = tempfile::tempdir().unwrap();
    // 8 samples never fill a 32-sample head: every chunk is sealed by the
    // drain, in series-map order, which mixes the four generations.
    let db = TimeUnion::open(dir.path().join("db"), options(32)).unwrap();
    let mut want = Expected::new();
    for g in 0..GENERATIONS {
        write_generation(&db, g, 200, 8, &mut want);
        db.sync().unwrap();
    }
    assert_eq!(db.storage().object.stats().put_requests, 0);
    let flushes = db.tree_stats().flushes;
    db.flush_all().unwrap();
    let s = db.tree_stats();
    assert!(
        s.flushes - flushes > 2,
        "the drain must fill several memtables to mix windows: {s:?}"
    );
    assert_eq!(
        db.storage().object.stats().put_requests,
        GENERATIONS as u64,
        "one upload per window: {s:?}"
    );
    assert_eq!((s.patches_created, s.patch_merges), (0, 0), "{s:?}");
    assert_eq!(s.l2_partitions, GENERATIONS as usize, "{s:?}");
    assert_eq!(read_all(&db), want);
}

/// Two writers keep ingesting into the newest window while `flush_all`
/// drains, and their inline maintenance waits for it. The run finishes,
/// and nothing the writers were acknowledged is lost across a reopen.
#[test]
fn drain_races_writers_in_the_newest_window() {
    const GENERATIONS: i64 = 3;
    const PODS_PER_WRITER: usize = 20;
    /// Batches each writer is acknowledged before the drain may start.
    const WARMUP: i64 = 40;
    let dir = tempfile::tempdir().unwrap();
    let mut want = Expected::new();
    {
        // 8-sample heads: the writers seal chunks, and with them
        // memtables, while the drain runs.
        let db = Arc::new(TimeUnion::open(dir.path().join("db"), options(8)).unwrap());
        for g in 0..GENERATIONS {
            write_generation(&db, g, 300, 7, &mut want);
        }
        let newest = GENERATIONS - 1;
        let (warm, warmed) = mpsc::channel();
        let drained = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let (db, warm, drained) = (db.clone(), warm.clone(), drained.clone());
                std::thread::spawn(move || {
                    let ids: Vec<u64> = (0..PODS_PER_WRITER)
                        .map(|p| {
                            let labels = pod(newest, 1000 + w * PODS_PER_WRITER + p);
                            db.put(&labels, newest * WINDOW, 0.0).unwrap()
                        })
                        .collect();
                    let mut acked: Expected = ids
                        .iter()
                        .map(|&id| (id, vec![(newest * WINDOW, 0.0)]))
                        .collect();
                    // One batch per 8 seconds of the window, until the drain
                    // has finished and as many again have followed it.
                    let mut after = 0;
                    for step in 1.. {
                        if step == WARMUP + 1 {
                            warm.send(()).unwrap();
                        }
                        if drained.load(Ordering::SeqCst) {
                            after += 1;
                        }
                        if after > WARMUP || (step + 1) * 8_000 > WINDOW {
                            break;
                        }
                        // A full head per series: every batch seals chunks.
                        let batch: Vec<(u64, i64, f64)> = ids
                            .iter()
                            .flat_map(|&id| {
                                (0..8).map(move |i| {
                                    let t = newest * WINDOW + step * 8_000 + i * 1000;
                                    (id, t, (id as i64 * 100_000 + step * 8 + i) as f64)
                                })
                            })
                            .collect();
                        db.put_batch(&batch).unwrap();
                        for &(id, t, v) in &batch {
                            acked.get_mut(&id).unwrap().push((t, v));
                        }
                    }
                    acked
                })
            })
            .collect();
        // The drain starts once both writers are under way, and they go
        // on until it has finished. A writer that fails drops its sender
        // instead of hanging the test; its panic surfaces at the join.
        drop(warm);
        for _ in 0..2 {
            if warmed.recv().is_err() {
                break;
            }
        }
        db.flush_all().unwrap();
        drained.store(true, Ordering::SeqCst);
        for w in writers {
            want.extend(w.join().unwrap());
        }
        // No sync: `put_batch` returned, so each sample is in the log.
    }
    let db = TimeUnion::open(dir.path().join("db"), options(8)).unwrap();
    assert_eq!(read_all(&db), want);
}

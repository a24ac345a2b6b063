//! Run-at-a-time ingest: `put_batch` logs and applies one record per
//! series run, `put_by_id` a run of one. Both must leave the engine in the
//! state the samples define, whatever the thread count, the order inside a
//! run or the place a checkpoint falls — live and after a crash. (Recovery
//! is only compared where no sample is older than its head: an early
//! flush checkpoints past the samples still buffered, a known defect of
//! the watermark scheme that `tu-e2e` counts as `samples_lost_at_recovery`.)

use std::path::Path;
use std::sync::Barrier;

use rand::{Rng, SeedableRng};
use tu_common::{Labels, SeriesId, Timestamp, Value};
use tu_core::{Options, TimeUnion};
use tu_lsm::wal::Wal;
use tu_lsm::TreeOptions;

type Batch = Vec<(SeriesId, Timestamp, Value)>;

fn opts() -> Options {
    Options {
        chunk_samples: 8,
        wal_batch_records: 16,
        tree: TreeOptions {
            memtable_bytes: 4 << 10,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

fn open(dir: &Path, series: usize) -> (TimeUnion, Vec<SeriesId>) {
    let db = TimeUnion::open(dir, opts()).unwrap();
    let ids = (0..series)
        .map(|s| {
            let labels = Labels::from_pairs([("metric", format!("m{s}").as_str())]);
            db.put(&labels, 0, 0.0).unwrap()
        })
        .collect();
    (db, ids)
}

/// A crash image: the data directory copied while the engine is open.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Seeded batches over 12 series: mostly rising timestamps, with samples
/// that land inside the head, before it, and on timestamps already
/// written (in the same run and in earlier ones).
fn batches(ids: &[SeriesId]) -> Vec<Batch> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0012);
    let mut clock = vec![1_000i64; ids.len()];
    (0..40)
        .map(|_| {
            let mut batch = Batch::new();
            for _ in 0..rng.gen_range(1..6) {
                for (s, &id) in ids.iter().enumerate() {
                    let t = match rng.gen_range(0..10) {
                        0 => clock[s] - rng.gen_range(0..40_000i64), // late
                        1 => clock[s],                               // duplicate
                        _ => {
                            clock[s] += rng.gen_range(1..5_000i64);
                            clock[s]
                        }
                    };
                    batch.push((id, t.max(1), rng.gen_range(0.0..100.0)));
                }
            }
            batch
        })
        .collect()
}

#[test]
fn put_batch_matches_put_by_id_at_every_width() {
    let dir = tempfile::tempdir().unwrap();
    let (reference, ids) = open(&dir.path().join("by-id"), 12);
    let batches = batches(&ids);
    for batch in &batches {
        for &(id, t, v) in batch {
            reference.put_by_id(id, t, v).unwrap();
        }
    }
    let want = reference.state_digest().unwrap();
    for threads in [1, 2, 8] {
        let (db, same_ids) = open(&dir.path().join(format!("batch-{threads}")), 12);
        assert_eq!(same_ids, ids);
        db.set_ingest_threads(threads);
        for batch in &batches {
            db.put_batch(batch).unwrap();
        }
        assert_eq!(
            db.state_digest().unwrap(),
            want,
            "put_batch at {threads} threads"
        );
    }
}

#[test]
fn writers_racing_on_one_series_lose_nothing() {
    let dir = tempfile::tempdir().unwrap();
    // Series 0 is shared. Its head holds the seed sample at 0, so nothing
    // the writers add is older than it, and their 6 distinct timestamps
    // never fill the chunk: the head is the sorted union in any order.
    let writer = |w: usize, ids: &[SeriesId]| -> Batch {
        let mut batch = Batch::new();
        for k in 0..3i64 {
            batch.push((ids[0], 100 + 10 * k + w as i64, w as f64));
            for j in 0..20i64 {
                batch.push((ids[1 + w], 1_000 * k + j + 1, j as f64));
            }
        }
        batch
    };
    let (reference, ids) = open(&dir.path().join("by-id"), 3);
    for w in 0..2 {
        for (id, t, v) in writer(w, &ids) {
            reference.put_by_id(id, t, v).unwrap();
        }
    }
    let want = reference.state_digest().unwrap();

    let (db, ids) = open(&dir.path().join("raced"), 3);
    db.set_ingest_threads(2);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2 {
            let (db, ids, start) = (&db, &ids, &start);
            s.spawn(move || {
                let batch = writer(w, ids);
                start.wait();
                db.put_batch(&batch).unwrap();
            });
        }
    });
    assert_eq!(db.state_digest().unwrap(), want);
    // The two runs of the shared series took distinct, dense sequence
    // numbers: both replay.
    let crash = dir.path().join("crash");
    copy_dir(db.dir(), &crash);
    let recovered = TimeUnion::open(&crash, opts()).unwrap();
    assert_eq!(recovered.state_digest().unwrap(), want);
}

#[test]
fn checkpoint_inside_a_run_trims_the_run_on_replay() {
    let dir = tempfile::tempdir().unwrap();
    let (db, ids) = open(&dir.path().join("db"), 2);
    // One run of 400 samples seals 50 chunks; they reach the tree after
    // the run is applied, fill the 4 KiB memtable several times over, and
    // each flush checkpoints sequence numbers inside the run.
    let batch: Batch = (1..=400i64)
        .flat_map(|k| {
            [
                (ids[0], k * 1_000, k as f64),
                (ids[1], k * 1_000, -k as f64),
            ]
        })
        .collect();
    db.put_batch(&batch).unwrap();
    let want = db.state_digest().unwrap();
    let crash = dir.path().join("crash");
    copy_dir(db.dir(), &crash);

    let log = Wal::open(
        tu_cloud::StorageEnv::open(&crash, tu_cloud::cost::LatencyMode::Off)
            .unwrap()
            .block
            .clone(),
        "wal/engine.log",
    )
    .replay()
    .unwrap();
    let run = log
        .iter()
        .find(|r| !r.checkpoint && r.stream == ids[0] && r.payload.len() == 400 * 16)
        .expect("the run is one record");
    assert!(
        log.iter().any(|r| r.checkpoint
            && r.stream == ids[0]
            && r.seq > run.seq - 400
            && r.seq < run.seq),
        "no checkpoint fell inside the run"
    );

    let recovered = TimeUnion::open(&crash, opts()).unwrap();
    assert_eq!(recovered.state_digest().unwrap(), want);
    let res = recovered
        .query(
            &[tu_index::Selector::exact("metric", "m0")],
            0,
            i64::MAX / 2,
        )
        .unwrap();
    assert_eq!(res[0].samples.len(), 401);
}

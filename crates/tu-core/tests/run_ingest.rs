//! Run-at-a-time ingest: `put_batch` logs and applies one record per
//! series run (plus one chunk record per slow-tier partition its late
//! samples fall in), `put_by_id` a run of one. Both must answer with the
//! samples written, whatever the thread count, the order inside a run or
//! the place a checkpoint falls, and a crash image must recover to exactly
//! the state the engine had.

use std::collections::BTreeMap;
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

/// Every series' samples as `(t, value bits)`, read back through a query.
fn contents(db: &TimeUnion, series: usize) -> Vec<Vec<(Timestamp, u64)>> {
    (0..series)
        .map(|s| {
            let sel = [tu_index::Selector::exact("metric", format!("m{s}"))];
            let res = db.query(&sel, 0, i64::MAX / 2).unwrap();
            res[0]
                .samples
                .iter()
                .map(|x| (x.t, x.v.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn put_batch_matches_put_by_id_at_every_width() {
    let dir = tempfile::tempdir().unwrap();
    let (reference, ids) = open(&dir.path().join("by-id"), 12);
    let batches = batches(&ids);
    // The newest arrival per timestamp, plus the seed sample at 0.
    let mut model: Vec<BTreeMap<Timestamp, u64>> = vec![BTreeMap::from([(0, 0)]); ids.len()];
    for batch in &batches {
        for &(id, t, v) in batch {
            reference.put_by_id(id, t, v).unwrap();
            model[ids.iter().position(|&i| i == id).unwrap()].insert(t, v.to_bits());
        }
    }
    let want: Vec<Vec<(Timestamp, u64)>> =
        model.into_iter().map(|m| m.into_iter().collect()).collect();
    assert_eq!(contents(&reference, ids.len()), want, "put_by_id");
    let mut digest = None;
    for threads in [1, 2, 8] {
        let (db, same_ids) = open(&dir.path().join(format!("batch-{threads}")), 12);
        assert_eq!(same_ids, ids);
        db.set_ingest_threads(threads);
        for batch in &batches {
            db.put_batch(batch).unwrap();
        }
        assert_eq!(
            contents(&db, ids.len()),
            want,
            "put_batch at {threads} threads"
        );
        let live = db.state_digest().unwrap();
        assert_eq!(
            digest.get_or_insert_with(|| live.clone()),
            &live,
            "put_batch at {threads} threads"
        );
        let crash = dir.path().join(format!("crash-{threads}"));
        copy_dir(db.dir(), &crash);
        let recovered = TimeUnion::open(&crash, opts()).unwrap();
        assert_eq!(
            recovered.state_digest().unwrap(),
            live,
            "crash image at {threads} threads"
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

/// A late chunk's checkpoint must free the log behind the head it passed
/// over. Series A's head rows are logged again after A's late chunk, so
/// the segment holding their first copies goes once series B's traffic
/// has flushed the chunk; a checkpoint kept below the head would pin it.
#[test]
fn a_late_chunk_does_not_pin_the_log_behind_its_head() {
    let dir = tempfile::tempdir().unwrap();
    let (db, ids) = open(&dir.path().join("db"), 2);
    let (a, b) = (ids[0], ids[1]);
    db.put_batch(&[(a, 1_000, 1.0)]).unwrap();
    let traffic = |from: i64| {
        for k in 0..10 {
            let batch: Batch = (0..10_000)
                .map(|i| (b, from + (k * 10_000 + i) * 1_000 + 1, 0.0))
                .collect();
            db.put_batch(&batch).unwrap();
        }
    };
    let segments = || -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(db.dir().join("block").join("wal"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    traffic(0);
    assert_eq!(segments()[0], "engine.log.00000001", "A's head pins it");
    db.put_batch(&[(a, -5, 0.5)]).unwrap();
    traffic(1 << 40);
    assert_ne!(segments()[0], "engine.log.00000001", "{:?}", segments());
}

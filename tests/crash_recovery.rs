//! Crash-recovery integration: the sequence-ID logging scheme of §3.3
//! must restore identifiers, head chunks, and in-flight memtable data
//! after an unclean shutdown, and the WAL must shrink after checkpoints.

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;

fn options() -> Options {
    Options {
        chunk_samples: 8,
        index_slots_per_segment: 1 << 14,
        wal_batch_records: 4,
        tree: TreeOptions {
            memtable_bytes: 8 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

fn labels(host: usize, metric: usize) -> Labels {
    Labels::from_pairs([
        ("hostname", format!("host_{host}")),
        ("metric", format!("m{metric}")),
    ])
}

#[test]
fn full_timeline_survives_restart() {
    let dir = tempfile::tempdir().unwrap();
    let total_series = 20usize;
    let steps = 60i64;
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let ids: Vec<u64> = (0..total_series)
            .map(|i| db.put(&labels(i / 5, i % 5), 0, 0.0).unwrap())
            .collect();
        for step in 1..steps {
            for (i, id) in ids.iter().enumerate() {
                db.put_by_id(*id, step * 1000, (i as i64 * step) as f64)
                    .unwrap();
            }
        }
        db.sync().unwrap();
        // Unclean: no flush_all; head chunks + memtable content must come
        // back from the WAL.
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    assert_eq!(db.series_count(), total_series);
    for i in 0..total_series {
        let sel = vec![
            Selector::exact("hostname", format!("host_{}", i / 5)),
            Selector::exact("metric", format!("m{}", i % 5)),
        ];
        let res = db.query(&sel, 0, steps * 1000).unwrap();
        // Several series share labels (i/5, i%5 collide); dedup on insert
        // means each unique label set exists once.
        assert_eq!(res.len(), 1, "series {i}");
        assert_eq!(res[0].samples.len() as i64, steps, "series {i}");
    }
}

#[test]
fn restart_is_idempotent_across_multiple_cycles() {
    let dir = tempfile::tempdir().unwrap();
    let l = Labels::from_pairs([("metric", "counter")]);
    let mut expected = Vec::new();
    for cycle in 0..4i64 {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        for k in 0..25i64 {
            let t = cycle * 25_000 + k * 1000;
            db.put(&l, t, (cycle * 100 + k) as f64).unwrap();
            expected.push(t);
        }
        db.sync().unwrap();
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let res = db
        .query(&[Selector::exact("metric", "counter")], 0, 1_000_000)
        .unwrap();
    let got: Vec<i64> = res[0].samples.iter().map(|s| s.t).collect();
    assert_eq!(got, expected);
}

#[test]
fn groups_survive_restart_with_slots_intact() {
    let dir = tempfile::tempdir().unwrap();
    let gt = Labels::from_pairs([("host", "h1")]);
    let members: Vec<Labels> = (0..6)
        .map(|i| Labels::from_pairs([("metric", format!("m{i}"))]))
        .collect();
    let (gid_before, refs_before);
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let (gid, refs) = db.put_group(&gt, &members, 0, &[0.0; 6]).unwrap();
        for step in 1..40i64 {
            let vals: Vec<f64> = (0..6).map(|m| (step * 10 + m) as f64).collect();
            db.put_group_fast(gid, &refs, step * 1000, &vals).unwrap();
        }
        db.sync().unwrap();
        gid_before = gid;
        refs_before = refs;
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    assert_eq!(db.group_count(), 1);
    // The recovered group accepts fast-path writes with the same handles.
    db.put_group_fast(gid_before, &refs_before, 100_000, &[1.0; 6])
        .unwrap();
    for m in 0..6 {
        let sel = vec![
            Selector::exact("host", "h1"),
            Selector::exact("metric", format!("m{m}")),
        ];
        let res = db.query(&sel, 0, 200_000).unwrap();
        assert_eq!(res.len(), 1, "member {m}");
        assert_eq!(res[0].samples.len(), 41, "member {m}");
        assert_eq!(res[0].samples[7].v, (7 * 10 + m) as f64);
    }
}

#[test]
fn wal_shrinks_after_checkpointed_flushes() {
    let dir = tempfile::tempdir().unwrap();
    let mut opts = options();
    opts.wal_purge_bytes = 1; // over the limit at every maintenance round
    let db = TimeUnion::open(dir.path().join("db"), opts).unwrap();
    let id = db
        .put(&Labels::from_pairs([("metric", "m")]), 0, 0.0)
        .unwrap();
    let wal_len = || -> u64 {
        // The directory appears with the first group-commit wave.
        std::fs::read_dir(dir.path().join("db").join("block").join("wal"))
            .into_iter()
            .flatten()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with("engine.log"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    };
    let mut peak = 0;
    for i in 1..2_000i64 {
        db.put_by_id(id, i * 1000, i as f64).unwrap();
        peak = peak.max(wal_len());
    }
    assert!(
        peak > 2_000 * 16 / 4,
        "samples are logged before they flush"
    );
    db.flush_all().unwrap();
    // Everything sealed + flushed: the WAL should be nearly empty (only
    // checkpoints and the unsealed tail survive the purge).
    let wal_len = wal_len();
    assert!(
        wal_len < 2_000 * 16 / 4,
        "wal should shrink after checkpoints, still {wal_len} bytes"
    );
    // And recovery from the purged log still works.
    drop(db);
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let res = db
        .query(&[Selector::exact("metric", "m")], 0, 3_000_000)
        .unwrap();
    assert_eq!(res[0].samples.len(), 2_000);
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
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

/// A crash image is the data directory as `kill -9` would leave it: copied
/// while the engine is open, no `sync`, no `Drop`.
#[test]
fn series_acknowledged_by_sync_wal_survive_a_crash_image() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    // Created by label set and acknowledged by `sync_wal` alone...
    let ids: Vec<u64> = (0..8)
        .map(|i| db.put(&labels(i, 0), 1_000, i as f64).unwrap())
        .collect();
    db.sync_wal().unwrap();
    copy_dir(&dir.path().join("db"), &dir.path().join("crash1"));
    // ...and created, then acknowledged by the `put_batch` that follows.
    let late = db.put(&labels(9, 9), 1_000, 9.0).unwrap();
    let batch: Vec<(u64, i64, f64)> = ids
        .iter()
        .chain([&late])
        .map(|&id| (id, 2_000, 0.5))
        .collect();
    db.put_batch(&batch).unwrap();
    copy_dir(&dir.path().join("db"), &dir.path().join("crash2"));

    let recovered = TimeUnion::open(dir.path().join("crash1"), options()).unwrap();
    assert_eq!(recovered.series_count(), 8);
    for i in 0..8 {
        let sel = vec![Selector::exact("hostname", format!("host_{i}"))];
        let res = recovered.query(&sel, 0, 10_000).unwrap();
        assert_eq!(res.len(), 1, "series {i} lost by the crash");
        assert_eq!(res[0].samples.len(), 1, "series {i}");
    }
    let recovered = TimeUnion::open(dir.path().join("crash2"), options()).unwrap();
    assert_eq!(recovered.series_count(), 9);
    let res = recovered
        .query(&[Selector::exact("metric", "m9")], 0, 10_000)
        .unwrap();
    assert_eq!(res[0].samples.len(), 2);
}

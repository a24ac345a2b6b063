//! Crash-recovery integration: the sequence-ID logging scheme of §3.3
//! must restore identifiers, head chunks, and in-flight memtable data
//! after an unclean shutdown, and the WAL must shrink after checkpoints.
//! L2 patches, which live on the fast tier until they merge, leave no
//! orphan after a crash, go with their partition at retention, and are
//! all merged by a drain.

use timeunion::cloud::StorageEnv;
use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;

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

/// After `flush_all` the LSM manifest is the only record of the flushed
/// tables. It is replaced whole and always starts with its header, so an
/// empty one — what a crash between the truncate and the write of an
/// in-place rewrite leaves — fails the open instead of opening an empty
/// tree that silently lost every flushed sample.
#[test]
fn empty_lsm_manifest_fails_the_open() {
    let dir = tempfile::tempdir().unwrap();
    let l = Labels::from_pairs([("metric", "m")]);
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 0, 0.0).unwrap();
        for i in 1..400i64 {
            db.put_by_id(id, i * 1000, i as f64).unwrap();
        }
        db.flush_all().unwrap();
    }
    copy_dir(&dir.path().join("db"), &dir.path().join("torn"));
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let res = db
        .query(&[Selector::exact("metric", "m")], 0, 1_000_000)
        .unwrap();
    assert_eq!(res[0].samples.len(), 400);

    let manifest = dir.path().join("torn").join("block").join("MANIFEST");
    std::fs::write(&manifest, b"").unwrap();
    assert!(
        TimeUnion::open(dir.path().join("torn"), options()).is_err(),
        "an empty manifest opened as an empty tree"
    );
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

/// A sample older than the head leaves early, and the checkpoint written
/// once its chunk is flushed must not cover the samples still buffered in
/// the head.
#[test]
fn early_flush_checkpoint_keeps_buffered_head_samples() {
    let dir = tempfile::tempdir().unwrap();
    let mut opts = options();
    // Every chunk put seals the memtable, so the late chunk is flushed and
    // its checkpoint written before `put_batch` returns.
    opts.tree.memtable_bytes = 1;
    let db = TimeUnion::open(dir.path().join("db"), opts.clone()).unwrap();
    let id = db
        .put(&Labels::from_pairs([("metric", "late")]), 10_000, 1.0)
        .unwrap();
    db.put_batch(&[(id, 20_000, 2.0), (id, 30_000, 3.0)])
        .unwrap();
    db.put_batch(&[(id, 5_000, 0.5)]).unwrap();
    assert_eq!(db.tree_stats().flushes, 1, "the late chunk reached L0");
    copy_dir(&dir.path().join("db"), &dir.path().join("crash"));

    let recovered = TimeUnion::open(dir.path().join("crash"), opts).unwrap();
    let res = recovered
        .query(&[Selector::exact("metric", "late")], 0, 100_000)
        .unwrap();
    let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert_eq!(
        got,
        [(5_000, 0.5), (10_000, 1.0), (20_000, 2.0), (30_000, 3.0)]
    );
}

/// A late chunk read back from the log is checkpointed once its memtable
/// is flushed after the reopen. The head rows it was numbered above, read
/// back from older records, must be logged again before that checkpoint.
#[test]
fn replayed_late_chunk_checkpoint_keeps_the_head() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let id = db
        .put(&Labels::from_pairs([("metric", "late")]), 10_000, 1.0)
        .unwrap();
    db.put_batch(&[(id, 20_000, 2.0), (id, 30_000, 3.0)])
        .unwrap();
    db.put_batch(&[(id, 5_000, 0.5)]).unwrap();
    assert_eq!(db.tree_stats().flushes, 0, "no checkpoint before the crash");
    let crash = dir.path().join("crash");
    copy_dir(&dir.path().join("db"), &crash);

    // Replay puts the chunk into a memtable that seals at once; the sync
    // flushes it and writes the chunk's checkpoint.
    let mut tiny = options();
    tiny.tree.memtable_bytes = 1;
    let reopened = TimeUnion::open(&crash, tiny.clone()).unwrap();
    reopened.sync().unwrap();
    assert_eq!(reopened.tree_stats().flushes, 1);
    copy_dir(&crash, &dir.path().join("again"));

    let recovered = TimeUnion::open(dir.path().join("again"), tiny).unwrap();
    let res = recovered
        .query(&[Selector::exact("metric", "late")], 0, 100_000)
        .unwrap();
    let got: Vec<i64> = res[0].samples.iter().map(|s| s.t).collect();
    assert_eq!(got, [5_000, 10_000, 20_000, 30_000]);
}

/// Late chunks apply in the order they were written, also across a
/// restart whose log no longer numbers the older one.
#[test]
fn newer_late_sample_wins_after_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let l = Labels::from_pairs([("metric", "late")]);
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 10_000, 1.0).unwrap();
        db.put_batch(&[(id, 11_000, 1.1), (id, 12_000, 1.2)])
            .unwrap();
        db.put_batch(&[(id, 5_000, 0.5)]).unwrap();
        db.flush_all().unwrap();
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let id = db.put(&l, 20_000, 2.0).unwrap();
    db.put_batch(&[(id, 5_000, 9.0)]).unwrap();
    let res = db
        .query(&[Selector::exact("metric", "late")], 0, 100_000)
        .unwrap();
    let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert_eq!(
        got,
        [
            (5_000, 9.0),
            (10_000, 1.0),
            (11_000, 1.1),
            (12_000, 1.2),
            (20_000, 2.0)
        ]
    );
}

/// The group variant of `early_flush_checkpoint_keeps_buffered_head_samples`:
/// a row older than the group's head leaves as a one-row chunk, and its
/// checkpoint must not cover the rows still buffered in the head.
#[test]
fn group_early_flush_checkpoint_keeps_buffered_head_rows() {
    let dir = tempfile::tempdir().unwrap();
    let mut opts = options();
    opts.tree.memtable_bytes = 1;
    let db = TimeUnion::open(dir.path().join("db"), opts.clone()).unwrap();
    let gt = Labels::from_pairs([("host", "h1")]);
    let members: Vec<Labels> = (0..2)
        .map(|i| Labels::from_pairs([("metric", format!("m{i}"))]))
        .collect();
    let (gid, refs) = db.put_group(&gt, &members, 10_000, &[1.0, 1.5]).unwrap();
    db.put_group_fast(gid, &refs, 20_000, &[2.0, 2.5]).unwrap();
    db.put_group_fast(gid, &refs, 30_000, &[3.0, 3.5]).unwrap();
    db.put_group_fast(gid, &refs, 5_000, &[0.5, 0.75]).unwrap();
    assert_eq!(db.tree_stats().flushes, 1, "the one-row chunk reached L0");
    db.sync_wal().unwrap();
    copy_dir(&dir.path().join("db"), &dir.path().join("crash"));

    let recovered = TimeUnion::open(dir.path().join("crash"), opts).unwrap();
    let res = recovered
        .query(&[Selector::exact("metric", "m1")], 0, 100_000)
        .unwrap();
    let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert_eq!(
        got,
        [(5_000, 0.75), (10_000, 1.5), (20_000, 2.5), (30_000, 3.5)]
    );
}

/// After a restart whose log is empty, a series still knows the newest
/// timestamp its late chunks hold: a rewrite at or below it is late too,
/// and outranks the old late chunk, even when nothing newer came first.
#[test]
fn rewrite_of_a_late_sample_wins_after_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let l = Labels::from_pairs([("metric", "late")]);
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 10_000, 1.0).unwrap();
        db.put_batch(&[(id, 11_000, 1.1)]).unwrap();
        db.put_batch(&[(id, 5_000, 0.5), (id, 6_000, 0.6)]).unwrap();
        db.flush_all().unwrap();
    }
    let want = [(5_000, 9.5), (6_000, 9.6), (10_000, 1.0), (11_000, 1.1)];
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 6_000, 9.6).unwrap();
        db.put_by_id(id, 5_000, 9.5).unwrap();
        db.flush_all().unwrap();
        let res = db
            .query(&[Selector::exact("metric", "late")], 0, 100_000)
            .unwrap();
        let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
        assert_eq!(got, want);
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let res = db
        .query(&[Selector::exact("metric", "late")], 0, 100_000)
        .unwrap();
    let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert_eq!(got, want, "after a second restart");
}

/// `engine.meta` is what late chunks' versions and timestamps rise from
/// once the log that carried them is gone. It is replaced whole: a
/// leftover temporary copy from a torn replacement is never read, and a
/// meta file cut short fails the open instead of restarting the versions.
#[test]
fn late_chunk_versions_survive_a_torn_meta_replacement() {
    let dir = tempfile::tempdir().unwrap();
    let l = Labels::from_pairs([("metric", "late")]);
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 10_000, 1.0).unwrap();
        db.put_batch(&[(id, 5_000, 0.5)]).unwrap();
        db.flush_all().unwrap();
    }
    let meta = dir.path().join("db").join("block").join("engine.meta");
    std::fs::write(meta.with_extension("meta.tmp"), [0xff; 5]).unwrap();
    copy_dir(&dir.path().join("db"), &dir.path().join("short"));
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let id = db.put(&l, 5_000, 9.0).unwrap();
        db.flush_all().unwrap();
        let res = db
            .query(&[Selector::exact("metric", "late")], 0, 100_000)
            .unwrap();
        let got: Vec<(i64, f64)> = res[0].samples.iter().map(|s| (s.t, s.v)).collect();
        assert_eq!(got, [(5_000, 9.0), (10_000, 1.0)], "series {id}");
    }
    let short = dir.path().join("short").join("block").join("engine.meta");
    let bytes = std::fs::read(&short).unwrap();
    std::fs::write(&short, &bytes[..bytes.len() - 3]).unwrap();
    assert!(TimeUnion::open(dir.path().join("short"), options()).is_err());
}

/// Options under which every chunk put seals the memtable and only an
/// explicit pass flushes it.
fn patch_options() -> Options {
    let mut opts = options();
    opts.tree.memtable_bytes = 1;
    opts.inline_maintenance = false;
    opts
}

/// In-order samples of `metric="patched"`, one a minute over six hours,
/// then late ones between the first window's in-order samples, each set
/// acknowledged and then taken down by a pass. The first 2-hour window is
/// closed and in L2 when the late chunk arrives, so the chunk becomes a
/// patch of its table. `before_late` runs ahead of the late chunk's pass.
/// Returns the samples written, by timestamp.
fn write_then_patch(db: &TimeUnion, before_late: impl FnOnce()) -> Vec<(i64, f64)> {
    const MIN: i64 = 60_000;
    let l = Labels::from_pairs([("metric", "patched")]);
    let id = db.put(&l, 0, 0.0).unwrap();
    let mut want = vec![(0, 0.0)];
    for i in 1..360i64 {
        db.put_by_id(id, i * MIN, i as f64).unwrap();
        want.push((i * MIN, i as f64));
    }
    db.sync().unwrap();
    assert!(db.tree_stats().l2_partitions >= 2, "{:?}", db.tree_stats());
    let late: Vec<(u64, i64, f64)> = (10..18i64)
        .map(|i| (id, i * MIN + 30_000, -(i as f64)))
        .collect();
    db.put_batch(&late).unwrap();
    before_late();
    db.maintain().unwrap();
    want.extend(late.iter().map(|&(_, t, v)| (t, v)));
    want.sort_by_key(|&(t, _)| t);
    want
}

/// The L2 patches a store holds, on either tier.
fn patches(store: &StorageEnv) -> Vec<String> {
    let mut names = [
        store.block.list_prefix("l2/"),
        store.object.list_prefix("l2/"),
    ]
    .concat();
    names.retain(|n| n.contains("/patch-"));
    names
}

/// A crash after a pass wrote an L2 patch but before it saved the
/// manifest leaves a patch no manifest names. The reopen deletes it, and
/// every acknowledged sample, the late ones too, reads back.
#[test]
fn crash_between_a_patch_write_and_the_manifest_save_leaves_no_orphan() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tu_core::maintenance::Step;
    let dir = tempfile::tempdir().unwrap();
    let (db_dir, crash) = (dir.path().join("db"), dir.path().join("crash"));
    let db = TimeUnion::open(&db_dir, patch_options()).unwrap();
    let armed = Arc::new(AtomicBool::new(false));
    {
        let (armed, db_dir, crash) = (armed.clone(), db_dir.clone(), crash.clone());
        db.set_step_hook(move |step| {
            if step == Step::UploadWindows && armed.swap(false, Ordering::SeqCst) {
                copy_dir(&db_dir, &crash);
            }
        });
    }
    let mut named = Vec::new();
    let want = write_then_patch(&db, || {
        named = patches(db.storage());
        armed.store(true, Ordering::SeqCst);
    });
    let s = db.tree_stats();
    assert_eq!(s.patches_created, named.len() as u64 + 1, "{s:?}");
    drop(db);
    let image = StorageEnv::open(&crash, LatencyMode::Off).unwrap();
    assert_eq!(
        patches(&image).len(),
        named.len() + 1,
        "the image holds the patch"
    );
    drop(image);

    let db = TimeUnion::open(&crash, patch_options()).unwrap();
    assert_eq!(
        patches(db.storage()),
        named,
        "the unnamed patch is swept at open"
    );
    let got = db
        .query(&[Selector::exact("metric", "patched")], 0, i64::MAX)
        .unwrap();
    let got: Vec<(i64, f64)> = got[0].samples.iter().map(|s| (s.t, s.v)).collect();
    let lost: Vec<_> = want.iter().filter(|s| !got.contains(s)).collect();
    assert!(
        got == want,
        "{} read back of {}, lost {lost:?}",
        got.len(),
        want.len()
    );
}

/// Patches live on the fast tier until their table merges, and retention
/// deletes them from there with their partition.
#[test]
fn retention_deletes_fast_tier_patches() {
    use std::sync::Arc;
    use tu_common::clock::SimClock;
    const HOUR: i64 = 3_600_000;
    let dir = tempfile::tempdir().unwrap();
    let clock = SimClock::new(0);
    let mut opts = patch_options();
    opts.retention_ms = Some(HOUR);
    opts.clock = Arc::new(clock.clone());
    let db = TimeUnion::open(dir.path().join("db"), opts).unwrap();
    let want = write_then_patch(&db, || {});
    let block = &db.storage().block;
    let on_block = block.list_prefix("l2/");
    assert_eq!(
        patches(db.storage()),
        on_block,
        "every patch is on the block store"
    );
    assert_eq!(on_block.len(), 1);
    assert!(
        on_block[0].starts_with("l2/p0-7200000/patch-"),
        "{on_block:?}"
    );

    // The watermark is 2 h: the patched partition [0, 2 h) expires.
    clock.set(3 * HOUR);
    let (partitions, _) = db.apply_retention().unwrap();
    assert!(partitions >= 1);
    assert_eq!(block.list_prefix("l2/"), Vec::<String>::new());
    let got = db
        .query(&[Selector::exact("metric", "patched")], 0, i64::MAX)
        .unwrap();
    assert_eq!(got[0].samples.first().map(|s| s.t), Some(2 * HOUR));
    assert_eq!(
        got[0].samples.len(),
        want.iter().filter(|s| s.0 >= 2 * HOUR).count()
    );
}

/// A series and a group retention purged stay purged across a reopen: the
/// catalog's removal records keep them, the group's members included, out
/// of the tag values, the counts and every query. The purged series holds
/// the highest id, so numbering derived from the live objects alone would
/// hand that id out again: the next series must be numbered above it.
#[test]
fn retention_survives_a_reopen() {
    use std::sync::Arc;
    use tu_common::clock::SimClock;
    let dir = tempfile::tempdir().unwrap();
    let clock = SimClock::new(0);
    let opts = || Options {
        retention_ms: Some(1_000_000),
        clock: Arc::new(clock.clone()),
        ..options()
    };
    let old = Labels::from_pairs([("metric", "old")]);
    let new = Labels::from_pairs([("metric", "new")]);
    let metric = |v: &str| vec![Selector::exact("metric", v)];
    let old_id = {
        let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        let new_id = db.put(&new, 5_000_000, 2.0).unwrap();
        let old_id = db.put(&old, 1_000, 1.0).unwrap();
        assert!(old_id > new_id);
        let group = Labels::from_pairs([("job", "old")]);
        let member = Labels::from_pairs([("metric", "member")]);
        db.put_group(&group, &[member], 1_000, &[4.0]).unwrap();
        db.sync().unwrap();
        clock.set(6_000_000);
        let (_, objects) = db.apply_retention().unwrap();
        assert_eq!(objects, 2, "the watermark is 5 000 000: both go");
        assert_eq!(db.tag_values("metric").unwrap(), vec!["new"]);
        old_id
    };
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    assert_eq!(db.tag_values("metric").unwrap(), vec!["new"]);
    assert!(db.tag_values("job").unwrap().is_empty());
    assert_eq!((db.series_count(), db.group_count()), (1, 0));
    assert!(db.query(&metric("old"), 0, i64::MAX).unwrap().is_empty());
    assert!(db.query(&metric("member"), 0, i64::MAX).unwrap().is_empty());

    let fresh = Labels::from_pairs([("metric", "fresh")]);
    let fresh_id = db.put(&fresh, 6_000_000, 3.0).unwrap();
    assert!(fresh_id > old_id, "{fresh_id} reuses a purged id");
    let got = db.query(&metric("fresh"), 0, i64::MAX).unwrap();
    let samples: Vec<(i64, f64)> = got[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert_eq!(samples, vec![(6_000_000, 3.0)]);
}

/// A drain merges every patch into its table: afterwards the fast tier
/// holds nothing under `l2/` and the manifest names no patch.
#[test]
fn flush_all_leaves_no_patch() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), patch_options()).unwrap();
    let want = write_then_patch(&db, || {});
    let store = db.storage();
    assert_eq!(store.block.list_prefix("l2/").len(), 1);
    db.flush_all().unwrap();
    assert_eq!(store.block.list_prefix("l2/"), Vec::<String>::new());
    let manifest = String::from_utf8(store.block.read_file("MANIFEST").unwrap()).unwrap();
    assert!(
        !manifest.lines().any(|l| l.starts_with("PATCH")),
        "{manifest}"
    );
    let s = db.tree_stats();
    assert_eq!((s.patches_created, s.patch_merges), (1, 1), "{s:?}");
    assert_eq!(s.fast_bytes, 0, "{s:?}");
    let got = db
        .query(&[Selector::exact("metric", "patched")], 0, i64::MAX)
        .unwrap();
    let got: Vec<(i64, f64)> = got[0].samples.iter().map(|s| (s.t, s.v)).collect();
    assert!(got == want, "{} read back of {}", got.len(), want.len());
}

fn group_members() -> (Labels, Vec<Labels>) {
    let tags = Labels::from_pairs([("host", "h1")]);
    let members = (0..2)
        .map(|i| Labels::from_pairs([("metric", format!("m{i}"))]))
        .collect();
    (tags, members)
}

/// Every sample of group member `m{member}`, as `(t, v)`.
fn member_samples(db: &TimeUnion, member: usize) -> Vec<(i64, f64)> {
    let sel = [Selector::exact("metric", format!("m{member}"))];
    let res = db.query(&sel, 0, 1_000_000).unwrap();
    res.iter()
        .flat_map(|r| r.samples.iter().map(|s| (s.t, s.v)))
        .collect()
}

/// A late group row is logged as a NULL-XOR chunk record. Acknowledged by
/// `sync_wal` and read back from the log of a crash image taken before
/// any pass, it still overrides only the member it carries, and the
/// sealed chunk whose first timestamp it shares stays whole.
#[test]
fn late_group_chunk_acknowledged_by_sync_wal_survives_a_crash_image() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let (tags, members) = group_members();
    let row = |t: i64| [t as f64, t as f64 + 0.5];
    let (gid, refs) = db.put_group(&tags, &members, 10_000, &row(10_000)).unwrap();
    for t in (11_000..20_000).step_by(1000) {
        db.put_group_fast(gid, &refs, t, &row(t)).unwrap();
    }
    db.put_group_fast(gid, &refs[..1], 10_000, &[-1.0]).unwrap();
    db.sync_wal().unwrap();
    assert_eq!(db.tree_stats().flushes, 0, "no pass before the crash");
    copy_dir(&dir.path().join("db"), &dir.path().join("crash"));

    let want = |member: usize| -> Vec<(i64, f64)> {
        (10_000..20_000)
            .step_by(1000)
            .map(|t| match (member, t) {
                (0, 10_000) => (t, -1.0),
                _ => (t, row(t)[member]),
            })
            .collect()
    };
    for (what, db) in [
        ("live", db),
        (
            "recovered",
            TimeUnion::open(dir.path().join("crash"), options()).unwrap(),
        ),
    ] {
        for member in 0..2 {
            let got = member_samples(&db, member);
            assert_eq!(got, want(member), "{what} m{member}: {} of 10", got.len());
        }
    }
}

/// After a pass and a reopen whose log is empty, a group still knows the
/// newest timestamp its late chunks hold (`engine.meta`): a new row at
/// that timestamp is late again, so it outranks the old late chunk for
/// the member it carries and leaves the other member's value alone.
#[test]
fn group_row_at_a_late_timestamp_is_late_after_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let (tags, members) = group_members();
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        let (gid, refs) = db.put_group(&tags, &members, 10_000, &[1.0, 1.5]).unwrap();
        db.put_group_fast(gid, &refs, 11_000, &[1.1, 1.6]).unwrap();
        db.put_group_fast(gid, &refs, 5_000, &[0.5, 0.75]).unwrap();
        db.flush_all().unwrap();
    }
    let want = [
        vec![(5_000, 9.0), (10_000, 1.0), (11_000, 1.1)],
        vec![(5_000, 0.75), (10_000, 1.5), (11_000, 1.6)],
    ];
    {
        let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
        db.put_group(&tags, &members[..1], 5_000, &[9.0]).unwrap();
        db.flush_all().unwrap();
        for (member, want) in want.iter().enumerate() {
            assert_eq!(&member_samples(&db, member), want, "m{member}");
        }
    }
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    for (member, want) in want.iter().enumerate() {
        assert_eq!(
            &member_samples(&db, member),
            want,
            "m{member} after a reopen"
        );
    }
}

/// The bytes of every WAL segment, by name.
fn wal_bytes(db_dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(db_dir.join("block").join("wal"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A group row naming a member slot the group lacks is refused before it
/// is logged: no WAL record, no sequence number used up.
#[test]
fn rejected_group_row_leaves_no_wal_record() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), options()).unwrap();
    let (tags, members) = group_members();
    let (gid, refs) = db.put_group(&tags, &members, 10_000, &[1.0, 1.5]).unwrap();
    db.sync_wal().unwrap();
    let before = wal_bytes(&dir.path().join("db"));
    let err = db.put_group_fast(gid, &[refs[0], 7], 11_000, &[1.1, 1.6]);
    assert!(
        matches!(err, Err(tu_common::Error::InvalidArgument(_))),
        "{err:?}"
    );
    db.sync_wal().unwrap();
    assert_eq!(wal_bytes(&dir.path().join("db")), before);
}

/// Every sample `label` reads back over all time, in order.
fn read_metric(db: &TimeUnion, label: &str) -> Vec<(i64, f64)> {
    let res = db
        .query(&[Selector::exact("metric", label)], 0, i64::MAX)
        .unwrap();
    res.iter()
        .flat_map(|s| s.samples.iter().map(|p| (p.t, p.v)))
        .collect()
}

/// A series the crash lost must not give its id to the next series
/// created: the WAL records it left behind would replay into the new one.
/// Each WAL wave makes the catalog durable before the records it appends.
#[test]
fn a_lost_series_never_gives_its_id_to_the_next_one() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || Options {
        wal_batch_records: 1,
        ..options()
    };
    let (db_dir, crash1, crash2) = (
        dir.path().join("db"),
        dir.path().join("crash1"),
        dir.path().join("crash2"),
    );
    {
        let db = TimeUnion::open(&db_dir, opts()).unwrap();
        db.put(&Labels::from_pairs([("metric", "x")]), 1_000, 111.0)
            .unwrap();
        copy_dir(&db_dir, &crash1);
    }
    {
        let db = TimeUnion::open(&crash1, opts()).unwrap();
        db.put(&Labels::from_pairs([("metric", "y")]), 2_000, 222.0)
            .unwrap();
        db.sync_wal().unwrap();
        copy_dir(&crash1, &crash2);
    }
    let db = TimeUnion::open(&crash2, opts()).unwrap();
    assert_eq!(read_metric(&db, "y"), [(2_000, 222.0)]);
    let x = read_metric(&db, "x");
    assert!(x.is_empty() || x == [(1_000, 111.0)], "x read {x:?}");
}

/// Likewise for the chunks a pass stored: an image taken once the pass
/// saved a manifest naming the tables that hold `x`'s chunks must know
/// `x`, or the next series created would read them as its own. No WAL
/// wave runs before the pass here, so only the pass can flush the catalog.
#[test]
fn a_lost_series_never_gives_its_stored_chunks_to_the_next_one() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tu_core::maintenance::Step;
    let dir = tempfile::tempdir().unwrap();
    let opts = || Options {
        wal_batch_records: 1 << 20,
        ..options()
    };
    let (db_dir, crash) = (dir.path().join("db"), dir.path().join("crash"));
    let db = TimeUnion::open(&db_dir, opts()).unwrap();
    let armed = Arc::new(AtomicBool::new(false));
    {
        let (armed, db_dir, crash) = (armed.clone(), db_dir.clone(), crash.clone());
        db.set_step_hook(move |step| {
            if step == Step::SaveManifest && armed.swap(false, Ordering::SeqCst) {
                copy_dir(&db_dir, &crash);
            }
        });
    }
    let x: Vec<(i64, f64)> = (0..40).map(|i| (i * 1_000, i as f64)).collect();
    let id = db
        .put(&Labels::from_pairs([("metric", "x")]), x[0].0, x[0].1)
        .unwrap();
    for &(t, v) in &x[1..] {
        db.put_by_id(id, t, v).unwrap();
    }
    armed.store(true, Ordering::SeqCst);
    db.flush_all().unwrap();
    assert!(!armed.load(Ordering::SeqCst), "the pass took no image");
    drop(db);

    let db = TimeUnion::open(&crash, opts()).unwrap();
    db.put(&Labels::from_pairs([("metric", "y")]), 100_000, 222.0)
        .unwrap();
    assert_eq!(read_metric(&db, "y"), [(100_000, 222.0)]);
    let got = read_metric(&db, "x");
    assert!(got.is_empty() || got == x, "x read {got:?}");
}

/// A wave whose catalog flush fails fails like a failed append, and
/// leaves the catalog records queued: the next wave makes them durable
/// before it appends records of the series they create. Were they
/// dropped, a later wave would log `x`'s samples under an id that no
/// recovered engine knows, and the next series created would read them.
#[test]
fn a_failed_catalog_flush_keeps_the_series_for_the_next_wave() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || Options {
        wal_batch_records: 1,
        ..options()
    };
    let (db_dir, crash1, crash2) = (
        dir.path().join("db"),
        dir.path().join("crash1"),
        dir.path().join("crash2"),
    );
    let x = Labels::from_pairs([("metric", "x")]);
    {
        let db = TimeUnion::open(&db_dir, opts()).unwrap();
        // A directory where the catalog file belongs fails its append.
        let cat = db_dir.join("block/catalog/series.cat");
        assert!(!cat.exists(), "the catalog was written before any series");
        std::fs::create_dir_all(&cat).unwrap();
        assert!(db.put(&x, 1_000, 111.0).is_err());
        std::fs::remove_dir(&cat).unwrap();
        db.put(&x, 2_000, 112.0).unwrap();
        db.sync_wal().unwrap();
        copy_dir(&db_dir, &crash1);
    }
    {
        let db = TimeUnion::open(&crash1, opts()).unwrap();
        assert_eq!(read_metric(&db, "x"), [(2_000, 112.0)]);
        db.put(&Labels::from_pairs([("metric", "y")]), 3_000, 222.0)
            .unwrap();
        db.sync_wal().unwrap();
        copy_dir(&crash1, &crash2);
    }
    let db = TimeUnion::open(&crash2, opts()).unwrap();
    assert_eq!(read_metric(&db, "y"), [(3_000, 222.0)]);
    assert_eq!(read_metric(&db, "x"), [(2_000, 112.0)]);
}

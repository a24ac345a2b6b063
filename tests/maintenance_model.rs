//! The maintenance pass checked against a reference model at every step
//! boundary.
//!
//! Seeded op sequences — in-order, late and duplicate puts, batches, group
//! rows in order, late or repeated, `sync_wal`, `sync`, `flush_all` and
//! retention — run against one engine and a `BTreeMap` of every value
//! written per `(series, t)`. A step
//! hook copies the store at every step boundary of every pass, which is
//! what a crash there would leave; each copy is reopened and must hold
//! every acknowledged sample, at its last acknowledged value or a newer
//! one, and nothing retention purged. While a pass compacts, a second
//! thread reads the live engine and must see the same samples throughout.
//!
//! Before some retention passes a series goes quiet just short of the
//! watermark, its last chunk keyed in the L2 partition before the
//! watermark's and straddling into that one, which retention keeps. Every
//! image, and the live engine, is also read from that partition's start:
//! a window whose samples come from a chunk keyed before it, found through
//! the key bound each table and memtable's reach gives a query.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_common::clock::SimClock;
use tu_core::maintenance::Step;

const MIN: i64 = 60_000;
/// In-order samples of one series are this far apart.
const STEP_MS: i64 = 30_000;
const RETENTION_MS: i64 = 6 * MIN;

fn options(clock: &SimClock) -> Options {
    Options {
        chunk_samples: 8,
        index_slots_per_segment: 1 << 12,
        page_cache_bytes: 8 << 20,
        arena_chunks_per_file: 1 << 10,
        wal_batch_records: 4,
        retention_ms: Some(RETENTION_MS),
        clock: Arc::new(clock.clone()),
        tree: TreeOptions {
            memtable_bytes: 1 << 10,
            l0_partition_ms: MIN,
            l2_partition_ms: 4 * MIN,
            partition_min_ms: 30_000,
            max_sstable_bytes: 32 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

/// Copies a store, folding every file's path and bytes into `hash`.
fn copy_dir(from: &Path, to: &Path, hash: &mut impl Hasher) {
    std::fs::create_dir_all(to).unwrap();
    let mut entries: Vec<_> = std::fs::read_dir(from)
        .unwrap()
        .map(Result::unwrap)
        .collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let target = to.join(entry.file_name());
        entry.file_name().hash(hash);
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target, hash);
        } else {
            let bytes = std::fs::read(entry.path()).unwrap();
            bytes.hash(hash);
            std::fs::write(target, bytes).unwrap();
        }
    }
}

/// A sample's identity: its series' label bytes and its timestamp.
type Key = (Vec<u8>, i64);

/// Every sample the engine returns for `job="model"`, series and group
/// members alike.
fn read_all(db: &TimeUnion) -> BTreeMap<Key, f64> {
    read_from(db, 0)
}

/// [`read_all`] of the samples at or after `start`.
fn read_from(db: &TimeUnion, start: i64) -> BTreeMap<Key, f64> {
    let res = db
        .query(&[Selector::exact("job", "model")], start, i64::MAX / 4)
        .unwrap();
    res.into_iter()
        .flat_map(|r| {
            let labels = r.labels.to_bytes();
            r.samples
                .into_iter()
                .map(move |s| ((labels.clone(), s.t), s.v))
        })
        .collect()
}

/// The values written to one key, oldest first, and how many of them are
/// acknowledged.
#[derive(Default, Clone)]
struct History {
    writes: Vec<f64>,
    acked: usize,
}

#[derive(Default)]
struct Model {
    live: BTreeMap<Key, History>,
    /// Retention dropped these, from a series that lives on or with the
    /// series itself: once the pass that dropped them has ended, they must
    /// never read back.
    purged: BTreeSet<Key>,
    /// Every read is repeated from here, and must give the samples of the
    /// full read at or after it ([`check_window`]).
    probe: i64,
}

/// Reads `db` from `probe` and compares with `all`, a read from 0.
fn check_window(db: &TimeUnion, all: &BTreeMap<Key, f64>, probe: i64, what: &str) {
    let want: BTreeMap<Key, f64> = all
        .iter()
        .filter(|(k, _)| k.1 >= probe)
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    assert_eq!(read_from(db, probe), want, "{what}: read from {probe}");
}

impl Model {
    fn write(&mut self, labels: &Labels, t: i64, v: f64) {
        let h = self.live.entry((labels.to_bytes(), t)).or_default();
        h.writes.push(v);
    }

    fn ack_all(&mut self) {
        for h in self.live.values_mut() {
            h.acked = h.writes.len();
        }
    }

    fn newest(&self) -> BTreeMap<Key, f64> {
        let newest = |h: &History| *h.writes.last().unwrap();
        self.live
            .iter()
            .map(|(k, h)| (k.clone(), newest(h)))
            .collect()
    }

    /// Reopens a crash image and checks it. `optional` samples may or may
    /// not be back: retention dropped them during the op the image was
    /// taken in.
    fn check_image(&self, image: &Path, optional: &BTreeSet<Key>, what: &str) {
        let db = TimeUnion::open(image, options(&SimClock::new(0))).unwrap();
        let got = read_all(&db);
        check_window(&db, &got, self.probe, what);
        for (key, v) in &got {
            let Some(h) = self.live.get(key) else {
                let why = match self.purged.contains(key) {
                    true => "was purged",
                    false => "was never written",
                };
                panic!("{what}: {key:?} = {v} read back, but {why}");
            };
            let allowed = &h.writes[h.acked.saturating_sub(1)..];
            assert!(
                allowed.contains(v),
                "{what}: {key:?} read back as {v}, expected one of {allowed:?}"
            );
        }
        for (key, h) in &self.live {
            if h.acked > 0 && !got.contains_key(key) && !optional.contains(key) {
                panic!("{what}: acknowledged {key:?} = {:?} lost", h.writes);
            }
        }
    }
}

/// The crash images one op's passes left, by step, each with the hash of
/// its files; and the number of step boundaries passed.
#[derive(Default)]
struct Images {
    taken: Vec<(Step, PathBuf, u64)>,
    boundaries: usize,
}

/// Reads the live engine while a pass compacts: from the `Flush` boundary
/// to the `UploadWindows` one, every read must equal the first. The
/// writer is inside the pass meanwhile, so nothing else changes it.
struct Reader {
    /// 0 idle, 1 asked to start, 2 reading, 3 asked to stop.
    state: AtomicU8,
    quit: AtomicBool,
    reads: AtomicUsize,
    failures: Mutex<Vec<String>>,
}

impl Reader {
    fn run(&self, db: &TimeUnion) {
        while !self.quit.load(Ordering::SeqCst) {
            if self.state.load(Ordering::SeqCst) != 1 {
                std::thread::yield_now();
                continue;
            }
            let baseline = read_all(db);
            self.state.store(2, Ordering::SeqCst);
            while self.state.load(Ordering::SeqCst) == 2 {
                let got = read_all(db);
                self.reads.fetch_add(1, Ordering::SeqCst);
                let missing = baseline.iter().filter(|(k, v)| got.get(*k) != Some(v));
                let missing = missing.count();
                if missing > 0 || got.len() != baseline.len() {
                    let msg = format!("{missing} of {} samples missing", baseline.len());
                    self.failures.lock().unwrap().push(msg);
                }
            }
            self.state.store(0, Ordering::SeqCst);
        }
    }

    /// Moves the reader to `to` and waits until it gets to `then`.
    fn switch(&self, to: u8, then: u8) {
        self.state.store(to, Ordering::SeqCst);
        while self.state.load(Ordering::SeqCst) != then {
            std::thread::yield_now();
        }
    }
}

/// One series or group member the ops write to.
struct Target {
    labels: Labels,
    id: Option<u64>,
    /// Newest timestamp written.
    last: i64,
}

struct Group {
    gid: u64,
    refs: Vec<u32>,
    members: Vec<Labels>,
    last: i64,
}

const SERIES: usize = 6;
const MEMBERS: usize = 3;

fn series_labels(n: usize) -> Labels {
    Labels::from_pairs([("job", "model".to_string()), ("series", format!("s{n}"))])
}

/// Runs `ops` seeded ops, checking every crash image each op's passes
/// leave. Returns the step boundaries passed, the distinct images checked,
/// the passes run and the series that went quiet before a retention pass.
fn run_seed(seed: u64, ops: usize) -> (usize, usize, usize, usize) {
    let dir = tempfile::tempdir().unwrap();
    let db_dir = dir.path().join("db");
    let image_dir = dir.path().join("images");
    let clock = SimClock::new(0);
    let db = Arc::new(TimeUnion::open(&db_dir, options(&clock)).unwrap());
    db.set_ingest_threads(1);
    let images: Arc<Mutex<Images>> = Arc::default();
    let reader = Arc::new(Reader {
        state: AtomicU8::new(0),
        quit: AtomicBool::new(false),
        reads: AtomicUsize::new(0),
        failures: Mutex::default(),
    });
    let passes = Arc::new(AtomicUsize::new(0));
    {
        let (images, reader, passes) = (images.clone(), reader.clone(), passes.clone());
        let (db_dir, image_dir) = (db_dir.clone(), image_dir.clone());
        db.set_step_hook(move |step| {
            match step {
                Step::Flush => reader.switch(1, 2),
                Step::UploadWindows => {
                    reader.switch(3, 0);
                    passes.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
            let mut images = images.lock().unwrap();
            images.boundaries += 1;
            let image = image_dir.join(images.boundaries.to_string());
            let mut hash = DefaultHasher::new();
            copy_dir(&db_dir, &image, &mut hash);
            let hash = hash.finish();
            // An image equal to the one before it in the same op needs no
            // second check: the model has not moved in between.
            if images
                .taken
                .last()
                .is_some_and(|(_, _, last)| *last == hash)
            {
                std::fs::remove_dir_all(image).unwrap();
            } else {
                images.taken.push((step, image, hash));
            }
        });
    }
    let read_thread = {
        let (db, reader) = (db.clone(), reader.clone());
        std::thread::spawn(move || reader.run(&db))
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::default();
    let mut series: Vec<Target> = Vec::new();
    let mut next_series = 0;
    let mut groups: Vec<Group> = Vec::new();
    let mut next_group = 0;
    let mut next_value = 0.0;
    let mut value = || {
        next_value += 1.0;
        next_value
    };
    let mut watermark = i64::MIN;
    let mut quiet = 0;
    let mut checked = 0;
    let mut now = 0;
    for op_no in 0..ops {
        while series.len() < SERIES {
            series.push(Target {
                labels: series_labels(next_series),
                id: None,
                last: now,
            });
            next_series += 1;
        }
        if groups.is_empty() {
            for _ in 0..2 {
                let tags = Labels::from_pairs([
                    ("job", "model".to_string()),
                    ("group", format!("g{next_group}")),
                ]);
                next_group += 1;
                let members: Vec<Labels> = (0..MEMBERS)
                    .map(|m| Labels::from_pairs([("member", format!("m{m}"))]))
                    .collect();
                let values: Vec<f64> = (0..MEMBERS).map(|_| value()).collect();
                for (m, v) in members.iter().zip(&values) {
                    model.write(&tags.merge(m), now, *v);
                }
                let (gid, refs) = db.put_group(&tags, &members, now, &values).unwrap();
                let members = members.iter().map(|m| tags.merge(m)).collect();
                groups.push(Group {
                    gid,
                    refs,
                    members,
                    last: now,
                });
            }
        }
        let mut acks = false;
        let mut retention = None;
        let op = rng.gen_range(0..100);
        let what = match op {
            // In-order samples of one series.
            0..=29 => {
                let s = &mut series[rng.gen_range(0..SERIES)];
                for _ in 0..rng.gen_range(1..12) {
                    s.last += STEP_MS;
                    let v = value();
                    model.write(&s.labels, s.last, v);
                    match s.id {
                        Some(id) => db.put_by_id(id, s.last, v).unwrap(),
                        None => s.id = Some(db.put(&s.labels, s.last, v).unwrap()),
                    }
                }
                now = now.max(s.last);
                "put"
            }
            // A late sample, or a second value for one already written.
            30..=46 => {
                let s = &mut series[rng.gen_range(0..SERIES)];
                let Some(id) = s.id else { continue };
                let floor = watermark.max(0) / STEP_MS + 1;
                let top = s.last / STEP_MS;
                if floor >= top {
                    continue;
                }
                let t = rng.gen_range(floor..top) * STEP_MS + rng.gen_range(0..2i64) * STEP_MS / 3;
                let v = value();
                model.write(&s.labels, t, v);
                db.put_by_id(id, t, v).unwrap();
                "late put"
            }
            // In-order samples of several series in one acknowledged batch.
            47..=56 => {
                let mut batch = Vec::new();
                for s in series.iter_mut().filter(|s| s.id.is_some()) {
                    for _ in 0..rng.gen_range(0..6) {
                        s.last += STEP_MS;
                        let v = value();
                        model.write(&s.labels, s.last, v);
                        batch.push((s.id.unwrap(), s.last, v));
                    }
                    now = now.max(s.last);
                }
                db.put_batch(&batch).unwrap();
                acks = true;
                "put_batch"
            }
            // Rows of one group, in order.
            57..=66 => {
                let n = groups.len();
                let g = &mut groups[rng.gen_range(0..n)];
                for _ in 0..rng.gen_range(1..10) {
                    g.last += STEP_MS;
                    let values: Vec<f64> = (0..MEMBERS).map(|_| value()).collect();
                    for (m, v) in g.members.iter().zip(&values) {
                        model.write(m, g.last, *v);
                    }
                    db.put_group_fast(g.gid, &g.refs, g.last, &values).unwrap();
                }
                now = now.max(g.last);
                "group rows"
            }
            // Late group rows, or second values for rows already written,
            // each carrying some of the members.
            67..=76 => {
                let n = groups.len();
                let g = &mut groups[rng.gen_range(0..n)];
                let floor = watermark.max(0) / STEP_MS + 1;
                let top = g.last / STEP_MS;
                if floor > top {
                    continue;
                }
                for _ in 0..rng.gen_range(1..4) {
                    let t =
                        rng.gen_range(floor..=top) * STEP_MS + rng.gen_range(0..2i64) * STEP_MS / 3;
                    let carried = rng.gen_range(1..1u32 << MEMBERS);
                    let (mut refs, mut values) = (Vec::new(), Vec::new());
                    for m in (0..MEMBERS).filter(|m| carried & (1 << m) != 0) {
                        let v = value();
                        model.write(&g.members[m], t, v);
                        refs.push(g.refs[m]);
                        values.push(v);
                    }
                    db.put_group_fast(g.gid, &refs, t, &values).unwrap();
                    g.last = g.last.max(t);
                }
                now = now.max(g.last);
                "late group row"
            }
            77..=84 => {
                db.sync_wal().unwrap();
                acks = true;
                "sync_wal"
            }
            85..=92 => {
                db.sync().unwrap();
                acks = true;
                "sync"
            }
            93..=95 => {
                db.flush_all().unwrap();
                acks = true;
                "flush_all"
            }
            _ => {
                clock.set(now);
                watermark = now - RETENTION_MS;
                // A series goes quiet 10 s short of the watermark. Of its
                // two chunks (eight samples each), the first is keyed a
                // minute before the L2 partition the watermark falls in,
                // which retention keeps, and straddles into it; the
                // second is keyed inside it, so retention leaves it in
                // the tree after purging the series. A 17th sample stays
                // in its head.
                let part = watermark.div_euclid(4 * MIN) * 4 * MIN;
                if part > 0 && watermark - part >= 90_000 {
                    let labels = Labels::from_pairs([
                        ("job", "model".to_string()),
                        ("series", format!("quiet{op_no}")),
                    ]);
                    let (first, step) = (part - MIN, (watermark - 10_000 - part + MIN) / 16);
                    let mut id = None;
                    for t in (0..17).map(|i| first + i * step) {
                        let v = value();
                        model.write(&labels, t, v);
                        match id {
                            Some(id) => db.put_by_id(id, t, v).unwrap(),
                            None => id = Some(db.put(&labels, t, v).unwrap()),
                        }
                    }
                    let last = first + 16 * step;
                    series.push(Target { labels, id, last });
                    model.probe = part;
                    quiet += 1;
                }
                retention = Some(watermark);
                db.apply_retention().unwrap();
                "retention"
            }
        };
        let live = read_all(&db);
        check_window(&db, &live, model.probe, &format!("seed {seed} op {op_no}"));
        // Retention drops partitions that end by the watermark, and series
        // whose newest sample is older than it. A chunk lives in the
        // partition its first sample falls in, so it may take samples up
        // to one chunk span (at most an L2 window) past the watermark.
        let mut optional = BTreeSet::new();
        if let Some(watermark) = retention {
            let dead: BTreeSet<Vec<u8>> = series
                .iter()
                .filter(|s| s.last < watermark)
                .map(|s| s.labels.to_bytes())
                .chain(
                    groups
                        .iter()
                        .filter(|g| g.last < watermark)
                        .flat_map(|g| g.members.iter().map(|m| m.to_bytes())),
                )
                .collect();
            for key in model.live.keys().filter(|k| !live.contains_key(*k)) {
                assert!(
                    key.1 < watermark + 4 * MIN,
                    "seed {seed} op {op_no}: retention at {watermark} dropped {key:?}"
                );
                optional.insert(key.clone());
            }
            for key in model.live.keys().filter(|k| dead.contains(&k.0)) {
                assert!(
                    !live.contains_key(key),
                    "seed {seed} op {op_no}: {key:?} outlived its series"
                );
            }
            series.retain(|s| s.last >= watermark);
            groups.retain(|g| g.last >= watermark);
        }
        let taken = std::mem::take(&mut images.lock().unwrap().taken);
        for (step, image, _) in &taken {
            let what = format!("seed {seed} op {op_no} ({what}), crash after {step:?}");
            model.check_image(image, &optional, &what);
            std::fs::remove_dir_all(image).unwrap();
        }
        checked += taken.len();
        if acks {
            model.ack_all();
        }
        for key in optional {
            model.live.remove(&key);
            model.purged.insert(key);
        }
        assert_eq!(
            live,
            model.newest(),
            "seed {seed} op {op_no} ({what}): live engine"
        );
        let failures = reader.failures.lock().unwrap();
        assert!(
            failures.is_empty(),
            "seed {seed} op {op_no} ({what}): reads during a compaction: {failures:?}"
        );
    }
    reader.quit.store(true, Ordering::SeqCst);
    read_thread.join().unwrap();
    assert!(
        reader.reads.load(Ordering::SeqCst) > 0,
        "no read overlapped a compaction"
    );
    let boundaries = images.lock().unwrap().boundaries;
    (boundaries, checked, passes.load(Ordering::SeqCst), quiet)
}

#[test]
fn every_step_boundary_of_every_pass_recovers_to_the_model() {
    let mut quiet = 0;
    for seed in 1..=4 {
        let (boundaries, checked, passes, q) = run_seed(seed, 70);
        assert!(passes > 5, "seed {seed}: {passes} passes");
        assert_eq!(boundaries, passes * 12, "seed {seed}: twelve steps a pass");
        assert!(checked > passes, "seed {seed}: {checked} images checked");
        quiet += q;
    }
    assert!(
        quiet >= 4,
        "{quiet} series went quiet before a retention pass"
    );
}

/// Retention runs as a pass of its own: it waits for a running pass to
/// end instead of purging and saving the manifest beside it. Afterwards,
/// and after a reopen, nothing below the watermark reads back and
/// everything at or above it does.
#[test]
fn retention_waits_for_a_running_pass() {
    const HOUR: i64 = 60 * MIN;
    let dir = tempfile::tempdir().unwrap();
    let clock = SimClock::new(0);
    let opts = || Options {
        chunk_samples: 8,
        index_slots_per_segment: 1 << 12,
        retention_ms: Some(5 * HOUR),
        clock: Arc::new(clock.clone()),
        ..Options::default()
    };
    let db = Arc::new(TimeUnion::open(dir.path().join("db"), opts()).unwrap());
    let labels: Vec<Labels> = (0..4).map(series_labels).collect();
    let mut want = BTreeMap::new();
    let mut write = |db: &TimeUnion, from: i64, to: i64| {
        for t in (from..to).step_by(MIN as usize) {
            for l in &labels {
                db.put(l, t, t as f64).unwrap();
                want.insert((l.to_bytes(), t), t as f64);
            }
        }
    };
    // Eight hours drained to the slow tier, then one more hour in heads
    // and the memtable.
    write(&db, 0, 8 * HOUR);
    db.flush_all().unwrap();
    write(&db, 8 * HOUR, 9 * HOUR);
    let (paused_tx, paused) = mpsc::channel();
    let (resume, resume_rx) = mpsc::channel::<()>();
    let armed = Arc::new(AtomicBool::new(true));
    let released = Arc::new(AtomicUsize::new(0));
    {
        let (armed, released) = (armed.clone(), released.clone());
        let (paused_tx, resume_rx) = (Mutex::new(paused_tx), Mutex::new(resume_rx));
        db.set_step_hook(move |step| match step {
            Step::CompactL0 if armed.swap(false, Ordering::SeqCst) => {
                paused_tx.lock().unwrap().send(()).unwrap();
                resume_rx.lock().unwrap().recv().unwrap();
            }
            Step::Release => {
                released.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        });
    }
    let pass = {
        let db = db.clone();
        std::thread::spawn(move || db.sync().unwrap())
    };
    paused.recv().unwrap();
    clock.set(9 * HOUR);
    let (done_tx, done) = mpsc::channel();
    let retention = {
        let (db, released) = (db.clone(), released.clone());
        std::thread::spawn(move || {
            let purged = db.apply_retention().unwrap();
            let _ = done_tx.send(released.load(Ordering::SeqCst));
            purged
        })
    };
    let early = done.recv_timeout(std::time::Duration::from_millis(300));
    assert!(early.is_err(), "retention ended while a pass held the lock");
    resume.send(()).unwrap();
    pass.join().unwrap();
    let (partitions, objects) = retention.join().unwrap();
    assert_eq!(
        done.recv().unwrap(),
        2,
        "retention returned after its own pass and the paused one released the lock"
    );
    assert_eq!(
        (partitions, objects),
        (2, 0),
        "the two windows that end by 4 h"
    );
    let watermark = 4 * HOUR;
    want.retain(|k, _| k.1 >= watermark);
    assert_eq!(read_all(&db), want);
    drop(db);
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    assert_eq!(read_all(&db), want);
}

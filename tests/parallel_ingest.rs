//! Parallel ingest determinism and durability: for any ingest thread
//! count, `TimeUnion::put_batch` must leave the engine in exactly the
//! same logical state — same chunk boundaries, same compressed chunk
//! bytes, same head samples — as the sequential path, the group-commit
//! WAL must recover everything durable after a torn tail, and trace
//! attribution must stay exact when a batch fans out across workers.

use rand::{Rng, SeedableRng};
use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::cost::LatencyMode;

const MIN: i64 = 60_000;

fn opts() -> Options {
    Options {
        chunk_samples: 8,
        wal_batch_records: 16,
        latency: LatencyMode::Virtual,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

/// Builds one fresh engine, runs a seeded out-of-order batched workload
/// at the given ingest width, and returns the engine's state digest.
/// Everything except the thread count is identical across calls: same
/// seed, same rng draw order, same series creation order (hence the same
/// series IDs), same flush points.
fn digest_at(threads: usize) -> String {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path(), opts()).unwrap();
    db.set_ingest_threads(threads);
    assert_eq!(db.ingest_threads(), threads);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEFCAFE);

    // 24 individual series over 4 metrics, created sequentially so IDs
    // are deterministic.
    let ids: Vec<u64> = (0..24)
        .map(|s| {
            let labels = Labels::from_pairs([
                ("metric", format!("m{}", s % 4).as_str()),
                ("host", format!("h{s}").as_str()),
            ]);
            db.put(&labels, 0, s as f64).unwrap()
        })
        .collect();
    // One 5-member group, fed sequentially between batches so the digest
    // also covers group state.
    let gtags = Labels::from_pairs([("job", "node"), ("instance", "i0")]);
    let members: Vec<Labels> = (0..5)
        .map(|m| Labels::from_pairs([("cpu", format!("c{m}").as_str())]))
        .collect();
    let (gid, refs) = db.put_group(&gtags, &members, 0, &[0.0; 5]).unwrap();

    for round in 0..30 {
        // Mostly in-order timestamps with a deliberate out-of-order tail.
        let base: i64 = rng.gen_range(1..600i64) * MIN;
        let mut batch = Vec::new();
        for &id in &ids {
            for k in 0..4i64 {
                let jitter: i64 = rng.gen_range(-5 * MIN..5 * MIN);
                batch.push((id, (base + jitter + k).max(1), rng.gen_range(0.0..100.0)));
            }
        }
        db.put_batch(&batch).unwrap();
        let values: Vec<f64> = refs.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
        db.put_group_fast(gid, &refs, base, &values).unwrap();
        if round == 15 {
            // Mid-stream flush so the final state spans SSTables on both
            // tiers, memtable entries, and fresh head chunks.
            db.flush_all().unwrap();
        }
    }
    db.state_digest().unwrap()
}

#[test]
fn parallel_ingest_state_is_identical_across_thread_counts() {
    let baseline = digest_at(1);
    for threads in [2, 8] {
        assert_eq!(
            digest_at(threads),
            baseline,
            "ingest width {threads} changed the engine state"
        );
    }
}

#[test]
fn torn_wal_tail_recovers_under_group_commit() {
    let dir = tempfile::tempdir().unwrap();
    let steps = 49i64;
    {
        let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        db.set_ingest_threads(4);
        let ids: Vec<u64> = (0..8)
            .map(|s| {
                let labels = Labels::from_pairs([("metric", format!("t{s}").as_str())]);
                db.put(&labels, 0, 0.0).unwrap()
            })
            .collect();
        let mut batch = Vec::new();
        for step in 1..=steps {
            for &id in &ids {
                batch.push((id, step * 1000, (id as i64 * step) as f64));
            }
        }
        // put_batch returns only after a group-commit wave made every
        // record durable; sync() persists catalog/index as well.
        db.put_batch(&batch).unwrap();
        db.sync().unwrap();
        // Unclean shutdown: no flush_all, the samples live in the WAL.
    }
    // A crash mid-append leaves a torn tail after the last durable wave,
    // in the newest segment of the log.
    let wal = std::fs::read_dir(dir.path().join("db").join("block").join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("engine.log")
        })
        .max()
        .expect("the batch left a WAL segment");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
    }
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    for s in 0..8 {
        let res = db
            .query(
                &[Selector::exact("metric", format!("t{s}"))],
                0,
                i64::MAX / 2,
            )
            .unwrap();
        assert_eq!(res.len(), 1, "series t{s}");
        assert_eq!(
            res[0].samples.len() as i64,
            steps + 1,
            "series t{s} lost durable samples to the torn tail"
        );
    }
    // Recovery cut the torn bytes off: what this incarnation logs behind
    // them must replay too, not read as corruption in the middle of the log.
    for s in 0..8 {
        let labels = Labels::from_pairs([("metric", format!("t{s}").as_str())]);
        db.put(&labels, (steps + 1) * 1000, 0.5).unwrap();
    }
    db.sync_wal().unwrap();
    drop(db);
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    for s in 0..8 {
        let res = db
            .query(
                &[Selector::exact("metric", format!("t{s}"))],
                0,
                i64::MAX / 2,
            )
            .unwrap();
        assert_eq!(res[0].samples.len() as i64, steps + 2, "series t{s}");
    }
}

#[test]
fn per_writer_trace_attribution_is_exact() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path(), opts()).unwrap();
    db.set_ingest_threads(8);
    let ids: Vec<u64> = (0..16)
        .map(|s| {
            let labels = Labels::from_pairs([("metric", format!("w{s}").as_str())]);
            db.put(&labels, 0, 0.0).unwrap()
        })
        .collect();

    // Two concurrent writer clients, each under its own trace context.
    // Each batch fans out across the shared 8-wide ingest pool, and the
    // workers charge the *spawning* writer's context — so each summary
    // must report exactly its own samples, even though the two batches
    // race in the same engine and share group-commit waves.
    let writer = |n_rounds: i64, t0: i64| {
        let ctx = timeunion::obs::TraceContext::start("writer");
        let mut batch = Vec::new();
        for step in 0..n_rounds {
            for &id in &ids {
                batch.push((id, t0 + step * 1000, step as f64));
            }
        }
        db.put_batch(&batch).unwrap();
        (ctx.finish(), batch.len() as u64)
    };
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| writer(20, 1_000));
        let hb = s.spawn(|| writer(31, 50_000_000));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.0.counter("core.ingest.samples"), a.1);
    assert_eq!(b.0.counter("core.ingest.samples"), b.1);

    // The fan-out itself is visible in the global registry.
    let snap = timeunion::obs::global().snapshot();
    assert!(snap.counter("core.ingest.parallel.batches").unwrap_or(0) >= 2);
    assert!(snap.counter("core.ingest.parallel.tasks").unwrap_or(0) >= 2 * ids.len() as u64);
    // Not the `core.ingest.parallel.threads` gauge: it is process-global
    // and any concurrently running test's `open` resets it.
    assert_eq!(db.ingest_threads(), 8);
}

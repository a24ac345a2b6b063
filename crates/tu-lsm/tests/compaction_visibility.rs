//! A compaction keeps its inputs in the levels until its outputs replace
//! them, so a reader never misses a chunk while one runs: neither a
//! key-bounded read (`range_chunks`) nor a window query (`plan_reads`),
//! whose key bound comes from the reach of the tables and memtables it
//! sees.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use tu_cloud::cost::LatencyMode;
use tu_cloud::StorageEnv;
use tu_common::Sample;
use tu_compress::gorilla::compress_chunk_framed;
use tu_lsm::{TimeTree, TreeOptions};

const MIN: i64 = 60_000;
const CHUNKS: usize = 400;

fn chunk(i: usize) -> Vec<u8> {
    (0..200).map(|b| (i * 31 + b) as u8).collect()
}

/// One writer puts 400 chunks of one series, 10 minutes apart, and runs a
/// maintenance pass on every seal: flushes, L0→L1 compactions and L1→L2
/// uploads. A reader reads the whole series in a loop and must find every
/// chunk that was put before the read began.
#[test]
fn readers_see_every_chunk_while_compactions_run() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
    let tree = TimeTree::open(
        env,
        TreeOptions {
            memtable_bytes: 2 << 10,
            ..TreeOptions::default()
        },
    )
    .unwrap();
    let acked = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (reads, short) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut short) = (0usize, Vec::new());
            while !done.load(Ordering::SeqCst) {
                let want = acked.load(Ordering::SeqCst);
                let got = tree.range_chunks(0, 0, i64::MAX).unwrap();
                let seen = (0..want)
                    .filter(|&i| {
                        got.iter()
                            .any(|(t, c)| *t == i as i64 * 10 * MIN && *c == chunk(i))
                    })
                    .count();
                if seen < want {
                    short.push(want - seen);
                }
                reads += 1;
            }
            (reads, short)
        });
        for i in 0..CHUNKS {
            if tree.put(0, i as i64 * 10 * MIN, chunk(i)) {
                tree.maintain().unwrap();
            }
            acked.store(i + 1, Ordering::SeqCst);
        }
        tree.flush_all_to_slow().unwrap();
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    let stats = tree.stats();
    assert!(
        stats.l0_to_l1_compactions > 0 && stats.l1_to_l2_compactions > 0,
        "{stats:?}"
    );
    assert!(reads > 0);
    assert!(
        short.is_empty(),
        "{} of {reads} reads came back short, by up to {:?} chunks",
        short.len(),
        short.iter().max()
    );
    assert_eq!(tree.range_chunks(0, 0, i64::MAX).unwrap().len(), CHUNKS);
}

/// Chunk `i` of the window test: keyed at `i` × 10 minutes, with samples
/// every 5 minutes for 45 minutes, so it straddles the next four keys.
fn long_chunk(i: usize) -> Vec<u8> {
    let key = i as i64 * 10 * MIN;
    let samples: Vec<Sample> = (0..10)
        .map(|s| Sample::new(key + s * 5 * MIN, (i * 10) as f64 + s as f64))
        .collect();
    compress_chunk_framed(&samples).unwrap()
}

/// The window-query form of the test above: the writer puts chunks that
/// reach 45 minutes past their keys and runs a maintenance pass on every
/// seal. A reader plans reads for a one-hour window trailing the newest
/// acknowledged chunk, in a loop, and must find every acknowledged chunk
/// with a sample in the window, including the ones keyed before it.
#[test]
fn window_queries_see_every_reaching_chunk_while_compactions_run() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
    let tree = TimeTree::open(
        env,
        TreeOptions {
            memtable_bytes: 2 << 10,
            ..TreeOptions::default()
        },
    )
    .unwrap();
    let acked = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (reads, short) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut short) = (0usize, Vec::new());
            while !done.load(Ordering::SeqCst) {
                let want = acked.load(Ordering::SeqCst);
                // The hour before the newest acknowledged key, so the
                // window's first chunks are keyed before it.
                let end = want as i64 * 10 * MIN;
                let start = end - 60 * MIN;
                let plan = tree.plan_reads(&[0], start, end).unwrap();
                let got = plan.chunks(0).unwrap();
                let reaching = (0..want).filter(|&i| {
                    let key = i as i64 * 10 * MIN;
                    key < end && key + 45 * MIN >= start
                });
                let missed = reaching
                    .filter(|&i| {
                        let key = i as i64 * 10 * MIN;
                        !got.iter().any(|(t, c)| *t == key && *c == long_chunk(i))
                    })
                    .count();
                if missed > 0 {
                    short.push(missed);
                }
                reads += 1;
            }
            (reads, short)
        });
        for i in 0..CHUNKS {
            if tree.put(0, i as i64 * 10 * MIN, long_chunk(i)) {
                tree.maintain().unwrap();
            }
            acked.store(i + 1, Ordering::SeqCst);
        }
        tree.flush_all_to_slow().unwrap();
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    let stats = tree.stats();
    assert!(
        stats.l0_to_l1_compactions > 0 && stats.l1_to_l2_compactions > 0,
        "{stats:?}"
    );
    assert!(reads > 0);
    assert!(
        short.is_empty(),
        "{} of {reads} window reads missed chunks, up to {:?}",
        short.len(),
        short.iter().max()
    );
}

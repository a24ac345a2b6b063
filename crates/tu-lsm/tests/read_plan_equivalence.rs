//! `TimeTree::plan_reads` bounds the keys it reads by how far each table's
//! and memtable's chunks reach. Whatever the store holds, for every id it
//! must give the same samples in `[start, end)` as reading every chunk
//! keyed before `end` (`range_chunks(id, i64::MIN, end)`) and clipping to
//! the window. The stores below are built to break that if the bound were
//! computed per source instead of per query, or ignored a kind of chunk:
//!
//! * rewrites of one key by a *shorter* chunk, in a newer table, so the
//!   older, longer version reaches the window and the newer does not;
//! * versioned chunks, which apply after every plain one;
//! * chunks without a stats envelope (what `TimeUnion::debug_put_chunk`
//!   stores), whose reach is unknown;
//! * entries still in the memtables, sealed or active;
//! * tables in L0, L1, L2 and L2 patches, after maintenance passes and
//!   drains, with late chunks written into partitions already uploaded.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tu_cloud::cost::LatencyMode;
use tu_cloud::StorageEnv;
use tu_common::{Sample, Timestamp};
use tu_compress::gorilla::{compress_chunk, compress_chunk_framed, decompress_chunk};
use tu_lsm::{TimeTree, TreeOptions};

const MIN: i64 = 60_000;
const HOUR: i64 = 60 * MIN;
const IDS: u64 = 4;

fn opts() -> TreeOptions {
    TreeOptions {
        memtable_bytes: 3 << 10,
        max_sstable_bytes: 2 << 10,
        l0_partition_ms: 30 * MIN,
        l2_partition_ms: 2 * HOUR,
        partition_min_ms: 15 * MIN,
        flush_threads: 1,
        ..TreeOptions::default()
    }
}

/// A chunk keyed at `key` whose samples run to `key + span`: framed with
/// a stats envelope, or in the legacy layout without one.
fn chunk(rng: &mut StdRng, key: Timestamp, span: i64, framed: bool) -> Vec<u8> {
    let n = rng.gen_range(1..=8i64);
    let mut samples = vec![Sample::new(key, rng.gen_range(-50.0..50.0))];
    for i in 1..n {
        let t = key + span * i / (n - 1).max(1);
        if t > samples.last().map_or(i64::MIN, |s| s.t) {
            samples.push(Sample::new(t, rng.gen_range(-50.0..50.0)));
        }
    }
    match framed {
        true => compress_chunk_framed(&samples).unwrap(),
        false => compress_chunk(&samples).unwrap(),
    }
}

/// Samples of chunks applied in order, a later chunk winning a shared
/// timestamp, clipped to `[start, end)`, as value bits.
fn samples(chunks: &[(Timestamp, &[u8])], start: Timestamp, end: Timestamp) -> Vec<(i64, u64)> {
    let mut out = BTreeMap::new();
    for (_, bytes) in chunks {
        for s in decompress_chunk(bytes).unwrap() {
            out.insert(s.t, s.v.to_bits());
        }
    }
    out.range(start..end.max(start))
        .map(|(&t, &v)| (t, v))
        .collect()
}

/// Compares `plan_reads` with the key-bounded reference over random
/// windows starting in `starts`; returns how many windows had samples.
fn check_windows(
    t: &TimeTree,
    rng: &mut StdRng,
    starts: std::ops::Range<i64>,
    what: &str,
) -> usize {
    let ids: Vec<u64> = (0..IDS).collect();
    let mut nonempty = 0;
    for _ in 0..12 {
        let start = rng.gen_range(starts.clone());
        let end = start + rng.gen_range(0..3 * HOUR);
        let plan = t.plan_reads(&ids, start, end).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let got = samples(&plan.chunks(i).unwrap(), start, end);
            let all = t.range_chunks(id, i64::MIN, end).unwrap();
            let all: Vec<(Timestamp, &[u8])> =
                all.iter().map(|(k, c)| (*k, c.as_slice())).collect();
            let want = samples(&all, start, end);
            assert_eq!(got, want, "{what}: id {id}, window [{start}, {end})");
            nonempty += usize::from(!want.is_empty());
        }
    }
    nonempty
}

#[test]
fn plan_reads_gives_the_samples_of_every_chunk_keyed_before_the_end() {
    let mut nonempty = 0;
    for seed in 0..16u64 {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
        let t = TimeTree::open(env, opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // A table holding a chunk without an envelope is read from its
        // range's start, which would hide a wrong bound elsewhere: only
        // every fourth store has such chunks.
        let framed = seed % 4 != 3;
        let mut keys: Vec<(u64, Timestamp)> = Vec::new();
        let mut version = 0u64;
        let mut clock = 0i64;
        for op in 0..400 {
            clock += rng.gen_range(0..4 * MIN);
            let id = rng.gen_range(0..IDS);
            let roll = rng.gen_range(0..100);
            let sealed = if roll < 12 && !keys.is_empty() {
                // Rewrite a key with a chunk at most 5 minutes long.
                let (id, key) = keys[rng.gen_range(0..keys.len())];
                let span = rng.gen_range(0..5 * MIN);
                let c = chunk(&mut rng, key, span, true);
                t.put(id, key, c)
            } else if roll < 24 {
                version += 1;
                let key = clock - rng.gen_range(0..6 * HOUR);
                let span = rng.gen_range(0..2 * HOUR);
                let c = chunk(&mut rng, key, span, true);
                t.put_version(id, key, version, c)
            } else {
                // Mostly recent chunks, some late ones into older
                // partitions; spans up to three hours straddle partitions.
                let late = rng.gen_bool(0.2);
                let key = clock - if late { rng.gen_range(0..8 * HOUR) } else { 0 };
                let span = match rng.gen_range(0..10) {
                    0 => rng.gen_range(0..3 * HOUR),
                    _ => rng.gen_range(0..30 * MIN),
                };
                keys.push((id, key));
                t.put(id, key, chunk(&mut rng, key, span, framed || roll >= 32))
            };
            if sealed || rng.gen_bool(0.02) {
                t.seal();
                t.maintain().unwrap();
            }
            if op % 100 == 99 {
                if rng.gen_bool(0.5) {
                    t.flush_all_to_slow().unwrap();
                }
                let what = format!("seed {seed} op {op}");
                nonempty += check_windows(&t, &mut rng, -HOUR..clock, &what);
            }
        }
        // A long chunk in L2 rewritten by a one-minute one in a newer
        // table, which reaches no window starting an hour in: that table
        // must still be read, or the old version would win.
        let key = clock - 5 * HOUR;
        t.put(0, key, chunk(&mut rng, key, 150 * MIN, true));
        t.flush_all_to_slow().unwrap();
        t.put(0, key, chunk(&mut rng, key, MIN, true));
        t.seal();
        t.maintain().unwrap();
        let what = format!("seed {seed}, rewritten by a shorter chunk");
        nonempty += check_windows(&t, &mut rng, key + HOUR..key + 2 * HOUR, &what);
        // Long chunks past every table's reach, one sealed but not
        // flushed and one active: only the memtables bound the keys of a
        // window that starts after their keys.
        let far = clock + 10 * HOUR;
        t.put(2, far, chunk(&mut rng, far, 2 * HOUR, true));
        t.seal();
        let later = far + 30 * MIN;
        t.put(3, later, chunk(&mut rng, later, 2 * HOUR, true));
        let what = format!("seed {seed}, in memtables");
        nonempty += check_windows(&t, &mut rng, -HOUR..far + 2 * HOUR, &what);
        nonempty += check_windows(&t, &mut rng, far..far + 2 * HOUR, &what);
        let s = t.stats();
        assert!(
            s.l2_partitions > 0 && s.patches_created > 0,
            "seed {seed}: {s:?}"
        );
    }
    assert!(nonempty > 500, "only {nonempty} windows held samples");
}

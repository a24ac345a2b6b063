//! The SSTable, WAL and catalog layouts.
//!
//! SSTable files sit on both tiers; WAL segments and the series catalog
//! are replayed at every open. Their bytes — block framing, checksums,
//! record headers — are a file format: seeded inputs must produce the same
//! files whatever the checksum or merge code does to get there, and the
//! recorded FNV-1a hashes pin them. Each file is also read back.

use std::path::Path;

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;
use tu_cloud::StorageEnv;
use tu_common::keys::encode_key;
use tu_compress::gorilla::ChunkEncoder;
use tu_lsm::sstable::{Table, TableBuilder, TableSource};

/// splitmix64: a fixed generator, so the recorded layout does not depend
/// on any library's choice of algorithm.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sorted `(key, value)` entries of one table.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// A framed Gorilla chunk of a devops gauge: 10 s scrapes with jitter, a
/// random walk rounded to hundredths.
fn devops_chunk(rng: &mut Mix, start: i64) -> Vec<u8> {
    let mut enc = ChunkEncoder::new();
    let mut v = 50.0f64;
    for i in 0..32 {
        v = (v + rng.below(201) as f64 / 100.0 - 1.0).clamp(0.0, 100.0);
        let t = start + i * 10_000 + rng.below(4) as i64;
        enc.append(t, (v * 100.0).round() / 100.0).unwrap();
    }
    enc.finish_framed()
}

/// The seeded tables' entries, by name: chunks of many series, values
/// Snappy cannot shrink (stored raw), values it shrinks to almost nothing,
/// and the two kinds alternating block by block.
fn table_inputs() -> Vec<(&'static str, Entries)> {
    let mut rng = Mix(0x7ab1e_u64);
    let key = |id: u64, i: i64| encode_key(id, 1_451_606_400_000 + i * 320_000).to_vec();
    let devops = (0..40)
        .flat_map(|id| (0..6).map(move |i| (id, i)))
        .map(|(id, i)| {
            (
                key(id, i),
                devops_chunk(&mut rng, 1_451_606_400_000 + i * 320_000),
            )
        })
        .collect();
    let random = (0..64)
        .map(|i| {
            let len = 300 + rng.below(400) as usize;
            (key(7, i), rng.bytes(len))
        })
        .collect();
    let zeros = (0..64)
        .map(|i| (key(9, i), vec![i as u8; 700 + i as usize]))
        .collect();
    let mixed = (0..48)
        .map(|i| {
            // Blocks of about 4 KiB: six entries of random bytes, then six
            // of one repeated byte.
            let value = if (i / 6) % 2 == 0 {
                rng.bytes(650)
            } else {
                vec![0xa5; 650]
            };
            (key(11, i), value)
        })
        .collect();
    let one = vec![(key(0, 0), b"x".to_vec())];
    vec![
        ("devops", devops),
        ("random", random),
        ("zeros", zeros),
        ("mixed", mixed),
        ("one", one),
    ]
}

fn build(entries: &Entries) -> Vec<u8> {
    let mut builder = TableBuilder::new();
    for (k, v) in entries {
        builder.add(k, v).unwrap();
    }
    builder.finish().unwrap().0
}

fn labels(host: usize, metric: usize) -> Labels {
    Labels::from_pairs([
        ("hostname", format!("host_{host}")),
        ("metric", format!("m{metric}")),
    ])
}

/// Writes a seeded engine's WAL and catalog and leaves it undrained:
/// series rows, group rows, late chunks of both and, as the small memtable
/// flushes, checkpoints; one thread throughout.
fn seeded_engine(dir: &Path) -> TimeUnion {
    let options = Options {
        chunk_samples: 8,
        index_slots_per_segment: 1 << 14,
        wal_batch_records: 4,
        ingest_threads: 1,
        query_threads: 1,
        tree: TreeOptions {
            flush_threads: 1,
            memtable_bytes: 1 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    };
    let db = TimeUnion::open(dir, options).unwrap();
    let mut rng = Mix(0x3a1_u64);
    let ids: Vec<u64> = (0..12)
        .map(|i| db.put(&labels(i / 4, i % 4), 0, i as f64).unwrap())
        .collect();
    let group = Labels::from_pairs([("hostname", "host_g")]);
    let members: Vec<Labels> = (0..5)
        .map(|m| Labels::from_pairs([("metric", format!("g{m}"))]))
        .collect();
    let (gid, refs) = db.put_group(&group, &members, 0, &[0.5; 5]).unwrap();
    for step in 1..30i64 {
        let t = step * 10_000 + rng.below(5) as i64;
        for &id in &ids {
            db.put_by_id(id, t, rng.below(10_000) as f64 / 100.0)
                .unwrap();
        }
        let row: Vec<f64> = (0..5).map(|_| rng.below(1_000) as f64 * 0.25).collect();
        db.put_group_fast(gid, &refs, t, &row).unwrap();
    }
    // Late samples below the sealed chunks.
    for (i, &id) in ids.iter().enumerate().take(4) {
        db.put_by_id(id, 15_000 + i as i64, -1.0).unwrap();
    }
    db.put_group_fast(gid, &refs, 25_000, &[-2.0; 5]).unwrap();
    db.sync().unwrap();
    db
}

/// `(file name, length, FNV-1a)` of every WAL segment and the catalog.
fn engine_files(dir: &Path) -> Vec<(String, usize, u64)> {
    let block = dir.join("block");
    let mut paths: Vec<_> = std::fs::read_dir(block.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.push(block.join("catalog").join("series.cat"));
    let mut out: Vec<(String, usize, u64)> = paths
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).unwrap();
            let name = p.strip_prefix(&block).unwrap().to_string_lossy();
            (name.into_owned(), bytes.len(), fnv1a(&bytes))
        })
        .collect();
    out.sort();
    out
}

/// `(table, length, FNV-1a)`, recorded with the byte-at-a-time CRC32C the
/// formats were first written with, in debug and release builds. A change
/// here is a change of the SSTable format.
const TABLES: &[(&str, usize, u64)] = &[
    ("devops", 67245, 0xf929145361f02764),
    ("random", 33821, 0x20c41dfbfd207b1a),
    ("zeros", 3336, 0xc53c738ae3062ee4),
    ("mixed", 17054, 0x7d4062668cf1489d),
    ("one", 140, 0xf49769c5738f8c99),
];

/// `(file, length, FNV-1a)` of the seeded engine's WAL segments and
/// catalog, recorded like [`TABLES`]. A change here is a change of the WAL
/// or catalog format.
const ENGINE_FILES: &[(&str, usize, u64)] = &[
    ("catalog/series.cat", 722, 0xa958ff2bd8095cf8),
    ("wal/engine.log.00000001", 18855, 0xf36432d03923fe60),
];

fn check(what: &str, got: Vec<(String, usize, u64)>, want: &[(&str, usize, u64)]) {
    let want: Vec<(String, usize, u64)> = want
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
            .collect();
        panic!("{what} layout moved; the files now give:\n{table}");
    }
}

#[test]
fn seeded_tables_have_the_recorded_bytes_and_read_back() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open_unmetered(dir.path()).unwrap();
    let mut got = Vec::new();
    for (name, entries) in table_inputs() {
        let bytes = build(&entries);
        got.push((name.to_string(), bytes.len(), fnv1a(&bytes)));
        env.block.write_file(name, &bytes).unwrap();
        let back = Table::scan_file(TableSource::Block(env.block.clone(), name.into())).unwrap();
        assert!(back == entries, "{name} does not read back");
    }
    check("sstable", got, TABLES);
}

#[test]
fn seeded_engine_logs_have_the_recorded_bytes_and_replay() {
    let dir = tempfile::tempdir().unwrap();
    let files = {
        let db = seeded_engine(dir.path());
        let files = engine_files(dir.path());
        drop(db);
        files
    };
    check("wal and catalog", files, ENGINE_FILES);
    let db = TimeUnion::open(dir.path(), Options::default()).unwrap();
    assert_eq!((db.series_count(), db.group_count()), (12, 1));
    // Host 0's series took a late sample each; the group a late row.
    let samples = |host: &str, metric: &str| {
        let sel = [
            Selector::exact("hostname", host),
            Selector::exact("metric", metric),
        ];
        let res = db.query(&sel, 0, 1_000_000).unwrap();
        res.iter().map(|s| s.samples.len()).collect::<Vec<_>>()
    };
    assert_eq!(samples("host_0", "m0"), [31]);
    assert_eq!(samples("host_2", "m3"), [30]);
    assert_eq!(samples("host_g", "g4"), [31]);
}

//! The double-array trie's on-disk layout and its page-cache cost.
//!
//! The trie's Base/Check/Tail arrays are file arrays (§3.2), so where a
//! key lands is a file format: a seeded insert sequence must produce the
//! same segment files byte for byte, whatever the free-base search or the
//! file layer underneath does to get there. And every slot read is a
//! page-cache round trip, so the number of pages one lookup or one insert
//! touches is a deterministic count with a budget.

use std::path::Path;
use std::sync::Arc;

use tu_index::trie::{DoubleArrayTrie, TrieStats};
use tu_mmap::pagecache::{PageCache, PAGE_SIZE};

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
}

fn pair(key: &str, value: &str) -> Vec<u8> {
    let mut out = key.as_bytes().to_vec();
    out.push(tu_index::KV_SEPARATOR);
    out.extend_from_slice(value.as_bytes());
    out
}

/// The tag pairs of one `series_churn` pod, in label order.
fn pod_pairs(g: usize, i: usize) -> [Vec<u8>; 5] {
    [
        pair("__name__", "container_cpu_usage"),
        pair("gen", &g.to_string()),
        pair("node", &format!("node-{}", i % 200)),
        pair("ns", &format!("ns-{}", (i / 7) % 20)),
        pair("pod", &format!("p{g}-{i}")),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(file name, length, FNV-1a)` of every base/check/tail segment file.
fn segment_files(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains(".seg-"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, bytes.len() as u64, fnv1a(&bytes))
        })
        .collect();
    out.sort();
    out
}

/// Inserts the way the inverted index does: a pair already present keeps
/// its value, a new one gets the next postings slot.
fn index_pair(trie: &DoubleArrayTrie, key: &[u8], next_slot: &mut u64) {
    trie.get_or_insert(key, || {
        *next_slot += 1;
        *next_slot - 1
    })
    .unwrap();
}

/// Recorded from the per-slot free-base search and a `get` + `insert` per
/// new pair, which this layout was first written with. A change here is a
/// change of the trie's file format.
const LAYOUT_STATS: TrieStats = TrieStats {
    keys: 4521,
    base_slots: 6833,
    tail_bytes: 53533,
};
const LAYOUT_FILES: &[(&str, u64, u64)] = &[
    ("base.seg-0", 16384, 0x5a9baa855398a306),
    ("base.seg-1", 10948, 0xeeb558636254fa8f),
    ("check.seg-0", 16384, 0x6531adf411edefcb),
    ("check.seg-1", 10948, 0x582daf6314a5e8d4),
    ("tail.seg-0", 4096, 0xccc61e92ffc07f10),
    ("tail.seg-1", 4096, 0x1cacea080dbcac6b),
    ("tail.seg-10", 4096, 0xbe3086277142b0b3),
    ("tail.seg-11", 4096, 0x6d5e7c020afd772b),
    ("tail.seg-12", 4096, 0x26cd607bd610da6b),
    ("tail.seg-13", 285, 0x18fcd08c7f4350f2),
    ("tail.seg-2", 4096, 0xe21db9bfeaf9ab0b),
    ("tail.seg-3", 4096, 0x3fa88f8fb0580eb6),
    ("tail.seg-4", 4096, 0xdb74f0cd644e6b5f),
    ("tail.seg-5", 4096, 0x744edd9e03cbc22b),
    ("tail.seg-6", 4096, 0x13d74c414ea6d644),
    ("tail.seg-7", 4096, 0x2282fb13594ed94f),
    ("tail.seg-8", 4096, 0xe6644e3279571dd0),
    ("tail.seg-9", 4096, 0x60a4f22c15242e3e),
];

#[test]
fn seeded_inserts_produce_the_recorded_segment_files() {
    let dir = tempfile::tempdir().unwrap();
    let trie_dir = dir.path().join("trie");
    // Small segments and a small cache: records straddle segment files
    // and pages are evicted and re-read while the trie grows.
    let cache = PageCache::new(64 * PAGE_SIZE);
    let trie = DoubleArrayTrie::open(cache, &trie_dir, 4096).unwrap();
    let mut rng = Mix(0x7e1a_u64);
    let mut next_slot = 0;
    // series_churn: three generations of 1 200 short-lived pods.
    for g in 0..3 {
        for i in 0..1200 {
            for key in pod_pairs(g, i) {
                index_pair(&trie, &key, &mut next_slot);
            }
        }
    }
    // devops: hostnames and metric names beside the pods.
    for h in 0..100 {
        index_pair(
            &trie,
            &pair("hostname", &format!("host_{h}")),
            &mut next_slot,
        );
        index_pair(
            &trie,
            &pair("region", &format!("r{}", h % 7)),
            &mut next_slot,
        );
    }
    for m in [
        "cpu",
        "mem",
        "disk",
        "diskio",
        "kernel",
        "net",
        "nginx",
        "postgresl",
        "redis",
    ] {
        index_pair(&trie, &pair("metric", m), &mut next_slot);
    }
    // Random byte keys, some of them overwritten.
    let mut random_keys = Vec::new();
    for _ in 0..600 {
        let len = rng.below(24) as usize;
        let key: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        trie.insert(&key, rng.next()).unwrap();
        random_keys.push(key);
    }
    for _ in 0..100 {
        let key = &random_keys[rng.below(random_keys.len() as u64) as usize];
        trie.insert(key, rng.next()).unwrap();
    }
    trie.sync(&trie_dir).unwrap();

    assert_eq!(trie.stats(), LAYOUT_STATS);
    let want: Vec<(String, u64, u64)> = LAYOUT_FILES
        .iter()
        .map(|&(n, l, h)| (n.to_string(), l, h))
        .collect();
    assert_eq!(segment_files(&trie_dir), want);
}

fn touches(cache: &PageCache) -> u64 {
    let s = cache.stats();
    s.hits + s.misses
}

#[test]
fn page_cache_touches_per_lookup_and_insert_are_bounded() {
    let dir = tempfile::tempdir().unwrap();
    let cache = PageCache::new(1024 * PAGE_SIZE);
    let trie = DoubleArrayTrie::open(Arc::clone(&cache), dir.path().join("t"), 1 << 16).unwrap();
    // 20 000 pod pairs: the trie series_churn leaves after ten generations.
    let mut next_slot = 0;
    for g in 0..10 {
        for i in 0..2000 {
            index_pair(&trie, &pair("pod", &format!("p{g}-{i}")), &mut next_slot);
        }
    }
    assert_eq!(trie.len(), 20_000);

    // A lookup reads one base and one check slot per key byte, and for
    // the terminator when the key is a prefix of another, the leaf's base
    // and its tail record in one read: 2·len + 4 pages unless the record
    // straddles a page boundary. The byte-at-a-time tail reads this
    // replaced touched 31.1 pages per lookup here (2·len + 10 on average,
    // 2·len + 12 at worst); now 23.1.
    let mut worst_get = 0;
    for i in 0..2000 {
        let key = pair("pod", &format!("p{}-{i}", i % 10));
        let before = touches(&cache);
        assert!(trie.get(&key).unwrap().is_some());
        let n = touches(&cache) - before;
        worst_get = worst_get.max(n as i64 - 2 * key.len() as i64);
    }
    assert!(worst_get <= 4, "a lookup touched 2·len + {worst_get} pages");

    // Inserting the next generation's pods into the 20 000-pair trie: the
    // walk, claiming a slot (now and then relocating a node's children to
    // a free base found by a windowed search), one tail write. The per-slot
    // search and byte-at-a-time tail this replaced cost 110 pages per
    // insert here (2·len + 87 on average); now 28.9 (2·len + 6).
    let mut touched = 0;
    let mut key_bytes = 0;
    for i in 0..2000 {
        let key = pair("pod", &format!("p10-{i}"));
        let before = touches(&cache);
        assert_eq!(trie.insert(&key, 20_000 + i).unwrap(), None);
        touched += touches(&cache) - before;
        key_bytes += key.len() as u64;
    }
    assert!(
        touched <= 2 * key_bytes + 8 * 2000,
        "2000 inserts of {key_bytes} key bytes touched {touched} pages"
    );
}

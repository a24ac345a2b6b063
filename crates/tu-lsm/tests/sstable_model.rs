//! Property tests of the SSTable against a BTreeMap reference model, and
//! fault-injection tests of the time-partitioned tree's error handling.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use tu_cloud::block::BlockStore;
use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};
use tu_cloud::StorageEnv;
use tu_lsm::sstable::{Table, TableBuilder, TableSource};
use tu_lsm::{TimeTree, TreeOptions};

fn store_table(dir: &tempfile::TempDir, bytes: &[u8]) -> Arc<BlockStore> {
    let store = Arc::new(
        BlockStore::open(
            dir.path().join("b"),
            LatencyModel::ebs(),
            CostClock::new(LatencyMode::Off),
        )
        .unwrap(),
    );
    store.write_file("sst", bytes).unwrap();
    store
}

/// The value stored under `key`, read through the key range
/// `[key, key ++ 0x00)`, which holds `key` alone.
fn lookup(table: &Table, key: &[u8]) -> Option<Vec<u8>> {
    let end = [key, &[0]].concat();
    table.range(key, &end).unwrap().pop().map(|(_, v)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Point lookups, range and scan_file agree with a BTreeMap over arbitrary key/value
    /// sets (including empty values, long keys, adjacent keys).
    #[test]
    fn table_matches_btreemap_model(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 1..24),
            proptest::collection::vec(any::<u8>(), 0..64),
            1..300,
        ),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..24), 0..30),
    ) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = entries;
        let mut b = TableBuilder::new();
        for (k, v) in &model {
            b.add(k, v).unwrap();
        }
        let (bytes, props) = b.finish().unwrap();
        prop_assert_eq!(props.entries as usize, model.len());
        let dir = tempfile::tempdir().unwrap();
        let store = store_table(&dir, &bytes);
        let source = || TableSource::Block(store.clone(), "sst".into());
        let table = Table::open(source(), None).unwrap();

        // Point lookups: members and non-members.
        for (k, v) in model.iter().take(50) {
            let got = lookup(&table, k);
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        for probe in &probes {
            prop_assert_eq!(lookup(&table, probe), model.get(probe).cloned());
        }
        // Full scan preserves order and content.
        let scanned = Table::scan_file(source()).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expect);
        // Range between two probe keys equals the model range.
        if probes.len() >= 2 {
            let (mut lo, mut hi) = (probes[0].clone(), probes[1].clone());
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let got = table.range(&lo, &hi).unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                .range(lo..hi)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}

const MIN: i64 = 60_000;

fn loaded_tree(dir: &tempfile::TempDir) -> (StorageEnv, TimeTree) {
    let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
    let tree = TimeTree::open(
        env.clone(),
        TreeOptions {
            memtable_bytes: 8 << 10,
            l0_partition_ms: 30 * MIN,
            l2_partition_ms: 120 * MIN,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
    )
    .unwrap();
    for c in 0..12i64 {
        for id in 0..8u64 {
            let payload: Vec<u8> = (0..64).map(|i| (id as u8) ^ (c as u8) ^ i).collect();
            if tree.put(id, c * 30 * MIN, payload) {
                tree.maintain().unwrap();
            }
        }
    }
    tree.flush_all_to_slow().unwrap();
    (env, tree)
}

/// A vanished slow-tier object surfaces as a typed error, never a panic
/// or silent data loss.
#[test]
fn missing_s3_object_is_a_typed_error() {
    let dir = tempfile::tempdir().unwrap();
    let (env, tree) = loaded_tree(&dir);
    let victims = env.object.list_prefix("l2/");
    assert!(!victims.is_empty());
    env.object.delete(&victims[0]).unwrap();
    let mut saw_error = false;
    for id in 0..8u64 {
        match tree.range_chunks(id, 0, 10 * 120 * MIN) {
            Ok(_) => {}
            Err(e) => {
                saw_error = true;
                assert!(
                    e.is_not_found() || e.is_corruption(),
                    "unexpected error kind: {e}"
                );
            }
        }
    }
    assert!(saw_error, "some series must hit the missing table");
}

/// A corrupted slow-tier object is detected by checksums.
#[test]
fn corrupted_s3_object_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let (env, tree) = loaded_tree(&dir);
    let victims = env.object.list_prefix("l2/");
    let name = &victims[0];
    let mut bytes = env.object.get(name).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0xff;
    env.object.put(name, &bytes).unwrap();
    let mut saw_corruption = false;
    for id in 0..8u64 {
        if let Err(e) = tree.range_chunks(id, 0, 10 * 120 * MIN) {
            assert!(e.is_corruption(), "expected corruption, got {e}");
            saw_corruption = true;
        }
    }
    assert!(saw_corruption, "the flipped byte must be noticed");
}

/// Manifest corruption is rejected at open, not later.
#[test]
fn manifest_corruption_rejected_at_open() {
    let dir = tempfile::tempdir().unwrap();
    {
        let (_, tree) = loaded_tree(&dir);
        drop(tree);
    }
    let env = StorageEnv::open(dir.path(), LatencyMode::Off).unwrap();
    let mut manifest = env.block.read_file("MANIFEST").unwrap();
    // Damage a numeric field.
    let text = String::from_utf8(manifest.clone()).unwrap();
    let damaged = text.replacen("L2", "LX", 1);
    manifest = damaged.into_bytes();
    env.block.write_file("MANIFEST", &manifest).unwrap();
    match TimeTree::open(env, TreeOptions::default()) {
        Err(e) => assert!(e.is_corruption(), "got {e}"),
        Ok(_) => panic!("damaged manifest must be rejected"),
    }
}

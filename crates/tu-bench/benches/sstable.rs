//! Micro-benchmarks of the SSTable format: build, point get, range scan.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tu_cloud::block::BlockStore;
use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};
use tu_common::keys::encode_key;
use tu_lsm::cache::BlockCache;
use tu_lsm::sstable::{Table, TableBuilder, TableSource};

fn build_bytes(entries: u64) -> Vec<u8> {
    let mut b = TableBuilder::new();
    for i in 0..entries {
        let key = encode_key(i / 32, (i % 32) as i64 * 60_000);
        b.add(&key, &[0xAB; 48]).unwrap();
    }
    b.finish().unwrap().0
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("sstable_build");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("build_10k_entries", |b| b.iter(|| build_bytes(10_000)));
    g.finish();
}

fn bench_read(c: &mut Criterion) {
    let dir = tempfile::tempdir().unwrap();
    let store = Arc::new(
        BlockStore::open(
            dir.path().join("b"),
            LatencyModel::ebs(),
            CostClock::new(LatencyMode::Off),
        )
        .unwrap(),
    );
    store.write_file("sst", &build_bytes(10_000)).unwrap();
    let cache = Arc::new(BlockCache::new(16 << 20));
    let table = Table::open(TableSource::Block(store.clone(), "sst".into()), Some(cache)).unwrap();
    let mut g = c.benchmark_group("sstable_read");
    g.bench_function("open", |b| {
        b.iter(|| Table::open(TableSource::Block(store.clone(), "sst".into()), None).unwrap())
    });
    g.bench_function("point_get_warm", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            table
                .get(&encode_key(i / 32, (i % 32) as i64 * 60_000))
                .unwrap()
        })
    });
    g.bench_function("range_one_series", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 1) % 312;
            table
                .range(&encode_key(id, 0), &encode_key(id + 1, 0))
                .unwrap()
        })
    });
    g.bench_function("scan_file", |b| {
        b.iter(|| Table::scan_file(TableSource::Block(store.clone(), "sst".into())).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_read);
criterion_main!(benches);

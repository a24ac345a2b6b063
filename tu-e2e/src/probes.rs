//! Layer probes of the traced run: each drives one layer's public API
//! directly, from outside, with the workload's own labels, samples, chunks
//! and blocks, and reports a cost per operation. Every probe is a child
//! span of the `probe` phase.
//!
//! Probe numbers are *estimates* of what a layer costs inside the engine
//! (no contention, warm caches, the simulator's files in the OS page
//! cache); [`ingest_ledger`] multiplies them by op counts and reports the
//! unexplained remainder next to them so nobody takes them for a measurement.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tu_cloud::cost::LatencyMode;
use tu_cloud::StorageEnv;
use tu_common::keys::encode_key;
use tu_common::{Labels, Result, Sample};
use tu_compress::agg::AggKind;
use tu_compress::nullxor::{GroupChunkDecoder, GroupChunkEncoder};
use tu_compress::{gorilla, snappy};
use tu_index::{DoubleArrayTrie, InvertedIndex, Selector};
use tu_lsm::cache::BlockCache;
use tu_lsm::sstable::{Table, TableBuilder, TableSource, BLOCK_SIZE};
use tu_lsm::wal::{Wal, WalRecord};
use tu_lsm::{MemTable, TimeTree};
use tu_mmap::{ChunkArena, PageCache};

use crate::harness::{engine_options, Metric};
use crate::json::Json;
use crate::tracer::Tracer;
use crate::workload::{Step, Workload};

/// What a workload hands the probes: its own label sets and sample runs.
pub struct ProbeData {
    pub labels: Vec<Labels>,
    pub series: Vec<Vec<Sample>>,
}

const CHUNK_SAMPLES: usize = 32;

/// Series id, first timestamp and bytes of one sealed chunk.
type Entry<'a> = (u64, i64, &'a [u8]);

/// WAL records (data and checkpoints) a reopen of `crash_dir` must replay.
pub fn wal_records(crash_dir: &Path) -> Result<u64> {
    let env = StorageEnv::open(crash_dir, LatencyMode::Off)?;
    Ok(Wal::open(env.block.clone(), "wal/engine.log")
        .replay()?
        .len() as u64)
}

struct Probes<'a> {
    tracer: &'a Tracer,
    out: Vec<(String, f64)>,
}

impl Probes<'_> {
    /// Times `f` as a child span and returns nanoseconds per op.
    fn time<R>(&mut self, span: &'static str, ops: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = self.tracer.span(span, ops as u64, None, f);
        (out, t0.elapsed().as_nanos() as f64 / ops.max(1) as f64)
    }

    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }
}

pub fn run_all(tracer: &Tracer, wl: &dyn Workload, dir: &Path) -> Result<Vec<(String, f64)>> {
    let data = wl.probe_data();
    std::fs::create_dir_all(dir)?;
    let mut p = Probes {
        tracer,
        out: Vec::new(),
    };
    // The workload's samples as the chunks the engine would seal.
    let runs: Vec<&[Sample]> = data
        .series
        .iter()
        .flat_map(|s| s.chunks(CHUNK_SAMPLES))
        .collect();
    let chunks = compress_probes(&mut p, &runs, &data.series)?;
    // (id, first timestamp, chunk) in key order, as a flush would emit them.
    let mut entries: Vec<Entry> = Vec::with_capacity(chunks.len());
    for (id, series) in data.series.iter().enumerate() {
        for samples in series.chunks(CHUNK_SAMPLES) {
            entries.push((id as u64 + 1, samples[0].t, &chunks[entries.len()]));
        }
    }
    index_probes(&mut p, &data.labels, dir)?;
    mmap_probes(&mut p, &runs, dir)?;
    let env = StorageEnv::open(dir.join("env"), LatencyMode::Virtual)?;
    lsm_probes(&mut p, &entries, &env)?;
    tree_probes(&mut p, &entries, dir)?;
    cloud_probes(&mut p, &env)?;
    obs_probes(&mut p);
    Ok(p.out)
}

fn compress_probes(
    p: &mut Probes,
    runs: &[&[Sample]],
    series: &[Vec<Sample>],
) -> Result<Vec<Vec<u8>>> {
    let samples: usize = runs.iter().map(|r| r.len()).sum();
    let (chunks, ns) = p.time("probe.gorilla.encode", samples, || {
        runs.iter()
            .map(|r| gorilla::compress_chunk_framed(r))
            .collect::<Result<Vec<_>>>()
    });
    let chunks = chunks?;
    p.put("tu-compress.gorilla.encode_ns_per_sample", ns);
    let bytes: usize = chunks.iter().map(Vec::len).sum();
    p.put(
        "tu-compress.gorilla.bytes_per_sample",
        bytes as f64 / samples as f64,
    );
    let (decoded, ns) = p.time("probe.gorilla.decode", samples, || -> Result<usize> {
        let mut n = 0;
        for c in &chunks {
            n += black_box(gorilla::decompress_chunk(c)?).len();
        }
        Ok(n)
    });
    assert_eq!(decoded?, samples, "gorilla round trip lost samples");
    p.put("tu-compress.gorilla.decode_ns_per_sample", ns);
    let (folded, ns) = p.time("probe.gorilla.fold", samples, || -> Result<()> {
        for c in &chunks {
            black_box(gorilla::ChunkDecoder::new(c)?.fold(AggKind::Max)?);
        }
        Ok(())
    });
    folded?;
    p.put("tu-compress.gorilla.fold_ns_per_sample", ns);

    // NullXOR: the same series as the columns of shared-timestamp rows.
    let columns = series.len().min(tu_tsbs::devops::METRICS_PER_HOST);
    let rows = series.iter().take(columns).map(Vec::len).min().unwrap_or(0);
    let values = rows * columns;
    let (group_chunks, ns) = p.time(
        "probe.nullxor.encode",
        values,
        || -> Result<Vec<Vec<u8>>> {
            let mut out = Vec::new();
            for first in (0..rows).step_by(CHUNK_SAMPLES) {
                let mut enc = GroupChunkEncoder::new(columns);
                for r in first..(first + CHUNK_SAMPLES).min(rows) {
                    let row: Vec<Option<f64>> =
                        series[..columns].iter().map(|s| Some(s[r].v)).collect();
                    enc.append_row(series[0][r].t, &row)?;
                }
                out.push(enc.finish_framed());
            }
            Ok(out)
        },
    );
    let group_chunks = group_chunks?;
    p.put("tu-compress.nullxor.encode_ns_per_value", ns);
    let group_bytes: usize = group_chunks.iter().map(Vec::len).sum();
    p.put(
        "tu-compress.nullxor.bytes_per_value",
        group_bytes as f64 / values.max(1) as f64,
    );
    let (decoded, ns) = p.time("probe.nullxor.decode", values, || -> Result<()> {
        for c in &group_chunks {
            black_box(GroupChunkDecoder::new(c)?.decode_all()?);
        }
        Ok(())
    });
    decoded?;
    p.put("tu-compress.nullxor.decode_ns_per_value", ns);

    // Snappy on SSTable-block-sized runs of (key, chunk) entries.
    let mut blocks: Vec<Vec<u8>> = vec![Vec::with_capacity(BLOCK_SIZE)];
    for (i, c) in chunks.iter().enumerate() {
        if blocks.last().is_some_and(|b| b.len() >= BLOCK_SIZE) {
            blocks.push(Vec::with_capacity(BLOCK_SIZE));
        }
        let block = blocks.last_mut().expect("starts non-empty");
        block.extend_from_slice(&encode_key(i as u64, 0));
        block.extend_from_slice(c);
    }
    let raw: usize = blocks.iter().map(Vec::len).sum();
    let (packed, ns_per_byte) = p.time("probe.snappy.compress", raw, || {
        blocks
            .iter()
            .map(|b| snappy::compress(b))
            .collect::<Vec<_>>()
    });
    p.put("tu-compress.snappy.compress_mb_s", 1e3 / ns_per_byte);
    let packed_len: usize = packed.iter().map(Vec::len).sum();
    p.put("tu-compress.snappy.ratio", raw as f64 / packed_len as f64);
    let (unpacked, ns_per_byte) = p.time("probe.snappy.decompress", raw, || -> Result<()> {
        for b in &packed {
            black_box(snappy::decompress(b)?);
        }
        Ok(())
    });
    unpacked?;
    p.put("tu-compress.snappy.decompress_mb_s", 1e3 / ns_per_byte);
    Ok(chunks)
}

fn index_probes(p: &mut Probes, labels: &[Labels], dir: &Path) -> Result<()> {
    let cache = PageCache::new(64 << 20);
    let index = InvertedIndex::open(cache.clone(), dir.join("index"), 1 << 16)?;
    let (added, ns) = p.time("probe.index.add", labels.len(), || -> Result<()> {
        for (i, l) in labels.iter().enumerate() {
            index.add(l, i as u64 + 1)?;
        }
        Ok(())
    });
    added?;
    p.put("tu-index.add.ns_per_series", ns);
    p.put(
        "tu-index.heap_bytes_per_series",
        index.heap_bytes() as f64 / labels.len() as f64,
    );
    // Exact: every tag pair of a label set, which selects at least it.
    let exact: Vec<Vec<Selector>> = labels
        .iter()
        .step_by((labels.len() / 256).max(1))
        .map(|l| l.iter().map(|(k, v)| Selector::exact(k, v)).collect())
        .collect();
    let (selected, ns) = p.time("probe.index.select_exact", exact.len(), || -> Result<()> {
        for s in &exact {
            black_box(index.select(s)?);
        }
        Ok(())
    });
    selected?;
    p.put("tu-index.select.exact_us", ns / 1e3);
    // Regex: a prefix scan over the tag key with the most distinct values.
    let key = ["pod", "metric"]
        .into_iter()
        .find(|k| labels[0].get(k).is_some())
        .unwrap_or("hostname");
    let regex: Vec<Vec<Selector>> = labels
        .iter()
        .step_by((labels.len() / 32).max(1))
        .filter_map(|l| l.get(key))
        .map(|v| {
            let prefix: String = v.chars().take(v.len().saturating_sub(1).max(1)).collect();
            Ok(vec![Selector::regex(key, &format!("{prefix}[a-z0-9_]*"))?])
        })
        .collect::<Result<_>>()?;
    let (selected, ns) = p.time("probe.index.select_regex", regex.len(), || -> Result<()> {
        for s in &regex {
            black_box(index.select(s)?);
        }
        Ok(())
    });
    selected?;
    p.put("tu-index.select.regex_us", ns / 1e3);

    let mut keys: Vec<Vec<u8>> = labels
        .iter()
        .flat_map(|l| l.iter().map(|(k, v)| format!("{k}${v}").into_bytes()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let trie = DoubleArrayTrie::open(cache, dir.join("trie"), 1 << 16)?;
    let (inserted, ns) = p.time("probe.trie.insert", keys.len(), || -> Result<()> {
        for (i, k) in keys.iter().enumerate() {
            trie.insert(k, i as u64)?;
        }
        Ok(())
    });
    inserted?;
    p.put("tu-index.trie.insert_ns", ns);
    let (found, ns) = p.time("probe.trie.get", keys.len(), || -> Result<usize> {
        let mut n = 0;
        for k in &keys {
            n += trie.get(k)?.is_some() as usize;
        }
        Ok(n)
    });
    assert_eq!(found?, keys.len(), "trie lost a key");
    p.put("tu-index.trie.get_ns", ns);
    Ok(())
}

/// Head chunks the way the engine fills them: one 16-byte row written,
/// then one appended per sample, and the whole slot read back per query.
fn mmap_probes(p: &mut Probes, runs: &[&[Sample]], dir: &Path) -> Result<()> {
    let arena = ChunkArena::open(
        PageCache::new(64 << 20),
        dir.join("arena"),
        tu_core::series::slot_size(CHUNK_SAMPLES),
        1 << 16,
    )?;
    let handles = runs
        .iter()
        .map(|_| arena.alloc())
        .collect::<Result<Vec<_>>>()?;
    let samples: usize = runs.iter().map(|r| r.len()).sum();
    let (written, ns) = p.time("probe.mmap.write", samples, || -> Result<()> {
        for (h, run) in handles.iter().zip(runs) {
            for (i, s) in run.iter().enumerate() {
                let mut row = [0u8; 16];
                row[..8].copy_from_slice(&s.t.to_le_bytes());
                row[8..].copy_from_slice(&s.v.to_le_bytes());
                if i == 0 {
                    arena.write(*h, &row)?;
                } else {
                    arena.append(*h, i * row.len(), &row)?;
                }
            }
        }
        Ok(())
    });
    written?;
    p.put("tu-mmap.chunk.write_ns", ns);
    let (read, ns) = p.time("probe.mmap.read", handles.len(), || -> Result<()> {
        for h in &handles {
            black_box(arena.read(*h)?);
        }
        Ok(())
    });
    read?;
    p.put("tu-mmap.chunk.read_ns", ns);
    Ok(())
}

fn lsm_probes(p: &mut Probes, entries: &[Entry], env: &StorageEnv) -> Result<()> {
    // WAL: sample-sized records, group-committed every 1 024 like the engine.
    let wal = Wal::open(env.block.clone(), "wal/probe.log");
    let records = 64 * 1024;
    let (committed, ns) = p.time("probe.wal.append_commit", records, || -> Result<()> {
        for i in 0..records as u64 {
            wal.append(&WalRecord {
                stream: i % 1024,
                seq: i / 1024,
                checkpoint: false,
                payload: vec![0u8; 16],
            });
            if i % 1024 == 1023 {
                wal.flush()?;
            }
        }
        wal.flush()
    });
    committed?;
    p.put("tu-lsm.wal.append_commit_ns_per_record", ns);
    let (replayed, ns) = p.time("probe.wal.replay", records, || wal.replay());
    assert_eq!(replayed?.len(), records, "WAL replay lost records");
    p.put("tu-lsm.wal.replay_ns_per_record", ns);

    let (_, ns) = p.time("probe.memtable.put", entries.len(), || {
        let mut mem = MemTable::new();
        for (id, ts, chunk) in entries {
            mem.put(encode_key(*id, *ts).to_vec(), chunk.to_vec());
        }
        black_box(mem.len())
    });
    p.put("tu-lsm.memtable.put_ns", ns);

    let (built, ns) = p.time("probe.sstable.build", 1, || -> Result<Vec<u8>> {
        let mut b = TableBuilder::new();
        for (id, ts, chunk) in entries {
            b.add(&encode_key(*id, *ts), chunk)?;
        }
        Ok(b.finish()?.0)
    });
    let table_bytes = built?;
    p.put(
        "tu-lsm.sstable.build_mb_s",
        table_bytes.len() as f64 * 1e3 / ns,
    );
    env.object.put("probe/sst", &table_bytes)?;
    let cache = Arc::new(BlockCache::new(crate::harness::BLOCK_CACHE_BYTES));
    let table = Table::open(
        TableSource::Object(env.object.clone(), "probe/sst".into()),
        Some(cache.clone()),
    )?;
    let ids: Vec<u64> = entries
        .iter()
        .map(|e| e.0)
        .step_by((entries.len() / 256).max(1))
        .collect();
    let range_all = |id: u64| table.range(&encode_key(id, i64::MIN), &encode_key(id, i64::MAX));
    let (cold, ns) = p.time("probe.sstable.range_cold", ids.len(), || -> Result<()> {
        for &id in &ids {
            cache.clear();
            black_box(range_all(id)?);
        }
        Ok(())
    });
    cold?;
    p.put("tu-lsm.sstable.range_cold_us", ns / 1e3);
    let (warm, ns) = p.time("probe.sstable.range_warm", ids.len(), || -> Result<()> {
        for &id in &ids {
            black_box(range_all(id)?);
        }
        Ok(())
    });
    warm?;
    p.put("tu-lsm.sstable.range_warm_us", ns / 1e3);
    let gets = 200_000;
    let (hits, ns) = p.time("probe.cache.get", gets, || {
        (0..gets)
            .filter(|_| cache.get("o:probe/sst", 0).is_some())
            .count()
    });
    assert_eq!(hits, gets, "the table's first block should be cached");
    p.put("tu-lsm.cache.get_ns", ns);
    Ok(())
}

fn tree_probes(p: &mut Probes, entries: &[Entry], dir: &Path) -> Result<()> {
    let opts = engine_options(0, &tu_common::clock::SimClock::new(0)).tree;
    let tree = TimeTree::open(
        StorageEnv::open(dir.join("tree"), LatencyMode::Virtual)?,
        opts,
    )?;
    let mut put_ns = 0u128;
    p.tracer.span(
        "probe.tree.put",
        entries.len() as u64,
        None,
        || -> Result<()> {
            for (id, ts, chunk) in entries {
                let t0 = Instant::now();
                let sealed = tree.put(*id, *ts, chunk.to_vec());
                put_ns += t0.elapsed().as_nanos();
                if sealed {
                    tree.maintain()?;
                }
            }
            tree.flush_all_to_slow()
        },
    )?;
    p.put(
        "tu-lsm.tree.put_ns_per_chunk",
        put_ns as f64 / entries.len() as f64,
    );
    let mut ids: Vec<u64> = entries.iter().map(|e| e.0).collect();
    ids.dedup();
    let scan = |ids: &[u64]| -> Result<()> {
        for &id in ids {
            black_box(tree.range_chunks(id, i64::MIN / 2, i64::MAX / 2)?);
        }
        Ok(())
    };
    scan(&ids)?;
    let (warm, ns) = p.time("probe.tree.range_chunks_warm", ids.len(), || scan(&ids));
    warm?;
    p.put("tu-lsm.tree.range_chunks_warm_us", ns / 1e3);
    Ok(())
}

/// What the storage simulator itself costs in real time: its files sit in
/// the OS page cache, so these are CPU and syscall costs, not a device's.
fn cloud_probes(p: &mut Probes, env: &StorageEnv) -> Result<()> {
    let wave = vec![0x5au8; 16 << 10];
    let (appended, ns) = p.time("probe.cloud.fast_append", 256, || -> Result<()> {
        for _ in 0..256 {
            env.block.append("probe/append.log", &wave)?;
        }
        Ok(())
    });
    appended?;
    p.put("tu-cloud.fast.append_wall_us", ns / 1e3);
    let object = vec![0xa5u8; 1 << 20];
    let (uploaded, ns) = p.time("probe.cloud.slow_put", 16, || -> Result<()> {
        for i in 0..16 {
            env.object.put(&format!("probe/obj-{i}"), &object)?;
        }
        Ok(())
    });
    uploaded?;
    p.put("tu-cloud.slow.put_wall_us", ns / 1e3);
    let (fetched, ns) = p.time("probe.cloud.slow_get_range", 1024, || -> Result<()> {
        for i in 0..1024u64 {
            black_box(env.object.get_range(
                &format!("probe/obj-{}", i % 16),
                (i * 4096) % (1 << 20),
                BLOCK_SIZE,
            )?);
        }
        Ok(())
    });
    fetched?;
    p.put("tu-cloud.slow.get_range_wall_us", ns / 1e3);
    Ok(())
}

fn obs_probes(p: &mut Probes) {
    let n = 1_000_000;
    let counter = tu_obs::counter("bench.probe.counter");
    let (_, ns) = p.time("probe.obs.counter", n, || {
        for _ in 0..n {
            black_box(counter).inc();
        }
    });
    p.put("tu-obs.counter_inc_ns", ns);
    let traced = tu_obs::traced("bench.probe.traced");
    let (_, ns) = p.time("probe.obs.traced_counter", n, || {
        for _ in 0..n {
            black_box(&traced).inc();
        }
    });
    p.put("tu-obs.traced_counter_ns", ns);
    let spans = 200_000;
    let (_, ns) = p.time("probe.obs.span", spans, || {
        for _ in 0..spans {
            drop(black_box(tu_obs::span("bench.probe.span")));
        }
    });
    p.put("tu-obs.span_ns", ns);
}

/// Estimated split of the measured ingest: probe cost per op × that
/// layer's op count in the phase, in CPU milliseconds, against the time the
/// engine's workers had (`wall × workers`, an upper bound: only `put_batch`
/// fans out), and the remainder the estimates leave. The rows are
/// estimates — a probe runs uncontended but on colder cache slots than the
/// engine — so the remainder can come out negative; only the wall time is
/// measured.
pub fn ingest_ledger(
    layers: &[Metric],
    samples: u64,
    steps: &[Step],
    wal_records: f64,
    flushes: u64,
) -> Json {
    let probe = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wall_ms: f64 = steps.iter().map(|s| s.cost.wall.as_secs_f64() * 1e3).sum();
    let worker_ms = wall_ms * crate::harness::THREADS as f64;
    let created: u64 = steps.iter().map(|s| s.series_created).sum();
    let chunks = samples as f64 / CHUNK_SAMPLES as f64;
    let mut rows = vec![
        (
            "tu-mmap head chunk row writes",
            probe("tu-mmap.chunk.write_ns") * samples as f64 / 1e6,
        ),
        (
            "tu-compress gorilla encode",
            probe("tu-compress.gorilla.encode_ns_per_sample") * samples as f64 / 1e6,
        ),
        (
            "tu-lsm wal append+commit",
            probe("tu-lsm.wal.append_commit_ns_per_record") * wal_records / 1e6,
        ),
        (
            "tu-lsm tree put",
            probe("tu-lsm.tree.put_ns_per_chunk") * chunks / 1e6,
        ),
        (
            "tu-index add",
            probe("tu-index.add.ns_per_series") * created as f64 / 1e6,
        ),
        (
            "tu-obs counters",
            probe("tu-obs.traced_counter_ns") * samples as f64 / 1e6,
        ),
    ];
    let explained_ms: f64 = rows.iter().map(|(_, ms)| ms).sum();
    rows.push((
        "remainder (flush, compaction, locks, maps, everything unprobed, estimate error)",
        worker_ms - explained_ms,
    ));
    Json::obj([
        ("measured_ingest_wall_ms", Json::Num(wall_ms)),
        ("workers", Json::Num(crate::harness::THREADS as f64)),
        ("memtable_flushes", Json::Num(flushes as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(layer, ms)| {
                        Json::obj([
                            ("layer", Json::str(*layer)),
                            ("estimated_cpu_ms", Json::Num(*ms)),
                            ("share_of_worker_time", Json::Num(ms / worker_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

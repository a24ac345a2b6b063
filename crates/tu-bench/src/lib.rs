//! Shared harness for the figure/table reproduction binary and the
//! `tu-e2e` benchmark.
//!
//! ## Time accounting
//!
//! Experiments run with [`LatencyMode::Virtual`]: storage operations do
//! not sleep, they *charge* modelled nanoseconds on the environment's
//! [`CostClock`]. A measured quantity is therefore reported as
//! `wall-clock CPU time + modelled storage time`, which is deterministic
//! run-to-run and preserves the paper's cost ordering between fast and
//! slow tiers (see DESIGN.md §1).

use std::time::{Duration, Instant};

use tu_cloud::cost::{CostClock, LatencyMode};
use tu_cloud::StorageEnv;
use tu_common::{Labels, Result};
use tu_core::engine::{Options, TimeUnion};
use tu_lsm::leveled::LeveledOptions;
use tu_lsm::TreeOptions;
use tu_tsbs::devops::DevOpsGenerator;
use tu_tsdb::cortex::{CortexCosts, CortexSim};
use tu_tsdb::{Tsdb, TsdbLdb, TsdbOptions, TuLdb};

pub mod report;

/// Wall + modelled time of one measured section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    pub wall: Duration,
    pub storage_ns: u64,
}

impl Measured {
    /// Combined modelled duration.
    pub fn total(&self) -> Duration {
        self.wall + Duration::from_nanos(self.storage_ns)
    }

    pub fn total_secs(&self) -> f64 {
        self.total().as_secs_f64()
    }

    pub fn total_ms(&self) -> f64 {
        self.total_secs() * 1e3
    }
}

/// Runs `f`, measuring wall time plus storage time charged on `clock`.
pub fn measure<R>(clock: &CostClock, f: impl FnOnce() -> R) -> (R, Measured) {
    let v0 = clock.virtual_ns();
    let t0 = Instant::now();
    let out = f();
    let m = Measured {
        wall: t0.elapsed(),
        storage_ns: clock.virtual_ns() - v0,
    };
    (out, m)
}

/// Bench-scaled engine configurations, shared by every experiment so the
/// engines face identical storage parameters.
pub struct BenchConfig {
    pub chunk_samples: usize,
    pub memtable_bytes: usize,
    pub max_sstable_bytes: usize,
    pub block_cache_bytes: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            chunk_samples: 32,
            memtable_bytes: 1 << 20,
            max_sstable_bytes: 1 << 20,
            block_cache_bytes: 32 << 20,
        }
    }
}

impl BenchConfig {
    pub fn tree_options(&self) -> TreeOptions {
        TreeOptions {
            memtable_bytes: self.memtable_bytes,
            max_sstable_bytes: self.max_sstable_bytes,
            block_cache_bytes: self.block_cache_bytes,
            ..TreeOptions::default()
        }
    }

    pub fn leveled_options(&self, slow_level_start: u8) -> LeveledOptions {
        LeveledOptions {
            memtable_bytes: self.memtable_bytes,
            max_sstable_bytes: self.max_sstable_bytes,
            block_cache_bytes: self.block_cache_bytes,
            base_level_bytes: (self.memtable_bytes * 4) as u64,
            slow_level_start,
            ..LeveledOptions::default()
        }
    }

    pub fn tu_options(&self) -> Options {
        Options {
            chunk_samples: self.chunk_samples,
            index_slots_per_segment: 1 << 16,
            tree: self.tree_options(),
            latency: LatencyMode::Virtual,
            ..Options::default()
        }
    }

    pub fn tsdb_options(&self, slow: bool) -> TsdbOptions {
        TsdbOptions {
            chunk_samples: 120,
            slow_storage: slow,
            chunk_cache_bytes: self.block_cache_bytes,
            ..TsdbOptions::default()
        }
    }
}

/// The engines of the storage-engine evaluation (§4.3).
pub enum Engine {
    TimeUnion(TimeUnion),
    TuLdb(TuLdb),
    Tsdb(Tsdb),
    TsdbLdb(TsdbLdb),
}

impl Engine {
    pub fn name(&self) -> &'static str {
        match self {
            Engine::TimeUnion(_) => "TU",
            Engine::TuLdb(_) => "TU-LDB",
            Engine::Tsdb(_) => "tsdb",
            Engine::TsdbLdb(_) => "tsdb-LDB",
        }
    }

    pub fn put(&self, labels: &Labels, t: i64, v: f64) -> Result<u64> {
        match self {
            Engine::TimeUnion(e) => e.put(labels, t, v),
            Engine::TuLdb(e) => e.put(labels, t, v),
            Engine::Tsdb(e) => e.put(labels, t, v),
            Engine::TsdbLdb(e) => e.put(labels, t, v),
        }
    }

    pub fn put_by_id(&self, id: u64, t: i64, v: f64) -> Result<()> {
        match self {
            Engine::TimeUnion(e) => e.put_by_id(id, t, v),
            Engine::TuLdb(e) => e.put_by_id(id, t, v),
            Engine::Tsdb(e) => e.put_by_id(id, t, v),
            Engine::TsdbLdb(e) => e.put_by_id(id, t, v),
        }
    }

    /// Returns the number of matched series and total samples.
    pub fn query(
        &self,
        selectors: &[tu_index::Selector],
        start: i64,
        end: i64,
    ) -> Result<(usize, usize)> {
        Ok(match self {
            Engine::TimeUnion(e) => {
                let r = e.query(selectors, start, end)?;
                (r.len(), r.iter().map(|s| s.samples.len()).sum())
            }
            Engine::TuLdb(e) => {
                let r = e.query(selectors, start, end)?;
                (r.len(), r.iter().map(|(_, s)| s.len()).sum())
            }
            Engine::Tsdb(e) => {
                let r = e.query(selectors, start, end)?;
                (r.len(), r.iter().map(|(_, s)| s.len()).sum())
            }
            Engine::TsdbLdb(e) => {
                let r = e.query(selectors, start, end)?;
                (r.len(), r.iter().map(|(_, s)| s.len()).sum())
            }
        })
    }

    /// Finishes background work (compactions) without sealing in-memory
    /// heads — the natural steady state the paper's §4.3 queries run
    /// against (recent data in memory/fast tier, old data on S3).
    pub fn settle(&self) -> Result<()> {
        match self {
            Engine::TimeUnion(e) => e.maintain(),
            Engine::TuLdb(e) => e.settle(),
            Engine::Tsdb(_) => Ok(()),
            Engine::TsdbLdb(e) => e.settle(),
        }
    }

    /// Drains all pending data to its terminal tier (the paper queries
    /// "after all pending samples are flushed" for Figure 15).
    pub fn flush(&self) -> Result<()> {
        match self {
            Engine::TimeUnion(e) => e.flush_all(),
            Engine::TuLdb(e) => e.flush_all(),
            Engine::Tsdb(e) => e.flush_head(),
            Engine::TsdbLdb(e) => e.flush_all(),
        }
    }

    /// Drops cached data blocks across the engine (keeps table handles
    /// and index metadata warm).
    pub fn clear_block_caches(&self) {
        match self {
            Engine::TimeUnion(e) => e.clear_block_cache(),
            Engine::TuLdb(e) => e.clear_block_cache(),
            Engine::Tsdb(e) => e.clear_block_cache(),
            Engine::TsdbLdb(e) => e.clear_block_cache(),
        }
    }

    /// Structural memory estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Engine::TimeUnion(e) => e.memory_stats().total(),
            Engine::TuLdb(e) => e.memory_bytes(),
            Engine::Tsdb(e) => e.memory().total(),
            Engine::TsdbLdb(e) => e.memory_bytes(),
        }
    }
}

/// Measures one query with warm metadata but cold data blocks: a warm-up
/// run populates table handles and indexes, then data-block caches are
/// cleared so the measured run pays exactly the per-block storage reads of
/// Equations 3-6 (the regime the paper operates in, where data is far
/// larger than the 1 GiB cache).
pub fn measure_query(
    engine: &Engine,
    clock: &CostClock,
    selectors: &[tu_index::Selector],
    start: i64,
    end: i64,
) -> Result<((usize, usize), Measured)> {
    engine.query(selectors, start, end)?; // warm metadata
    engine.clear_block_caches();
    let (r, m) = measure(clock, || engine.query(selectors, start, end));
    Ok((r?, m))
}

/// Builds one engine over a fresh storage environment under `dir`.
pub fn build_engine(
    kind: &str,
    dir: &std::path::Path,
    cfg: &BenchConfig,
    env: StorageEnv,
) -> Result<Engine> {
    Ok(match kind {
        "TU" => {
            // TimeUnion owns its storage environment; mirror the caller's
            // latency mode so costs are comparable.
            let mut opts = cfg.tu_options();
            opts.latency = env.clock.mode();
            Engine::TimeUnion(TimeUnion::open(dir.join("tu"), opts)?)
        }
        "TU-LDB" => Engine::TuLdb(TuLdb::open(
            dir.join("tuldb-mem"),
            env,
            cfg.chunk_samples,
            64 << 20,
            cfg.leveled_options(2),
        )?),
        "tsdb" => Engine::Tsdb(Tsdb::open(env, cfg.tsdb_options(true))?),
        "tsdb-LDB" => Engine::TsdbLdb(TsdbLdb::open(
            env,
            cfg.chunk_samples,
            cfg.leveled_options(0),
        )?),
        other => return Err(tu_common::Error::invalid(format!("unknown engine {other}"))),
    })
}

/// The cost clock an engine charges (TimeUnion owns its own env).
pub fn engine_clock(engine: &Engine, env: &StorageEnv) -> CostClock {
    match engine {
        Engine::TimeUnion(e) => e.storage().clock.clone(),
        _ => env.clock.clone(),
    }
}

/// Ingests the DevOps workload via the fast path. Returns ids and the
/// measured ingest cost.
pub fn ingest_fast(
    engine: &Engine,
    gen: &DevOpsGenerator,
    clock: &CostClock,
) -> Result<(Vec<Vec<u64>>, Measured)> {
    let mut ids: Vec<Vec<u64>> = Vec::new();
    let (res, m) = measure(clock, || -> Result<()> {
        for host in 0..gen.options().hosts {
            let mut row = Vec::with_capacity(gen.metric_names().len());
            for metric in 0..gen.metric_names().len() {
                row.push(engine.put(
                    &gen.series_labels(host, metric),
                    gen.ts_of(0),
                    gen.value(host, metric, 0),
                )?);
            }
            ids.push(row);
        }
        for step in 1..gen.steps() {
            let t = gen.ts_of(step);
            for (host, row) in ids.iter().enumerate() {
                for (metric, id) in row.iter().enumerate() {
                    engine.put_by_id(*id, t, gen.value(host, metric, step))?;
                }
            }
        }
        Ok(())
    });
    res?;
    Ok((ids, m))
}

/// Ingests the DevOps workload into TimeUnion in group mode (one group
/// per host, the paper's TU-Group configuration).
pub fn ingest_grouped(
    engine: &TimeUnion,
    gen: &DevOpsGenerator,
    clock: &CostClock,
) -> Result<Measured> {
    let member_tags: Vec<Labels> = gen
        .metric_names()
        .iter()
        .map(|m| Labels::from_pairs([("metric", m.as_str())]))
        .collect();
    let (res, m) = measure(clock, || -> Result<()> {
        let mut handles = Vec::new();
        for host in 0..gen.options().hosts {
            handles.push(engine.put_group(
                &gen.host_labels(host),
                &member_tags,
                gen.ts_of(0),
                &gen.host_row(host, 0),
            )?);
        }
        for step in 1..gen.steps() {
            let t = gen.ts_of(step);
            for (host, (gid, refs)) in handles.iter().enumerate() {
                engine.put_group_fast(*gid, refs, t, &gen.host_row(host, step))?;
            }
        }
        Ok(())
    });
    res?;
    Ok(m)
}

/// Convenience: a fresh virtual-latency environment under `dir/name`.
pub fn fresh_env(dir: &std::path::Path, name: &str) -> Result<StorageEnv> {
    StorageEnv::open(dir.join(name), LatencyMode::Virtual)
}

/// A Cortex simulator over a fresh environment.
pub fn build_cortex(dir: &std::path::Path, cfg: &BenchConfig) -> Result<CortexSim> {
    let env = StorageEnv::open(dir.join("cortex"), LatencyMode::Virtual)?;
    CortexSim::open(env, cfg.tsdb_options(true), CortexCosts::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_tsbs::devops::DevOpsOptions;

    #[test]
    fn measure_captures_storage_charges() {
        let clock = CostClock::new(LatencyMode::Virtual);
        let (v, m) = measure(&clock, || {
            clock.charge(5_000_000);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(m.storage_ns, 5_000_000);
        assert!(m.total() >= Duration::from_millis(5));
    }

    #[test]
    fn engines_build_and_ingest() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = BenchConfig::default();
        let gen = DevOpsGenerator::new(DevOpsOptions {
            hosts: 2,
            duration_ms: 600_000,
            ..DevOpsOptions::default()
        });
        for kind in ["TU", "TU-LDB", "tsdb", "tsdb-LDB"] {
            let env = fresh_env(dir.path(), kind).unwrap();
            let engine = build_engine(kind, dir.path(), &cfg, env.clone()).unwrap();
            let clock = engine_clock(&engine, &env);
            let (_ids, m) = ingest_fast(&engine, &gen, &clock).unwrap();
            assert!(m.total() > Duration::ZERO, "{kind}");
            engine.flush().unwrap();
            let sel = vec![
                tu_index::Selector::exact("hostname", "host_0"),
                tu_index::Selector::exact("metric", gen.metric_names()[0].clone()),
            ];
            let (series, samples) = engine.query(&sel, 0, gen.end_ms()).unwrap();
            assert_eq!(series, 1, "{kind}");
            assert_eq!(samples as i64, gen.steps(), "{kind}");
            assert!(engine.memory_bytes() > 0, "{kind}");
        }
    }
}

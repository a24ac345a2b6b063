//! The TimeUnion engine: open/put/get/retention/recovery (§3.4).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex, MutexGuard};

use tu_cloud::cost::LatencyMode;
use tu_cloud::StorageEnv;
use tu_common::clock::{system_clock, SharedClock};
use tu_common::{
    Error, GroupId, Labels, Result, SeriesId, SeriesRef, Timestamp, Value, GROUP_ID_FLAG,
};
use tu_compress::agg::{self, AggKind};
use tu_index::{InvertedIndex, Selector};
use tu_lsm::wal::{RecordKind, Wal};
use tu_lsm::{TimeTree, TreeOptions};
use tu_mmap::pagecache::PageCache;

use crate::catalog::{Catalog, CatalogRecord};
use crate::maintenance::{Maintenance, PendingCheckpoint, StepHook};
use crate::meta::{self, EngineMeta};
use crate::model;
use crate::object::{self, Arenas, Object, ROW};
use crate::profile::QueryProfile;
use crate::query::{
    aggregate_step, AggCounters, AggSpec, ChunkFormat, Column, ObjectRead, QueryResult,
    SeriesResult,
};
use crate::shard::ShardedMap;

/// Engine configuration.
#[derive(Clone)]
pub struct Options {
    /// Samples batched per in-memory chunk before sealing (paper: 32).
    pub chunk_samples: usize,
    /// Time-partitioned LSM-tree options.
    pub tree: TreeOptions,
    /// Trie file-array segmentation (paper: one million slots per file).
    pub index_slots_per_segment: usize,
    /// Page-cache budget for all file-backed memory structures.
    pub page_cache_bytes: usize,
    /// Chunk slots per arena file.
    pub arena_chunks_per_file: u32,
    /// Retention window; samples older than `now - retention` are purged
    /// by [`TimeUnion::apply_retention`]. `None` keeps everything.
    pub retention_ms: Option<i64>,
    /// Flush the WAL after this many buffered records (group commit); a
    /// run of one series' samples in a `put_batch` is one record.
    pub wal_batch_records: usize,
    /// Obsolete WAL segments are deleted at every checkpoint. Past this
    /// size the log also moves what quiet series still pin in its oldest
    /// segment to the tail, so that segment can go too.
    pub wal_purge_bytes: u64,
    /// Storage latency modelling for the cloud tiers.
    pub latency: LatencyMode,
    /// Latency model of the fast tier (default: EBS-like).
    pub block_model: tu_cloud::cost::LatencyModel,
    /// Latency model of the slow tier (default: S3-like; the EBS-only
    /// evaluation of Figure 17 passes an EBS model here).
    pub object_model: tu_cloud::cost::LatencyModel,
    /// Run `maintain` inline whenever the memtable seals. Disable when an
    /// external worker thread drives maintenance.
    pub inline_maintenance: bool,
    /// Clock used for retention decisions.
    pub clock: SharedClock,
    /// Worker threads for query fan-out across matched series. `0` resolves
    /// automatically (the `TU_QUERY_THREADS` environment variable if set,
    /// else available parallelism capped at 8). Results are identical for
    /// every thread count; see [`TimeUnion::set_query_threads`].
    pub query_threads: usize,
    /// Worker threads for batched-ingest fan-out ([`TimeUnion::put_batch`])
    /// and, unless `tree.flush_threads` overrides it, the flush/compaction
    /// workers. `0` resolves automatically (the `TU_INGEST_THREADS`
    /// environment variable if set, else available parallelism capped
    /// at 8). On-disk state is identical for every thread count; see
    /// [`TimeUnion::set_ingest_threads`].
    pub ingest_threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            chunk_samples: 32,
            tree: TreeOptions::default(),
            index_slots_per_segment: 1 << 20,
            page_cache_bytes: 256 << 20,
            arena_chunks_per_file: 1 << 16,
            retention_ms: None,
            wal_batch_records: 1024,
            wal_purge_bytes: 64 << 20,
            latency: LatencyMode::Off,
            block_model: tu_cloud::cost::LatencyModel::ebs(),
            object_model: tu_cloud::cost::LatencyModel::s3(),
            inline_maintenance: true,
            clock: system_clock(),
            query_threads: 0,
            ingest_threads: 0,
        }
    }
}

/// Memory breakdown for the Figure 3b/13d/16 experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryStats {
    /// Postings lists (heap).
    pub postings_bytes: usize,
    /// Series + group memory objects (heap).
    pub objects_bytes: usize,
    /// Resident pages of the file-backed structures (trie + head chunks).
    pub page_cache_bytes: usize,
    /// MemTable payload waiting to be flushed.
    pub memtable_bytes: usize,
    /// Parsed SSTable blocks cached in memory.
    pub block_cache_bytes: usize,
}

impl MemoryStats {
    pub fn total(&self) -> usize {
        self.postings_bytes
            + self.objects_bytes
            + self.page_cache_bytes
            + self.memtable_bytes
            + self.block_cache_bytes
    }
}

/// Pending checkpoints past this mark flag the `flush_backlog` health
/// check as degraded: maintenance is falling behind ingest.
const PENDING_CKPT_DEGRADED: usize = 1 << 16;

/// Most rows one WAL record carries. A longer run is logged as several
/// records, so no record grows with the batch that contains it.
const RUN_RECORD_ROWS: usize = 4096;

/// A writer nudges a group-commit wave once this much is queued, however
/// few records it is: the byte twin of `Options::wal_batch_records`.
const WAL_PENDING_MAX_BYTES: usize = 1 << 20;

/// The TimeUnion timeseries engine.
pub struct TimeUnion {
    dir: PathBuf,
    pub(crate) opts: Options,
    pub(crate) env: StorageEnv,
    pub(crate) index: InvertedIndex,
    pub(crate) tree: TimeTree,
    pub(crate) wal: Wal,
    pub(crate) catalog: Arc<Catalog>,
    page_cache: Arc<PageCache>,
    pub(crate) arenas: Arenas,
    /// Hot-path maps are sharded: concurrent writers on distinct objects
    /// lock different shards, so they only contend when they hash together.
    /// Series and groups share both maps ([`tags_key`]).
    pub(crate) objects: ShardedMap<SeriesId, Arc<Mutex<Object>>>,
    pub(crate) by_tags: ShardedMap<Vec<u8>, SeriesId>,
    next_series: AtomicU64,
    next_group: AtomicU64,
    /// Highest sequence number a late chunk has had, which is also its
    /// version in the tree: persisted in `engine.meta` before any
    /// checkpoint, and every series numbers on above it after a reopen, so
    /// a newer late chunk never gets a lower version than an older one.
    pub(crate) late_seq: AtomicU64,
    pub(crate) pending_ckpts: Mutex<Vec<PendingCheckpoint>>,
    wal_unflushed: AtomicU64,
    replaying: std::sync::atomic::AtomicBool,
    /// False after the most recent WAL flush failed; drives the `wal`
    /// health check (an engine that cannot persist its log is unhealthy).
    wal_ok: std::sync::atomic::AtomicBool,
    /// Set by [`TimeUnion::begin_shutdown`]; flips `/healthz` and
    /// `/readyz` so load balancers drain the instance before drop.
    shutting_down: std::sync::atomic::AtomicBool,
    worker: Mutex<Option<Worker>>,
    serve: Mutex<Option<ServePlane>>,
    /// Resolved query fan-out width; runtime-adjustable so benchmarks can
    /// sweep thread counts against one engine instance.
    query_threads: std::sync::atomic::AtomicUsize,
    /// Resolved ingest fan-out width for [`TimeUnion::put_batch`].
    ingest_threads: std::sync::atomic::AtomicUsize,
    /// Serializes maintenance passes ([`crate::maintenance`]), retention
    /// included: concurrent ingest workers may seal memtables at once, but
    /// only one thread at a time runs a pass.
    pub(crate) maintenance: Mutex<Maintenance>,
    obs: EngineObs,
    /// Called at every step boundary of every pass
    /// ([`TimeUnion::set_step_hook`]).
    pub(crate) step_hook: std::sync::OnceLock<StepHook>,
}

/// Pre-resolved global-registry handles for the engine's hot paths (the
/// registry lookup happens once at open, not per sample). Traced, so the
/// ingest/query entry points attribute their charges to active contexts.
struct EngineObs {
    ingest_samples: tu_obs::TracedCounter,
    queries: tu_obs::TracedCounter,
    parallel_queries: tu_obs::TracedCounter,
    parallel_tasks: tu_obs::TracedCounter,
    parallel_batches: tu_obs::TracedCounter,
    parallel_ingest_tasks: tu_obs::TracedCounter,
    agg: AggCounters,
}

impl EngineObs {
    fn resolve() -> Self {
        EngineObs {
            ingest_samples: tu_obs::traced("core.ingest.samples"),
            queries: tu_obs::traced("core.query.requests"),
            parallel_queries: tu_obs::traced("core.query.parallel.queries"),
            parallel_tasks: tu_obs::traced("core.query.parallel.tasks"),
            parallel_batches: tu_obs::traced("core.ingest.parallel.batches"),
            parallel_ingest_tasks: tu_obs::traced("core.ingest.parallel.tasks"),
            agg: AggCounters {
                pushdown_chunks: tu_obs::traced("core.query.agg.pushdown_chunks"),
                meta_answered: tu_obs::traced("core.query.agg.meta_answered"),
                skipped_chunks: tu_obs::traced("core.query.agg.skipped_chunks"),
            },
        }
    }
}

struct Worker {
    stop: SyncSender<()>,
    join: std::thread::JoinHandle<()>,
}

/// The live observability plane of one serving engine: the HTTP server
/// plus the monitor whose samples `/vitals` and `/costs` read.
struct ServePlane {
    server: tu_obs::ObsServer,
    monitor: Arc<tu_obs::Monitor>,
}

impl TimeUnion {
    /// Opens (creating or recovering) a TimeUnion instance rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, opts: Options) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let env =
            StorageEnv::open_with_models(&dir, opts.latency, opts.block_model, opts.object_model)?;
        let page_cache = PageCache::new(opts.page_cache_bytes);
        let index = InvertedIndex::open(
            page_cache.clone(),
            dir.join("index"),
            opts.index_slots_per_segment,
        )?;
        // Unless the tree has its own flush width, the flush/compaction
        // workers inherit the engine's ingest knob (the TU_INGEST_THREADS
        // env var still wins inside the tree's resolution).
        let mut tree_opts = opts.tree.clone();
        if tree_opts.flush_threads == 0 {
            tree_opts.flush_threads = opts.ingest_threads;
        }
        let tree = TimeTree::open(env.clone(), tree_opts)?;
        let wal = Wal::open(env.block.clone(), "wal/engine.log");
        let catalog = Arc::new(Catalog::open(env.block.clone(), "catalog/series.cat"));
        // A record is only recoverable if its series is, and a recovered
        // engine hands the id of a series it does not know to the next one
        // created: every wave makes the catalog durable first.
        let wave_catalog = Arc::clone(&catalog);
        wal.set_before_append(move || wave_catalog.flush());
        let arenas = Arenas::open(
            &page_cache,
            &dir.join("heads"),
            opts.chunk_samples,
            opts.arena_chunks_per_file,
        )?;
        let engine = TimeUnion {
            dir,
            env,
            index,
            tree,
            wal,
            catalog,
            page_cache,
            arenas,
            objects: ShardedMap::new(&lockdep::CORE_MAP_OBJECTS),
            by_tags: ShardedMap::new(&lockdep::CORE_MAP_LABELS),
            next_series: AtomicU64::new(1),
            next_group: AtomicU64::new(1),
            late_seq: AtomicU64::new(0),
            pending_ckpts: Mutex::new(&lockdep::ENGINE_CKPTS, Vec::new()),
            wal_unflushed: AtomicU64::new(0),
            replaying: std::sync::atomic::AtomicBool::new(false),
            wal_ok: std::sync::atomic::AtomicBool::new(true),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
            worker: Mutex::new(&lockdep::ENGINE_WORKER, None),
            serve: Mutex::new(&lockdep::ENGINE_SERVE, None),
            query_threads: std::sync::atomic::AtomicUsize::new(
                tu_common::pool::WorkerPool::resolve(opts.query_threads).threads(),
            ),
            ingest_threads: std::sync::atomic::AtomicUsize::new(
                tu_common::pool::WorkerPool::resolve_env(
                    tu_common::pool::INGEST_THREADS_ENV,
                    opts.ingest_threads,
                )
                .threads(),
            ),
            maintenance: Mutex::new(&lockdep::ENGINE_MAINTENANCE, Maintenance::default()),
            obs: EngineObs::resolve(),
            step_hook: std::sync::OnceLock::new(),
            opts,
        };
        tu_obs::gauge("core.query.parallel.threads")
            .set(engine.query_threads.load(Ordering::Relaxed) as i64);
        tu_obs::gauge("core.ingest.parallel.threads")
            .set(engine.ingest_threads.load(Ordering::Relaxed) as i64);
        engine.recover()?;
        // Series and groups together: telling them apart locks every object.
        let objects = engine.objects.len();
        tu_obs::log::info(
            "core.open",
            "engine recovered",
            &[("objects", objects.into())],
        );
        Ok(engine)
    }

    // --- live observability plane ----------------------------------------------

    /// Binds the live endpoint on `addr` (port `0` picks a free port) and
    /// starts the vitals monitor. `/healthz`, `/readyz`, `/vitals` and
    /// `/introspect/lsm` reflect this engine, and `/costs` prices the
    /// monitor's samples; `/metrics`, `/metrics.json`, and `/flight`
    /// expose the process-global registry and flight recorder. Idempotent:
    /// a second call returns the already-bound address.
    pub fn start_serving(self: &Arc<Self>, addr: &str) -> Result<std::net::SocketAddr> {
        let mut serve = self.serve.lock();
        if let Some(plane) = serve.as_ref() {
            return Ok(plane.server.local_addr());
        }
        let clock = self.opts.clock.clone();
        let monitor = Arc::new(tu_obs::Monitor::new(tu_obs::MonitorOptions {
            now_ms: Some(Arc::new(move || clock.now_ms())),
            ..Default::default()
        }));
        monitor.start();
        // The health closure holds a weak reference: the server must not
        // keep a dropped engine alive, and a request racing engine drop
        // reports "closed" instead of dangling.
        let weak = Arc::downgrade(self);
        let health: tu_obs::HealthSource = Arc::new(move || match weak.upgrade() {
            Some(engine) => engine.health_report(),
            None => tu_obs::HealthReport {
                ready: false,
                checks: vec![tu_obs::HealthCheck::new(
                    "engine",
                    tu_obs::Health::Unhealthy,
                    "closed",
                )],
            },
        });
        let lsm_weak = Arc::downgrade(self);
        let lsm_endpoint = tu_obs::Endpoint::new("/introspect/lsm", move || {
            let body = match lsm_weak.upgrade() {
                Some(engine) => crate::introspect::lsm_json(&engine.tree.introspect()),
                None => "{\"error\":\"engine closed\"}".to_string(),
            };
            ("application/json".to_string(), body)
        });
        // `/costs` prices each consecutive pair of the monitor's samples.
        let costs_monitor = Arc::clone(&monitor);
        let costs_endpoint = tu_obs::Endpoint::new("/costs", move || {
            let windows = costs_monitor.map_pairs(tu_cloud::ledger::price_window);
            (
                "application/json".to_string(),
                tu_cloud::ledger::to_json(&windows),
            )
        });
        let server = tu_obs::ObsServer::bind(
            addr,
            tu_obs::ServeSources {
                health,
                monitor: Some(Arc::clone(&monitor)),
                extra: vec![lsm_endpoint, costs_endpoint],
            },
        )?;
        let local = server.local_addr();
        tu_obs::log::info(
            "core.serve",
            "observability endpoint listening",
            &[("addr", local.to_string().into())],
        );
        *serve = Some(ServePlane { server, monitor });
        Ok(local)
    }

    /// Stops the live endpoint and its monitor, if serving. Idempotent;
    /// also runs on drop.
    pub fn stop_serving(&self) {
        let plane = self.serve.lock().take();
        if let Some(plane) = plane {
            plane.server.shutdown();
            plane.monitor.stop();
        }
    }

    /// The vitals monitor of the live endpoint, while serving.
    pub fn monitor(&self) -> Option<Arc<tu_obs::Monitor>> {
        self.serve.lock().as_ref().map(|p| Arc::clone(&p.monitor))
    }

    /// Marks the engine as draining: `/readyz` and `/healthz` start
    /// answering 503 so orchestrators stop routing to it, while queries
    /// and inserts keep working until drop.
    pub fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            tu_obs::log::info("core.shutdown", "engine draining", &[]);
        }
    }

    /// Aggregates the engine's liveness signals. Cheap (atomic loads and
    /// two short lock holds) — called per `/healthz` request.
    pub fn health_report(&self) -> tu_obs::HealthReport {
        use tu_obs::{Health, HealthCheck};
        let mut checks = Vec::with_capacity(4);
        let shutting_down = self.shutting_down.load(Ordering::SeqCst);
        if shutting_down {
            checks.push(HealthCheck::new(
                "shutdown",
                Health::Unhealthy,
                "engine draining",
            ));
        }
        let wal_ok = self.wal_ok.load(Ordering::SeqCst);
        checks.push(HealthCheck::new(
            "wal",
            if wal_ok {
                Health::Ok
            } else {
                Health::Unhealthy
            },
            if wal_ok {
                "writable"
            } else {
                "last flush failed"
            },
        ));
        // Checkpoints waiting on a memtable flush: a growing backlog means
        // maintenance is not keeping up with ingest.
        let backlog = self.pending_ckpts.lock().len();
        checks.push(HealthCheck::new(
            "flush_backlog",
            if backlog > PENDING_CKPT_DEGRADED {
                Health::Degraded
            } else {
                Health::Ok
            },
            format!("{backlog} pending checkpoints"),
        ));
        // Memtable pressure: sealed-but-unflushed data piling up well past
        // the configured budget.
        let memtable = self.tree.memtable_bytes();
        let budget = self.opts.tree.memtable_bytes.max(1);
        checks.push(HealthCheck::new(
            "memtable",
            if memtable > budget.saturating_mul(8) {
                Health::Degraded
            } else {
                Health::Ok
            },
            format!("{memtable} B buffered (budget {budget} B)"),
        ));
        // A maintenance worker that exited without being stopped is dead
        // weight: nothing will flush or checkpoint again.
        if let Some(w) = self.worker.lock().as_ref() {
            let finished = w.join.is_finished();
            checks.push(HealthCheck::new(
                "maintenance_worker",
                if finished {
                    Health::Unhealthy
                } else {
                    Health::Ok
                },
                if finished { "exited" } else { "running" },
            ));
        }
        tu_obs::HealthReport {
            ready: !shutting_down && !self.replaying.load(Ordering::SeqCst),
            checks,
        }
    }

    /// Spawns the background maintenance worker: flushes, compactions, WAL
    /// checkpoints, and retention run every `interval` off the insert
    /// path. Pair with `Options::inline_maintenance = false`. Stopped by
    /// [`TimeUnion::stop_background`] or on drop. Fails only when the OS
    /// refuses to spawn the thread.
    pub fn start_background(self: &Arc<Self>, interval: std::time::Duration) -> Result<()> {
        let mut worker = self.worker.lock();
        if worker.is_some() {
            return Ok(());
        }
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let weak = Arc::downgrade(self);
        let join = std::thread::Builder::new()
            .name("timeunion-maintenance".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {}
                }
                let Some(engine) = weak.upgrade() else {
                    return;
                };
                // Maintenance failures must not kill the worker; the next
                // foreground sync() will surface persistent errors, but
                // each failure is logged (rate-limited per target).
                match engine.apply_retention() {
                    Ok((partitions, objects)) if partitions + objects > 0 => {
                        tu_obs::log::info(
                            "core.retention",
                            "retention purged data",
                            &[
                                ("partitions", partitions.into()),
                                ("objects", objects.into()),
                            ],
                        );
                    }
                    Ok(_) => {}
                    Err(e) => {
                        tu_obs::log::warn(
                            "core.maintain",
                            "background maintenance failed",
                            &[("error", e.to_string().into())],
                        );
                    }
                }
            })?;
        *worker = Some(Worker {
            stop: stop_tx,
            join,
        });
        Ok(())
    }

    /// Stops the background worker, if running, and waits for it.
    pub fn stop_background(&self) {
        if let Some(w) = self.worker.lock().take() {
            let _ = w.stop.send(());
            let _ = w.join.join();
        }
    }

    // --- recovery -------------------------------------------------------------

    fn recover(&self) -> Result<()> {
        // 1. Catalog: rebuild identifier maps, memory objects, and index
        //    postings (idempotent on the persisted trie). Series share
        //    most of their tag pairs, so the index is loaded as one batch.
        //    A removal drops its object as retention did, postings the
        //    synced sidecar still held included; its creation record has
        //    already moved numbering past its id.
        let mut index = self.index.batch();
        for record in self.catalog.replay()? {
            let (id, labels, next) = match record {
                CatalogRecord::Series { id, labels } => (id, labels, &self.next_series),
                CatalogRecord::Group { gid, group_tags } => (gid, group_tags, &self.next_group),
                CatalogRecord::Member {
                    gid,
                    slot,
                    unique_tags,
                } => {
                    let obj = self
                        .objects
                        .get(&gid)
                        .ok_or_else(|| Error::corruption("catalog member before its group"))?;
                    let mut o = obj.lock();
                    if o.add_member(&self.arenas, unique_tags.clone())? != slot {
                        return Err(Error::corruption("catalog member slots out of order"));
                    }
                    index.add(&o.labels.merge(&unique_tags), gid)?;
                    continue;
                }
                CatalogRecord::Removed { id } => {
                    self.drop_object(id)?;
                    continue;
                }
            };
            let obj = Object::new(id, labels.clone(), &self.arenas)?;
            index.add(&labels, id)?;
            self.by_tags.insert(tags_key(&labels, obj.is_group()), id);
            self.objects
                .insert(id, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
            next.fetch_max((id & !GROUP_ID_FLAG) + 1, Ordering::Relaxed);
        }
        // 2. Engine meta (monotonic hints). An object that wrote late
        //    chunks knows the newest timestamp they hold again.
        if self.env.block.exists(meta::FILE) {
            let written = self.env.block.read_file(meta::FILE)?;
            let mut meta = EngineMeta::decode(&written)?;
            self.late_seq.fetch_max(meta.late_seq, Ordering::Relaxed);
            meta.late_ts.retain(|id, t| match self.objects.get(id) {
                Some(obj) => {
                    let mut o = obj.lock();
                    o.last_ts = o.last_ts.max(*t);
                    true
                }
                None => false, // purged by retention
            });
            *self.maintenance.lock() = Maintenance { meta, written };
        }
        // 3. WAL. Checkpoints first: an object's `seq` becomes the newest
        //    sequence number a checkpoint covers, so numbering carries on
        //    above it even when every record below is gone and nothing
        //    logged after this recovery can read as obsolete. Then the
        //    data: `seq` is also the newest number that must not be
        //    applied again (checkpointed, or replayed already from an
        //    earlier copy of the record), and each record is trimmed
        //    against it row by row.
        self.replaying.store(true, Ordering::SeqCst);
        let result = self.wal.recover(
            |stream, seq| {
                if let Some(obj) = self.objects.get(&stream) {
                    let mut o = obj.lock();
                    o.seq = o.seq.max(seq);
                }
            },
            |r| {
                let Some(obj) = self.objects.get(&r.stream) else {
                    return Ok(());
                };
                let replayed = match r.kind {
                    RecordKind::Chunk => self.replay_chunk(obj.lock(), r.payload, r.seq),
                    _ => self.apply_run(obj.lock(), r.payload, Some(r.seq)),
                };
                // Rows that do not parse, or that name members a torn
                // catalog lost, are skipped: they are input from disk.
                match replayed {
                    Err(Error::InvalidArgument(_)) => Ok(()),
                    replayed => replayed,
                }
            },
        );
        self.replaying.store(false, Ordering::SeqCst);
        result?;
        // 4. Numbering carries on above every late chunk ever written.
        let late = self.late_seq.load(Ordering::Relaxed);
        if late > 0 {
            for obj in self.objects.values() {
                let mut o = obj.lock();
                o.seq = o.seq.max(late);
            }
        }
        Ok(())
    }

    // --- series inserts ---------------------------------------------------------

    /// Slow-path insert (§3.4): resolves or creates the series by its
    /// tags, returning its ID for subsequent fast-path inserts.
    pub fn put(&self, labels: &Labels, t: Timestamp, v: Value) -> Result<SeriesId> {
        if labels.is_empty() {
            return Err(Error::invalid("a timeseries needs at least one tag"));
        }
        let id = self.get_or_create(labels, false)?;
        self.put_by_id(id, t, v)?;
        Ok(id)
    }

    /// Fast-path insert by series ID (§3.4), skipping tag comparison: a
    /// run of one sample. Safe to call from many threads at once: writers
    /// on distinct series contend only on their map shard and the shared
    /// WAL buffer.
    pub fn put_by_id(&self, id: SeriesId, t: Timestamp, v: Value) -> Result<()> {
        self.put_run(id, &object::encode_row(t, v))
    }

    fn put_run(&self, id: SeriesId, rows: &[u8]) -> Result<()> {
        self.obs.ingest_samples.add((rows.len() / ROW) as u64);
        self.put_rows(id, false, rows)
    }

    /// Applies `rows` to object `id`, which must be a group if `group` is
    /// set and a series if not.
    fn put_rows(&self, id: SeriesId, group: bool, rows: &[u8]) -> Result<()> {
        let obj = self.objects.get(&id);
        let obj = obj.as_ref().map(|obj| obj.lock());
        let Some(obj) = obj.filter(|o| o.is_group() == group) else {
            let what = if group { "group" } else { "series" };
            return Err(Error::not_found(format!("{what} {id}")));
        };
        self.apply_run(obj, rows, None)
    }

    /// Batched parallel ingest: groups `samples` by series and fans the
    /// per-series runs across the engine's ingest pool (see
    /// [`TimeUnion::set_ingest_threads`]). A run — the samples of one
    /// series, in their given order — is applied by one worker under one
    /// hold of the series' lock and logged as one rows record, plus one
    /// chunk record per slow-tier partition its late samples fall in, so
    /// per-series sample order — and with it the resulting chunk and tree
    /// state — is identical for every thread count. Returns once every
    /// sample in the batch is durable in the WAL (one group-commit wave,
    /// shared with concurrent batches).
    pub fn put_batch(&self, samples: &[(SeriesId, Timestamp, Value)]) -> Result<()> {
        // Number the runs in first-seen series order and count their rows.
        let mut run_of: HashMap<SeriesId, u32> = HashMap::new();
        let mut runs: Vec<(SeriesId, usize)> = Vec::new();
        let mut run_of_sample: Vec<u32> = Vec::with_capacity(samples.len());
        for &(id, _, _) in samples {
            let run = *run_of.entry(id).or_insert_with(|| {
                runs.push((id, 0));
                runs.len() as u32 - 1
            });
            runs[run as usize].1 += 1;
            run_of_sample.push(run);
        }
        // Scatter the samples into one buffer of rows, each run contiguous
        // and in batch order: the bytes the WAL and the head slots take.
        let mut next_row: Vec<usize> = runs
            .iter()
            .scan(0, |start, &(_, rows)| {
                let first = *start;
                *start += rows;
                Some(first)
            })
            .collect();
        let mut rows = vec![0u8; samples.len() * ROW];
        for (&(_, t, v), &run) in samples.iter().zip(&run_of_sample) {
            let at = next_row[run as usize] * ROW;
            rows[at..at + ROW].copy_from_slice(&object::encode_row(t, v));
            next_row[run as usize] += 1;
        }
        let pool = tu_common::pool::WorkerPool::new(self.ingest_threads.load(Ordering::Relaxed));
        if pool.threads() > 1 && runs.len() > 1 {
            self.obs.parallel_batches.inc();
            self.obs.parallel_ingest_tasks.add(runs.len() as u64);
        }
        let results = pool.run(runs.len(), |i| {
            let (id, len) = runs[i];
            let end = next_row[i];
            self.put_run(id, &rows[(end - len) * ROW..end * ROW])
        });
        for r in results {
            r?;
        }
        self.sync_wal()
    }

    /// Sets the ingest fan-out width (clamped to at least 1). Takes effect
    /// on the next `put_batch` call; thread count never changes the
    /// resulting on-disk state.
    pub fn set_ingest_threads(&self, threads: usize) {
        let n = threads.max(1);
        self.ingest_threads.store(n, Ordering::Relaxed);
        tu_obs::gauge("core.ingest.parallel.threads").set(n as i64);
    }

    /// The current ingest fan-out width.
    pub fn ingest_threads(&self) -> usize {
        self.ingest_threads.load(Ordering::Relaxed)
    }

    /// Applies a run of rows to an object, under the one hold of its lock
    /// the caller took ([`Object::insert_run`]). The rows that enter the
    /// head are logged as one rows record per [`RUN_RECORD_ROWS`] rows,
    /// carrying the sequence number of its last row (row `i` of `n` has
    /// `seq - (n - 1 - i)`); each late chunk is logged as one chunk record
    /// numbered after them, holding the chunk without its stats envelope
    /// (replay frames it again). A run that does not parse, or names a
    /// member the group lacks, is refused before anything is logged.
    /// Chunks go to the tree before the lock is dropped, so a reader that
    /// no longer finds a row in the head finds it there; a pass their puts
    /// call for runs after.
    ///
    /// A late chunk is numbered above rows that may stay in the head; its
    /// checkpoint, once due, is preceded by a fresh copy of them
    /// ([`TimeUnion::relog_head_below`]).
    ///
    /// `replayed` is the sequence number of a rows record read back from
    /// the WAL: nothing is logged, and rows the object has already seen —
    /// up to its `seq` — are skipped.
    fn apply_run(
        &self,
        mut obj: MutexGuard<'_, Object>,
        mut rows: &[u8],
        replayed: Option<u64>,
    ) -> Result<()> {
        let mut flushes = Vec::new();
        let id = obj.id;
        if let Some(last_seq) = replayed {
            let n = obj.take_rows(rows, usize::MAX)?.1;
            let first_seq = (last_seq + 1).saturating_sub(n as u64);
            let seen = (obj.seq + 1).saturating_sub(first_seq) as usize;
            rows = &rows[obj.take_rows(rows, seen)?.0..];
            obj.seq = obj.seq.max(first_seq.saturating_sub(1));
        }
        let grid = || self.tree.l2_partition_ms();
        let grid: Option<&dyn Fn() -> i64> = match replayed {
            None => Some(&grid),
            Some(_) => None,
        };
        while !rows.is_empty() {
            let (len, n) = obj.take_rows(rows, RUN_RECORD_ROWS)?;
            let (part, rest) = rows.split_at(len);
            rows = rest;
            let first_seq = obj.seq + 1;
            let from = flushes.len();
            let head_rows = obj.insert_run(
                &self.arenas,
                part,
                self.opts.chunk_samples,
                first_seq,
                grid,
                &mut flushes,
            )?;
            if replayed.is_some() {
                obj.seq += n as u64;
                continue;
            }
            if !head_rows.is_empty() {
                obj.seq += obj.take_rows(&head_rows, usize::MAX)?.1 as u64;
                self.log(RecordKind::Rows, id, obj.seq, &head_rows)?;
            }
            for f in flushes[from..].iter().filter(|f| f.late) {
                obj.seq = f.seq;
                let bare = agg::split_envelope(&f.chunk).1;
                self.log(RecordKind::Chunk, id, f.seq, bare)?;
                self.late_seq.fetch_max(f.seq, Ordering::Relaxed);
            }
        }
        let mut sealed = false;
        for f in flushes {
            sealed |= self.put_chunk(id, f.first_ts, f.last_ts, f.chunk, f.seq, f.late);
        }
        drop(obj);
        self.maintain_inline(sealed)
    }

    /// Puts a late chunk read back from the WAL into the tree, framed in
    /// the stats envelope it had, unless a checkpoint or an earlier copy of
    /// the record covers it already (`engine.meta` then holds its newest
    /// timestamp).
    fn replay_chunk(&self, mut obj: MutexGuard<'_, Object>, bare: &[u8], seq: u64) -> Result<()> {
        if seq <= obj.seq {
            return Ok(());
        }
        let (stats, chunk) = obj
            .frame_chunk(bare)
            .map_err(|e| Error::corruption(format!("wal chunk record: {e}")))?;
        obj.seq = seq;
        obj.last_ts = obj.last_ts.max(stats.max_ts);
        self.late_seq.fetch_max(seq, Ordering::Relaxed);
        let sealed = self.put_chunk(obj.id, stats.min_ts, stats.max_ts, chunk, seq, true);
        drop(obj);
        self.maintain_inline(sealed)
    }

    /// Runs a pass if a put `sealed` a memtable and maintenance runs
    /// inline. Callers hold no object lock: a pass takes them.
    fn maintain_inline(&self, sealed: bool) -> Result<()> {
        if sealed && self.opts.inline_maintenance && !self.replaying.load(Ordering::SeqCst) {
            self.maintain()?;
        }
        Ok(())
    }

    /// Puts a chunk into the tree and queues the checkpoint `seq` for when
    /// its memtable reaches L0. A `late` chunk goes under a versioned key,
    /// its version being `seq`. Returns whether the put sealed a memtable.
    /// Never takes the maintenance lock.
    pub(crate) fn put_chunk(
        &self,
        stream: u64,
        first_ts: Timestamp,
        last_ts: Timestamp,
        chunk: Vec<u8>,
        seq: u64,
        late: bool,
    ) -> bool {
        let sealed = match late {
            true => self.tree.put_version(stream, first_ts, seq, chunk),
            false => self.tree.put(stream, first_ts, chunk),
        };
        // Read after the put, the epoch is that of the memtable the chunk
        // went into or a later one, so its checkpoint can wait but never
        // come early. A put that sealed its own memtable moved the epoch
        // on by at least one, which is taken back.
        let epoch = self.tree.seal_epoch() - u64::from(sealed);
        self.pending_ckpts.lock().push(PendingCheckpoint {
            stream,
            seq,
            epoch,
            late: late.then_some(last_ts),
        });
        sealed
    }

    /// Resolves or creates the series — or, with `group`, the group — that
    /// `labels` name, returning its id. A group's id carries
    /// [`GROUP_ID_FLAG`]; each kind numbers its own ids.
    fn get_or_create(&self, labels: &Labels, group: bool) -> Result<SeriesId> {
        let key = tags_key(labels, group);
        if let Some(id) = self.by_tags.get(&key) {
            return Ok(id);
        }
        // Create with the key's shard write-locked to serialize racers on
        // the same tags; creators of other objects proceed in parallel.
        let mut by_tags = self.by_tags.lock_shard(&key);
        if let Some(&id) = by_tags.get(&key) {
            return Ok(id);
        }
        let id = match group {
            true => self.next_group.fetch_add(1, Ordering::Relaxed) | GROUP_ID_FLAG,
            false => self.next_series.fetch_add(1, Ordering::Relaxed),
        };
        let obj = Object::new(id, labels.clone(), &self.arenas)?;
        self.objects
            .insert(id, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
        // The catalog record is queued before the tags resolve to the id,
        // so no writer logs a record of the object ahead of it.
        self.catalog.append(&match group {
            true => CatalogRecord::Group {
                gid: id,
                group_tags: labels.clone(),
            },
            false => CatalogRecord::Series {
                id,
                labels: labels.clone(),
            },
        });
        by_tags.insert(key, id);
        drop(by_tags);
        // A group's tags are indexed under its id, so selectors on shared
        // tags resolve to one postings entry (Figure 5).
        self.index.add(labels, id)?;
        Ok(id)
    }

    // --- group inserts -----------------------------------------------------------

    /// Slow-path group insert (§3.4): resolves or creates the group and
    /// its members, inserts one shared-timestamp row, and returns the
    /// group ID plus each series' slot index for the fast path.
    ///
    /// `member_tags[i]` may be the series' full tag set (group tags are
    /// extracted per Figure 6) or just its unique tags.
    pub fn put_group(
        &self,
        group_tags: &Labels,
        member_tags: &[Labels],
        t: Timestamp,
        values: &[Value],
    ) -> Result<(GroupId, Vec<SeriesRef>)> {
        if member_tags.len() != values.len() {
            return Err(Error::invalid(
                "member tag sets and values must have equal length",
            ));
        }
        if group_tags.is_empty() {
            return Err(Error::invalid("a group needs at least one group tag"));
        }
        let gid = self.get_or_create(group_tags, true)?;
        let obj = self
            .objects
            .get(&gid)
            .ok_or_else(|| Error::corruption("group object missing right after creation"))?;
        let mut obj = obj.lock();
        let mut refs = Vec::with_capacity(member_tags.len());
        for tags in member_tags {
            let unique = match model::to_grouped(tags, group_tags) {
                Ok(grouped) => grouped.unique_tags,
                // Tags that don't carry the group tags are already unique.
                Err(_) => tags.clone(),
            };
            let slot = match obj.member_slot(&unique) {
                Some(slot) => slot,
                None => {
                    let slot = obj.add_member(&self.arenas, unique.clone())?;
                    self.index.add(&group_tags.merge(&unique), gid)?;
                    self.catalog.append(&CatalogRecord::Member {
                        gid,
                        slot,
                        unique_tags: unique,
                    });
                    slot
                }
            };
            refs.push(slot);
        }
        self.obs.ingest_samples.add(refs.len() as u64);
        let row = group_row(t, &refs, values);
        self.apply_run(obj, &row, None)?;
        Ok((gid, refs))
    }

    /// Fast-path group insert by group ID and member slots (§3.4): a run
    /// of one row.
    pub fn put_group_fast(
        &self,
        gid: GroupId,
        refs: &[SeriesRef],
        t: Timestamp,
        values: &[Value],
    ) -> Result<()> {
        if refs.len() != values.len() {
            return Err(Error::invalid("refs and values must have equal length"));
        }
        self.obs.ingest_samples.add(refs.len() as u64);
        self.put_rows(gid, true, &group_row(t, refs, values))
    }

    // --- logging ----------------------------------------------------------------

    /// Queues one data record (a run or a chunk counts as one) and
    /// nudges a wave when the queue is over its record or byte threshold.
    pub(crate) fn log(
        &self,
        kind: RecordKind,
        stream: u64,
        seq: u64,
        payload: &[u8],
    ) -> Result<()> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(());
        }
        let queued_bytes = self.wal.append_data(kind, stream, seq, payload);
        let n = self.wal_unflushed.fetch_add(1, Ordering::Relaxed) + 1;
        if n as usize >= self.opts.wal_batch_records || queued_bytes >= WAL_PENDING_MAX_BYTES {
            self.wal_unflushed.store(0, Ordering::Relaxed);
            // Opportunistic group commit: if another writer is already
            // leading a flush wave, our records ride a later one instead
            // of stalling this writer behind the in-flight fsync.
            self.wal_health(self.wal.nudge())?;
        }
        Ok(())
    }

    /// Blocks until every WAL record queued so far is durable on the fast
    /// tier (one group-commit wave, shared with concurrent callers), and
    /// with it every series and group created so far.
    pub fn sync_wal(&self) -> Result<()> {
        self.wal_unflushed.store(0, Ordering::Relaxed);
        self.flush_wal()
    }

    /// Flushes the WAL, mirroring the outcome into the `wal` health check
    /// (and logging the first failure of a failure streak).
    ///
    /// The catalog goes first, so every series and group created so far
    /// is durable, even one with no record queued yet; each wave flushes
    /// it again before its append (see [`TimeUnion::open`]).
    pub(crate) fn flush_wal(&self) -> Result<()> {
        self.catalog.flush()?;
        self.wal_health(self.wal.flush())
    }

    fn wal_health(&self, result: Result<()>) -> Result<()> {
        match result {
            Ok(()) => {
                self.wal_ok.store(true, Ordering::SeqCst);
                Ok(())
            }
            Err(e) => {
                if self.wal_ok.swap(false, Ordering::SeqCst) {
                    tu_obs::log::error(
                        "core.wal",
                        "WAL flush failed",
                        &[("error", e.to_string().into())],
                    );
                }
                Err(e)
            }
        }
    }

    // --- queries -------------------------------------------------------------------

    /// Get (§3.4): selects series and groups by tag selectors and returns
    /// each matched timeseries' samples in `[start, end)`.
    ///
    /// Matched ids are processed on the engine's query pool (see
    /// [`TimeUnion::set_query_threads`]); per-id work is independent, and
    /// the final sort by label bytes — an injective key — fixes the output
    /// order, so results are identical for every thread count.
    pub fn query(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<QueryResult> {
        self.fan_out(selectors, start, end, None)
            .map(|(out, _)| out)
    }

    /// [`TimeUnion::query`] under a fresh trace context, returning the
    /// results together with the query's cost profile: per-stage timings
    /// and the per-tier requests/bytes this query (and only this query)
    /// charged, collected across every pool worker it fanned out to.
    ///
    /// The execution path is byte-identical to `query` — profiling wraps
    /// it, it does not fork it.
    pub fn query_profiled(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<(QueryResult, QueryProfile)> {
        self.profiled("query", selectors, start, end, None)
    }

    /// Step-windowed aggregation Get: computes `kind` per aligned
    /// `step_ms` window over `[start, end)` for every matched timeseries.
    ///
    /// Results are **bit-identical** to materializing the same samples
    /// with [`TimeUnion::query`] and folding them through
    /// [`aggregate_step`], at any thread count — the pushdown merely
    /// avoids decoding where it can:
    ///
    /// * chunks whose stats footer shows the whole chunk inside one
    ///   window are merged from metadata alone (`meta_answered`),
    /// * chunks whose time or value bounds cannot affect the result are
    ///   skipped outright (`skipped_chunks`),
    /// * everything else is stream-folded without building sample
    ///   vectors (`pushdown_chunks`),
    /// * and any object whose chunks lack stats (pre-stats format) or
    ///   overlap in time (out-of-order backfill, duplicate timestamps)
    ///   falls back to the materializing reference path, keeping the
    ///   merge semantics of `query` exactly.
    pub fn query_aggregate(
        &self,
        selectors: &[Selector],
        kind: AggKind,
        start: Timestamp,
        end: Timestamp,
        step_ms: i64,
    ) -> Result<QueryResult> {
        self.fan_out(selectors, start, end, Some(AggSpec { kind, step_ms }))
            .map(|(out, _)| out)
    }

    /// [`TimeUnion::query_aggregate`] under a fresh trace context,
    /// returning the aggregate rows together with the same stage-timing
    /// profile `query_profiled` produces (select/fanout/sort spans plus
    /// the `core.query.agg.*` counter deltas in
    /// [`QueryProfile::counters`]).
    pub fn query_aggregate_profiled(
        &self,
        selectors: &[Selector],
        kind: AggKind,
        start: Timestamp,
        end: Timestamp,
        step_ms: i64,
    ) -> Result<(QueryResult, QueryProfile)> {
        let agg = Some(AggSpec { kind, step_ms });
        self.profiled("query_aggregate", selectors, start, end, agg)
    }

    /// [`TimeUnion::fan_out`] under a fresh trace context named `op`,
    /// with the profile of everything it charged.
    fn profiled(
        &self,
        op: &str,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
        agg: Option<AggSpec>,
    ) -> Result<(QueryResult, QueryProfile)> {
        let ctx = tu_obs::TraceContext::start(op);
        let t0 = tu_obs::Stopwatch::start();
        let (out, matched) = self.fan_out(selectors, start, end, agg)?;
        let wall_ns = t0.elapsed_ns();
        let threads = self.query_threads.load(Ordering::Relaxed);
        let profile = QueryProfile::from_summary(&ctx.finish(), matched, threads, wall_ns);
        Ok((out, profile))
    }

    /// The one execution path of every Get: index select, one read plan
    /// for all matched ids, [`TimeUnion::read_object`] for each id on the
    /// query pool, and the sort by label bytes. Returns the results and
    /// how many ids the index matched.
    ///
    /// All storage reads happen in the plan ([`TimeTree::plan_reads`]),
    /// on this thread: each overlapping table is read once for every id
    /// it covers, so blocks of different series that sit near each other
    /// share a request, and the requests a query issues do not depend on
    /// the fan-out width. The per-id reads only decode and merge. A group
    /// is read whenever the index matched it, even if no single member
    /// turns out to satisfy every selector.
    fn fan_out(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
        agg: Option<AggSpec>,
    ) -> Result<(QueryResult, usize)> {
        if agg.is_some_and(|a| a.step_ms <= 0) {
            return Err(Error::invalid("aggregation step must be positive"));
        }
        self.obs.queries.inc();
        let _span = tu_obs::span("core.query");
        let ids = {
            let _stage = tu_obs::span("core.query.select");
            self.index.select(selectors)?
        };
        let pool = tu_common::pool::WorkerPool::new(self.query_threads.load(Ordering::Relaxed));
        if pool.threads() > 1 && ids.len() > 1 {
            self.obs.parallel_queries.inc();
            self.obs.parallel_tasks.add(ids.len() as u64);
        }
        let per_id = {
            let _stage = tu_obs::span("core.query.fanout");
            // Heads first: a chunk that leaves a head after this read is
            // in the tree before the plan below reads it.
            let cols = pool.run(ids.len(), |i| self.columns_of(ids[i], selectors));
            let cols: Vec<(ChunkFormat, Vec<Column>)> = cols.into_iter().collect::<Result<_>>()?;
            let plan = {
                let _plan = tu_obs::span("core.query.plan");
                self.tree.plan_reads(&ids, start, end)?
            };
            pool.run(ids.len(), |i| {
                let (format, cols) = &cols[i];
                let chunks = plan.chunks(i)?;
                self.read_object(ids[i], *format, cols, &chunks, (start, end), agg)
            })
        };
        let _stage = tu_obs::span("core.query.sort");
        let mut out: QueryResult = Vec::new();
        for r in per_id {
            out.extend(r?);
        }
        out.sort_by_cached_key(|s| s.labels.to_bytes());
        Ok((out, ids.len()))
    }

    /// Sets the query fan-out width (clamped to at least 1). Takes effect
    /// on the next `query` call; thread count never changes results.
    pub fn set_query_threads(&self, threads: usize) {
        let n = threads.max(1);
        self.query_threads.store(n, Ordering::Relaxed);
        tu_obs::gauge("core.query.parallel.threads").set(n as i64);
    }

    /// The current query fan-out width.
    pub fn query_threads(&self) -> usize {
        self.query_threads.load(Ordering::Relaxed)
    }

    /// The columns a read of object `id` returns, and the format of its
    /// chunks ([`Object::columns`]). A series is one column, not filtered
    /// again (the index matched it; a selector on a key it lacks would drop
    /// it). A group gives one column per member that every selector
    /// matches, the second-level index of §3.4. Labels and heads are read
    /// under one hold of the object lock.
    fn columns_of(
        &self,
        id: SeriesId,
        selectors: &[Selector],
    ) -> Result<(ChunkFormat, Vec<Column>)> {
        let Some(obj) = self.objects.get(&id) else {
            return Ok((ChunkFormat::Gorilla, Vec::new())); // purged since the select
        };
        let o = obj.lock();
        let keep = |labels: &Labels| {
            let matches =
                |sel: &Selector| labels.get(&sel.key).is_some_and(|v| sel.matches_value(v));
            selectors.iter().all(matches)
        };
        Ok((o.format(), o.columns(&self.arenas, keep)?))
    }

    /// Reads one matched object: a plain Get merges each of its columns;
    /// an aggregation folds them when [`ObjectRead::pushdown_stats`]
    /// allows, and otherwise merges and runs [`aggregate_step`], which
    /// gives the same bits.
    fn read_object(
        &self,
        id: SeriesId,
        format: ChunkFormat,
        cols: &[Column],
        chunks: &[(Timestamp, &[u8])],
        (start, end): (Timestamp, Timestamp),
        agg: Option<AggSpec>,
    ) -> Result<Vec<SeriesResult>> {
        if cols.is_empty() {
            return Ok(Vec::new()); // purged since the select, or no member matched
        }
        let read = ObjectRead {
            format,
            cols,
            chunks,
            start,
            end,
        };
        let samples = match (agg, agg.and_then(|_| read.pushdown_stats())) {
            (None, _) => read.merge()?,
            (Some(spec), Some(stats)) => read.fold(spec, &stats, &self.obs.agg)?,
            (Some(spec), None) => read
                .merge()?
                .iter()
                .map(|s| aggregate_step(spec.kind, s, start, end, spec.step_ms))
                .collect(),
        };
        Ok(cols
            .iter()
            .zip(samples)
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(col, samples)| SeriesResult {
                id,
                labels: col.labels.clone(),
                samples,
            })
            .collect())
    }

    /// Test-support hook: injects pre-encoded chunk bytes (any format
    /// version) straight into the tree, bypassing the head. The
    /// mixed-version tests use this to plant legacy pre-stats chunks
    /// next to framed ones.
    #[doc(hidden)]
    pub fn debug_put_chunk(
        &self,
        stream: u64,
        first_ts: Timestamp,
        last_ts: Timestamp,
        chunk: Vec<u8>,
    ) -> Result<()> {
        let sealed = self.put_chunk(stream, first_ts, last_ts, chunk, 0, false);
        self.maintain_inline(sealed)
    }

    /// All values recorded for a tag key (label-values API).
    pub fn tag_values(&self, key: &str) -> Result<Vec<String>> {
        self.index.tag_values(key)
    }

    // --- observability ---------------------------------------------------------------

    pub fn series_count(&self) -> usize {
        self.count_objects(false)
    }

    pub fn group_count(&self) -> usize {
        self.count_objects(true)
    }

    fn count_objects(&self, group: bool) -> usize {
        let objects = self.objects.values();
        objects
            .iter()
            .filter(|o| o.lock().is_group() == group)
            .count()
    }

    /// The storage environment (request counters, virtual cost clock).
    pub fn storage(&self) -> &StorageEnv {
        &self.env
    }

    /// The underlying tree's statistics.
    pub fn tree_stats(&self) -> tu_lsm::tree::TreeStats {
        self.tree.stats()
    }

    /// Engine root directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Drops cached data blocks (benchmarking: cold-block measurements).
    pub fn clear_block_cache(&self) {
        self.tree.block_cache().clear();
    }

    /// Memory breakdown for the paper's memory experiments.
    pub fn memory_stats(&self) -> MemoryStats {
        let objects = self.objects.values();
        let objects_bytes = objects.iter().map(|o| o.lock().heap_bytes()).sum();
        MemoryStats {
            postings_bytes: self.index.heap_bytes(),
            objects_bytes,
            page_cache_bytes: self.page_cache.stats().resident_bytes as usize,
            memtable_bytes: self.tree.memtable_bytes(),
            block_cache_bytes: self.tree.block_cache().used_bytes(),
        }
    }

    /// Deterministic digest of the engine's complete logical state: every
    /// series and group with its labels, every chunk in the tree (key and
    /// raw bytes), and every buffered head sample, folded in id order.
    ///
    /// Used by the parallel-ingest tests and the end-to-end benchmark to
    /// pin that the on-disk state after a parallel ingest is byte-identical
    /// to the sequential path: same chunk boundaries, same compressed chunk
    /// bytes, same tree contents for every thread count.
    pub fn state_digest(&self) -> Result<String> {
        // FNV-1a 64; self-contained so the digest is stable across builds.
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let (lo, hi) = (i64::MIN / 2, i64::MAX / 2);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut ids: Vec<SeriesId> = self
            .objects
            .entries()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        // Series first, then groups: a group id has the top bit set.
        ids.sort_unstable();
        for id in ids {
            let Some(obj) = self.objects.get(&id) else {
                continue;
            };
            mix(&mut h, &id.to_le_bytes());
            let o = obj.lock();
            mix(&mut h, &o.labels.to_bytes());
            for (slot, unique) in o.members() {
                mix(&mut h, &slot.to_le_bytes());
                mix(&mut h, &unique.to_bytes());
            }
            let group = o.is_group();
            let heads = o.columns(&self.arenas, |_| true)?;
            drop(o);
            for col in heads {
                if group {
                    mix(&mut h, &(col.slot as SeriesRef).to_le_bytes());
                }
                for s in col.head {
                    mix(&mut h, &s.t.to_le_bytes());
                    mix(&mut h, &s.v.to_le_bytes());
                }
            }
            for (start_ts, chunk) in self.tree.range_chunks(id, lo, hi)? {
                mix(&mut h, &start_ts.to_le_bytes());
                mix(&mut h, &chunk);
            }
        }
        Ok(format!("{h:016x}"))
    }
}

impl Drop for TimeUnion {
    fn drop(&mut self) {
        self.stop_serving();
        self.stop_background();
    }
}

// --- keys and rows -----------------------------------------------------------

/// An object's key in `by_tags`: its tags' bytes, and one more byte for a
/// group. A series' key is empty or ends in 0, so it never equals a
/// group's.
pub(crate) fn tags_key(labels: &Labels, group: bool) -> Vec<u8> {
    let mut key = labels.to_bytes();
    if group {
        key.push(1);
    }
    key
}

/// One group row in its WAL layout ([`object::put_group_row`]).
fn group_row(t: Timestamp, refs: &[SeriesRef], values: &[Value]) -> Vec<u8> {
    let mut row = Vec::with_capacity(12 + 12 * refs.len());
    let entries = refs.iter().copied().zip(values.iter().copied());
    object::put_group_row(&mut row, t, entries);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_common::Sample;
    use tu_compress::gorilla;

    fn opts() -> Options {
        Options {
            chunk_samples: 8,
            index_slots_per_segment: 4096,
            page_cache_bytes: 8 << 20,
            arena_chunks_per_file: 256,
            tree: TreeOptions {
                memtable_bytes: 32 << 10,
                l0_partition_ms: 30 * 60_000,
                l2_partition_ms: 2 * 3_600_000,
                max_sstable_bytes: 64 << 10,
                ..TreeOptions::default()
            },
            wal_batch_records: 16,
            ..Options::default()
        }
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    fn engine() -> (tempfile::TempDir, TimeUnion) {
        let dir = tempfile::tempdir().unwrap();
        let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        (dir, e)
    }

    #[test]
    fn put_query_round_trip() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "cpu"), ("host", "h1")]);
        let id = e.put(&l, 1_000, 0.5).unwrap();
        e.put_by_id(id, 2_000, 0.7).unwrap();
        let res = e
            .query(&[Selector::exact("metric", "cpu")], 0, 10_000)
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].labels, l);
        assert_eq!(
            res[0].samples,
            vec![Sample::new(1_000, 0.5), Sample::new(2_000, 0.7)]
        );
    }

    /// A stream's due checkpoints are logged as one, the highest: three
    /// sealed chunks and two late chunks of one series, flushed together,
    /// leave one checkpoint record, numbered by the newer late chunk.
    #[test]
    fn due_checkpoints_of_a_stream_are_logged_as_one() {
        let (_d, e) = engine();
        // A one-row head elsewhere pins the first segment, so the log
        // keeps the checkpoint to be counted.
        e.put(&labels(&[("metric", "quiet")]), 0, 0.0).unwrap();
        let id = e.put(&labels(&[("metric", "busy")]), 0, 0.0).unwrap();
        let rows: Vec<_> = (1..24).map(|i| (id, i * 1_000, 1.0)).collect();
        e.put_batch(&rows).unwrap();
        e.put_batch(&[(id, -5_000, 0.5)]).unwrap();
        e.put_batch(&[(id, -3_000, 0.3)]).unwrap();
        e.tree.seal();
        e.maintain().unwrap();
        let checkpoints: Vec<u64> = e
            .wal
            .replay()
            .unwrap()
            .into_iter()
            .filter(|r| r.stream == id && r.checkpoint)
            .map(|r| r.seq)
            .collect();
        assert_eq!(checkpoints, [26]);
    }

    #[test]
    fn slow_path_is_idempotent_on_labels() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "cpu")]);
        let a = e.put(&l, 1_000, 1.0).unwrap();
        let b = e.put(&l, 2_000, 2.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(e.series_count(), 1);
    }

    #[test]
    fn unknown_fast_path_id_errors() {
        let (_d, e) = engine();
        assert!(e.put_by_id(424242, 0, 0.0).unwrap_err().is_not_found());
    }

    #[test]
    fn data_survives_chunk_seal_and_tree_flush() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "cpu")]);
        let id = e.put(&l, 0, 0.0).unwrap();
        for i in 1..100i64 {
            e.put_by_id(id, i * 10_000, i as f64).unwrap();
        }
        e.flush_all().unwrap();
        let res = e
            .query(&[Selector::exact("metric", "cpu")], 0, 1_000_000)
            .unwrap();
        assert_eq!(res[0].samples.len(), 100);
        assert!(res[0].samples.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn group_round_trip_with_selectors() {
        let (_d, e) = engine();
        let gt = labels(&[("host", "h1")]);
        let members = vec![labels(&[("metric", "cpu")]), labels(&[("metric", "mem")])];
        let (gid, refs) = e.put_group(&gt, &members, 1_000, &[0.1, 0.2]).unwrap();
        e.put_group_fast(gid, &refs, 2_000, &[0.3, 0.4]).unwrap();
        // Selector on the shared group tag returns both members.
        let res = e
            .query(&[Selector::exact("host", "h1")], 0, 10_000)
            .unwrap();
        assert_eq!(res.len(), 2);
        // Selector on a member tag returns just that member.
        let res = e
            .query(
                &[
                    Selector::exact("host", "h1"),
                    Selector::exact("metric", "mem"),
                ],
                0,
                10_000,
            )
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(
            res[0].samples,
            vec![Sample::new(1_000, 0.2), Sample::new(2_000, 0.4)]
        );
    }

    #[test]
    fn group_missing_members_read_as_absent() {
        let (_d, e) = engine();
        let gt = labels(&[("host", "h1")]);
        let (gid, refs) = e
            .put_group(
                &gt,
                &[labels(&[("m", "a")]), labels(&[("m", "b")])],
                10,
                &[1.0, 2.0],
            )
            .unwrap();
        // Next round only member a reports.
        e.put_group_fast(gid, &refs[..1], 20, &[3.0]).unwrap();
        let res = e
            .query(
                &[Selector::exact("host", "h1"), Selector::exact("m", "b")],
                0,
                100,
            )
            .unwrap();
        assert_eq!(res[0].samples, vec![Sample::new(10, 2.0)]);
    }

    #[test]
    fn group_survives_seal_to_tree() {
        let (_d, e) = engine();
        let gt = labels(&[("host", "h1")]);
        let members: Vec<Labels> = (0..5)
            .map(|i| labels(&[("metric", &format!("m{i}"))]))
            .collect();
        let (gid, refs) = e.put_group(&gt, &members, 0, &[0.0; 5]).unwrap();
        for round in 1..50i64 {
            let vals: Vec<f64> = (0..5).map(|m| (round * 10 + m) as f64).collect();
            e.put_group_fast(gid, &refs, round * 30_000, &vals).unwrap();
        }
        e.flush_all().unwrap();
        let res = e
            .query(
                &[
                    Selector::exact("host", "h1"),
                    Selector::exact("metric", "m3"),
                ],
                0,
                i64::MAX / 4,
            )
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].samples.len(), 50);
        assert_eq!(res[0].samples[7].v, 73.0);
    }

    #[test]
    fn out_of_order_sample_older_than_head() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "cpu")]);
        let id = e.put(&l, 100_000, 1.0).unwrap();
        e.put_by_id(id, 200_000, 2.0).unwrap();
        // Way in the past: early-flushed to the tree.
        e.put_by_id(id, 5_000, 0.5).unwrap();
        let res = e
            .query(&[Selector::exact("metric", "cpu")], 0, 300_000)
            .unwrap();
        let ts: Vec<i64> = res[0].samples.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![5_000, 100_000, 200_000]);
    }

    #[test]
    fn regex_selectors_work_end_to_end() {
        let (_d, e) = engine();
        for m in ["disk_read", "disk_write", "cpu_user"] {
            e.put(&labels(&[("metric", m)]), 1_000, 1.0).unwrap();
        }
        let res = e
            .query(&[Selector::regex("metric", "disk_.*").unwrap()], 0, 10_000)
            .unwrap();
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn recovery_restores_unflushed_samples() {
        let dir = tempfile::tempdir().unwrap();
        let l = labels(&[("metric", "cpu"), ("host", "h9")]);
        {
            let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
            let id = e.put(&l, 1_000, 1.0).unwrap();
            for i in 2..20i64 {
                e.put_by_id(id, i * 1_000, i as f64).unwrap();
            }
            e.sync().unwrap();
            // Dropped without flush_all: head samples only exist in the WAL.
        }
        let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        assert_eq!(e.series_count(), 1);
        let res = e
            .query(&[Selector::exact("host", "h9")], 0, 100_000)
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].samples.len(), 19);
        // Fast path still works with the recovered ID.
        let id = res[0].id;
        e.put_by_id(id, 50_000, 50.0).unwrap();
    }

    #[test]
    fn recovery_restores_groups() {
        let dir = tempfile::tempdir().unwrap();
        let gt = labels(&[("host", "h1")]);
        let members = vec![labels(&[("m", "a")]), labels(&[("m", "b")])];
        {
            let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
            let (gid, refs) = e.put_group(&gt, &members, 10, &[1.0, 2.0]).unwrap();
            e.put_group_fast(gid, &refs, 20, &[3.0, 4.0]).unwrap();
            e.sync().unwrap();
        }
        let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        assert_eq!(e.group_count(), 1);
        let res = e
            .query(
                &[Selector::exact("host", "h1"), Selector::exact("m", "b")],
                0,
                100,
            )
            .unwrap();
        assert_eq!(
            res[0].samples,
            vec![Sample::new(10, 2.0), Sample::new(20, 4.0)]
        );
    }

    /// A writer can recreate a purged series' tags before retention logs
    /// the removal. Replaying `Series(old)`, `Series(new)`, `Removed(old)`
    /// leaves the tags with `new`: one object answers them, and `put`
    /// resolves to it instead of creating a third.
    #[test]
    fn removal_replay_keeps_a_recreated_series() {
        let dir = tempfile::tempdir().unwrap();
        let l = labels(&[("metric", "cpu")]);
        let new = {
            let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
            let old = e.put(&l, 1_000, 1.0).unwrap();
            let new = old + 1;
            e.catalog.append(&CatalogRecord::Series {
                id: new,
                labels: l.clone(),
            });
            e.catalog.append(&CatalogRecord::Removed { id: old });
            e.sync().unwrap();
            new
        };
        let e = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
        assert_eq!(e.series_count(), 1);
        assert_eq!(e.put(&l, 2_000, 2.0).unwrap(), new);
        let res = e
            .query(&[Selector::exact("metric", "cpu")], 0, 10_000)
            .unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, new);
        assert_eq!(res[0].samples, vec![Sample::new(2_000, 2.0)]);
    }

    #[test]
    fn retention_drops_old_series() {
        use tu_common::clock::SimClock;
        let dir = tempfile::tempdir().unwrap();
        let clock = SimClock::new(0);
        let mut o = opts();
        o.retention_ms = Some(1_000_000);
        o.clock = Arc::new(clock.clone());
        let e = TimeUnion::open(dir.path().join("db"), o).unwrap();
        e.put(&labels(&[("metric", "old")]), 1_000, 1.0).unwrap();
        e.put(&labels(&[("metric", "new")]), 5_000_000, 1.0)
            .unwrap();
        clock.set(6_000_000);
        let (_, objects) = e.apply_retention().unwrap();
        assert_eq!(objects, 1);
        assert_eq!(e.series_count(), 1);
        assert!(e
            .query(&[Selector::exact("metric", "old")], 0, i64::MAX / 4)
            .unwrap()
            .is_empty());
        assert_eq!(
            e.query(&[Selector::exact("metric", "new")], 0, i64::MAX / 4)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(e.tag_values("metric").unwrap(), vec!["new"]);
    }

    #[test]
    fn tag_values_lists_values() {
        let (_d, e) = engine();
        for h in ["h2", "h1"] {
            e.put(&labels(&[("host", h), ("metric", "cpu")]), 0, 1.0)
                .unwrap();
        }
        assert_eq!(e.tag_values("host").unwrap(), vec!["h1", "h2"]);
    }

    #[test]
    fn memory_stats_have_expected_shape() {
        let (_d, e) = engine();
        for i in 0..200 {
            e.put(
                &labels(&[("host", &format!("h{i}")), ("metric", "cpu")]),
                0,
                1.0,
            )
            .unwrap();
        }
        let m = e.memory_stats();
        assert!(m.postings_bytes > 0);
        assert!(m.objects_bytes > 0);
        assert!(m.page_cache_bytes > 0, "trie+heads are file-backed");
        assert!(m.total() >= m.postings_bytes + m.objects_bytes);
    }

    #[test]
    fn background_worker_drives_maintenance() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.inline_maintenance = false;
        o.tree.memtable_bytes = 4 << 10; // seal early so the worker has work
        let e = Arc::new(TimeUnion::open(dir.path().join("db"), o).unwrap());
        e.start_background(std::time::Duration::from_millis(5))
            .unwrap();
        let id = e.put(&labels(&[("metric", "bg")]), 0, 0.0).unwrap();
        for i in 1..3_000i64 {
            e.put_by_id(id, i * 1_000, i as f64).unwrap();
        }
        // Wait for the worker to flush the sealed memtables.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if e.tree_stats().flushes > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker never flushed: {:?}",
                e.tree_stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let res = e
            .query(&[Selector::exact("metric", "bg")], 0, 4_000_000)
            .unwrap();
        assert_eq!(res[0].samples.len(), 3_000);
        e.stop_background();
    }

    #[test]
    fn health_report_tracks_engine_state() {
        let (_d, e) = engine();
        let r = e.health_report();
        assert!(r.ready);
        assert!(r.healthy());
        assert!(r.checks.iter().any(|c| c.name == "wal"));
        assert!(r.checks.iter().any(|c| c.name == "flush_backlog"));
        assert!(r.checks.iter().any(|c| c.name == "memtable"));
        // Draining flips both readiness and health.
        e.begin_shutdown();
        let r = e.health_report();
        assert!(!r.ready);
        assert!(!r.healthy());
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "shutdown" && c.health == tu_obs::Health::Unhealthy));
    }

    #[test]
    fn serve_plane_binds_and_stops() {
        let dir = tempfile::tempdir().unwrap();
        let e = Arc::new(TimeUnion::open(dir.path().join("db"), opts()).unwrap());
        assert!(e.monitor().is_none(), "nothing serves until asked");
        let addr = e.start_serving("127.0.0.1:0").unwrap();
        assert!(addr.port() != 0, "port 0 resolves to a real port");
        // Idempotent: a second call reuses the bound plane.
        assert_eq!(e.start_serving("127.0.0.1:0").unwrap(), addr);
        assert!(e.monitor().is_some());
        e.stop_serving();
        assert!(e.monitor().is_none());
    }

    #[test]
    fn empty_labels_rejected() {
        let (_d, e) = engine();
        assert!(e.put(&Labels::new(), 0, 0.0).is_err());
        assert!(e
            .put_group(&Labels::new(), &[labels(&[("a", "b")])], 0, &[0.0])
            .is_err());
        assert!(e
            .put_group(&labels(&[("a", "b")]), &[labels(&[("c", "d")])], 0, &[])
            .is_err());
    }

    /// Reference for the pushdown path: materialize with `query`, fold
    /// with `aggregate_step`, drop members with no defined windows.
    fn reference_aggregate(
        e: &TimeUnion,
        sel: &[Selector],
        kind: AggKind,
        start: Timestamp,
        end: Timestamp,
        step_ms: i64,
    ) -> QueryResult {
        e.query(sel, start, end)
            .unwrap()
            .into_iter()
            .filter_map(|s| {
                let samples = aggregate_step(kind, &s.samples, start, end, step_ms);
                (!samples.is_empty()).then(|| SeriesResult {
                    id: s.id,
                    labels: s.labels,
                    samples,
                })
            })
            .collect()
    }

    fn assert_bit_identical(got: &QueryResult, want: &QueryResult, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: series count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.labels, w.labels, "{what}: labels");
            assert_eq!(
                g.samples.len(),
                w.samples.len(),
                "{what}: rows of {}",
                g.labels
            );
            for (a, b) in g.samples.iter().zip(&w.samples) {
                assert_eq!(a.t, b.t, "{what}: window ts of {}", g.labels);
                assert_eq!(
                    a.v.to_bits(),
                    b.v.to_bits(),
                    "{what}: value bits at t={} of {} ({} vs {})",
                    a.t,
                    g.labels,
                    a.v,
                    b.v
                );
            }
        }
    }

    #[test]
    fn query_aggregate_matches_reference_and_uses_metadata() {
        let (_d, e) = engine();
        // chunk_samples = 8, 1s interval: chunk k covers [8k, 8k+7] s.
        // A 16s step holds exactly two sealed chunks per window.
        let l = labels(&[("metric", "cpu"), ("host", "h1")]);
        let id = e.put(&l, 0, 5.0).unwrap();
        for i in 1..64 {
            // First chunk of each window carries the maximum (5.0).
            let v = if i % 16 == 0 {
                5.0
            } else {
                1.0 + (i % 7) as f64 * 0.25
            };
            e.put_by_id(id, i * 1_000, v).unwrap();
        }
        let sel = [Selector::exact("metric", "cpu")];
        let meta0 = tu_obs::counter("core.query.agg.meta_answered").get();
        let skip0 = tu_obs::counter("core.query.agg.skipped_chunks").get();
        for kind in AggKind::ALL {
            let got = e.query_aggregate(&sel, kind, 0, 64_000, 16_000).unwrap();
            let want = reference_aggregate(&e, &sel, kind, 0, 64_000, 16_000);
            assert!(!got.is_empty(), "{kind:?} returned rows");
            assert_bit_identical(&got, &want, kind.name());
        }
        // Max/Min/Count/Sum/Avg meta-answer fully-covered chunks.
        assert!(tu_obs::counter("core.query.agg.meta_answered").get() > meta0);

        // A query window starting mid-stream time-skips chunks from the
        // slack region entirely.
        let got = e
            .query_aggregate(&sel, AggKind::Max, 32_000, 64_000, 16_000)
            .unwrap();
        let want = reference_aggregate(&e, &sel, AggKind::Max, 32_000, 64_000, 16_000);
        assert_bit_identical(&got, &want, "max mid-stream");
        assert!(tu_obs::counter("core.query.agg.skipped_chunks").get() > skip0);

        // Invalid step is rejected.
        assert!(e.query_aggregate(&sel, AggKind::Max, 0, 1, 0).is_err());
    }

    #[test]
    fn query_aggregate_handles_ooo_nan_and_head_overlap() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "mem"), ("host", "h2")]);
        let id = e.put(&l, 0, f64::NAN).unwrap();
        // Out-of-order and duplicate timestamps force patch chunks and
        // newest-wins merges — the pushdown plan must fall back and stay
        // bit-identical.
        for (t, v) in [
            (10_000, 1.0),
            (20_000, -0.0),
            (5_000, 3.0),
            (20_000, 2.0),
            (30_000, f64::NAN),
            (15_000, 7.0),
            (40_000, 0.0),
        ] {
            e.put_by_id(id, t, v).unwrap();
        }
        let sel = [Selector::exact("metric", "mem")];
        for kind in AggKind::ALL {
            let got = e.query_aggregate(&sel, kind, 0, 60_000, 15_000).unwrap();
            let want = reference_aggregate(&e, &sel, kind, 0, 60_000, 15_000);
            assert_bit_identical(&got, &want, kind.name());
        }
    }

    #[test]
    fn query_aggregate_reads_legacy_prestats_chunks() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "disk"), ("host", "h3")]);
        let id = e.put(&l, 100_000, 1.0).unwrap();
        // Plant a legacy (pre-stats envelope) chunk behind the head.
        let legacy: Vec<Sample> = (0..8).map(|i| Sample::new(i * 1_000, i as f64)).collect();
        let bytes = gorilla::compress_chunk(&legacy).unwrap();
        e.debug_put_chunk(id, 0, 7_000, bytes).unwrap();
        let sel = [Selector::exact("metric", "disk")];
        for kind in AggKind::ALL {
            let got = e.query_aggregate(&sel, kind, 0, 200_000, 10_000).unwrap();
            let want = reference_aggregate(&e, &sel, kind, 0, 200_000, 10_000);
            assert_bit_identical(&got, &want, kind.name());
        }
        // The legacy samples really are visible.
        let q = e.query(&sel, 0, 200_000).unwrap();
        assert_eq!(q[0].samples.len(), 9);
    }

    #[test]
    fn query_aggregate_groups_match_reference() {
        let (_d, e) = engine();
        let gt = labels(&[("job", "node")]);
        let members: Vec<Labels> = (0..3)
            .map(|i| labels(&[("host", &format!("h{i}"))]))
            .collect();
        let (gid, refs) = e.put_group(&gt, &members, 0, &[0.0, 10.0, -1.0]).unwrap();
        for round in 1..40 {
            let t = round * 1_000;
            let vals: Vec<Value> = (0..3)
                .map(|m| ((round * (m + 1)) % 9) as f64 - 2.0)
                .collect();
            if round % 5 == 0 {
                // Some rounds miss a member (NULL column entries).
                e.put_group_fast(gid, &refs[..2], t, &vals[..2]).unwrap();
            } else {
                e.put_group_fast(gid, &refs, t, &vals).unwrap();
            }
        }
        let sel = [Selector::exact("job", "node")];
        for kind in AggKind::ALL {
            let got = e.query_aggregate(&sel, kind, 0, 40_000, 8_000).unwrap();
            let want = reference_aggregate(&e, &sel, kind, 0, 40_000, 8_000);
            assert!(!got.is_empty(), "{kind:?} returned rows");
            assert_bit_identical(&got, &want, kind.name());
        }
        // Selecting one member decodes only its column, still identical.
        let one = [Selector::exact("host", "h1")];
        let got = e
            .query_aggregate(&one, AggKind::Avg, 0, 40_000, 8_000)
            .unwrap();
        let want = reference_aggregate(&e, &one, AggKind::Avg, 0, 40_000, 8_000);
        assert_bit_identical(&got, &want, "avg one member");
    }

    #[test]
    fn query_aggregate_profiled_carries_agg_counters() {
        let (_d, e) = engine();
        let l = labels(&[("metric", "net")]);
        let id = e.put(&l, 0, 1.0).unwrap();
        for i in 1..32 {
            e.put_by_id(id, i * 1_000, i as f64).unwrap();
        }
        let sel = [Selector::exact("metric", "net")];
        let (rows, profile) = e
            .query_aggregate_profiled(&sel, AggKind::Sum, 0, 32_000, 16_000)
            .unwrap();
        assert!(!rows.is_empty());
        assert!(profile.stages.iter().any(|s| s.name == "fanout"));
        let meta = profile.counters.get("core.query.agg.meta_answered");
        assert!(
            meta.copied().unwrap_or(0) > 0,
            "profile carries agg counters: {:?}",
            profile.counters
        );
    }
}

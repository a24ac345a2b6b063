//! The TimeUnion engine: open/put/get/retention/recovery (§3.4).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use tu_common::lockdep::{self, Mutex};

use tu_cloud::cost::LatencyMode;
use tu_cloud::StorageEnv;
use tu_common::clock::{system_clock, SharedClock};
use tu_common::types::is_group_id;
use tu_common::{
    Error, GroupId, Labels, Result, Sample, SeriesId, SeriesRef, Timestamp, Value, GROUP_ID_FLAG,
};
use tu_compress::agg::{self, AggKind, AggState, ChunkStats};
use tu_compress::{gorilla, nullxor};
use tu_index::{InvertedIndex, Selector};
use tu_lsm::wal::Wal;
use tu_lsm::{TimeTree, TreeOptions};
use tu_mmap::pagecache::PageCache;
use tu_mmap::ChunkArena;

use crate::catalog::{Catalog, CatalogRecord};
use crate::group::{self, GroupInsert, GroupObject};
use crate::model;
use crate::profile::QueryProfile;
use crate::query::{aggregate_step, QueryResult, SampleMerger, SeriesResult, StepWindows};
use crate::series::{self, SeriesObject, ROW};
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
    /// Address for the live observability endpoint (e.g.
    /// `"127.0.0.1:9090"`; port `0` picks a free port). `None` serves
    /// nothing. Consulted by [`TimeUnion::serve_if_configured`], where the
    /// `TU_SERVE_ADDR` environment variable overrides this field.
    pub serve_addr: Option<String>,
    /// Self-monitoring: an embedded TimeUnion instance recording this
    /// engine's own metrics history, with range-query endpoints and
    /// alert rules (see [`crate::selfmon`]). Started with the serve
    /// plane. `None` disables it; the `TU_SELFMON` / `TU_SELFMON_RULES`
    /// environment variables override (see [`crate::selfmon::resolve`]).
    pub selfmon: Option<crate::selfmon::SelfmonOptions>,
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
            serve_addr: None,
            selfmon: None,
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

struct PendingCheckpoint {
    stream: u64,
    seq: u64,
    epoch: u64,
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
    opts: Options,
    env: StorageEnv,
    index: InvertedIndex,
    tree: TimeTree,
    wal: Wal,
    catalog: Catalog,
    page_cache: Arc<PageCache>,
    series_arena: ChunkArena,
    group_ts_arena: ChunkArena,
    group_val_arena: ChunkArena,
    /// Hot-path maps are sharded: concurrent writers on distinct series
    /// lock different shards, so they only contend when they hash together.
    series: ShardedMap<SeriesId, Arc<Mutex<SeriesObject>>>,
    by_labels: ShardedMap<Vec<u8>, SeriesId>,
    groups: ShardedMap<GroupId, Arc<Mutex<GroupObject>>>,
    group_by_tags: ShardedMap<Vec<u8>, GroupId>,
    next_series: AtomicU64,
    next_group: AtomicU64,
    /// Longest time span observed in any sealed chunk; queries extend
    /// their range start by this much to catch straddling chunks.
    max_chunk_span: AtomicI64,
    pending_ckpts: Mutex<Vec<PendingCheckpoint>>,
    wal_unflushed: AtomicU64,
    replaying: std::sync::atomic::AtomicBool,
    /// False after the most recent WAL flush failed; drives the `wal`
    /// health check (an engine that cannot persist its log is unhealthy).
    wal_ok: std::sync::atomic::AtomicBool,
    /// Set by [`TimeUnion::begin_shutdown`]; flips `/healthz` and
    /// `/readyz` so load balancers drain the instance before drop.
    shutting_down: std::sync::atomic::AtomicBool,
    worker: Mutex<Option<Worker>>,
    /// The self-monitoring plane, when enabled with the serve plane.
    /// Ranked *below* `serve` so `health_report` (called from serve
    /// threads) and `start_serving` can take it without inverting.
    selfmon: Mutex<Option<Arc<crate::selfmon::SelfMonitor>>>,
    serve: Mutex<Option<ServePlane>>,
    /// Resolved query fan-out width; runtime-adjustable so benchmarks can
    /// sweep thread counts against one engine instance.
    query_threads: std::sync::atomic::AtomicUsize,
    /// Resolved ingest fan-out width for [`TimeUnion::put_batch`].
    ingest_threads: std::sync::atomic::AtomicUsize,
    /// Serializes maintenance passes: concurrent ingest workers may seal
    /// memtables simultaneously, but only one thread at a time may run the
    /// flush/compact/checkpoint pipeline.
    maintenance: Mutex<()>,
    obs: EngineObs,
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
    agg_pushdown_chunks: tu_obs::TracedCounter,
    agg_meta_answered: tu_obs::TracedCounter,
    agg_skipped_chunks: tu_obs::TracedCounter,
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
            agg_pushdown_chunks: tu_obs::traced("core.query.agg.pushdown_chunks"),
            agg_meta_answered: tu_obs::traced("core.query.agg.meta_answered"),
            agg_skipped_chunks: tu_obs::traced("core.query.agg.skipped_chunks"),
        }
    }
}

struct Worker {
    stop: crossbeam::channel::Sender<()>,
    join: std::thread::JoinHandle<()>,
}

/// The live observability plane of one serving engine: the HTTP server
/// plus the monitor sampling windowed vitals behind `/vitals`.
struct ServePlane {
    server: tu_obs::ObsServer,
    monitor: Arc<tu_obs::Monitor>,
    ledger: Arc<tu_cloud::ledger::CostLedger>,
}

/// What a step aggregation computes: `kind` per aligned `step_ms` window
/// of `[start, end)`.
#[derive(Clone, Copy)]
struct AggSpec {
    kind: AggKind,
    start: Timestamp,
    end: Timestamp,
    step_ms: i64,
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
        let catalog = Catalog::open(env.block.clone(), "catalog/series.cat");
        // Head chunks are rebuilt from the WAL; reset the arenas so handles
        // can be reassigned deterministically.
        for sub in ["heads/series", "heads/group-ts", "heads/group-val"] {
            let p = dir.join(sub);
            if p.exists() {
                std::fs::remove_dir_all(&p)?;
            }
        }
        let series_arena = ChunkArena::open(
            page_cache.clone(),
            dir.join("heads/series"),
            series::slot_size(opts.chunk_samples),
            opts.arena_chunks_per_file,
        )?;
        let group_ts_arena = ChunkArena::open(
            page_cache.clone(),
            dir.join("heads/group-ts"),
            group::ts_slot_size(opts.chunk_samples),
            opts.arena_chunks_per_file,
        )?;
        let group_val_arena = ChunkArena::open(
            page_cache.clone(),
            dir.join("heads/group-val"),
            group::val_slot_size(opts.chunk_samples),
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
            series_arena,
            group_ts_arena,
            group_val_arena,
            series: ShardedMap::new(&lockdep::CORE_MAP_OBJECTS),
            by_labels: ShardedMap::new(&lockdep::CORE_MAP_LABELS),
            groups: ShardedMap::new(&lockdep::CORE_MAP_OBJECTS),
            group_by_tags: ShardedMap::new(&lockdep::CORE_MAP_LABELS),
            next_series: AtomicU64::new(1),
            next_group: AtomicU64::new(1),
            max_chunk_span: AtomicI64::new(0),
            pending_ckpts: Mutex::new(&lockdep::ENGINE_CKPTS, Vec::new()),
            wal_unflushed: AtomicU64::new(0),
            replaying: std::sync::atomic::AtomicBool::new(false),
            wal_ok: std::sync::atomic::AtomicBool::new(true),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
            worker: Mutex::new(&lockdep::ENGINE_WORKER, None),
            selfmon: Mutex::new(&lockdep::ENGINE_SELFMON, None),
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
            maintenance: Mutex::new(&lockdep::ENGINE_MAINTENANCE, ()),
            obs: EngineObs::resolve(),
            opts,
        };
        tu_obs::gauge("core.query.parallel.threads")
            .set(engine.query_threads.load(Ordering::Relaxed) as i64);
        tu_obs::gauge("core.ingest.parallel.threads")
            .set(engine.ingest_threads.load(Ordering::Relaxed) as i64);
        // Partition heat timestamps follow the engine clock, so
        // last-access and decay windows line up with query time ranges
        // in tests and simulations driven by a virtual clock.
        let heat_clock = engine.opts.clock.clone();
        tu_obs::heat::install_clock(Arc::new(move || heat_clock.now_ms()));
        engine.recover()?;
        tu_obs::log::info(
            "core.open",
            "engine recovered",
            &[
                ("series", engine.series_count().into()),
                ("groups", engine.group_count().into()),
            ],
        );
        Ok(engine)
    }

    // --- live observability plane ----------------------------------------------

    /// Starts the embedded observability endpoint if configured: the
    /// `TU_SERVE_ADDR` environment variable wins, then
    /// [`Options::serve_addr`]. Returns the bound address, or `None` when
    /// neither is set.
    pub fn serve_if_configured(self: &Arc<Self>) -> Result<Option<std::net::SocketAddr>> {
        let addr = match std::env::var("TU_SERVE_ADDR") {
            Ok(v) if !v.is_empty() => Some(v),
            _ => self.opts.serve_addr.clone(),
        };
        match addr {
            Some(addr) => self.start_serving(&addr).map(Some),
            None => Ok(None),
        }
    }

    /// Binds the live endpoint on `addr` (port `0` picks a free port) and
    /// starts the vitals monitor. `/healthz`, `/readyz`, and `/vitals`
    /// reflect this engine; `/metrics`, `/metrics.json`, and `/flight`
    /// expose the process-global registry and flight recorder. Idempotent:
    /// a second call returns the already-bound address.
    pub fn start_serving(self: &Arc<Self>, addr: &str) -> Result<std::net::SocketAddr> {
        // Lock order: selfmon (rank below serve) before serve.
        let mut selfmon_slot = self.selfmon.lock();
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
        // The cost ledger rides the monitor's sampling cadence: every
        // vitals sample also closes a billing window.
        let ledger = tu_cloud::ledger::CostLedger::new(128);
        monitor.add_observer(ledger.observer());
        // Self-monitoring rides the same sampler, registered *after* the
        // ledger so each sample's billing window closes before the self
        // engine reads it. A failed open degrades to a log line — the
        // primary must serve even when its telemetry sidecar cannot.
        let mut selfmon: Option<Arc<crate::selfmon::SelfMonitor>> = None;
        if let Some(cfg) = crate::selfmon::resolve(&self.opts.selfmon) {
            match crate::selfmon::SelfMonitor::open(
                &self.dir,
                self.opts.clock.clone(),
                Arc::clone(&ledger),
                cfg,
            ) {
                Ok(sm) => {
                    monitor.add_observer(sm.observer());
                    tu_obs::log::info(
                        "core.selfmon",
                        "self-monitoring enabled",
                        &[
                            ("alert_rules", (sm.rules().alerts.len() as i64).into()),
                            ("recording_rules", (sm.rules().records.len() as i64).into()),
                        ],
                    );
                    selfmon = Some(sm);
                }
                Err(e) => tu_obs::log::warn(
                    "core.selfmon",
                    "self-monitoring failed to start",
                    &[("error", e.to_string().into())],
                ),
            }
        }
        let lsm_weak = Arc::downgrade(self);
        let lsm_endpoint = tu_obs::Endpoint::new("/introspect/lsm", move || {
            let body = match lsm_weak.upgrade() {
                Some(engine) => {
                    let view = engine.tree.introspect();
                    crate::introspect::lsm_json(
                        &view,
                        tu_obs::traced("lsm.bloom.checks").get(),
                        tu_obs::traced("lsm.bloom.negatives").get(),
                    )
                }
                None => "{\"error\":\"engine closed\"}".to_string(),
            };
            ("application/json".to_string(), body)
        });
        let parts_weak = Arc::downgrade(self);
        let parts_endpoint = tu_obs::Endpoint::new("/introspect/partitions", move || {
            let body = match parts_weak.upgrade() {
                Some(engine) => {
                    let view = engine.tree.introspect();
                    crate::introspect::partitions_json(&view, &tu_obs::heat::snapshot())
                }
                None => "{\"error\":\"engine closed\"}".to_string(),
            };
            ("application/json".to_string(), body)
        });
        let costs_ledger = Arc::clone(&ledger);
        let costs_endpoint = tu_obs::Endpoint::new("/costs", move || {
            ("application/json".to_string(), costs_ledger.to_json())
        });
        let mut extra = vec![lsm_endpoint, parts_endpoint, costs_endpoint];
        if let Some(sm) = selfmon.as_ref() {
            let range_sm = Arc::clone(sm);
            extra.push(tu_obs::Endpoint::with_query("/query_range", move |query| {
                (
                    "application/json".to_string(),
                    range_sm.query_range_json(query),
                )
            }));
            let series_sm = Arc::clone(sm);
            extra.push(tu_obs::Endpoint::new("/series", move || {
                ("application/json".to_string(), series_sm.series_json())
            }));
            let labels_sm = Arc::clone(sm);
            extra.push(tu_obs::Endpoint::new("/labels", move || {
                ("application/json".to_string(), labels_sm.labels_json())
            }));
            let alerts_sm = Arc::clone(sm);
            extra.push(tu_obs::Endpoint::new("/alerts", move || {
                ("application/json".to_string(), alerts_sm.alerts_json())
            }));
        }
        let server = tu_obs::ObsServer::bind(
            addr,
            tu_obs::ServeSources {
                health,
                monitor: Some(Arc::clone(&monitor)),
                extra,
            },
        )?;
        let local = server.local_addr();
        tu_obs::log::info(
            "core.serve",
            "observability endpoint listening",
            &[("addr", local.to_string().into())],
        );
        *selfmon_slot = selfmon;
        *serve = Some(ServePlane {
            server,
            monitor,
            ledger,
        });
        Ok(local)
    }

    /// Stops the live endpoint and its monitor, if serving. Idempotent;
    /// also runs on drop.
    pub fn stop_serving(&self) {
        // Same order as `start_serving`: selfmon before serve.
        let plane = {
            let mut selfmon = self.selfmon.lock();
            let plane = self.serve.lock().take();
            *selfmon = None;
            plane
        };
        if let Some(plane) = plane {
            plane.server.shutdown();
            plane.monitor.stop();
        }
    }

    /// The vitals monitor of the live endpoint, while serving.
    pub fn monitor(&self) -> Option<Arc<tu_obs::Monitor>> {
        self.serve.lock().as_ref().map(|p| Arc::clone(&p.monitor))
    }

    /// The windowed cost ledger behind `/costs`, while serving.
    pub fn cost_ledger(&self) -> Option<Arc<tu_cloud::ledger::CostLedger>> {
        self.serve.lock().as_ref().map(|p| Arc::clone(&p.ledger))
    }

    /// The self-monitoring plane, while serving with self-monitoring
    /// enabled (see [`crate::selfmon`]).
    pub fn selfmon(&self) -> Option<Arc<crate::selfmon::SelfMonitor>> {
        self.selfmon.lock().clone()
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
        // Firing alert rules degrade (never fail) health: an alert is an
        // operator signal, not proof the engine itself is broken. The
        // Arc is cloned out so the alert-state lock is taken with no
        // engine lock held.
        let selfmon = self.selfmon.lock().clone();
        if let Some(sm) = selfmon {
            for alert in sm.firing_alerts() {
                checks.push(HealthCheck::new(
                    &format!("alert:{}", alert.name),
                    Health::Degraded,
                    alert.predicate,
                ));
            }
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
        let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
        let weak = Arc::downgrade(self);
        let join = std::thread::Builder::new()
            .name("timeunion-maintenance".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                }
                let Some(engine) = weak.upgrade() else {
                    return;
                };
                // Maintenance failures must not kill the worker; the next
                // foreground sync() will surface persistent errors, but
                // each failure is logged (rate-limited per target).
                if let Err(e) = engine.maintain() {
                    tu_obs::log::warn(
                        "core.maintain",
                        "background maintenance failed",
                        &[("error", e.to_string().into())],
                    );
                }
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
                            "core.retention",
                            "retention pass failed",
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
        let mut index = self.index.batch();
        for record in self.catalog.replay()? {
            match record {
                CatalogRecord::Series { id, labels } => {
                    let obj = SeriesObject::new(id, labels.clone(), &self.series_arena)?;
                    index.add(&labels, id)?;
                    self.by_labels.insert(labels.to_bytes(), id);
                    self.series
                        .insert(id, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
                    self.next_series.fetch_max(id + 1, Ordering::Relaxed);
                }
                CatalogRecord::Group { gid, group_tags } => {
                    let obj = GroupObject::new(gid, group_tags.clone(), &self.group_ts_arena)?;
                    self.group_by_tags.insert(group_tags.to_bytes(), gid);
                    self.groups
                        .insert(gid, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
                    self.next_group
                        .fetch_max((gid & !GROUP_ID_FLAG) + 1, Ordering::Relaxed);
                }
                CatalogRecord::Member {
                    gid,
                    slot,
                    unique_tags,
                } => {
                    let obj = self
                        .groups
                        .get(&gid)
                        .ok_or_else(|| Error::corruption("catalog member before its group"))?;
                    let mut g = obj.lock();
                    let got = g.add_member(&self.group_val_arena, unique_tags.clone())?;
                    if got != slot {
                        return Err(Error::corruption(
                            "catalog member slots out of order".to_string(),
                        ));
                    }
                    index.add(&g.group_tags.merge(&unique_tags), gid)?;
                }
            }
        }
        // 2. Engine meta (monotonic hints).
        if let Ok(meta) = self.env.block.read_file("engine.meta") {
            if meta.len() == 8 {
                let span = tu_common::bytes::i64_le(&meta);
                self.max_chunk_span.fetch_max(span, Ordering::Relaxed);
            }
        }
        // 3. WAL. Checkpoints first: an object's `seq` becomes the newest
        //    sequence number a checkpoint covers, so numbering carries on
        //    above it even when every record below is gone and nothing
        //    logged after this recovery can read as obsolete. Then the
        //    data: `seq` is also the newest number that must not be
        //    applied again (checkpointed, or replayed already from an
        //    earlier copy of the record), and each record is trimmed
        //    against it sample by sample.
        self.replaying.store(true, Ordering::SeqCst);
        let result = self.wal.recover(
            |stream, seq| {
                if is_group_id(stream) {
                    if let Some(obj) = self.groups.get(&stream) {
                        let mut g = obj.lock();
                        g.seq = g.seq.max(seq);
                    }
                } else if let Some(obj) = self.series.get(&stream) {
                    let mut o = obj.lock();
                    o.seq = o.seq.max(seq);
                }
            },
            |r| {
                if is_group_id(r.stream) {
                    let Some((t, entries)) = decode_group_row(r.payload) else {
                        return Ok(()); // records for members lost to a torn catalog
                    };
                    if let Some(obj) = self.groups.get(&r.stream) {
                        let valid = {
                            let g = obj.lock();
                            r.seq > g.seq
                                && entries
                                    .iter()
                                    .all(|(slot, _)| (*slot as usize) < g.member_count())
                        };
                        if valid {
                            self.apply_group_row(r.stream, t, &entries, r.seq)?;
                        }
                    }
                } else if let Some(obj) = self.series.get(&r.stream) {
                    if r.payload.len().is_multiple_of(ROW) {
                        self.apply_run(&obj, r.payload, Some(r.seq))?;
                    }
                }
                Ok(())
            },
        );
        self.replaying.store(false, Ordering::SeqCst);
        result
    }

    // --- series inserts ---------------------------------------------------------

    /// Slow-path insert (§3.4): resolves or creates the series by its
    /// tags, returning its ID for subsequent fast-path inserts.
    pub fn put(&self, labels: &Labels, t: Timestamp, v: Value) -> Result<SeriesId> {
        if labels.is_empty() {
            return Err(Error::invalid("a timeseries needs at least one tag"));
        }
        let id = self.get_or_create_series(labels)?;
        self.put_by_id(id, t, v)?;
        Ok(id)
    }

    /// Fast-path insert by series ID (§3.4), skipping tag comparison: a
    /// run of one sample. Safe to call from many threads at once: writers
    /// on distinct series contend only on their map shard and the shared
    /// WAL buffer.
    pub fn put_by_id(&self, id: SeriesId, t: Timestamp, v: Value) -> Result<()> {
        self.put_run(id, &series::encode_row(t, v))
    }

    fn put_run(&self, id: SeriesId, rows: &[u8]) -> Result<()> {
        let obj = self
            .series
            .get(&id)
            .ok_or_else(|| Error::not_found(format!("series {id}")))?;
        self.apply_run(&obj, rows, None)
    }

    /// Batched parallel ingest: groups `samples` by series and fans the
    /// per-series runs across the engine's ingest pool (see
    /// [`TimeUnion::set_ingest_threads`]). A run — the samples of one
    /// series, in their given order — is applied by one worker under one
    /// hold of the series' lock and logged as one WAL record, so
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
            rows[at..at + ROW].copy_from_slice(&series::encode_row(t, v));
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

    /// Applies a run of one series' samples, given as rows: one hold of
    /// the object lock, one WAL record per [`RUN_RECORD_ROWS`] rows. The record carries the sequence number
    /// of its last sample; row `i` of `n` has `seq - (n - 1 - i)`.
    /// Chunks that leave the head go to the tree after the lock is
    /// dropped.
    ///
    /// `replayed` is the sequence number of a record read back from the
    /// WAL: nothing is logged, and rows the object has already seen — up
    /// to its `seq` — are skipped.
    fn apply_run(
        &self,
        obj: &Mutex<SeriesObject>,
        mut rows: &[u8],
        replayed: Option<u64>,
    ) -> Result<()> {
        let mut flushes = Vec::new();
        let mut obj = obj.lock();
        let id = obj.id;
        if let Some(last_seq) = replayed {
            let first_seq = (last_seq + 1).saturating_sub((rows.len() / ROW) as u64);
            let seen = (obj.seq + 1).saturating_sub(first_seq) as usize;
            rows = rows.get(seen * ROW..).unwrap_or_default();
            obj.seq = obj.seq.max(first_seq.saturating_sub(1));
        } else {
            self.obs.ingest_samples.add((rows.len() / ROW) as u64);
        }
        for part in rows.chunks(RUN_RECORD_ROWS * ROW) {
            let first_seq = obj.seq + 1;
            obj.seq += (part.len() / ROW) as u64;
            if replayed.is_none() {
                self.log(id, obj.seq, part)?;
            }
            obj.insert_run(
                &self.series_arena,
                part,
                self.opts.chunk_samples,
                first_seq,
                &mut flushes,
            )?;
        }
        drop(obj);
        for f in flushes {
            self.flush_chunk(id, f.first_ts, f.last_ts, f.chunk, f.seq)?;
        }
        Ok(())
    }

    fn flush_chunk(
        &self,
        stream: u64,
        first_ts: Timestamp,
        last_ts: Timestamp,
        chunk: Vec<u8>,
        seq: u64,
    ) -> Result<()> {
        self.max_chunk_span
            .fetch_max(last_ts - first_ts, Ordering::Relaxed);
        let epoch = self.tree.seal_epoch();
        let sealed = self.tree.put(stream, first_ts, chunk);
        self.pending_ckpts
            .lock()
            .push(PendingCheckpoint { stream, seq, epoch });
        if sealed && self.opts.inline_maintenance && !self.replaying.load(Ordering::SeqCst) {
            self.maintain()?;
        }
        Ok(())
    }

    fn get_or_create_series(&self, labels: &Labels) -> Result<SeriesId> {
        let key = labels.to_bytes();
        if let Some(id) = self.by_labels.get(&key) {
            return Ok(id);
        }
        // Create with the key's shard write-locked to serialize racers on
        // the same label set; creators of other series proceed in parallel.
        let mut by_labels = self.by_labels.lock_shard(&key);
        if let Some(&id) = by_labels.get(&key) {
            return Ok(id);
        }
        let id = self.next_series.fetch_add(1, Ordering::Relaxed);
        let obj = SeriesObject::new(id, labels.clone(), &self.series_arena)?;
        self.series
            .insert(id, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
        by_labels.insert(key, id);
        drop(by_labels);
        self.index.add(labels, id)?;
        self.catalog.append(&CatalogRecord::Series {
            id,
            labels: labels.clone(),
        });
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
        let gid = self.get_or_create_group(group_tags)?;
        let obj = self
            .groups
            .get(&gid)
            .ok_or_else(|| Error::corruption("group object missing right after creation"))?;
        let mut g = obj.lock();
        let mut refs = Vec::with_capacity(member_tags.len());
        for tags in member_tags {
            let unique = match model::to_grouped(tags, group_tags) {
                Ok(grouped) => grouped.unique_tags,
                // Tags that don't carry the group tags are already unique.
                Err(_) => tags.clone(),
            };
            let slot = match g.member_slot(&unique) {
                Some(slot) => slot,
                None => {
                    let slot = g.add_member(&self.group_val_arena, unique.clone())?;
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
        let entries: Vec<(SeriesRef, Value)> =
            refs.iter().copied().zip(values.iter().copied()).collect();
        self.obs.ingest_samples.add(entries.len() as u64);
        g.seq += 1;
        let seq = g.seq;
        self.log(gid, seq, &encode_group_row(t, &entries))?;
        let member_count = g.member_count();
        let outcome = g.insert_row(
            &self.group_ts_arena,
            &self.group_val_arena,
            t,
            &entries,
            self.opts.chunk_samples,
        )?;
        drop(g);
        self.handle_group_outcome(gid, t, &entries, member_count, seq, outcome)?;
        Ok((gid, refs))
    }

    /// Fast-path group insert by group ID and member slots (§3.4).
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
        let entries: Vec<(SeriesRef, Value)> =
            refs.iter().copied().zip(values.iter().copied()).collect();
        self.obs.ingest_samples.add(entries.len() as u64);
        let obj = self
            .groups
            .get(&gid)
            .ok_or_else(|| Error::not_found(format!("group {gid}")))?;
        let mut g = obj.lock();
        g.seq += 1;
        let seq = g.seq;
        self.log(gid, seq, &encode_group_row(t, &entries))?;
        let member_count = g.member_count();
        let outcome = g.insert_row(
            &self.group_ts_arena,
            &self.group_val_arena,
            t,
            &entries,
            self.opts.chunk_samples,
        )?;
        drop(g);
        self.handle_group_outcome(gid, t, &entries, member_count, seq, outcome)
    }

    fn apply_group_row(
        &self,
        gid: GroupId,
        t: Timestamp,
        entries: &[(SeriesRef, Value)],
        seq: u64,
    ) -> Result<()> {
        let obj = self
            .groups
            .get(&gid)
            .ok_or_else(|| Error::not_found(format!("group {gid}")))?;
        let mut g = obj.lock();
        g.seq = g.seq.max(seq);
        let member_count = g.member_count();
        let outcome = g.insert_row(
            &self.group_ts_arena,
            &self.group_val_arena,
            t,
            entries,
            self.opts.chunk_samples,
        )?;
        drop(g);
        self.handle_group_outcome(gid, t, entries, member_count, seq, outcome)
    }

    fn handle_group_outcome(
        &self,
        gid: GroupId,
        t: Timestamp,
        entries: &[(SeriesRef, Value)],
        member_count: usize,
        seq: u64,
        outcome: GroupInsert,
    ) -> Result<()> {
        match outcome {
            GroupInsert::Buffered => Ok(()),
            GroupInsert::Sealed {
                first_ts,
                last_ts,
                chunk,
            } => self.flush_chunk(gid, first_ts, last_ts, chunk, seq),
            GroupInsert::OlderThanHead => {
                // One-row group chunk straight into the tree.
                let mut enc = nullxor::GroupChunkEncoder::new(member_count);
                let mut row = vec![None; member_count];
                for (slot, v) in entries {
                    row[*slot as usize] = Some(*v);
                }
                enc.append_row(t, &row)?;
                self.flush_chunk(gid, t, t, enc.finish_framed(), seq)
            }
        }
    }

    fn get_or_create_group(&self, group_tags: &Labels) -> Result<GroupId> {
        let key = group_tags.to_bytes();
        if let Some(gid) = self.group_by_tags.get(&key) {
            return Ok(gid);
        }
        let mut by_tags = self.group_by_tags.lock_shard(&key);
        if let Some(&gid) = by_tags.get(&key) {
            return Ok(gid);
        }
        let gid = self.next_group.fetch_add(1, Ordering::Relaxed) | GROUP_ID_FLAG;
        let obj = GroupObject::new(gid, group_tags.clone(), &self.group_ts_arena)?;
        self.groups
            .insert(gid, Arc::new(Mutex::new(&lockdep::CORE_OBJECT, obj)));
        by_tags.insert(key, gid);
        drop(by_tags);
        // Group tags are indexed under the group ID so selectors on shared
        // tags resolve to one postings entry (Figure 5).
        self.index.add(group_tags, gid)?;
        self.catalog.append(&CatalogRecord::Group {
            gid,
            group_tags: group_tags.clone(),
        });
        Ok(gid)
    }

    // --- logging ----------------------------------------------------------------

    /// Queues one data record (a run counts as one) and nudges a wave
    /// when the queue is over its record or byte threshold.
    fn log(&self, stream: u64, seq: u64, payload: &[u8]) -> Result<()> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(());
        }
        let queued_bytes = self.wal.append_data(stream, seq, payload);
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
    /// The catalog goes first: a sample is only recoverable if its series
    /// is, so an acknowledged wave never holds records of a series whose
    /// catalog record could still be lost.
    fn flush_wal(&self) -> Result<()> {
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

    // --- maintenance --------------------------------------------------------------

    /// Runs background work to quiescence: tree flush/compaction, WAL
    /// checkpoints and purging, catalog/meta persistence. Serialized: when
    /// several ingest workers seal memtables at once, one thread runs the
    /// pipeline while the others' triggers fold into its pass.
    pub fn maintain(&self) -> Result<()> {
        let _serialize = self.maintenance.lock();
        self.maintain_locked()
    }

    fn maintain_locked(&self) -> Result<()> {
        self.tree.maintain()?;
        // Emit checkpoints for chunks whose memtable reached L0.
        let flushed = self.tree.flushed_epoch();
        let ready: Vec<PendingCheckpoint> = {
            let mut pending = self.pending_ckpts.lock();
            let (ready, keep): (Vec<_>, Vec<_>) =
                pending.drain(..).partition(|c| c.epoch < flushed);
            *pending = keep;
            ready
        };
        if !ready.is_empty() && !self.replaying.load(Ordering::SeqCst) {
            for c in &ready {
                self.wal.append_checkpoint(c.stream, c.seq);
            }
            self.flush_wal()?;
            self.wal.truncate(self.opts.wal_purge_bytes)?;
        }
        self.catalog.flush()?;
        self.env.block.write_file(
            "engine.meta",
            &self.max_chunk_span.load(Ordering::Relaxed).to_le_bytes(),
        )?;
        Ok(())
    }

    /// Seals every open head chunk into the tree and drains all levels of
    /// fast storage down to the slow tier. Used by long-range-query
    /// benchmarks that want the paper's "after all pending samples are
    /// flushed" state.
    pub fn flush_all(&self) -> Result<()> {
        for obj in self.series.values() {
            let mut o = obj.lock();
            let seq = o.seq;
            if let Some((first, last, chunk)) = o.seal(&self.series_arena)? {
                let id = o.id;
                drop(o);
                self.flush_chunk(id, first, last, chunk, seq)?;
            }
        }
        for obj in self.groups.values() {
            let mut g = obj.lock();
            let seq = g.seq;
            if let Some((first, last, chunk)) =
                g.seal(&self.group_ts_arena, &self.group_val_arena)?
            {
                let gid = g.gid;
                drop(g);
                self.flush_chunk(gid, first, last, chunk, seq)?;
            }
        }
        let _serialize = self.maintenance.lock();
        self.tree.flush_all_to_slow()?;
        self.maintain_locked()
    }

    /// Flushes logs/indexes; call before dropping for durability.
    pub fn sync(&self) -> Result<()> {
        self.flush_wal()?;
        self.index.sync()?;
        self.maintain()
    }

    /// Applies the retention policy (§3.3 "Data retention"): drops tree
    /// partitions past the watermark and purges memory objects whose
    /// newest sample is older than it. Returns `(partitions, objects)`
    /// removed.
    pub fn apply_retention(&self) -> Result<(usize, usize)> {
        let Some(retention) = self.opts.retention_ms else {
            return Ok((0, 0));
        };
        let watermark = self.opts.clock.now_ms() - retention;
        let partitions = self.tree.purge_before(watermark)?;
        let mut objects = 0;
        // Series objects older than the watermark.
        let stale: Vec<SeriesId> = self
            .series
            .entries()
            .into_iter()
            .filter(|(_, o)| o.lock().last_ts < watermark)
            .map(|(id, _)| id)
            .collect();
        for id in stale {
            let removed = self.series.remove(&id);
            if let Some(obj) = removed {
                let obj = Arc::try_unwrap(obj)
                    .map_err(|_| Error::Closed("series busy during retention".into()))?
                    .into_inner();
                self.by_labels.remove(&obj.labels.to_bytes());
                self.index.remove(&obj.labels, id)?;
                obj.release(&self.series_arena)?;
                objects += 1;
            }
        }
        let stale_groups: Vec<GroupId> = self
            .groups
            .entries()
            .into_iter()
            .filter(|(_, o)| o.lock().last_ts < watermark)
            .map(|(gid, _)| gid)
            .collect();
        for gid in stale_groups {
            let removed = self.groups.remove(&gid);
            if let Some(obj) = removed {
                let obj = Arc::try_unwrap(obj)
                    .map_err(|_| Error::Closed("group busy during retention".into()))?
                    .into_inner();
                self.group_by_tags.remove(&obj.group_tags.to_bytes());
                self.index.remove(&obj.group_tags, gid)?;
                for (_, unique) in obj.members() {
                    self.index.remove(&obj.group_tags.merge(unique), gid)?;
                }
                obj.release(&self.group_ts_arena, &self.group_val_arena)?;
                objects += 1;
            }
        }
        Ok((partitions, objects))
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
        self.query_exec(selectors, start, end).map(|(out, _)| out)
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
        let ctx = tu_obs::TraceContext::start("query");
        let heat_before = tu_obs::heat::snapshot();
        let t0 = tu_obs::Stopwatch::start();
        let (out, matched) = self.query_exec(selectors, start, end)?;
        let wall_ns = t0.elapsed_ns();
        let threads = self.query_threads.load(Ordering::Relaxed);
        let mut profile = QueryProfile::from_summary(&ctx.finish(), matched, threads, wall_ns);
        profile.fill_heat(&heat_before, &tu_obs::heat::snapshot());
        Ok((out, profile))
    }

    /// Shared body of `query`/`query_profiled`; returns the results and
    /// how many ids the index matched.
    fn query_exec(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<(QueryResult, usize)> {
        self.fan_out(selectors, start, end, |id, chunks| {
            if is_group_id(id) {
                self.query_group(id, selectors, chunks, start, end)
            } else {
                self.query_series(id, chunks, start, end)
            }
        })
    }

    /// The one execution path of every Get: index select, one read plan
    /// for all matched ids, the per-id fan-out over what the plan fetched,
    /// and the sort by label bytes. Returns the results and how many ids
    /// the index matched.
    ///
    /// All storage reads happen in the plan ([`TimeTree::plan_reads`]),
    /// on this thread: each overlapping table is read once for every id
    /// it covers, so blocks of different series that sit near each other
    /// share a request, and the requests a query issues do not depend on
    /// the fan-out width. `per_id` only decodes and merges. A group is
    /// read whenever the index matched it, even if no single member turns
    /// out to satisfy every selector.
    fn fan_out<F>(
        &self,
        selectors: &[Selector],
        start: Timestamp,
        end: Timestamp,
        per_id: F,
    ) -> Result<(QueryResult, usize)>
    where
        F: Fn(SeriesId, &[(Timestamp, &[u8])]) -> Result<Vec<SeriesResult>> + Sync,
    {
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
            let plan = {
                let _plan = tu_obs::span("core.query.plan");
                let from = start.saturating_sub(self.query_slack());
                self.tree.plan_reads(&ids, from, end)?
            };
            pool.run(ids.len(), |i| per_id(ids[i], &plan.chunks(i)?))
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

    fn query_slack(&self) -> i64 {
        self.max_chunk_span.load(Ordering::Relaxed) + 1
    }

    fn query_series(
        &self,
        id: SeriesId,
        chunks: &[(Timestamp, &[u8])],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<SeriesResult>> {
        let Some(obj) = self.series.get(&id) else {
            return Ok(Vec::new()); // purged between index lookup and here
        };
        let mut merger = SampleMerger::new(start, end);
        for (_, chunk) in chunks {
            merger.offer_all(gorilla::decompress_chunk(chunk)?);
        }
        let o = obj.lock();
        merger.offer_all(o.head_samples(&self.series_arena)?);
        let labels = o.labels.clone();
        drop(o);
        if merger.is_empty() {
            return Ok(Vec::new());
        }
        Ok(vec![SeriesResult {
            id,
            labels,
            samples: merger.finish(),
        }])
    }

    fn query_group(
        &self,
        gid: GroupId,
        selectors: &[Selector],
        chunks: &[(Timestamp, &[u8])],
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<SeriesResult>> {
        let mut out = Vec::new();
        let Some(obj) = self.groups.get(&gid) else {
            return Ok(out);
        };
        // Second-level index: which members match every selector?
        let (matched, group_tags): (Vec<(SeriesRef, Labels)>, Labels) = {
            let g = obj.lock();
            let matched = g
                .members()
                .filter_map(|(slot, unique)| {
                    let full = g.group_tags.merge(unique);
                    let ok = selectors
                        .iter()
                        .all(|sel| full.get(&sel.key).is_some_and(|v| sel.matches_value(v)));
                    ok.then(|| (slot, full))
                })
                .collect();
            (matched, g.group_tags.clone())
        };
        let _ = group_tags;
        if matched.is_empty() {
            return Ok(out);
        }
        let mut mergers: Vec<SampleMerger> = matched
            .iter()
            .map(|_| SampleMerger::new(start, end))
            .collect();
        for (_, chunk) in chunks {
            let dec = nullxor::GroupChunkDecoder::new(chunk)?;
            let ts = dec.decode_timestamps()?;
            for (mi, (slot, _)) in matched.iter().enumerate() {
                if (*slot as usize) < dec.columns() {
                    let col = dec.decode_column(*slot as usize)?;
                    for (t, v) in ts.iter().zip(col) {
                        if let Some(v) = v {
                            mergers[mi].offer(*t, v);
                        }
                    }
                }
            }
        }
        {
            let g = obj.lock();
            for (mi, (slot, _)) in matched.iter().enumerate() {
                for (t, v) in
                    g.head_samples_of(&self.group_ts_arena, &self.group_val_arena, *slot)?
                {
                    mergers[mi].offer(t, v);
                }
            }
        }
        for ((_, full), merger) in matched.into_iter().zip(mergers) {
            if !merger.is_empty() {
                out.push(SeriesResult {
                    id: gid,
                    labels: full,
                    samples: merger.finish(),
                });
            }
        }
        Ok(out)
    }

    // --- aggregation pushdown (§3.4 + ROADMAP item 4) --------------------------------

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
    /// * and any series whose chunks lack stats (pre-stats format) or
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
        self.query_aggregate_exec(selectors, kind, start, end, step_ms)
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
        let ctx = tu_obs::TraceContext::start("query_aggregate");
        let heat_before = tu_obs::heat::snapshot();
        let t0 = tu_obs::Stopwatch::start();
        let (out, matched) = self.query_aggregate_exec(selectors, kind, start, end, step_ms)?;
        let wall_ns = t0.elapsed_ns();
        let threads = self.query_threads.load(Ordering::Relaxed);
        let mut profile = QueryProfile::from_summary(&ctx.finish(), matched, threads, wall_ns);
        profile.fill_heat(&heat_before, &tu_obs::heat::snapshot());
        Ok((out, profile))
    }

    /// Shared body of `query_aggregate`/`query_aggregate_profiled`: the
    /// same select, read plan, fan-out and sort as `query_exec`
    /// ([`TimeUnion::fan_out`]), folding instead of materializing.
    fn query_aggregate_exec(
        &self,
        selectors: &[Selector],
        kind: AggKind,
        start: Timestamp,
        end: Timestamp,
        step_ms: i64,
    ) -> Result<(QueryResult, usize)> {
        if step_ms <= 0 {
            return Err(Error::invalid("aggregation step must be positive"));
        }
        let spec = AggSpec {
            kind,
            start,
            end,
            step_ms,
        };
        self.fan_out(selectors, start, end, |id, chunks| {
            if is_group_id(id) {
                self.aggregate_group(id, selectors, chunks, spec)
            } else {
                self.aggregate_series(id, chunks, spec)
            }
        })
    }

    /// Whether a series' chunk set qualifies for pushdown: every chunk
    /// carries a stats footer, chunk time ranges are strictly disjoint
    /// and ascending, and head samples in range lie strictly after every
    /// sealed chunk. Anything else (pre-stats chunks, out-of-order
    /// patch chunks, duplicate timestamps across sources) needs the
    /// merger's newest-wins semantics and falls back.
    fn pushdown_plan_ok(
        stats: &[Option<ChunkStats>],
        heads: &[&[(Timestamp, Value)]],
        start: Timestamp,
        end: Timestamp,
    ) -> bool {
        let mut prev_max: Option<Timestamp> = None;
        for s in stats {
            let Some(s) = s else { return false };
            if let Some(p) = prev_max {
                if s.min_ts <= p {
                    return false;
                }
            }
            prev_max = Some(s.max_ts);
        }
        if let Some(p) = prev_max {
            for head in heads {
                if head.iter().any(|&(t, _)| t >= start && t < end && t <= p) {
                    return false;
                }
            }
        }
        true
    }

    fn aggregate_series(
        &self,
        id: SeriesId,
        chunks: &[(Timestamp, &[u8])],
        spec: AggSpec,
    ) -> Result<Vec<SeriesResult>> {
        let AggSpec {
            kind,
            start,
            end,
            step_ms,
        } = spec;
        let Some(obj) = self.series.get(&id) else {
            return Ok(Vec::new());
        };
        let (head, labels) = {
            let o = obj.lock();
            (o.head_samples(&self.series_arena)?, o.labels.clone())
        };
        let stats: Vec<Option<ChunkStats>> = chunks
            .iter()
            .map(|(_, c)| agg::split_envelope(c).0)
            .collect();
        let head_pairs: Vec<(Timestamp, Value)> = head.iter().map(|s| (s.t, s.v)).collect();
        let samples = if Self::pushdown_plan_ok(&stats, &[&head_pairs], start, end) {
            self.fold_series_pushdown(chunks, &stats, &head, spec)?
        } else {
            // Reference fallback: materialize through the merger exactly
            // like `query_series`, then fold.
            let mut merger = SampleMerger::new(start, end);
            for (_, chunk) in chunks {
                merger.offer_all(gorilla::decompress_chunk(chunk)?);
            }
            merger.offer_all(head);
            aggregate_step(kind, &merger.finish(), start, end, step_ms)
        };
        if samples.is_empty() {
            return Ok(Vec::new());
        }
        Ok(vec![SeriesResult {
            id,
            labels,
            samples,
        }])
    }

    /// The per-series pushdown fold. Chunks arrive strictly ascending and
    /// disjoint (guaranteed by `pushdown_plan_ok`), so folding them in
    /// order visits samples in exactly the order the reference merger
    /// emits them.
    fn fold_series_pushdown(
        &self,
        chunks: &[(Timestamp, &[u8])],
        stats: &[Option<ChunkStats>],
        head: &[Sample],
        spec: AggSpec,
    ) -> Result<Vec<Sample>> {
        let AggSpec {
            kind,
            start,
            end,
            step_ms,
        } = spec;
        let mut win = StepWindows::new(start, end, step_ms);
        // Counter deltas accumulate locally and post once per series:
        // per-chunk `TracedCounter` increments would charge the active
        // trace context (a mutex + map update) thousands of times per
        // query.
        let (mut n_push, mut n_meta, mut n_skip) = (0u64, 0u64, 0u64);
        for ((_, chunk), st) in chunks.iter().zip(stats) {
            let s = st
                .as_ref()
                .ok_or_else(|| Error::invalid("pushdown fold requires chunk stats"))?;
            // Time-bound skip: nothing in [start, end).
            if s.max_ts < start || s.min_ts >= end {
                n_skip += 1;
                continue;
            }
            // Meta answering needs the chunk fully inside the query range
            // and one window.
            if s.min_ts >= start
                && s.max_ts < end
                && win.bucket_of(s.min_ts) == win.bucket_of(s.max_ts)
            {
                let bucket = win.bucket_of(s.min_ts);
                match win.buckets.last_mut() {
                    Some((b, acc)) if *b == bucket => match kind {
                        // Value-bound skip: the chunk cannot move this
                        // window's extremum, so don't even merge.
                        AggKind::Max
                            if agg::value_max(acc.max, s.max_v).to_bits() == acc.max.to_bits() =>
                        {
                            n_skip += 1;
                            continue;
                        }
                        AggKind::Min
                            if agg::value_min(acc.min, s.min_v).to_bits() == acc.min.to_bits() =>
                        {
                            n_skip += 1;
                            continue;
                        }
                        // Extremum/count merges are associative: exact
                        // into a non-empty window.
                        AggKind::Max | AggKind::Min | AggKind::Count => {
                            acc.merge_stats(s);
                            n_meta += 1;
                            continue;
                        }
                        // Sum/Avg into a non-empty window would reorder
                        // float additions; Rate needs first/last samples.
                        _ => {}
                    },
                    _ => {
                        // A fresh window: the footer answers everything
                        // except Rate bit-exactly (sum was folded at
                        // encode time in the same order).
                        if !matches!(kind, AggKind::Rate) {
                            let mut acc = AggState::new();
                            acc.merge_stats(s);
                            win.buckets.push((bucket, acc));
                            n_meta += 1;
                            continue;
                        }
                    }
                }
                // No meta answer, but every sample still lands in this
                // one window: fold straight into its accumulator,
                // skipping the per-sample range check and bucket math.
                n_push += 1;
                match win.buckets.last_mut() {
                    Some((b, acc)) if *b == bucket => {
                        gorilla::ChunkDecoder::new(chunk)?.for_each(|t, v| acc.observe(t, v))?;
                    }
                    _ => {
                        let mut acc = AggState::new();
                        gorilla::ChunkDecoder::new(chunk)?.for_each(|t, v| acc.observe(t, v))?;
                        win.buckets.push((bucket, acc));
                    }
                }
                continue;
            }
            // Stream-fold without materializing a sample vector.
            n_push += 1;
            gorilla::ChunkDecoder::new(chunk)?.for_each(|t, v| win.observe(t, v))?;
        }
        for s in head {
            win.observe(s.t, s.v);
        }
        if n_push > 0 {
            self.obs.agg_pushdown_chunks.add(n_push);
        }
        if n_meta > 0 {
            self.obs.agg_meta_answered.add(n_meta);
        }
        if n_skip > 0 {
            self.obs.agg_skipped_chunks.add(n_skip);
        }
        Ok(win.finish(kind))
    }

    fn aggregate_group(
        &self,
        gid: GroupId,
        selectors: &[Selector],
        chunks: &[(Timestamp, &[u8])],
        spec: AggSpec,
    ) -> Result<Vec<SeriesResult>> {
        let AggSpec {
            kind,
            start,
            end,
            step_ms,
        } = spec;
        let mut out = Vec::new();
        let Some(obj) = self.groups.get(&gid) else {
            return Ok(out);
        };
        let matched: Vec<(SeriesRef, Labels)> = {
            let g = obj.lock();
            g.members()
                .filter_map(|(slot, unique)| {
                    let full = g.group_tags.merge(unique);
                    let ok = selectors
                        .iter()
                        .all(|sel| full.get(&sel.key).is_some_and(|v| sel.matches_value(v)));
                    ok.then(|| (slot, full))
                })
                .collect()
        };
        if matched.is_empty() {
            return Ok(out);
        }
        let heads: Vec<Vec<(Timestamp, Value)>> = {
            let g = obj.lock();
            matched
                .iter()
                .map(|(slot, _)| {
                    g.head_samples_of(&self.group_ts_arena, &self.group_val_arena, *slot)
                })
                .collect::<Result<_>>()?
        };
        let stats: Vec<Option<ChunkStats>> = chunks
            .iter()
            .map(|(_, c)| agg::split_envelope(c).0)
            .collect();
        let head_slices: Vec<&[(Timestamp, Value)]> = heads.iter().map(|h| h.as_slice()).collect();
        if !Self::pushdown_plan_ok(&stats, &head_slices, start, end) {
            // Reference fallback: per-member mergers exactly like
            // `query_group`, then fold.
            let mut mergers: Vec<SampleMerger> = matched
                .iter()
                .map(|_| SampleMerger::new(start, end))
                .collect();
            for (_, chunk) in chunks {
                let dec = nullxor::GroupChunkDecoder::new(chunk)?;
                let ts = dec.decode_timestamps()?;
                for (mi, (slot, _)) in matched.iter().enumerate() {
                    if (*slot as usize) < dec.columns() {
                        let col = dec.decode_column(*slot as usize)?;
                        for (t, v) in ts.iter().zip(col) {
                            if let Some(v) = v {
                                mergers[mi].offer(*t, v);
                            }
                        }
                    }
                }
            }
            for (mi, head) in heads.iter().enumerate() {
                for &(t, v) in head {
                    mergers[mi].offer(t, v);
                }
            }
            for ((_, full), merger) in matched.into_iter().zip(mergers) {
                let samples = aggregate_step(kind, &merger.finish(), start, end, step_ms);
                if !samples.is_empty() {
                    out.push(SeriesResult {
                        id: gid,
                        labels: full,
                        samples,
                    });
                }
            }
            return Ok(out);
        }
        let mut wins: Vec<StepWindows> = matched
            .iter()
            .map(|_| StepWindows::new(start, end, step_ms))
            .collect();
        let mut ts_buf: Vec<Timestamp> = Vec::new();
        let (mut n_push, mut n_skip) = (0u64, 0u64);
        for ((_, chunk), st) in chunks.iter().zip(&stats) {
            let s = st
                .as_ref()
                .ok_or_else(|| Error::invalid("pushdown fold requires chunk stats"))?;
            if s.max_ts < start || s.min_ts >= end {
                n_skip += 1;
                continue;
            }
            // Whole-chunk value-bound skip for extremum queries: sound
            // only when the chunk sits inside the window every member is
            // currently filling and the group-wide bounds cannot beat
            // any member's running extremum.
            if matches!(kind, AggKind::Max | AggKind::Min) && s.min_ts >= start && s.max_ts < end {
                let bucket = wins[0].bucket_of(s.min_ts);
                let contained = bucket == wins[0].bucket_of(s.max_ts);
                let unbeatable = contained
                    && wins.iter().all(|w| {
                        matches!(w.buckets.last(), Some((b, acc)) if *b == bucket
                        && match kind {
                            AggKind::Max => {
                                agg::value_max(acc.max, s.max_v).to_bits()
                                    == acc.max.to_bits()
                            }
                            _ => {
                                agg::value_min(acc.min, s.min_v).to_bits()
                                    == acc.min.to_bits()
                            }
                        })
                    });
                if unbeatable {
                    n_skip += 1;
                    continue;
                }
            }
            // Group footers are group-wide, so per-member windows cannot
            // be meta-answered; decode the shared timestamps once and
            // stream-fold only the matched columns.
            let dec = nullxor::GroupChunkDecoder::new(chunk)?;
            dec.decode_timestamps_into(&mut ts_buf)?;
            n_push += 1;
            for (mi, (slot, _)) in matched.iter().enumerate() {
                if (*slot as usize) < dec.columns() {
                    let w = &mut wins[mi];
                    dec.for_each_in_column(*slot as usize, &ts_buf, |t, v| w.observe(t, v))?;
                }
            }
        }
        if n_push > 0 {
            self.obs.agg_pushdown_chunks.add(n_push);
        }
        if n_skip > 0 {
            self.obs.agg_skipped_chunks.add(n_skip);
        }
        for (mi, head) in heads.iter().enumerate() {
            for &(t, v) in head {
                wins[mi].observe(t, v);
            }
        }
        for ((_, full), w) in matched.into_iter().zip(wins) {
            let samples = w.finish(kind);
            if !samples.is_empty() {
                out.push(SeriesResult {
                    id: gid,
                    labels: full,
                    samples,
                });
            }
        }
        Ok(out)
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
        self.flush_chunk(stream, first_ts, last_ts, chunk, 0)
    }

    /// All values recorded for a tag key (label-values API).
    pub fn tag_values(&self, key: &str) -> Result<Vec<String>> {
        self.index.tag_values(key)
    }

    // --- observability ---------------------------------------------------------------

    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Every individual series' label set, sorted by label bytes (the
    /// `/series` and `/labels` endpoints of the self-monitoring plane).
    pub fn series_labels(&self) -> Vec<Labels> {
        let mut out: Vec<Labels> = self
            .series
            .values()
            .iter()
            .map(|obj| obj.lock().labels.clone())
            .collect();
        out.sort_by_cached_key(|l| l.to_bytes());
        out
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
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
        let objects_bytes: usize = self
            .series
            .values()
            .iter()
            .map(|o| o.lock().heap_bytes())
            .sum::<usize>()
            + self
                .groups
                .values()
                .iter()
                .map(|o| o.lock().heap_bytes())
                .sum::<usize>();
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
    /// Used by the parallel-ingest tests and the `ingest_scaling` bench to
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
            .series
            .entries()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let Some(obj) = self.series.get(&id) else {
                continue;
            };
            mix(&mut h, &id.to_le_bytes());
            let o = obj.lock();
            mix(&mut h, &o.labels.to_bytes());
            let head = o.head_samples(&self.series_arena)?;
            drop(o);
            for s in head {
                mix(&mut h, &s.t.to_le_bytes());
                mix(&mut h, &s.v.to_le_bytes());
            }
            for (start_ts, chunk) in self.tree.range_chunks(id, lo, hi)? {
                mix(&mut h, &start_ts.to_le_bytes());
                mix(&mut h, &chunk);
            }
        }
        let mut gids: Vec<GroupId> = self
            .groups
            .entries()
            .into_iter()
            .map(|(gid, _)| gid)
            .collect();
        gids.sort_unstable();
        for gid in gids {
            let Some(obj) = self.groups.get(&gid) else {
                continue;
            };
            mix(&mut h, &gid.to_le_bytes());
            let g = obj.lock();
            mix(&mut h, &g.group_tags.to_bytes());
            let mut heads = Vec::new();
            for (slot, unique) in g.members() {
                mix(&mut h, &slot.to_le_bytes());
                mix(&mut h, &unique.to_bytes());
                heads.push((
                    slot,
                    g.head_samples_of(&self.group_ts_arena, &self.group_val_arena, slot)?,
                ));
            }
            drop(g);
            for (slot, samples) in heads {
                mix(&mut h, &slot.to_le_bytes());
                for (t, v) in samples {
                    mix(&mut h, &t.to_le_bytes());
                    mix(&mut h, &v.to_le_bytes());
                }
            }
            for (start_ts, chunk) in self.tree.range_chunks(gid, lo, hi)? {
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

// --- WAL payload codecs ------------------------------------------------------

fn encode_group_row(t: Timestamp, entries: &[(SeriesRef, Value)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + entries.len() * 12);
    out.extend_from_slice(&t.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (slot, v) in entries {
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_group_row(payload: &[u8]) -> Option<(Timestamp, Vec<(SeriesRef, Value)>)> {
    if payload.len() < 12 {
        return None;
    }
    let t = i64::from_le_bytes(payload[..8].try_into().ok()?);
    let n = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    if payload.len() != 12 + n * 12 {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let off = 12 + i * 12;
        entries.push((
            u32::from_le_bytes(payload[off..off + 4].try_into().ok()?),
            f64::from_le_bytes(payload[off + 4..off + 12].try_into().ok()?),
        ));
    }
    Some((t, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut o = opts();
        o.serve_addr = Some("127.0.0.1:0".to_string());
        let e = Arc::new(TimeUnion::open(dir.path().join("db"), o).unwrap());
        let addr = e.serve_if_configured().unwrap().expect("configured");
        assert!(addr.port() != 0, "port 0 resolves to a real port");
        // Idempotent: a second call reuses the bound plane.
        assert_eq!(e.start_serving("127.0.0.1:0").unwrap(), addr);
        assert!(e.monitor().is_some());
        e.stop_serving();
        assert!(e.monitor().is_none());
        // And nothing serves when not configured.
        let dir2 = tempfile::tempdir().unwrap();
        let e2 = Arc::new(TimeUnion::open(dir2.path().join("db"), opts()).unwrap());
        assert!(e2.serve_if_configured().unwrap().is_none());
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

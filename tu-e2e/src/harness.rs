//! One workload, one pass through the phase skeleton:
//!
//! setup → ingest → (crash image) → drain → reopen + verify → warm queries
//! → cold queries → retention → (traced run only) layer probes.
//!
//! Every workload runs exactly this code; workloads differ only in the
//! inputs they generate. End-to-end metrics are computed the same way in
//! traced and untraced runs but are only *reported* from untraced ones.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tu_bench::{BenchConfig, Measured};
use tu_cloud::cost::LatencyMode;
use tu_cloud::pricing::{request_cost_usd, Tier};
use tu_common::alloc;
use tu_common::clock::SimClock;
use tu_common::{Error, Result};
use tu_core::engine::{Options, TimeUnion};
use tu_index::matcher::Matcher;

use crate::json::Json;
use crate::probes;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::tracer::{Counts, Tracer};
use crate::workload::{self, run_query, Digest, Eng, Query, Scale, Step, Workload, PATTERNS};

/// Engine worker widths, set explicitly (this box has two cores).
pub const THREADS: usize = 2;
/// Smaller than what the devops workloads leave on the slow tier, larger
/// than the warm query mix's working set.
pub const BLOCK_CACHE_BYTES: usize = 8 << 20;
/// Repetitions, within one run, of everything that is a single short
/// operation: the write side (setup, ingest, drain, retention) on fresh
/// engines and the crash-image reopen. Medians are reported.
const REPS: usize = 3;
/// Upper limit on warm passes however long `--seconds` is.
const MAX_WARM_PASSES: usize = 64;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Measured time budget: ingest, reopen, cold queries and retention are
    /// fixed work; warm passes repeat until the budget is used.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory; the run creates and removes its own subdirectory.
    pub dir: PathBuf,
    /// Self-test: corrupt one expectation so the run must report a failure.
    pub wrong_oracle: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Facts about the run that are not metrics: sizes, digest, phases.
    pub info: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The fixed engine configuration every workload runs under.
pub fn engine_options(retention_ms: i64, clock: &SimClock) -> Options {
    let cfg = BenchConfig {
        block_cache_bytes: BLOCK_CACHE_BYTES,
        ..BenchConfig::default()
    };
    let mut o = cfg.tu_options();
    o.latency = LatencyMode::Virtual;
    o.ingest_threads = THREADS;
    o.query_threads = THREADS;
    o.tree.flush_threads = THREADS;
    o.inline_maintenance = true;
    o.retention_ms = Some(retention_ms);
    o.clock = Arc::new(clock.clone());
    o
}

/// The conditions a result was measured under, echoed into every output
/// so two files can be checked for like-for-like.
pub fn conditions(scale: Scale) -> Json {
    let o = engine_options(0, &SimClock::new(0));
    let n = |v: usize| Json::Num(v as f64);
    Json::obj([
        ("loop", Json::str("closed, one client thread")),
        (
            "nproc",
            n(std::thread::available_parallelism().map_or(1, |p| p.get())),
        ),
        ("ingest_threads", n(o.ingest_threads)),
        ("query_threads", n(o.query_threads)),
        ("flush_threads", n(o.tree.flush_threads)),
        ("latency_mode", Json::str("virtual")),
        ("inline_maintenance", Json::Bool(o.inline_maintenance)),
        ("chunk_samples", n(o.chunk_samples)),
        ("memtable_bytes", n(o.tree.memtable_bytes)),
        ("max_sstable_bytes", n(o.tree.max_sstable_bytes)),
        ("block_cache_bytes", n(o.tree.block_cache_bytes)),
        ("l0_partition_ms", n(o.tree.l0_partition_ms as usize)),
        ("l2_partition_ms", n(o.tree.l2_partition_ms as usize)),
        (
            "flush_policy",
            Json::str("a step is acknowledged after its WAL group-commit wave"),
        ),
        (
            "allocator",
            Json::str("tu_common::alloc::CountingAllocator"),
        ),
        (
            "scale",
            Json::str(if scale.quick { "quick" } else { "full" }),
        ),
        ("git_commit", Json::str(git_commit())),
    ])
}

/// The checked-out commit, read from `.git` without spawning anything;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Removes every `TU_*` variable: the engine lets the environment override
/// `Options`, and a stray override would silently change what is measured.
pub fn scrub_env() {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TU_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
}

#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn query(&mut self, phase: &str, q: &Query, got: &Result<Digest>, want: Digest) {
        self.op(got.as_ref().is_ok_and(|d| *d == want), || {
            let selectors: Vec<String> = q
                .selectors
                .iter()
                .map(|s| match &s.matcher {
                    Matcher::Exact(v) => format!("{}={v}", s.key),
                    Matcher::Regex(r) => format!("{}=~{}", s.key, r.as_str()),
                })
                .collect();
            format!(
                "{phase}: {}{} {{{}}} [{}, {}) returned {got:?}, the generator holds {want:?}",
                PATTERNS[q.pattern],
                if q.agg { " max/5min" } else { "" },
                selectors.join(","),
                q.start,
                q.end
            )
        });
    }
}

struct Phase {
    name: &'static str,
    wall: Duration,
    counts: Counts,
    /// Allocator high-water mark when the phase ended.
    heap_peak: usize,
}

/// Runs `f` as a named phase: a span when traced, and a row (wall time and
/// count deltas) in the run's phase table either way.
fn phase<R>(
    phases: &mut Vec<Phase>,
    tracer: Option<&Tracer>,
    name: &'static str,
    tu: Option<&TimeUnion>,
    f: impl FnOnce() -> R,
) -> R {
    let env = tu.map(|t| t.storage());
    let before = env.map(Counts::read);
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, 0, env, f),
        None => f(),
    };
    phases.push(Phase {
        name,
        wall: t0.elapsed(),
        heap_peak: alloc::peak_bytes(),
        counts: match (env, before) {
            (Some(e), Some(b)) => Counts::read(e).since(&b),
            _ => Counts::default(),
        },
    });
    out
}

fn fastest(seconds: impl Iterator<Item = f64>) -> f64 {
    seconds.fold(f64::INFINITY, f64::min)
}

fn open_engine(
    tracer: Option<&Tracer>,
    dir: &Path,
    opts: Options,
) -> Result<(TimeUnion, Measured)> {
    let t0 = Instant::now();
    let open = || TimeUnion::open(dir, opts);
    let tu = match tracer {
        Some(t) => t.span("open", 0, None, open),
        None => open(),
    }?;
    // The engine owns a fresh cost clock, so its reading is what `open`
    // itself was charged.
    let cost = Measured {
        wall: t0.elapsed(),
        storage_ns: tu.storage().clock.virtual_ns(),
    };
    Ok((tu, cost))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Latencies of one query phase: per query of the list, the fastest of
/// its executions. Interference from the machine only ever adds time, so
/// the minimum over a query's repetitions is its steadiest estimate;
/// percentiles are then taken over the queries.
#[derive(Default)]
struct Latencies {
    /// By position in the query list: (pattern, modelled ms).
    best: Vec<(usize, f64)>,
    executions: usize,
}

impl Latencies {
    fn push(&mut self, i: usize, q: &Query, cost: Measured) {
        if self.best.len() <= i {
            self.best.resize(i + 1, (q.pattern, f64::INFINITY));
        }
        self.best[i] = (q.pattern, self.best[i].1.min(cost.total_ms()));
        self.executions += 1;
    }

    fn sorted(&self, pattern: Option<usize>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .best
            .iter()
            .filter(|(p, _)| pattern.is_none_or(|want| *p == want))
            .map(|(_, ms)| *ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Modelled seconds one pass over the list takes at each query's best.
    fn pass_s(&self) -> f64 {
        self.best.iter().map(|(_, ms)| ms / 1e3).sum()
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult> {
    let tracer = cfg.trace.then(|| Tracer::new(cfg.seed));
    let run_dir = cfg.dir.join(format!(
        "{}-{}-{}",
        cfg.workload,
        cfg.seed,
        std::process::id()
    ));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)?;
    }
    std::fs::create_dir_all(&run_dir)?;
    let result = match &tracer {
        Some(t) => t.span("run", 0, None, || lifecycle(cfg, Some(t), &run_dir)),
        None => lifecycle(cfg, None, &run_dir),
    };
    std::fs::remove_dir_all(&run_dir)?;
    let mut result = result?;
    if let Some(t) = &tracer {
        let path = cfg.dir.join(format!("trace-{}.jsonl", cfg.workload));
        t.write_jsonl(&path)?;
        if let Json::Obj(info) = &mut result.info {
            info.push(("span_file".into(), Json::str(path.display().to_string())));
            info.push(("spans".into(), Json::Num(t.span_count() as f64)));
        }
    }
    Ok(result)
}

/// What every phase writes to: the verdicts, the phase table, and the
/// time spent (inside the span recorder, inside the traced calls).
#[derive(Default)]
struct Log {
    check: Checker,
    phases: Vec<Phase>,
    traced_ns: (f64, f64),
}

/// One engine after setup and measured ingest.
struct Loaded {
    wl: Box<dyn Workload>,
    clock: SimClock,
    tu: TimeUnion,
    data: PathBuf,
    setup_s: f64,
    preloaded: u64,
    steps: Vec<Step>,
    before_ingest: Counts,
    obs_before_ingest: Option<tu_obs::MetricsSnapshot>,
}

impl Loaded {
    fn ingested(&self) -> u64 {
        self.steps.iter().map(|s| s.samples).sum()
    }

    fn ingest_wall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.cost.wall.as_secs_f64()).sum()
    }

    /// Wall plus modelled storage time inside the ingest calls.
    fn ingest_modelled_s(&self) -> f64 {
        self.steps.iter().map(|s| s.cost.total_secs()).sum()
    }
}

/// Setup (input generation, open, pre-created series / preload) and the
/// measured ingest, on a fresh engine under `run_dir/data<rep>`.
fn load(
    cfg: &RunConfig,
    tracer: Option<&Tracer>,
    run_dir: &Path,
    rep: usize,
    log: &mut Log,
) -> Result<Loaded> {
    let data = run_dir.join(format!("data{rep}"));
    let t0 = Instant::now();
    let (mut wl, clock, tu, preloaded) =
        phase(&mut log.phases, tracer, "setup", None, || -> Result<_> {
            let mut wl = workload::build(&cfg.workload, cfg.seed, cfg.scale)
                .ok_or_else(|| Error::invalid(format!("unknown workload {}", cfg.workload)))?;
            let clock = SimClock::new(0);
            let (tu, _) = open_engine(tracer, &data, engine_options(wl.retention_ms(), &clock))?;
            let preloaded = wl.setup(&Eng { tu: &tu, tracer })?;
            Ok((wl, clock, tu, preloaded))
        })?;
    let setup_s = t0.elapsed().as_secs_f64();

    let obs_before_ingest = tracer.map(|_| tu_obs::global().snapshot());
    let before_ingest = Counts::read(tu.storage());
    if let Some(t) = tracer {
        t.take_overhead_ns();
    }
    let mut steps: Vec<Step> = Vec::with_capacity(wl.ingest_steps());
    phase(&mut log.phases, tracer, "ingest", Some(&tu), || {
        let eng = Eng { tu: &tu, tracer };
        for i in 0..wl.ingest_steps() {
            match wl.ingest_step(&eng, i) {
                Ok(step) => {
                    log.check.op(true, String::new);
                    steps.push(step);
                }
                Err(e) => log.check.op(false, || format!("ingest step {i}: {e}")),
            }
        }
    });
    let loaded = Loaded {
        wl,
        clock,
        tu,
        data,
        setup_s,
        preloaded,
        steps,
        before_ingest,
        obs_before_ingest,
    };
    log.traced_ns.0 += tracer.map_or(0, |t| t.take_overhead_ns()) as f64;
    log.traced_ns.1 += loaded.ingest_wall_s() * 1e9;
    Ok(loaded)
}

/// `flush_all` + `sync`: everything acknowledged reaches its terminal tier.
fn drain(e: &Loaded, tracer: Option<&Tracer>, log: &mut Log) {
    let eng = Eng { tu: &e.tu, tracer };
    phase(&mut log.phases, tracer, "drain", Some(&e.tu), || {
        let (flushed, _) = eng.call("flush_all", 0, |tu| tu.flush_all());
        log.check
            .op(flushed.is_ok(), || format!("flush_all: {flushed:?}"));
        let (synced, _) = eng.call("sync", 0, |tu| tu.sync());
        log.check.op(synced.is_ok(), || format!("sync: {synced:?}"));
    });
}

/// Jumps the clock to the end of the data, applies retention (returning
/// its modelled cost and what it removed) and checks what must remain.
fn retire(e: &Loaded, tracer: Option<&Tracer>, log: &mut Log) -> (Measured, (usize, usize)) {
    let eng = Eng { tu: &e.tu, tracer };
    e.clock.set(e.wl.end_ms());
    let mut retention = Measured::default();
    let mut removed = (0, 0);
    phase(&mut log.phases, tracer, "retention", Some(&e.tu), || {
        let (res, cost) = eng.call("apply_retention", 0, |tu| tu.apply_retention());
        retention = cost;
        log.check
            .op(res.is_ok(), || format!("apply_retention: {res:?}"));
        removed = res.unwrap_or_default();
        for (q, want) in e.wl.retention_checks() {
            let (got, _) = run_query(&eng, &q);
            log.check.query("after retention", &q, &got, want);
        }
    });
    (retention, removed)
}

fn lifecycle(cfg: &RunConfig, tracer: Option<&Tracer>, run_dir: &Path) -> Result<RunResult> {
    let mut log = Log::default();
    alloc::reset_peak();
    let measured_from = Instant::now();

    // --- write side, REPS times on fresh engines ----------------------------------
    // A pass of ingest is a second or two and retention a few milliseconds:
    // short enough for one scheduling hiccup to move them by a tenth. So
    // setup → ingest → drain → retention runs on REPS fresh engines and the
    // medians are reported; only the last engine also serves the read side.
    let mut setup_s = Vec::with_capacity(REPS);
    let mut ingest_rates = Vec::with_capacity(REPS);
    let mut ingest_wall_rates = Vec::with_capacity(REPS);
    let mut retention_s = Vec::with_capacity(REPS);
    let mut digest = String::new();
    let mut rep = 0;
    let e = loop {
        let e = load(cfg, tracer, run_dir, rep, &mut log)?;
        setup_s.push(e.setup_s);
        ingest_rates.push(e.ingested() as f64 / e.ingest_modelled_s());
        ingest_wall_rates.push(e.ingested() as f64 / e.ingest_wall_s());
        rep += 1;
        if rep == REPS {
            break e;
        }
        drain(&e, tracer, &mut log);
        if digest.is_empty() {
            // Every chunk and head sample after drain, on an engine the
            // read side never sees, so reading it all disturbs nothing.
            digest = e.tu.state_digest()?;
        }
        retention_s.push(retire(&e, tracer, &mut log).0.total_secs());
        let data = e.data.clone();
        drop(e);
        std::fs::remove_dir_all(data)?;
    };
    let (wl, tu, steps) = (&e.wl, &e.tu, &e.steps);
    let eng = Eng { tu, tracer };
    let env = tu.storage();
    let ingested = e.ingested();

    // --- crash image: the data directory as a kill -9 would leave it ------------
    let crash = |rep: usize| run_dir.join(format!("crash{rep}"));
    phase(&mut log.phases, tracer, "crash_image", None, || {
        (0..REPS).try_for_each(|rep| copy_dir(&e.data, &crash(rep)))
    })?;

    // --- drain -------------------------------------------------------------------
    drain(&e, tracer, &mut log);
    let written = Counts::read(env).since(&e.before_ingest);
    let obs_ingest = e
        .obs_before_ingest
        .as_ref()
        .map(|b| tu_obs::global().snapshot().since(b));
    let stored_bytes = env.block.used_bytes() + env.object.used_bytes();
    let slow_bytes = env.object.used_bytes();
    let total_samples = e.preloaded + ingested;
    let tree_after_drain = tu.tree_stats();
    let tables_after_drain = env.object.list_prefix("l2/").len()
        + env.block.list_prefix("l0/").len()
        + env.block.list_prefix("l1/").len();
    let memory = tu.memory_stats();
    let series_count = (tu.series_count() + tu.group_count()).max(1);

    // --- crash-image reopens, spread over the rest of the run ------------------------
    let replayed_records = match tracer {
        Some(_) => probes::wal_records(&crash(0))?,
        None => 0,
    };
    let mut reopens: Vec<Measured> = Vec::with_capacity(REPS);
    let mut lost_at_recovery = 0;
    // The second engine's heap is not the workload's: the peak is read
    // before each reopen and the tracker reset after it.
    let mut peak_heap = 0;
    let mut reopen = |log: &mut Log| -> Result<()> {
        let rep = reopens.len();
        peak_heap = peak_heap.max(alloc::peak_bytes());
        phase(&mut log.phases, tracer, "reopen", None, || -> Result<()> {
            let (reopened, cost) = open_engine(
                tracer,
                &crash(rep),
                engine_options(wl.retention_ms(), &SimClock::new(0)),
            )?;
            reopens.push(cost);
            if rep + 1 < REPS {
                return Ok(());
            }
            // The last copy is also verified: every acknowledged sample of
            // a seeded subset of series.
            let reopened_eng = Eng {
                tu: &reopened,
                tracer,
            };
            for (q, want) in wl.durability_checks(cfg.scale.durability_series()) {
                let (got, _) = run_query(&reopened_eng, &q);
                match &got {
                    Ok(d)
                        if wl.recovery_drops_samples()
                            && d.series == want.series
                            && d.samples <= want.samples =>
                    {
                        log.check.op(true, String::new);
                        lost_at_recovery += want.samples - d.samples;
                    }
                    _ => log.check.query("after reopen", &q, &got, want),
                }
            }
            Ok(())
        })?;
        std::fs::remove_dir_all(crash(rep))?;
        alloc::reset_peak();
        Ok(())
    };
    reopen(&mut log)?;

    // --- queries -----------------------------------------------------------------
    let queries = wl.queries();
    let mut expected: Vec<Digest> = (0..queries.len()).map(|i| wl.expected(i)).collect();
    if cfg.wrong_oracle {
        expected[0].samples += 1;
    }
    // Table handles, indexes and bloom filters load on first touch, and the
    // block cache starts empty: one unmeasured pass warms both. The warm
    // phase then runs with the cache kept, the cold phase after it clears
    // the cache before every query and so pays data blocks only.
    phase(&mut log.phases, tracer, "warm_up", Some(tu), || {
        for (q, want) in queries.iter().zip(&expected) {
            let (got, _) = run_query(&eng, q);
            log.check.query("warm-up pass", q, &got, *want);
        }
    });
    let mut warm = Latencies::default();
    let obs_before_warm = tracer.map(|_| tu_obs::global().snapshot());
    if let Some(t) = tracer {
        t.take_overhead_ns();
    }
    let deadline = measured_from + Duration::from_secs_f64(cfg.seconds);
    let mut warm_passes = 0;
    phase(&mut log.phases, tracer, "query_warm", Some(tu), || {
        while warm_passes < cfg.scale.warm_passes()
            || (Instant::now() < deadline && warm_passes < MAX_WARM_PASSES)
        {
            for (i, (q, want)) in queries.iter().zip(&expected).enumerate() {
                let (got, cost) = run_query(&eng, q);
                log.check.query("warm", q, &got, *want);
                warm.push(i, q, cost);
            }
            warm_passes += 1;
        }
    });
    let warm_wall = log.phases.last().expect("just pushed").wall;
    log.traced_ns.0 += tracer.map_or(0, |t| t.take_overhead_ns()) as f64;
    log.traced_ns.1 += warm_wall.as_nanos() as f64;
    let obs_warm = obs_before_warm.map(|b| tu_obs::global().snapshot().since(&b));
    reopen(&mut log)?;

    let mut cold = Latencies::default();
    let obs_before_cold = tracer.map(|_| tu_obs::global().snapshot());
    phase(&mut log.phases, tracer, "query_cold", Some(tu), || {
        for _ in 0..cfg.scale.cold_passes() {
            for (i, (q, want)) in queries.iter().zip(&expected).enumerate() {
                eng.call("clear_block_cache", 0, |tu| tu.clear_block_cache());
                let (got, cost) = run_query(&eng, q);
                log.check.query("cold", q, &got, *want);
                cold.push(i, q, cost);
            }
        }
    });
    let cold_counts = log.phases.last().expect("just pushed").counts;
    let obs_cold = obs_before_cold.map(|b| tu_obs::global().snapshot().since(&b));
    reopen(&mut log)?;

    // --- retention -----------------------------------------------------------------
    let (retention, removed) = retire(&e, tracer, &mut log);
    retention_s.push(retention.total_secs());
    let peak_heap = peak_heap.max(alloc::peak_bytes());

    // --- end-to-end metrics ------------------------------------------------------------
    let per_ksample = 1_000.0 / ingested.max(1) as f64;
    let cold_sorted = cold.sorted(None);
    let warm_sorted = warm.sorted(None);
    let usd = request_cost_usd(
        Tier::Object,
        written.slow.get_requests,
        written.slow.put_requests,
    ) + request_cost_usd(
        Tier::Block,
        written.fast.get_requests,
        written.fast.put_requests,
    );
    // Everything measured end to end. Those in `END_TO_END` are reported
    // by untraced runs and gated; the wall-clock ones this box cannot hold
    // steady are reported by traced runs among the per-layer metrics (and
    // kept in every run's `info`), ungated.
    let values = [
        ("setup_s", median(&setup_s)),
        (
            "ingest_samples_per_s",
            ingest_rates.iter().copied().fold(0.0, f64::max),
        ),
        (
            "ingest_storage_ms_per_ksample",
            written.virtual_ns as f64 / 1e6 * per_ksample,
        ),
        ("query_cold_p50_ms", percentile(&cold_sorted, 50.0)),
        ("query_cold_p99_ms", percentile(&cold_sorted, 99.0)),
        ("query_warm_p50_ms", percentile(&warm_sorted, 50.0)),
        ("query_warm_p99_ms", percentile(&warm_sorted, 99.0)),
        ("query_warm_qps", warm.best.len() as f64 / warm.pass_s()),
        (
            "reopen_s",
            fastest(reopens.iter().map(Measured::total_secs)),
        ),
        ("retention_s", fastest(retention_s.iter().copied())),
        (
            "bytes_stored_per_sample",
            stored_bytes as f64 / total_samples as f64,
        ),
        (
            "write_amp",
            written.bytes_written() as f64 / (16.0 * ingested.max(1) as f64),
        ),
        (
            "ingest_request_usd_per_gsample",
            usd * 1e9 / ingested.max(1) as f64,
        ),
        ("peak_heap_mib", peak_heap as f64 / (1 << 20) as f64),
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.into(),
            value: values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v),
            unit: m.unit,
        })
        .collect();

    // --- per-layer metrics (traced run) -----------------------------------------------
    let mut per_layer = Vec::new();
    let mut ledger = Json::Null;
    if let (Some(t), Some(obs_ingest), Some(obs_cold), Some(obs_warm)) =
        (tracer, obs_ingest, obs_cold, obs_warm)
    {
        let mut layer: Vec<(String, f64)> =
            values.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let mut put = |name: &str, v: f64| layer.push((name.to_string(), v));
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        // tu-core, from the spans around its public calls.
        let batches = t.totals("put_batch", "ingest");
        let puts = t.totals("put", "ingest");
        let rows = t.totals("put_group_fast", "ingest");
        let wal_syncs = t.totals("sync_wal", "ingest");
        put(
            "tu-core.put_batch.ns_per_sample",
            ratio(batches.ns as f64, batches.ops as f64),
        );
        put("tu-core.put_batch.max_ms", batches.max_ns as f64 / 1e6);
        let call_allocs = batches.counts.allocs
            + puts.counts.allocs
            + rows.counts.allocs
            + wal_syncs.counts.allocs;
        put(
            "tu-core.allocs_per_sample",
            ratio(
                call_allocs as f64,
                (batches.ops + puts.ops + rows.ops) as f64,
            ),
        );
        put(
            "tu-core.put_labels.ns_per_series",
            ratio(puts.ns as f64, puts.calls as f64),
        );
        put(
            "tu-core.put_group_fast.ns_per_row",
            ratio(rows.ns as f64, rows.calls as f64),
        );
        for stage in ["select", "fanout", "sort"] {
            let mean = obs_warm
                .histogram(&format!("span.core.query.{stage}.ns"))
                .and_then(|h| h.mean())
                .unwrap_or(0.0);
            put(&format!("tu-core.query_warm.{stage}_us"), mean / 1e3);
        }
        for (i, pattern) in PATTERNS.iter().enumerate() {
            put(
                &format!("tu-core.query.{pattern}.cold_p50_ms"),
                percentile(&cold.sorted(Some(i)), 50.0),
            );
            put(
                &format!("tu-core.query.{pattern}.warm_p50_ms"),
                percentile(&warm.sorted(Some(i)), 50.0),
            );
        }
        let agg_queries = t.totals("query_aggregate", "query_warm").calls as f64;
        for what in ["pushdown_chunks", "meta_answered", "skipped_chunks"] {
            let n = obs_warm
                .counter(&format!("core.query.agg.{what}"))
                .unwrap_or(0);
            put(&format!("tu-core.agg.{what}"), ratio(n as f64, agg_queries));
        }
        put("tu-core.open.replayed_records", replayed_records as f64);
        put(
            "tu-core.open.wall_s",
            fastest(reopens.iter().map(|r| r.wall.as_secs_f64())),
        );
        put(
            "tu-core.ingest.wall_samples_per_s",
            ingest_wall_rates.iter().copied().fold(0.0, f64::max),
        );
        put("tu-core.retention.partitions_removed", removed.0 as f64);
        put("tu-core.retention.objects_removed", removed.1 as f64);
        put(
            "tu-core.mem.objects_bytes_per_series",
            memory.objects_bytes as f64 / series_count as f64,
        );
        put(
            "tu-core.mem.postings_bytes_per_series",
            memory.postings_bytes as f64 / series_count as f64,
        );
        put("tu-mmap.page_cache_bytes", memory.page_cache_bytes as f64);

        // tu-lsm and tu-cloud, from deltas of public counters.
        let counter =
            |snap: &tu_obs::MetricsSnapshot, name: &str| snap.counter(name).unwrap_or(0) as f64;
        let busy_s = |name: &str| {
            obs_ingest
                .histogram(&format!("span.lsm.{name}.ns"))
                .map_or(0.0, |h| h.sum as f64 / 1e9)
        };
        let wal_records = counter(&obs_ingest, "lsm.wal.append_records");
        let wal_fsyncs = counter(&obs_ingest, "lsm.wal.group_commit.fsyncs");
        put("tu-lsm.wal.records", wal_records);
        put("tu-lsm.wal.fsyncs", wal_fsyncs);
        put(
            "tu-lsm.wal.bytes",
            counter(&obs_ingest, "lsm.wal.flushed_bytes"),
        );
        put(
            "tu-lsm.wal.records_per_fsync",
            ratio(wal_records, wal_fsyncs),
        );
        put("tu-lsm.tree.flush_busy_s", busy_s("flush"));
        put("tu-lsm.tree.compact_l0_l1_busy_s", busy_s("compact.l0_l1"));
        put("tu-lsm.tree.compact_l1_l2_busy_s", busy_s("compact.l1_l2"));
        put(
            "tu-lsm.tree.partitions",
            (tree_after_drain.l0_partitions
                + tree_after_drain.l1_partitions
                + tree_after_drain.l2_partitions) as f64,
        );
        put("tu-lsm.tree.tables", tables_after_drain as f64);
        let cold_queries = cold.executions as f64;
        put(
            "tu-lsm.sstable.block_loads_per_query",
            counter(&obs_cold, "lsm.sstable.block_loads") / cold_queries,
        );
        put(
            "tu-lsm.sstable.block_load_bytes_per_query",
            counter(&obs_cold, "lsm.sstable.block_load_bytes") / cold_queries,
        );
        let (hits, misses) = (
            counter(&obs_warm, "lsm.cache.hits"),
            counter(&obs_warm, "lsm.cache.misses"),
        );
        put("tu-lsm.cache.hit_rate", ratio(hits, hits + misses));
        put(
            "tu-lsm.cache.evictions",
            counter(&obs_warm, "lsm.cache.evictions"),
        );
        put(
            "tu-lsm.bloom.negative_rate",
            ratio(
                counter(&obs_cold, "lsm.bloom.negatives"),
                counter(&obs_cold, "lsm.bloom.checks"),
            ),
        );
        put(
            "tu-lsm.readahead.blocks_per_request",
            ratio(
                counter(&obs_cold, "lsm.readahead.coalesced_blocks"),
                counter(&obs_cold, "lsm.readahead.coalesced_requests"),
            ),
        );
        for (tier, stats) in [("fast", written.fast), ("slow", written.slow)] {
            put(
                &format!("tu-cloud.{tier}.put_requests"),
                stats.put_requests as f64,
            );
            put(
                &format!("tu-cloud.{tier}.get_requests"),
                stats.get_requests as f64,
            );
            put(
                &format!("tu-cloud.{tier}.bytes_written"),
                stats.bytes_written as f64,
            );
            put(
                &format!("tu-cloud.{tier}.bytes_read"),
                stats.bytes_read as f64,
            );
        }
        put("tu-cloud.virtual_s", written.virtual_ns as f64 / 1e9);
        put(
            "tu-cloud.slow.gets_per_cold_query",
            cold_counts.slow.get_requests as f64 / cold_queries,
        );
        put(
            "tu-cloud.slow.bytes_per_cold_query",
            cold_counts.slow.bytes_read as f64 / cold_queries,
        );
        put(
            "tu-cloud.slow.first_reads_per_cold_query",
            counter(&obs_cold, "cloud.object.first_reads") / cold_queries,
        );
        put(
            "bench.trace_overhead_pct",
            100.0 * log.traced_ns.0 / log.traced_ns.1,
        );

        // Layer probes: each layer's public API driven directly with this
        // workload's own labels, samples, chunks and blocks.
        let probe_dir = run_dir.join("probes");
        let probed = t.span("probe", 0, None, || {
            probes::run_all(t, wl.as_ref(), &probe_dir)
        })?;
        layer.extend(probed);

        per_layer = PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name.into(),
                value: layer
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(0.0, |(_, v)| *v),
                unit: m.unit,
            })
            .collect();
        ledger = probes::ingest_ledger(
            &per_layer,
            ingested,
            steps,
            wal_records,
            tree_after_drain.flushes,
        );
    }

    let info = Json::obj([
        ("samples_preloaded", Json::Num(e.preloaded as f64)),
        ("samples_ingested", Json::Num(ingested as f64)),
        ("series_or_groups", Json::Num(series_count as f64)),
        (
            "ingest_calls",
            Json::Num(steps.iter().map(|s| s.calls).sum::<u64>() as f64),
        ),
        ("cold_queries", Json::Num(cold.executions as f64)),
        ("warm_queries", Json::Num(warm.executions as f64)),
        ("warm_passes", Json::Num(warm_passes as f64)),
        ("slow_tier_bytes", Json::Num(slow_bytes as f64)),
        ("block_cache_bytes", Json::Num(BLOCK_CACHE_BYTES as f64)),
        ("state_digest", Json::str(digest)),
        (
            "samples_lost_at_recovery",
            Json::Num(lost_at_recovery as f64),
        ),
        (
            "ungated_timings",
            Json::obj(
                values
                    .iter()
                    .filter(|(n, _)| spec::end_to_end(n).is_none())
                    .map(|(n, v)| (*n, Json::Num(*v))),
            ),
        ),
        (
            "phases",
            Json::Arr(
                log.phases
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("wall_s", Json::Num(p.wall.as_secs_f64())),
                            ("virtual_s", Json::Num(p.counts.virtual_ns as f64 / 1e9)),
                            (
                                "heap_peak_mib",
                                Json::Num(p.heap_peak as f64 / (1 << 20) as f64),
                            ),
                            (
                                "self_s",
                                tracer.map_or(Json::Null, |t| {
                                    Json::Num(t.self_time_ns(p.name) as f64 / 1e9)
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ingest_ledger", ledger),
    ]);
    Ok(RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        traced: cfg.trace,
        attempted: log.check.attempted,
        failed: log.check.failed,
        failures: log.check.failures,
        end_to_end,
        per_layer,
        info,
    })
}

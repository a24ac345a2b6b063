//! DevOps performance monitoring: the paper's motivating workload.
//!
//! Ingests a TSBS DevOps fleet (each host's 101 metrics form one
//! timeseries group), then runs the Table 2 query patterns with MAX
//! aggregation — the shape of a Grafana dashboard over TimeUnion.
//!
//! Run with: `cargo run --release --example devops_monitoring`
//!
//! Pass `--serve <addr>` to watch the run live:
//! `curl http://<addr>/vitals` shows windowed ingest and cloud-request
//! rates while the fleet streams in.

use std::sync::Arc;

use timeunion::engine::{Options, TimeUnion};
use timeunion::model::Labels;
use timeunion::tsbs::{DevOpsGenerator, DevOpsOptions, QueryPattern};
use tu_core::query::{aggregate_step, AggKind};

/// Value of `--<flag> <v>` or `--<flag>=<v>`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix(&eq)
            .map(|v| v.to_string())
            .or_else(|| (a == flag).then(|| args.get(i + 1).cloned()).flatten())
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = tempfile::tempdir()?;
    let db = Arc::new(TimeUnion::open(dir.path().join("db"), Options::default())?);
    if let Some(addr) = flag_value(&args, "--serve") {
        let addr = db.start_serving(&addr)?;
        println!("live endpoints on http://{addr} — try /metrics /healthz /vitals");
    }

    // A small fleet: 20 hosts x 101 metrics, 2 hours at 30 s scrapes.
    let gen = DevOpsGenerator::new(DevOpsOptions {
        hosts: 20,
        start_ms: 0,
        interval_ms: 30_000,
        duration_ms: 2 * 3_600_000,
        seed: 2024,
    });
    println!(
        "ingesting {} hosts x {} metrics x {} scrapes = {} samples (grouped)",
        gen.options().hosts,
        gen.metric_names().len(),
        gen.steps(),
        gen.total_samples()
    );

    // First scrape via the slow path registers the group and its members;
    // subsequent scrapes use the fast path with the returned slots.
    let member_tags: Vec<Labels> = gen
        .metric_names()
        .iter()
        .map(|m| Labels::from_pairs([("metric", m.as_str())]))
        .collect();
    let mut handles = Vec::new();
    let t0 = tu_obs::Stopwatch::start();
    for host in 0..gen.options().hosts {
        let (gid, refs) = db.put_group(
            &gen.host_labels(host),
            &member_tags,
            gen.ts_of(0),
            &gen.host_row(host, 0),
        )?;
        handles.push((gid, refs));
    }
    for step in 1..gen.steps() {
        let t = gen.ts_of(step);
        for (host, (gid, refs)) in handles.iter().enumerate() {
            db.put_group_fast(*gid, refs, t, &gen.host_row(host, step))?;
        }
    }
    let ingest_s = t0.elapsed_secs_f64();
    println!(
        "ingested in {:.2}s ({:.0} samples/s)",
        ingest_s,
        gen.total_samples() as f64 / ingest_s
    );
    db.sync()?;

    // Dashboard queries: every Table 2 pattern, MAX per 5-minute window.
    for pattern in QueryPattern::table2() {
        let spec = pattern.spec(&gen, 3);
        let t0 = tu_obs::Stopwatch::start();
        let result = db.query(&spec.selectors, spec.start, spec.end)?;
        let elapsed_s = t0.elapsed_secs_f64();
        let windows: usize = result
            .iter()
            .map(|s| {
                aggregate_step(AggKind::Max, &s.samples, spec.start, spec.end, spec.step_ms).len()
            })
            .sum();
        println!(
            "{:10} -> {} series, {} aggregated windows, {:.2}ms",
            pattern.name(),
            result.len(),
            windows,
            elapsed_s * 1e3
        );
    }

    let stats = db.tree_stats();
    println!(
        "tree: {} L0 / {} L1 / {} L2 partitions, fast {} B, slow {} B",
        stats.l0_partitions,
        stats.l1_partitions,
        stats.l2_partitions,
        stats.fast_bytes,
        stats.slow_bytes
    );
    db.begin_shutdown();
    db.stop_serving();
    Ok(())
}

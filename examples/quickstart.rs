//! Quickstart: open a TimeUnion instance, insert individual timeseries
//! and a timeseries group, and query them back with tag selectors.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Optional exporter flags (used by CI to validate the formats):
//! `--trace-out <path>` records a flight-recorder timeline and writes it
//! as chrome://tracing JSON; `--prom-out <path>` writes the final metrics
//! snapshot in the Prometheus text exposition format.
//!
//! Live observability plane: `--serve <addr>` starts
//! the embedded HTTP endpoint — `curl http://<addr>/metrics` while the run
//! is live. `--serve-hold-ms <ms>` keeps the process serving that long
//! after the workload so a scraper (CI's smoke job) can probe it, then
//! exits cleanly.

use std::sync::Arc;

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::model::Labels;

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
    let trace_out = flag_value(&args, "--trace-out");
    let prom_out = flag_value(&args, "--prom-out");
    let hold_ms: u64 = flag_value(&args, "--serve-hold-ms")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0);
    if trace_out.is_some() {
        timeunion::obs::flight().enable(4096);
    }

    let dir = tempfile::tempdir()?;
    let db = Arc::new(TimeUnion::open(dir.path().join("db"), Options::default())?);
    // Port 0 works.
    if let Some(addr) = flag_value(&args, "--serve") {
        let addr = db.start_serving(&addr)?;
        println!("live endpoints on http://{addr} — try /metrics /healthz /vitals");
    }

    // --- individual timeseries ------------------------------------------------
    // Slow path: pass the tags; the engine returns the series ID.
    let cpu = Labels::from_pairs([("metric", "cpu_usage"), ("host", "web-1")]);
    let id = db.put(&cpu, 1_000, 12.5)?;
    // Fast path: insert by ID, skipping tag resolution (§3.4).
    for i in 2..=60 {
        db.put_by_id(id, i * 1_000, 12.5 + (i % 7) as f64)?;
    }

    // --- a timeseries group ----------------------------------------------------
    // All metrics of one host share their scrape timestamps; modelling them
    // as a group deduplicates the timestamp column (§3.1).
    let host_tags = Labels::from_pairs([("host", "web-2")]);
    let members = vec![
        Labels::from_pairs([("metric", "mem_used")]),
        Labels::from_pairs([("metric", "mem_free")]),
    ];
    let (gid, refs) = db.put_group(&host_tags, &members, 1_000, &[512.0, 1536.0])?;
    for i in 2..=60 {
        db.put_group_fast(
            gid,
            &refs,
            i * 1_000,
            &[512.0 + i as f64, 1536.0 - i as f64],
        )?;
    }

    // --- queries -----------------------------------------------------------------
    let res = db.query(&[Selector::exact("metric", "cpu_usage")], 0, 120_000)?;
    println!(
        "cpu_usage on {}: {} samples, first = {:?}",
        res[0].labels,
        res[0].samples.len(),
        res[0].samples.first()
    );

    // Regex selectors work like Prometheus `=~`.
    let res = db.query(&[Selector::regex("metric", "mem_.*")?], 0, 120_000)?;
    println!("mem_* matched {} series:", res.len());
    for series in &res {
        println!(
            "  {} -> {} samples, last = {:?}",
            series.labels,
            series.samples.len(),
            series.samples.last()
        );
    }

    // Selecting on the shared group tag returns every member.
    let res = db.query(&[Selector::exact("host", "web-2")], 0, 120_000)?;
    assert_eq!(res.len(), 2);

    // `query_profiled` runs the identical query under a trace context and
    // returns an "explain analyze" cost profile: per-stage timings and the
    // per-tier requests/bytes this one query charged (Eq. 4/6, but
    // denominated per operation instead of per process).
    let (res, profile) = db.query_profiled(&[Selector::exact("host", "web-2")], 0, 120_000)?;
    assert_eq!(res.len(), 2);
    println!();
    print!("{profile}");

    db.sync()?;
    println!(
        "done: {} series, {} groups, heap breakdown: {:?}",
        db.series_count(),
        db.group_count(),
        db.memory_stats()
    );

    // Every layer records counters and latency spans into a process-wide
    // registry (docs/OBSERVABILITY.md); dump what this run did.
    let snapshot = timeunion::obs::global().snapshot();
    println!("\n-------------------- metrics --------------------");
    print!("{snapshot}");

    if let Some(path) = &prom_out {
        let text = timeunion::obs::prometheus_text(&snapshot);
        // Round-trip through the format checker before writing, so CI
        // fails here rather than at scrape time.
        timeunion::obs::parse_prometheus_text(&text).map_err(std::io::Error::other)?;
        std::fs::write(path, text)?;
        println!("prometheus snapshot written to {path}");
    }
    if let Some(path) = &trace_out {
        let recorder = timeunion::obs::flight();
        let events = recorder.drain();
        recorder.disable();
        std::fs::write(path, timeunion::obs::chrome_trace_json(&events))?;
        println!("chrome trace written to {path} ({} events)", events.len());
    }

    if db.monitor().is_some() && hold_ms > 0 {
        println!("holding for {hold_ms} ms so the live endpoints can be scraped ...");
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    }
    db.begin_shutdown();
    db.stop_serving();
    Ok(())
}

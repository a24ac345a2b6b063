//! The figure/table reproduction harness: one subcommand per experiment
//! of the TimeUnion evaluation (see DESIGN.md §3 for the index).
//!
//! ```text
//! cargo run -p tu-bench --release --bin figures -- <experiment> [--quick]
//! cargo run -p tu-bench --release --bin figures -- all
//! ```
//!
//! Experiments: fig1a fig1b fig1c fig3 fig4 grouping-analysis
//! compaction-cost fig13 fig14 fig15 fig16 fig17 fig18 fig19 table3.
//!
//! Workloads are scaled down from the paper's (millions of series on AWS)
//! to laptop scale; EXPERIMENTS.md records paper-vs-measured shape checks.
//! `--quick` shrinks them further for smoke runs.
//!
//! Every run ends with a dump of the global metrics registry (request and
//! byte counters per tier, flush/compaction spans, cache hit rates — see
//! docs/OBSERVABILITY.md). `--metrics-json` emits it as JSON instead of
//! the aligned text table.
//!
//! The Prometheus and chrome-trace exporters and the live HTTP plane are
//! driven through the quickstart example (docs/OBSERVABILITY.md).

mod analysis;
mod fig1;
mod fig13;
mod fig14;
mod fig16;
mod fig18;
mod fig19;
mod fig3;
mod fig4;
mod table3;

use tu_common::Result;

/// Scale knobs shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Host counts for the sweep experiments (each host = 101 series).
    pub host_sweep: [usize; 3],
    /// Time span for the standard DevOps runs (hours).
    pub hours: i64,
    /// Sample interval for standard runs (seconds).
    pub interval_s: i64,
    /// Time span for the "big timeseries" run (hours).
    pub big_hours: i64,
}

impl Scale {
    fn normal() -> Self {
        Scale {
            host_sweep: [5, 10, 20],
            hours: 6,
            interval_s: 30,
            big_hours: 4,
        }
    }

    fn quick() -> Self {
        Scale {
            host_sweep: [2, 4, 8],
            hours: 2,
            interval_s: 60,
            big_hours: 1,
        }
    }
}

/// The experiment name plus the two flags.
struct Args {
    quick: bool,
    json: bool,
    cmd: String,
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        quick: false,
        json: false,
        cmd: "all".to_string(),
    };
    for a in args {
        if a == "--quick" {
            out.quick = true;
        } else if a == "--metrics-json" {
            out.json = true;
        } else if !a.starts_with("--") {
            out.cmd = a.clone();
        } else {
            eprintln!("unknown flag: {a}");
            std::process::exit(2);
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args);
    let scale = if args.quick {
        Scale::quick()
    } else {
        Scale::normal()
    };
    if let Err(e) = run(&args.cmd, scale) {
        eprintln!("experiment {} failed: {e}", args.cmd);
        std::process::exit(1);
    }
    // Dump everything the instrumented crates recorded during the run:
    // cloud request/byte totals (the Equation 4/6 inputs), LSM flush and
    // compaction spans, cache hit rates, engine ingest/query counters. See
    // docs/OBSERVABILITY.md for the metric catalog.
    let snapshot = tu_obs::global().snapshot();
    if args.json {
        println!("\n{}", snapshot.to_json());
    } else {
        println!("\n-------------------- metrics --------------------");
        print!("{snapshot}");
    }
}

fn run(cmd: &str, scale: Scale) -> Result<()> {
    match cmd {
        "fig1a" => fig1::fig1a(),
        "fig1b" => fig1::fig1b()?,
        "fig1c" => fig1::fig1c()?,
        "fig3" => fig3::run(scale)?,
        "fig4" => fig4::run(scale)?,
        "grouping-analysis" => analysis::grouping(scale)?,
        "compaction-cost" => analysis::compaction(scale)?,
        "fig13" => fig13::run(scale)?,
        "fig14" => fig14::run(scale, fig14::Variant::Hybrid)?,
        "fig15" => fig14::run_big(scale)?,
        "fig16" => fig16::run(scale)?,
        "fig17" => fig14::run(scale, fig14::Variant::EbsOnly)?,
        "fig18" => fig18::run(scale)?,
        "fig19" => fig19::run(scale)?,
        "table3" => table3::run(scale)?,
        "all" => {
            for c in [
                "fig1a",
                "fig1b",
                "fig1c",
                "fig3",
                "fig4",
                "grouping-analysis",
                "compaction-cost",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "table3",
            ] {
                println!("\n==================== {c} ====================");
                run(c, scale)?;
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
    Ok(())
}

//! `tu-e2e` command line. See `BENCHMARK.md` for the full description.
//!
//! ```text
//! tu-e2e --workload <name|all> --seed <n[,n..]> [--seconds <s>] [--trace [0|1]]
//!        [--repeat <n>] [--quick] [--out <file>] [--dir <scratch>]
//! tu-e2e --compare <parent.json> <change.json>
//! tu-e2e --benchmark-json        # the contents of /BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use tu_e2e::harness::{self, RunConfig};
use tu_e2e::json::Json;
use tu_e2e::report;
use tu_e2e::spec::{END_TO_END, PER_LAYER};
use tu_e2e::workload::{Scale, WORKLOADS};

#[global_allocator]
static ALLOC: tu_common::alloc::CountingAllocator = tu_common::alloc::CountingAllocator;

const USAGE: &str = "usage: tu-e2e --workload <name|all> --seed <n[,n..]> [--seconds <s>] \
[--trace [0|1]] [--repeat <n>] [--quick] [--out <file>] [--dir <scratch>]\n       \
tu-e2e --compare <parent.json> <change.json>\n       tu-e2e --benchmark-json";

struct Args {
    workloads: Vec<String>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    out: Option<PathBuf>,
    dir: PathBuf,
    wrong_oracle: bool,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seeds: vec![1],
        seconds: 12.0,
        trace: false,
        repeat: 1,
        quick: false,
        out: None,
        dir: PathBuf::from("tu-e2e/.scratch"),
        wrong_oracle: false,
        compare: None,
        benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workloads = if name == "all" {
                    WORKLOADS.iter().map(|w| w.0.to_string()).collect()
                } else if WORKLOADS.iter().any(|w| w.0 == name) {
                    vec![name]
                } else {
                    return Err(format!("unknown workload {name}"));
                };
            }
            "--seed" => {
                a.seeds = value("a seed")?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => a.seconds = value("seconds")?.parse().map_err(|_| "bad --seconds")?,
            "--repeat" => a.repeat = value("a count")?.parse().map_err(|_| "bad --repeat")?,
            "--out" => a.out = Some(value("a file")?.into()),
            "--dir" => a.dir = value("a directory")?.into(),
            "--compare" => {
                a.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--benchmark-json" => a.benchmark_json = true,
            "--quick" => a.quick = true,
            "--wrong-oracle" => a.wrong_oracle = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match argv.next_if(|v| v == "0" || v == "1") {
                Some(v) => a.trace = v == "1",
                None => a.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_none() && !a.benchmark_json && a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if a.seeds.is_empty() || a.repeat == 0 {
        return Err("need at least one seed and one repetition".into());
    }
    Ok(a)
}

/// `/BENCHMARK.json`, generated from the tables in `spec` and `workload`
/// so the contract file cannot drift from what the binary reports.
fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "tu-e2e/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["tu-e2e"])),
        ("run_seconds", Json::Num(12.0)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn compare(parent: &PathBuf, change: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, any_worse) = report::compare(&load(parent)?, &load(change)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn run(a: &Args) -> Result<bool, String> {
    harness::scrub_env();
    let scale = Scale { quick: a.quick };
    let conditions = harness::conditions(scale);
    println!("conditions {}", conditions.render());
    let mut runs: Vec<Json> = Vec::new();
    let mut last = None;
    let mut all_correct = true;
    for set in 0..a.repeat {
        // Rotate the order per set so no workload always runs first (cold
        // caches) or last (a warm, fragmented heap).
        let mut order = a.workloads.clone();
        let shift = set % order.len();
        order.rotate_left(shift);
        for workload in order {
            let result = harness::run(&RunConfig {
                workload,
                seed: a.seeds[set % a.seeds.len()],
                seconds: a.seconds,
                trace: a.trace,
                scale,
                dir: a.dir.clone(),
                wrong_oracle: a.wrong_oracle,
            })
            .map_err(|e| e.to_string())?;
            report::print_run(&result);
            all_correct &= result.correct();
            runs.push(report::run_json(&result));
            last = Some(result);
        }
    }
    let summary = report::summarize(&runs);
    if a.repeat > 1 {
        report::print_summary(&summary);
    }
    for mismatch in report::digest_mismatches(&runs) {
        println!("STATE DIGEST MISMATCH {mismatch}");
        all_correct = false;
    }
    if let Some(out) = &a.out {
        let file = Json::obj([
            ("schema", Json::str(report::SCHEMA)),
            ("conditions", conditions),
            (
                "seeds",
                Json::Arr(a.seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("summary", summary),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(out, file.pretty(3)).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    // A single run ends with the one-line result a driver parses.
    if let (1, 1, Some(result)) = (a.repeat, a.workloads.len(), &last) {
        println!("{}", report::contract_line(result));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| {
        if a.benchmark_json {
            print!("{}", benchmark_json().pretty(9));
            Ok(true)
        } else if let Some((parent, change)) = &a.compare {
            compare(parent, change)
        } else {
            run(&a)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tu-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

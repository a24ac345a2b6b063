//! Drives the real `tu-e2e` binary at the `--quick` scale and lints
//! `BENCHMARK.json` against the tables in `tu_e2e::spec` (whose own unit
//! tests check names, units, counts and the layer → metric/workload map).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tu_e2e::json::Json;
use tu_e2e::spec::{END_TO_END, PER_LAYER};
use tu_e2e::workload::WORKLOADS;

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tu_e2e(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tu-e2e"))
        .args(args)
        .args(["--quick", "--seconds", "0", "--dir"])
        .arg(dir)
        // The binary must scrub overrides like this one before it measures.
        .env("TU_INGEST_THREADS", "7")
        .output()
        .unwrap()
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(list: Option<&Json>) -> Vec<String> {
    list.and_then(Json::as_obj)
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn all_workloads_run_verify_and_report_every_end_to_end_metric() {
    let dir = scratch("all");
    let out_file = dir.join("out.json");
    let out = tu_e2e(
        &dir,
        &[
            "--workload",
            "all",
            "--seed",
            "3",
            "--out",
            out_file.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let file = load(&out_file);
    assert_eq!(file.get("schema").and_then(Json::as_str), Some("tu-e2e/1"));
    let conditions = file.get("conditions").expect("conditions");
    for key in [
        "nproc",
        "ingest_threads",
        "query_threads",
        "flush_threads",
        "block_cache_bytes",
        "memtable_bytes",
        "latency_mode",
        "git_commit",
        "scale",
    ] {
        assert!(conditions.get(key).is_some(), "conditions lack {key}");
    }
    assert_eq!(
        conditions.get("ingest_threads").and_then(Json::as_f64),
        Some(2.0)
    );
    let runs = file.get("runs").and_then(Json::as_arr).expect("runs");
    let ran: Vec<&str> = runs
        .iter()
        .filter_map(|r| r.get("workload").and_then(Json::as_str))
        .collect();
    assert_eq!(ran, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
    for run in runs {
        assert_eq!(
            run.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            run.render()
        );
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = run.get("metrics").expect("metrics");
        assert_eq!(
            names(Some(metrics)),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for m in END_TO_END {
            let got = metrics.get(m.name).unwrap();
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
            let v = got.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0 && v.is_finite(), "{} = {v}", m.name);
        }
        let digest = run
            .get("info")
            .and_then(|i| i.get("state_digest"))
            .and_then(Json::as_str);
        assert!(digest.is_some_and(|d| d.len() == 16), "{digest:?}");
    }
    // Every run removed its scratch data; only the result file remains.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, vec![std::ffi::OsString::from("out.json")]);
}

#[test]
fn a_single_run_ends_with_the_contract_line_and_a_traced_one_lists_every_layer_metric() {
    let dir = scratch("single");
    let out = tu_e2e(
        &dir,
        &["--workload", "devops_series", "--seed", "5", "--trace", "0"],
    );
    assert!(out.status.success());
    let line = last_line(&out);
    assert_eq!(
        names(Some(&line)),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        names(line.get("metrics")),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );

    let out = tu_e2e(
        &dir,
        &["--workload", "series_churn", "--seed", "5", "--trace", "1"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert_eq!(
        names(line.get("metrics")),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let value = |name: &str| {
        line.get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(value("tu-core.put_labels.ns_per_series") > 0.0);
    assert!(value("tu-index.add.ns_per_series") > 0.0);
    assert!(value("bench.trace_overhead_pct") > 0.0);
    // The span file: one JSON object per line, one root, children point at it.
    let spans = std::fs::read_to_string(dir.join("trace-series_churn.jsonl")).unwrap();
    let spans: Vec<Json> = spans.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("run"));
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.get("parent").and_then(Json::as_f64) == Some(0.0))
            .count(),
        1
    );
    for name in [
        "setup",
        "open",
        "ingest",
        "put",
        "put_batch",
        "drain",
        "flush_all",
        "sync",
        "query",
        "query_aggregate",
        "clear_block_cache",
        "apply_retention",
        "probe",
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
            "no {name} span"
        );
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    let dir = scratch("wrong");
    let out = tu_e2e(
        &dir,
        &[
            "--workload",
            "devops_group",
            "--seed",
            "5",
            "--wrong-oracle",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    // Unknown workloads and flags are usage errors, with no result line.
    let out = tu_e2e(&dir, &["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn repeat_summarises_and_compare_judges_two_files_of_one_commit() {
    let dir = scratch("repeat");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for file in [&a, &b] {
        let out = tu_e2e(
            &dir,
            &[
                "--workload",
                "devops_group",
                "--seed",
                "9",
                "--repeat",
                "3",
                "--out",
                file.to_str().unwrap(),
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let summary = load(&a);
    let row = summary
        .get("summary")
        .and_then(|s| s.get("devops_group"))
        .and_then(|w| w.get("write_amp"))
        .expect("a summary row per metric");
    assert_eq!(row.get("runs").and_then(Json::as_f64), Some(3.0));
    for key in ["median", "q1", "q3", "spread", "bound", "verdict"] {
        assert!(row.get(key).is_some(), "summary row lacks {key}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_tu-e2e"))
        .arg("--compare")
        .args([&a, &b])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    for m in END_TO_END {
        assert!(
            table.contains(m.name),
            "no verdict for {}:\n{table}",
            m.name
        );
    }
    // Count-based rows of one commit and one seed agree exactly.
    let verdict = |metric: &str| {
        table
            .lines()
            .find(|l| l.contains(metric))
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .to_string()
    };
    assert_eq!(verdict("write_amp"), "same");
    assert_eq!(verdict("bytes_stored_per_sample"), "same");
}

#[test]
fn benchmark_json_matches_the_spec_and_the_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 << 10);
    let b = Json::parse(&text).unwrap();
    assert_eq!(
        names(Some(&b)),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["tu-e2e"]);
    let command = strings("command");
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
    );
    assert!(command.contains(&"tu-e2e/Cargo.toml"));
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
    let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let listed: Vec<(String, String)> = workloads
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.0.to_string(), w.1.to_string()))
        .collect();
    assert_eq!(listed, ours);
    assert!(workloads
        .iter()
        .all(|w| names(Some(w)) == ["name", "why"] && field(w, "why").len() <= 200));

    let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, ours) in e2e.iter().zip(END_TO_END) {
        assert_eq!(names(Some(listed)), ["name", "unit", "better", "bound"]);
        assert_eq!(field(listed, "name"), ours.name);
        assert_eq!(field(listed, "unit"), ours.unit);
        assert_eq!(field(listed, "better"), ours.better.as_str());
        assert_eq!(
            listed.get("bound").and_then(Json::as_f64),
            Some(ours.bound),
            "{}",
            ours.name
        );
        assert!(ours.bound > 0.0 && ours.bound <= 0.25);
    }
    assert!(e2e.iter().any(|m| field(m, "name") == "setup_s"
        && field(m, "unit") == "s"
        && field(m, "better") == "lower"));

    let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), PER_LAYER.len());
    for (listed, ours) in layers.iter().zip(PER_LAYER) {
        assert_eq!(names(Some(listed)), ["name", "unit", "better"]);
        assert_eq!(field(listed, "name"), ours.name);
        assert_eq!(field(listed, "unit"), ours.unit);
        assert_eq!(field(listed, "better"), ours.better.as_str());
    }
}

//! Result files: what one run prints, how repeated runs are summarised
//! (median, quartiles, spread against the metric's bound), and how two
//! result files are compared row by row.

use std::collections::BTreeMap;

use crate::harness::{Metric, RunResult};
use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::quartiles;

pub const SCHEMA: &str = "tu-e2e/1";

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The metrics a run reports: per-layer ones when traced, end-to-end ones
/// otherwise (end-to-end numbers always come from untraced runs).
pub fn reported(r: &RunResult) -> &[Metric] {
    if r.traced {
        &r.per_layer
    } else {
        &r.end_to_end
    }
}

/// The one-line result a driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(r: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(reported(r))),
    ])
    .render()
}

/// Everything about one run, for the `--out` file.
pub fn run_json(r: &RunResult) -> Json {
    Json::obj([
        ("workload", Json::str(&r.workload)),
        ("seed", Json::Num(r.seed as f64)),
        ("traced", Json::Bool(r.traced)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "failed_ops_share",
            Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(r.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(reported(r))),
        ("info", r.info.clone()),
    ])
}

/// Every metric by name with its unit, then the run's verdict.
pub fn print_run(r: &RunResult) {
    println!(
        "== {} seed {} ({}) ==",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" }
    );
    for m in reported(r) {
        println!("  {:<48} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in r
        .info
        .get("phases")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let f = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  phase {:<14} wall {:>8.3} s  modelled storage {:>9.3} s  heap peak {:>8.1} MiB",
            p.get("name").and_then(Json::as_str).unwrap_or_default(),
            f("wall_s"),
            f("virtual_s"),
            f("heap_peak_mib")
        );
    }
    if let Some(d) = r.info.get("state_digest").and_then(Json::as_str) {
        println!("  state_digest {d}");
    }
    println!(
        "  attempted {} failed {} failed_ops_share {}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

/// `workload → metric → values`, in run order, from a result file's runs.
fn values_by_row(runs: &[Json]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut rows: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                rows.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    rows
}

/// Inter-quartile range as a share of the median; 0 below two runs.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, median, q3]) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Median, quartiles and spread per workload × metric; an end-to-end
/// metric whose spread exceeds its bound is flagged `wide`.
pub fn summarize(runs: &[Json]) -> Json {
    let mut by_workload: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    for ((workload, metric), values) in values_by_row(runs) {
        let [q1, median, q3] = quartiles(&values).unwrap_or([values[0]; 3]);
        let mut row = vec![
            ("runs".to_string(), Json::Num(values.len() as f64)),
            ("median".to_string(), Json::Num(median)),
            ("q1".to_string(), Json::Num(q1)),
            ("q3".to_string(), Json::Num(q3)),
            ("spread".to_string(), Json::Num(spread(&values))),
        ];
        if let Some(m) = spec::end_to_end(&metric) {
            row.push(("bound".into(), Json::Num(m.bound)));
            let wide = spread(&values) > m.bound;
            row.push((
                "verdict".into(),
                Json::str(if wide { "wide" } else { "ok" }),
            ));
        }
        if by_workload.last().is_none_or(|(w, _)| *w != workload) {
            by_workload.push((workload, Vec::new()));
        }
        by_workload
            .last_mut()
            .expect("just pushed")
            .1
            .push((metric, Json::Obj(row)));
    }
    Json::Obj(
        by_workload
            .into_iter()
            .map(|(w, rows)| (w, Json::Obj(rows)))
            .collect(),
    )
}

pub fn print_summary(summary: &Json) {
    for (workload, rows) in summary.as_obj().unwrap_or_default() {
        println!("== {workload}: median [q1 .. q3] spread (bound) ==");
        for (metric, row) in rows.as_obj().unwrap_or_default() {
            let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let verdict = match row.get("verdict").and_then(Json::as_str) {
                Some("wide") => format!("({:.0}%) WIDE", f("bound") * 100.0),
                Some(_) => format!("({:.0}%)", f("bound") * 100.0),
                None => String::new(),
            };
            println!(
                "  {:<48} {:>16.6} [{:.6} .. {:.6}] {:>6.2}% {verdict}",
                metric,
                f("median"),
                f("q1"),
                f("q3"),
                f("spread") * 100.0
            );
        }
    }
}

/// Digests of one workload and seed must agree across runs.
pub fn digest_mismatches(runs: &[Json]) -> Vec<String> {
    let mut seen: BTreeMap<(String, u64), String> = BTreeMap::new();
    let mut out = Vec::new();
    for run in runs {
        let key = (
            run.get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        );
        let digest = run
            .get("info")
            .and_then(|i| i.get("state_digest"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        match seen.get(&key) {
            Some(first) if *first != digest => {
                out.push(format!("{} seed {}: {first} vs {digest}", key.0, key.1))
            }
            Some(_) => {}
            None => {
                seen.insert(key, digest);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges change `b` against parent `a` on one end-to-end row: worse when
/// the median worsened by more than the bound; unresolved when either
/// side's spread is wider than the bound (unless every run of the change
/// beats every run of the parent); better when the median improved by
/// more than the parent's own spread.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (middle(a), middle(b)) else {
        return Verdict::Unresolved;
    };
    // Positive = the change is worse, as a share of the parent's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (mb - ma) / ma.abs();
    let wins_every_pair = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    if spread(a).max(spread(b)) > bound {
        return if wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > spread(a) && worsening < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn middle(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| q[1]),
    }
}

fn runs_of(file: &Json) -> Result<&[Json], String> {
    if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    file.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no runs".into())
}

/// Per-row verdicts of result file `b` (the change) against `a` (the
/// parent). Returns the printed table and whether any row is worse.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    // Everything but the commit must match for the rows to be comparable.
    let conditions = |f: &Json| -> Vec<(String, Json)> {
        let all = f
            .get("conditions")
            .and_then(Json::as_obj)
            .unwrap_or_default();
        all.iter()
            .filter(|(k, _)| k != "git_commit")
            .cloned()
            .collect()
    };
    if conditions(a) != conditions(b) {
        return Err("the two files were measured under different conditions".into());
    }
    let (rows_a, rows_b) = (values_by_row(runs_of(a)?), values_by_row(runs_of(b)?));
    let mut out = format!(
        "{:<16} {:<34} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), va) in &rows_a {
        let (Some(vb), Some(m)) = (
            rows_b.get(&(workload.clone(), metric.clone())),
            spec::end_to_end(metric),
        ) else {
            continue;
        };
        let verdict = judge(va, vb, m.better, m.bound);
        any_worse |= verdict == Verdict::Worse;
        let (ma, mb) = (middle(va).unwrap_or(0.0), middle(vb).unwrap_or(0.0));
        out.push_str(&format!(
            "{workload:<16} {metric:<34} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>5.0}%  {}\n",
            (mb - ma) / ma.abs() * 100.0,
            m.bound * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_bound_spread_and_direction() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |d: f64| parent.map(|v| v + d);
        assert_eq!(
            judge(&parent, &shift(0.1), Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            judge(&parent, &shift(8.0), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&parent, &shift(8.0), Better::Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            judge(&parent, &shift(-8.0), Better::Lower, 0.05),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved unless every pair agrees.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &shift(3.0), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &shift(-50.0), Better::Lower, 0.05),
            Verdict::Better
        );
    }

    fn file(values: &[f64]) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("conditions", Json::obj([("nproc", Json::Num(2.0))])),
            (
                "runs",
                Json::Arr(
                    values
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("workload", Json::str("devops_series")),
                                ("seed", Json::Num(1.0)),
                                ("info", Json::obj([("state_digest", Json::str("abc"))])),
                                (
                                    "metrics",
                                    Json::obj([(
                                        "write_amp",
                                        Json::obj([
                                            ("value", Json::Num(*v)),
                                            ("unit", Json::str("ratio")),
                                        ]),
                                    )]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn compare_flags_a_regression_and_summary_flags_wide_rows() {
        let (table, worse) = compare(&file(&[2.0, 2.0, 2.0]), &file(&[2.5, 2.5, 2.5])).unwrap();
        assert!(worse && table.contains("WORSE"), "{table}");
        let (_, worse) = compare(&file(&[2.0, 2.0, 2.0]), &file(&[2.0, 2.01, 2.0])).unwrap();
        assert!(!worse);
        let summary = summarize(runs_of(&file(&[1.0, 2.0, 3.0, 4.0])).unwrap());
        let row = summary
            .get("devops_series")
            .and_then(|w| w.get("write_amp"))
            .unwrap();
        assert_eq!(row.get("verdict").and_then(Json::as_str), Some("wide"));
        assert_eq!(row.get("median").and_then(Json::as_f64), Some(2.5));
        assert!(digest_mismatches(runs_of(&file(&[1.0, 1.0])).unwrap()).is_empty());
        assert!(compare(&file(&[1.0]), &Json::obj([("schema", Json::str("other"))])).is_err());
    }
}

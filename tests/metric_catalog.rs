//! Metric-catalog drift check: every statically named metric the crates
//! record must be documented in `docs/OBSERVABILITY.md`, and every metric
//! the catalog documents must still exist in the code. Without this the
//! catalog silently rots — a renamed counter keeps its stale doc row and a
//! new span never gets one.
//!
//! Code side: scans `crates/*/src/**/*.rs` (and the facade `src/`) for
//! `tu_obs::{counter,gauge,histogram,traced}("name")` and
//! `tu_obs::span("name")` (→ `span.name.ns`) call sites, skipping
//! anything after a `#[cfg(test)]` marker. `tu-obs` itself registers its
//! own metrics (the `obs.*` family: HTTP plane, event log, flight
//! recorder) through `crate::{counter,gauge,histogram}(…)`, so it is
//! scanned with those patterns instead. The dynamically named
//! `cloud.{tier}.*` family built with `format!` in `tu-cloud`'s cost
//! model is caught by a dedicated pattern and expanded over both tiers.
//!
//! Docs side: the first table cell of each catalog row; `<tier>` expands
//! to `block`/`object`, and dotless tokens (the `hits` / `misses` /
//! `evictions` shorthand) inherit the first token's prefix.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const TIERS: [&str; 2] = ["block", "object"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Adds `name` (expanding a `{tier}` placeholder) to the set.
fn add_name(set: &mut BTreeSet<String>, name: &str) {
    if name.contains("{tier}") {
        for tier in TIERS {
            set.insert(name.replace("{tier}", tier));
        }
    } else {
        set.insert(name.to_string());
    }
}

/// Every metric name recorded by non-test code in the workspace.
fn code_names(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    let mut obs_files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_dir() || !path.join("src").is_dir() {
            continue;
        }
        if path.ends_with("tu-obs") {
            rs_files(&path.join("src"), &mut obs_files);
        } else {
            rs_files(&path.join("src"), &mut files);
        }
    }
    rs_files(&root.join("src"), &mut files);
    assert!(files.len() > 10, "workspace scan looks broken: {files:?}");
    assert!(!obs_files.is_empty(), "tu-obs scan looks broken");

    // (prefix to search for, true if the extracted name is a span).
    let patterns: [(&str, bool); 6] = [
        ("tu_obs::counter(\"", false),
        ("tu_obs::gauge(\"", false),
        ("tu_obs::histogram(\"", false),
        ("tu_obs::traced(\"", false),
        ("tu_obs::traced(&format!(\"", false),
        ("tu_obs::span(\"", true),
    ];
    // tu-obs registers its own metrics via `crate::…` paths; doc examples
    // and the `tu_obs::…` form in its rustdoc use throwaway names, so only
    // the crate-internal form counts there.
    let obs_patterns: [(&str, bool); 3] = [
        ("crate::counter(\"", false),
        ("crate::gauge(\"", false),
        ("crate::histogram(\"", false),
    ];
    let mut names = BTreeSet::new();
    let scans = files
        .iter()
        .map(|f| (f, &patterns[..]))
        .chain(obs_files.iter().map(|f| (f, &obs_patterns[..])));
    for (file, patterns) in scans {
        let content = std::fs::read_to_string(file).unwrap();
        // Unit-test modules sit at the bottom of each file; their metric
        // names are throwaway and must not force catalog entries.
        let content = content
            .split("#[cfg(test)]")
            .next()
            .unwrap_or(&content)
            .to_string();
        for &(pattern, is_span) in patterns {
            for (pos, _) in content.match_indices(pattern) {
                let rest = &content[pos + pattern.len()..];
                let name = rest.split('"').next().unwrap();
                assert!(
                    !name.is_empty() && !name.contains('\n'),
                    "malformed metric name at {}: {name:?}",
                    file.display()
                );
                if is_span {
                    add_name(&mut names, &format!("span.{name}.ns"));
                } else {
                    add_name(&mut names, name);
                }
            }
        }
    }
    names
}

/// Every metric name documented in the OBSERVABILITY.md catalog tables.
/// Only the "## Metric catalog" section counts — the doc's other tables
/// (HTTP endpoints, health checks) catalogue different things.
fn doc_names(root: &Path) -> BTreeSet<String> {
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();
    let mut names = BTreeSet::new();
    let mut in_catalog = false;
    for line in doc.lines() {
        let line = line.trim();
        if let Some(heading) = line.strip_prefix("## ") {
            in_catalog = heading == "Metric catalog";
            continue;
        }
        if !in_catalog || !line.starts_with('|') {
            continue;
        }
        let Some(cell) = line.split('|').nth(1) else {
            continue;
        };
        // Backticked tokens of the first cell, e.g.
        // "`lsm.cache.hits` / `misses` / `evictions`".
        let tokens: Vec<&str> = cell
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|t| !t.is_empty())
            .collect();
        let Some(first) = tokens.first() else {
            continue; // header or separator row
        };
        if first.starts_with('-') || *first == "metric" {
            continue;
        }
        let prefix = first.rsplit_once('.').map(|(p, _)| p).unwrap_or(first);
        for token in &tokens {
            let full = if token.contains('.') {
                (*token).to_string()
            } else {
                format!("{prefix}.{token}")
            };
            add_name(&mut names, &full.replace("<tier>", "{tier}"));
        }
    }
    names
}

#[test]
fn catalog_matches_recorded_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = code_names(root);
    let docs = doc_names(root);

    // Sanity: both scans must keep finding the well-known anchors, so a
    // broken regex-free parser cannot pass vacuously.
    for anchor in [
        "cloud.block.get_requests",
        "core.ingest.samples",
        "span.lsm.flush.ns",
        "span.core.query.ns",
        "obs.http.requests",
        "obs.flight.dropped_events",
        // The capacity gauges `/costs` prices.
        "cloud.block.used_bytes",
        "cloud.object.used_bytes",
    ] {
        assert!(code.contains(anchor), "code scan lost {anchor}");
        assert!(docs.contains(anchor), "doc scan lost {anchor}");
    }

    let undocumented: Vec<&String> = code.difference(&docs).collect();
    let stale: Vec<&String> = docs.difference(&code).collect();
    assert!(
        undocumented.is_empty(),
        "metrics recorded in code but missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "metrics documented in docs/OBSERVABILITY.md but recorded nowhere: {stale:?}"
    );
}

/// Every HTTP path the live plane can serve: the built-in match arms of
/// `tu-obs`'s server plus every `Endpoint::new("/…")` extra registered
/// anywhere in the workspace (test code excluded).
fn served_paths(root: &Path) -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    // Built-ins: `"/path" => {` match arms in the request dispatcher.
    let serve = std::fs::read_to_string(root.join("crates/tu-obs/src/serve.rs")).unwrap();
    let serve = serve.split("#[cfg(test)]").next().unwrap().to_string();
    for line in serve.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"/") {
            if let Some((path, tail)) = rest.split_once('"') {
                if tail.trim_start().starts_with("=>") {
                    paths.insert(format!("/{path}"));
                }
            }
        }
    }
    // Extras: Endpoint::new("…") registrations in any crate.
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && path.join("src").is_dir() {
            rs_files(&path.join("src"), &mut files);
        }
    }
    rs_files(&root.join("src"), &mut files);
    for file in files {
        let content = std::fs::read_to_string(&file).unwrap();
        let content = content.split("#[cfg(test)]").next().unwrap().to_string();
        let pattern = "Endpoint::new(\"";
        for (pos, _) in content.match_indices(pattern) {
            let rest = &content[pos + pattern.len()..];
            let path = rest.split('"').next().unwrap();
            assert!(
                path.starts_with('/'),
                "endpoint path must be absolute in {}: {path:?}",
                file.display()
            );
            paths.insert(path.to_string());
        }
    }
    paths
}

/// Every path documented in the OBSERVABILITY.md "### Endpoints" table.
fn doc_paths(root: &Path) -> BTreeSet<String> {
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();
    let mut paths = BTreeSet::new();
    let mut in_endpoints = false;
    for line in doc.lines() {
        let line = line.trim();
        if let Some(heading) = line.strip_prefix("### ") {
            in_endpoints = heading == "Endpoints";
            continue;
        }
        if line.starts_with("## ") {
            in_endpoints = false;
            continue;
        }
        if !in_endpoints || !line.starts_with('|') {
            continue;
        }
        let Some(cell) = line.split('|').nth(1) else {
            continue;
        };
        let Some(token) = cell.split('`').nth(1) else {
            continue;
        };
        if token.starts_with('/') {
            paths.insert(token.to_string());
        }
    }
    paths
}

#[test]
fn endpoint_catalog_matches_served_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let served = served_paths(root);
    let docs = doc_paths(root);

    // Anchors so a broken scanner cannot pass vacuously.
    for anchor in ["/metrics", "/vitals", "/introspect/lsm", "/costs"] {
        assert!(served.contains(anchor), "code scan lost {anchor}");
        assert!(docs.contains(anchor), "doc scan lost {anchor}");
    }

    let undocumented: Vec<&String> = served.difference(&docs).collect();
    let stale: Vec<&String> = docs.difference(&served).collect();
    assert!(
        undocumented.is_empty(),
        "endpoints served but missing from the docs/OBSERVABILITY.md Endpoints table: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "endpoints documented but served nowhere: {stale:?}"
    );
}

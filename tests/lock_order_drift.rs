//! Concurrency-discipline drift check (same pattern as
//! `tests/metric_catalog.rs`): the three artifacts that encode the lock
//! hierarchy — the machine-read manifest `docs/LOCK_ORDER.md`, the static
//! pass in `tu-lint`, and the runtime witness classes in
//! `tu_common::lockdep` — must agree, and the rule documentation in
//! `docs/STATIC_ANALYSIS.md` must cover every registered rule. Without
//! this the manifest silently rots: a renamed field keeps its stale bind
//! row, a new witness class never gets a rank, and a new rule ships
//! undocumented.

use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every registered lint rule has its own `### `rule`` section in
/// `docs/STATIC_ANALYSIS.md`, so `--help` and the docs cannot diverge.
#[test]
fn every_rule_is_documented() {
    let doc = std::fs::read_to_string(root().join("docs/STATIC_ANALYSIS.md")).unwrap();
    let sections: BTreeSet<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("### `"))
        .filter_map(|l| l.strip_suffix('`'))
        .collect();
    assert!(
        sections.len() >= 5,
        "suspiciously few rule sections parsed from docs/STATIC_ANALYSIS.md: {sections:?}"
    );
    let undocumented: Vec<&&str> = tu_lint::ALL_RULES
        .iter()
        .filter(|r| !sections.contains(**r))
        .collect();
    assert!(
        undocumented.is_empty(),
        "rules registered in tu_lint::ALL_RULES but missing a \
         `### `<rule>`` section in docs/STATIC_ANALYSIS.md: {undocumented:?}"
    );
    let stale: Vec<&&str> = sections
        .iter()
        .filter(|s| !tu_lint::ALL_RULES.contains(*s))
        .collect();
    assert!(
        stale.is_empty(),
        "docs/STATIC_ANALYSIS.md documents rules that are not registered: {stale:?}"
    );
}

/// The checked-in manifest parses, and the copy embedded in the `tu-lint`
/// binary at compile time is the same document (a stale build would
/// enforce yesterday's hierarchy).
#[test]
fn manifest_parses_and_matches_embedded_copy() {
    let text = std::fs::read_to_string(root().join("docs/LOCK_ORDER.md")).unwrap();
    let parsed = tu_lint::Manifest::parse(&text).expect("docs/LOCK_ORDER.md must parse");
    let embedded = tu_lint::locks::embedded_manifest();
    assert_eq!(
        parsed.classes.len(),
        embedded.classes.len(),
        "embedded manifest is stale: rebuild tu-lint"
    );
    for (a, b) in parsed.classes.iter().zip(embedded.classes.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.rank, b.rank, "rank drift for {}", a.name);
    }
}

/// Manifest classes no witness class can carry: std's own stderr lock,
/// taken inside `eprintln!`, is not constructed by this workspace.
const UNWITNESSED: &[&str] = &["obs.log.stderr"];

/// The runtime witness classes (`tu_common::lockdep::all()`) and the
/// manifest's classes are the same set — apart from [`UNWITNESSED`] —
/// under the same names, ranks, and `multi` flags. The witness and the
/// static pass must enforce one hierarchy, not two.
#[test]
fn witness_classes_match_the_manifest() {
    let text = std::fs::read_to_string(root().join("docs/LOCK_ORDER.md")).unwrap();
    let manifest = tu_lint::Manifest::parse(&text).unwrap();
    assert!(
        tu_common::lockdep::all().len() >= 30,
        "suspiciously few witness classes"
    );
    for class in tu_common::lockdep::all() {
        let Some(def) = manifest.classes.iter().find(|c| c.name == class.name) else {
            panic!(
                "runtime witness class `{}` (rank {}) has no row in docs/LOCK_ORDER.md",
                class.name, class.rank
            );
        };
        assert_eq!(
            def.rank, class.rank,
            "rank mismatch for `{}`: manifest says {}, lockdep.rs says {}",
            class.name, def.rank, class.rank
        );
        assert_eq!(
            def.multi, class.multi,
            "multi-flag mismatch for `{}`",
            class.name
        );
    }
    let witness: BTreeSet<&str> = tu_common::lockdep::all().iter().map(|c| c.name).collect();
    let unwitnessed: Vec<&str> = manifest
        .classes
        .iter()
        .map(|c| c.name.as_str())
        .filter(|name| !witness.contains(name))
        .collect();
    assert_eq!(
        unwitnessed, UNWITNESSED,
        "docs/LOCK_ORDER.md classes with no runtime witness class"
    );
}

fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every runtime witness class guards at least one lock: some code outside
/// `lockdep.rs` constructs a lock with it (`::new(&lockdep::CLASS`, line
/// breaks ignored). A class nothing constructs checks nothing at runtime;
/// a lock checked only by the static pass keeps its manifest row and no
/// witness constant.
#[test]
fn every_witness_class_is_constructed() {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    rs_files(&root().join("src"), &mut files);
    let code: String = files
        .iter()
        .filter(|f| !f.ends_with("tu-obs/src/lockdep.rs"))
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect::<String>()
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let orphans: Vec<&str> = tu_common::lockdep::all()
        .iter()
        .map(|c| c.name)
        .filter(|name| {
            let ident = name.replace('.', "_").to_uppercase();
            let site = format!("::new(&lockdep::{ident}");
            !code
                .match_indices(&site)
                .any(|(i, _)| matches!(code.as_bytes().get(i + site.len()), Some(b',' | b')')))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "witness classes no lock is constructed with (delete the constant, keep \
         the manifest row if a static bind still needs it): {orphans:?}"
    );
}

/// Every lock class named in the manifest exists in the codebase: either
/// it is a runtime witness class, or each of its static binds points at a
/// real file that actually mentions the bound identifier. This is what
/// catches a field rename that leaves a dead bind row behind.
#[test]
fn every_manifest_class_exists_in_the_codebase() {
    let text = std::fs::read_to_string(root().join("docs/LOCK_ORDER.md")).unwrap();
    let manifest = tu_lint::Manifest::parse(&text).unwrap();
    let witness: BTreeSet<&str> = tu_common::lockdep::all().iter().map(|c| c.name).collect();

    for class in &manifest.classes {
        let witnessed = witness.contains(class.name.as_str());
        assert!(
            witnessed || !class.binds.is_empty(),
            "class `{}` has no binds and no runtime witness class: nothing enforces it",
            class.name
        );
        for bind in &class.binds {
            assert!(
                !bind.path.ends_with('/'),
                "prefix binds are checked per-file; `{}` uses one for `{}` — extend this \
                 test if a prefix bind is ever needed",
                class.name,
                bind.path
            );
            let path = root().join(&bind.path);
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "class `{}` binds {}::{} but the file is unreadable: {e}",
                    class.name, bind.path, bind.ident
                )
            });
            assert!(
                src.contains(&bind.ident),
                "class `{}` binds identifier `{}` in {}, but the file never mentions it \
                 (field renamed? update docs/LOCK_ORDER.md)",
                class.name,
                bind.ident,
                bind.path
            );
        }
    }
}

/// The static pass actually resolves classes: the lock graph over the
/// workspace is non-empty and every edge ascends in rank, re-deriving the
/// acyclicity argument from the shipped sources on every test run.
#[test]
fn workspace_lock_graph_is_nonempty_and_ascending() {
    let text = std::fs::read_to_string(root().join("docs/LOCK_ORDER.md")).unwrap();
    let manifest = tu_lint::Manifest::parse(&text).unwrap();
    let rank = |name: &str| {
        manifest
            .classes
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.rank)
            .unwrap_or_else(|| panic!("edge names unknown class `{name}`"))
    };
    let (_report, edges) =
        tu_lint::lint_workspace_with_edges(&tu_lint::workspace_root()).expect("workspace readable");
    assert!(
        edges.len() >= 10,
        "suspiciously sparse lock graph ({} edges); did classification break?",
        edges.len()
    );
    for e in &edges {
        assert!(
            rank(&e.from) < rank(&e.to) || (e.from == e.to && rank(&e.from) == rank(&e.to)),
            "descending lock-graph edge {} -> {} at {}:{}",
            e.from,
            e.to,
            e.file,
            e.line
        );
    }
}

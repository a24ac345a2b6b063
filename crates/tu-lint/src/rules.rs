//! The lint rules and the allow-directive machinery.
//!
//! Each rule protects an invariant of the TimeUnion reproduction:
//!
//! * **clock-discipline** — storage cost and retention decisions must flow
//!   through `tu_common::clock` / `tu_obs` timing so simulated-time runs
//!   (SimClock, the cost model's virtual clock) can never observe
//!   wall-clock. A stray `Instant::now()` or `SystemTime` in an engine
//!   crate silently corrupts the paper's cost crossovers (Eq. 3–6).
//! * **counter-discipline** — hot-path crates must charge metrics through
//!   `tu_obs::traced` (`TracedCounter`), never a raw registry counter, so
//!   every charge also lands in the active `TraceContext` and
//!   `query_profiled` attribution stays exact.
//! * **panic-discipline** — no `unwrap`/`expect`/`panic!` in non-test code
//!   of the storage crates; corruption and I/O failures must propagate as
//!   `tu_common::Error`, not abort a query thread.
//! * **print-discipline** — no `println!`/`eprintln!`/`dbg!` in non-test
//!   library code of the engine crates; diagnostics must go through the
//!   structured event log (`tu_obs::log`) or a returned error so they are
//!   leveled, rate-limited, and trace-correlated instead of raw stdio.
//! * **unsafe-audit** — every `unsafe` must carry a `// SAFETY:` comment
//!   justifying it.
//!
//! Any finding can be suppressed by a preceding
//! `// tu-lint: allow(<rule>): <reason>` comment, which consumes exactly
//! one following finding of that rule (same line or below).

use crate::lexer::{lex, Token, TokenKind};
use crate::report::Finding;

/// Crates where panic-discipline applies (non-test code).
pub const PANIC_CRATES: &[&str] = &["tu-cloud", "tu-lsm", "tu-core", "tu-mmap"];

/// Crates where metrics must go through `tu_obs::traced`.
pub const COUNTER_CRATES: &[&str] = &["tu-cloud", "tu-lsm", "tu-core", "tu-tsdb"];

/// Crates allowed to touch wall-clock time directly: the clock abstraction
/// itself, observability timing, benches, and this lint tool.
pub const CLOCK_ALLOW_CRATES: &[&str] = &["tu-obs", "tu-bench", "tu-lint"];

/// Crates where print-discipline applies: engine library code must emit
/// diagnostics through `tu_obs::log`, never raw stdio. Benches, examples,
/// the lint tool itself, and `tu-obs` (which owns the stderr sink) are
/// exempt by omission.
pub const PRINT_CRATES: &[&str] = &["tu-cloud", "tu-lsm", "tu-core", "tu-mmap", "tu-tsdb"];

/// Individual files allowed to touch wall-clock time.
pub const CLOCK_ALLOW_FILES: &[&str] = &["crates/tu-common/src/clock.rs"];

/// All rule names, for arg validation and docs drift checks.
pub const ALL_RULES: &[&str] = &[
    "clock-discipline",
    "condvar-discipline",
    "counter-discipline",
    "held-lock-io",
    "lock-order",
    "panic-discipline",
    "print-discipline",
    "unsafe-audit",
];

/// How far above an `unsafe` token its `// SAFETY:` comment may sit.
const SAFETY_COMMENT_MAX_DISTANCE_LINES: u32 = 5;

/// Lints one file's source. `rel_path` is workspace-relative and drives
/// crate scoping (`crates/<name>/…`); returns findings with allow
/// directives already applied (suppressed findings carry `allowed: true`),
/// plus the file's unused allow directives.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Finding>, Vec<AllowDirective>) {
    lint_source_with(
        rel_path,
        src,
        crate::locks::embedded_manifest(),
        &mut Vec::new(),
    )
}

/// [`lint_source`] against an explicit lock-order manifest, additionally
/// collecting the observed lock-nesting edges (for `--lock-graph` and the
/// concurrency fixtures).
pub fn lint_source_with(
    rel_path: &str,
    src: &str,
    manifest: &crate::locks::Manifest,
    edges: &mut Vec<crate::locks::Edge>,
) -> (Vec<Finding>, Vec<AllowDirective>) {
    let tokens = lex(src);
    let file = FileView::new(rel_path, src, &tokens);
    let mut raw = Vec::new();
    clock_discipline(&file, &mut raw);
    counter_discipline(&file, &mut raw);
    panic_discipline(&file, &mut raw);
    print_discipline(&file, &mut raw);
    unsafe_audit(&file, &mut raw);
    crate::locks::scan(&file, manifest, &mut raw, edges);
    raw.sort_by_key(|f| (f.line, f.rule));
    apply_allows(rel_path, raw, file.allows)
}

/// A parsed `// tu-lint: allow(<rule>)` comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    pub rule: String,
    pub line: u32,
    pub reason: Option<String>,
    pub used: bool,
}

/// Pre-computed per-file context shared by all rules.
pub(crate) struct FileView<'a> {
    pub(crate) src: &'a str,
    pub(crate) tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens (sequence matching
    /// skips comments so an interleaved comment can't break a match).
    pub(crate) code: Vec<usize>,
    pub(crate) crate_name: String,
    pub(crate) rel_path: String,
    /// File lives under a `tests/` or `benches/` directory.
    pub(crate) is_test_file: bool,
    /// `(start, end)` inclusive ranges over *code indices* covered by
    /// `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    allows: Vec<AllowDirective>,
}

impl<'a> FileView<'a> {
    fn new(rel_path: &str, src: &'a str, tokens: &'a [Token]) -> FileView<'a> {
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("timeunion")
            .to_string();
        let is_test_file = rel_path
            .split('/')
            .any(|part| part == "tests" || part == "benches");
        let mut view = FileView {
            src,
            tokens,
            code,
            crate_name,
            rel_path: rel_path.to_string(),
            is_test_file,
            test_regions: Vec::new(),
            allows: Vec::new(),
        };
        view.test_regions = view.find_test_regions();
        view.allows = view.find_allows();
        view
    }

    /// Text of the code token at code-index `k` (empty past the end).
    pub(crate) fn text(&self, k: usize) -> &str {
        match self.code.get(k) {
            Some(&i) => self.tokens[i].text(self.src),
            None => "",
        }
    }

    pub(crate) fn kind(&self, k: usize) -> Option<TokenKind> {
        self.code.get(k).map(|&i| self.tokens[i].kind)
    }

    pub(crate) fn line(&self, k: usize) -> u32 {
        self.code.get(k).map_or(0, |&i| self.tokens[i].line)
    }

    pub(crate) fn is_punct(&self, k: usize, b: u8) -> bool {
        self.kind(k) == Some(TokenKind::Punct(b))
    }

    pub(crate) fn is_ident(&self, k: usize, name: &str) -> bool {
        self.kind(k) == Some(TokenKind::Ident) && self.text(k) == name
    }

    pub(crate) fn in_test_region(&self, k: usize) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| start <= k && k <= end)
    }

    /// Scans for `#[test]` / `#[cfg(test)]`-gated items and returns the
    /// code-index ranges they cover (attribute through closing `}` or `;`).
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let mut k = 0usize;
        while k < self.code.len() {
            if !(self.is_punct(k, b'#') && self.is_punct(k + 1, b'[')) {
                k += 1;
                continue;
            }
            let close = self.matching_bracket(k + 1);
            if self.attr_gates_tests(k + 2, close) {
                let end = self.item_end_after_attrs(close + 1);
                regions.push((k, end));
                k = end + 1;
            } else {
                k = close + 1;
            }
        }
        regions
    }

    /// True when attribute content tokens `[start, end)` mean the item is
    /// compiled only for tests: `test`, `cfg(test)`, `cfg(all(test, …))`,
    /// `cfg(any(test, …))` — but not `cfg(not(test))` or `cfg_attr(…)`.
    fn attr_gates_tests(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        // Bare `#[test]` (possibly namespaced like `#[tokio::test]`).
        if self.is_ident(end - 1, "test") {
            return true;
        }
        if !self.is_ident(start, "cfg") {
            return false;
        }
        let mut saw_test = false;
        for k in start + 1..end {
            match self.text(k) {
                "not" | "cfg_attr" => return false,
                "test" => saw_test = true,
                _ => {}
            }
        }
        saw_test
    }

    /// Code index of the `]` matching the `[` at `open` (clamped to the
    /// last token on unbalanced input).
    fn matching_bracket(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < self.code.len() {
            if self.is_punct(k, b'[') {
                depth += 1;
            } else if self.is_punct(k, b']') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            k += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Given the code index just past a test-gating attribute, skips any
    /// further attributes and returns the code index of the item's end:
    /// the `}` matching its first top-level `{`, or a terminating `;`.
    fn item_end_after_attrs(&self, mut k: usize) -> usize {
        while self.is_punct(k, b'#') && self.is_punct(k + 1, b'[') {
            k = self.matching_bracket(k + 1) + 1;
        }
        let mut depth = 0usize;
        while k < self.code.len() {
            if self.is_punct(k, b'{') {
                depth += 1;
            } else if self.is_punct(k, b'}') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            } else if self.is_punct(k, b';') && depth == 0 {
                return k;
            }
            k += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Parses `tu-lint: allow(<rule>)` directives out of comment tokens.
    /// An optional trailing `: reason` documents why.
    fn find_allows(&self) -> Vec<AllowDirective> {
        let mut allows = Vec::new();
        for t in self.tokens.iter().filter(|t| t.is_comment()) {
            let text = t.text(self.src);
            let Some(at) = text.find("tu-lint:") else {
                continue;
            };
            let rest = text[at + "tu-lint:".len()..].trim_start();
            let Some(inner) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = inner.find(')') else {
                continue;
            };
            let rule = inner[..close].trim().to_string();
            // Prose that merely mentions the syntax (`allow(<rule>)`, docs,
            // this file) is not a directive: the rule name must be real.
            if !ALL_RULES.contains(&rule.as_str()) {
                continue;
            }
            let after = inner[close + 1..].trim();
            let reason = after
                .strip_prefix(':')
                .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
                .filter(|r| !r.is_empty());
            allows.push(AllowDirective {
                rule,
                line: t.line,
                reason,
                used: false,
            });
        }
        allows
    }
}

/// Pairs findings with allow directives: each finding consumes the nearest
/// preceding (same line or above) unused allow of its rule. Returns the
/// final findings and whatever allows went unused.
fn apply_allows(
    rel_path: &str,
    raw: Vec<Finding>,
    mut allows: Vec<AllowDirective>,
) -> (Vec<Finding>, Vec<AllowDirective>) {
    let mut findings = Vec::with_capacity(raw.len());
    for mut f in raw {
        let candidate = allows
            .iter_mut()
            .filter(|a| !a.used && a.rule == f.rule && a.line <= f.line)
            .max_by_key(|a| a.line);
        if let Some(a) = candidate {
            a.used = true;
            f.allowed = true;
            f.reason = a.reason.clone();
        }
        findings.push(f);
    }
    let unused: Vec<AllowDirective> = allows.into_iter().filter(|a| !a.used).collect();
    debug_assert!(unused.iter().all(|a| !a.rule.is_empty()), "{rel_path}");
    (findings, unused)
}

fn finding(file: &FileView, rule: &'static str, k: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line: file.line(k),
        message,
        allowed: false,
        reason: None,
    }
}

/// clock-discipline: `Instant::now` / `SystemTime` outside the allowlist.
fn clock_discipline(file: &FileView, out: &mut Vec<Finding>) {
    if CLOCK_ALLOW_CRATES.contains(&file.crate_name.as_str())
        || CLOCK_ALLOW_FILES.contains(&file.rel_path.as_str())
    {
        return;
    }
    for k in 0..file.code.len() {
        if file.in_test_region(k) {
            continue;
        }
        if file.is_ident(k, "Instant")
            && file.is_punct(k + 1, b':')
            && file.is_punct(k + 2, b':')
            && file.is_ident(k + 3, "now")
        {
            out.push(finding(
                file,
                "clock-discipline",
                k,
                "wall-clock `Instant::now()` outside the clock allowlist; use \
                 `tu_common::clock::Clock` for model time or `tu_obs` \
                 spans/Stopwatch for measured durations"
                    .to_string(),
            ));
        }
        if file.is_ident(k, "SystemTime") {
            out.push(finding(
                file,
                "clock-discipline",
                k,
                "`SystemTime` outside the clock allowlist; timestamps must come \
                 from `tu_common::clock::Clock` so simulated-time runs stay \
                 deterministic"
                    .to_string(),
            ));
        }
    }
}

/// counter-discipline: raw registry counters in traced crates.
fn counter_discipline(file: &FileView, out: &mut Vec<Finding>) {
    if !COUNTER_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for k in 0..file.code.len() {
        if file.in_test_region(k) {
            continue;
        }
        let raw_helper = file.is_ident(k, "tu_obs")
            && file.is_punct(k + 1, b':')
            && file.is_punct(k + 2, b':')
            && file.is_ident(k + 3, "counter")
            && file.is_punct(k + 4, b'(');
        let raw_registry = file.is_ident(k, "global")
            && file.is_punct(k + 1, b'(')
            && file.is_punct(k + 2, b')')
            && file.is_punct(k + 3, b'.')
            && file.is_ident(k + 4, "counter")
            && file.is_punct(k + 5, b'(');
        if raw_helper || raw_registry {
            out.push(finding(
                file,
                "counter-discipline",
                k,
                "raw registry counter in a traced crate; use `tu_obs::traced` \
                 so the charge also lands in the active TraceContext \
                 (query_profiled attribution)"
                    .to_string(),
            ));
        }
    }
}

/// panic-discipline: `.unwrap()` / `.expect(` / `panic!` in non-test code
/// of the storage crates.
fn panic_discipline(file: &FileView, out: &mut Vec<Finding>) {
    if !PANIC_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for k in 0..file.code.len() {
        if file.in_test_region(k) {
            continue;
        }
        for method in ["unwrap", "expect"] {
            if file.is_punct(k, b'.') && file.is_ident(k + 1, method) && file.is_punct(k + 2, b'(')
            {
                out.push(finding(
                    file,
                    "panic-discipline",
                    k + 1,
                    format!(
                        "`.{method}()` in storage-crate non-test code; propagate \
                         a `tu_common::Error` instead (or document an \
                         invariant with an allow)"
                    ),
                ));
            }
        }
        if file.is_ident(k, "panic") && file.is_punct(k + 1, b'!') {
            out.push(finding(
                file,
                "panic-discipline",
                k,
                "`panic!` in storage-crate non-test code; return a \
                 `tu_common::Error` instead"
                    .to_string(),
            ));
        }
    }
}

/// print-discipline: `println!` / `eprintln!` / `dbg!` (and their
/// non-newline variants) in non-test library code of the engine crates.
fn print_discipline(file: &FileView, out: &mut Vec<Finding>) {
    if !PRINT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    const MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];
    for k in 0..file.code.len() {
        if file.in_test_region(k) {
            continue;
        }
        // `name` immediately followed by `!` is a macro invocation whether
        // written bare (`println!`) or as a path tail (`std::println!`).
        if !file.is_punct(k + 1, b'!') {
            continue;
        }
        let Some(name) = MACROS.iter().find(|m| file.is_ident(k, m)) else {
            continue;
        };
        out.push(finding(
            file,
            "print-discipline",
            k,
            format!(
                "`{name}!` in engine-crate non-test code; emit a structured \
                 event via `tu_obs::log` (leveled, rate-limited, \
                 trace-correlated) or return an error instead of raw stdio"
            ),
        ));
    }
}

/// unsafe-audit: every `unsafe` needs a nearby preceding `// SAFETY:`.
fn unsafe_audit(file: &FileView, out: &mut Vec<Finding>) {
    for k in 0..file.code.len() {
        if !file.is_ident(k, "unsafe") {
            continue;
        }
        let tok_index = file.code[k];
        let line = file.tokens[tok_index].line;
        let documented = file.tokens[..tok_index]
            .iter()
            .rev()
            .take_while(|t| line.saturating_sub(t.line) <= SAFETY_COMMENT_MAX_DISTANCE_LINES)
            .any(|t| t.is_comment() && t.text(file.src).contains("SAFETY:"));
        if !documented {
            out.push(finding(
                file,
                "unsafe-audit",
                k,
                format!(
                    "`unsafe` without a `// SAFETY:` comment within the \
                     preceding {SAFETY_COMMENT_MAX_DISTANCE_LINES} lines"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src).0
    }

    fn unallowed(path: &str, src: &str) -> Vec<Finding> {
        lint_at(path, src)
            .into_iter()
            .filter(|f| !f.allowed)
            .collect()
    }

    // ---- clock-discipline ----

    #[test]
    fn clock_flags_instant_now_in_engine_crate() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let fs = unallowed("crates/tu-lsm/src/tree.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "clock-discipline");
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn clock_flags_system_time_import() {
        let src = "use std::time::SystemTime;\nfn f() {}";
        let fs = unallowed("crates/tu-core/src/engine.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "clock-discipline");
    }

    #[test]
    fn clock_exempts_allowlisted_crates_and_clock_rs() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        assert!(unallowed("crates/tu-obs/src/spans.rs", src).is_empty());
        assert!(unallowed("crates/tu-bench/src/lib.rs", src).is_empty());
        assert!(unallowed("crates/tu-common/src/clock.rs", src).is_empty());
    }

    #[test]
    fn clock_ignores_comments_and_strings() {
        let src = r#"
// Instant::now() is banned here, which this comment may discuss.
/* SystemTime too: SystemTime::now() */
fn f() {
    let a = "Instant::now()";
    let b = r"SystemTime";
}
"#;
        assert!(unallowed("crates/tu-lsm/src/tree.rs", src).is_empty());
    }

    #[test]
    fn clock_exempts_test_code() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn timing() { let t = std::time::Instant::now(); let _ = t; }
}
"#;
        assert!(unallowed("crates/tu-core/src/engine.rs", src).is_empty());
        let in_tests_dir = "fn f() { let t = std::time::Instant::now(); }";
        assert!(unallowed("crates/tu-core/tests/slow.rs", in_tests_dir).is_empty());
    }

    // ---- counter-discipline ----

    #[test]
    fn counter_flags_raw_helper_and_registry() {
        let src = r#"
fn f() {
    let a = tu_obs::counter("x");
    let b = tu_obs::global().counter("y");
}
"#;
        let fs = unallowed("crates/tu-cloud/src/cost.rs", src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "counter-discipline"));
    }

    #[test]
    fn counter_permits_traced_and_summary_reads() {
        let src = r#"
fn f(summary: &tu_obs::TraceSummary) -> u64 {
    let c = tu_obs::traced("x");
    c.inc();
    summary.counter("x")
}
"#;
        assert!(unallowed("crates/tu-core/src/profile.rs", src).is_empty());
    }

    #[test]
    fn counter_flags_raw_agg_counter_in_engine() {
        // The aggregation-pushdown counters feed query_aggregate_profiled
        // attribution, so a raw registry counter would silently drop the
        // per-query deltas from the profile.
        let src = r#"
fn f() {
    tu_obs::counter("core.query.agg.pushdown_chunks").inc();
}
"#;
        let fs = unallowed("crates/tu-core/src/engine.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "counter-discipline");
    }

    #[test]
    fn counter_permits_traced_agg_counter_in_engine() {
        let src = r#"
fn f() {
    tu_obs::traced("core.query.agg.meta_answered").add(3);
}
"#;
        assert!(unallowed("crates/tu-core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn counter_flags_raw_tier_counters_in_cloud() {
        // The per-tier request counters back the exactness invariants of
        // the introspection plane (a query profile's per-tier totals ==
        // `cloud.<tier>.*` deltas, `/costs` windows == priced counter
        // deltas); a raw registry counter would bypass per-operation
        // trace attribution and break those equalities silently.
        let src = r#"
fn f() {
    tu_obs::counter("cloud.object.get_requests").inc();
    tu_obs::global().counter("cloud.object.put_requests").inc();
}
"#;
        let fs = unallowed("crates/tu-cloud/src/cost.rs", src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "counter-discipline"));
    }

    #[test]
    fn counter_permits_traced_tier_counters() {
        let src = r#"
fn f() {
    tu_obs::traced("cloud.object.get_requests").add(2);
    tu_obs::traced("cloud.object.get_bytes").add(512);
    tu_obs::traced("cloud.block.put_requests").inc();
}
"#;
        assert!(unallowed("crates/tu-cloud/src/ledger.rs", src).is_empty());
    }

    #[test]
    fn counter_rule_only_applies_to_traced_crates() {
        let src = "fn f() { let c = tu_obs::counter(\"x\"); }";
        assert!(unallowed("crates/tu-obs/src/lib.rs", src).is_empty());
        assert!(unallowed("crates/tu-index/src/lib.rs", src).is_empty());
        let fs = unallowed("crates/tu-tsdb/src/tsdb.rs", src);
        assert_eq!(fs.len(), 1);
    }

    // ---- panic-discipline ----

    #[test]
    fn panic_flags_unwrap_expect_and_panic_macro() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b > 100 { panic!("too big"); }
    a
}
"#;
        let fs = unallowed("crates/tu-mmap/src/file.rs", src);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "panic-discipline"));
        assert_eq!(fs[0].line, 3);
        assert_eq!(fs[1].line, 4);
        assert_eq!(fs[2].line, 5);
    }

    #[test]
    fn panic_permits_unwrap_or_variants_and_test_code() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!("fine in tests"); }
}
"#;
        assert!(unallowed("crates/tu-lsm/src/wal.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_ignores_non_storage_crates() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(unallowed("crates/tu-index/src/lib.rs", src).is_empty());
        assert!(unallowed("crates/tu-obs/src/registry.rs", src).is_empty());
    }

    #[test]
    fn panic_in_macro_like_strings_not_flagged() {
        let src = r#"fn f() { let msg = "do not panic!(now)"; let _ = msg; }"#;
        assert!(unallowed("crates/tu-core/src/engine.rs", src).is_empty());
    }

    // ---- print-discipline ----

    #[test]
    fn print_flags_stdio_macros_in_engine_crates() {
        let src = r#"
fn f(x: u32) {
    println!("x = {x}");
    eprintln!("warning: {x}");
    let y = dbg!(x + 1);
    std::print!("{y}");
}
"#;
        let fs = unallowed("crates/tu-core/src/engine.rs", src);
        assert_eq!(fs.len(), 4, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "print-discipline"));
        assert_eq!(fs[0].line, 3);
        assert_eq!(fs[3].line, 6);
    }

    #[test]
    fn print_permits_test_code_and_exempt_crates() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { println!("debug output is fine in tests"); }
}
"#;
        assert!(unallowed("crates/tu-lsm/src/tree.rs", src).is_empty());
        let lib = "fn f() { println!(\"benches narrate freely\"); }";
        assert!(unallowed("crates/tu-bench/src/report.rs", lib).is_empty());
        assert!(unallowed("crates/tu-obs/src/log.rs", lib).is_empty());
        assert!(unallowed("examples/quickstart.rs", lib).is_empty());
    }

    #[test]
    fn print_ignores_comments_strings_and_non_macro_idents() {
        let src = r#"
// println! is banned here, which this comment may say out loud.
fn f(w: &mut impl std::fmt::Write) -> std::fmt::Result {
    let msg = "println!(not code)";
    writeln!(w, "{msg}")
}
fn print(x: u32) -> u32 { x }
fn g() -> u32 { print(7) }
"#;
        assert!(unallowed("crates/tu-cloud/src/object.rs", src).is_empty());
    }

    #[test]
    fn print_allow_directive_suppresses() {
        let src = r#"
fn f() {
    // tu-lint: allow(print-discipline): one-shot startup banner
    eprintln!("starting");
}
"#;
        let all = lint_at("crates/tu-tsdb/src/tsdb.rs", src);
        assert_eq!(all.len(), 1);
        assert!(all[0].allowed);
        assert_eq!(all[0].reason.as_deref(), Some("one-shot startup banner"));
    }

    // ---- unsafe-audit ----

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let fs = unallowed("crates/tu-mmap/src/pagecache.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "unsafe-audit");
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads.
    unsafe { *p }
}
"#;
        assert!(unallowed("crates/tu-mmap/src/pagecache.rs", src).is_empty());
    }

    #[test]
    fn stale_safety_comment_too_far_above_does_not_count() {
        let src = r#"
// SAFETY: this comment is about something else entirely.
fn a() {}
fn b() {}
fn c() {}
fn d() {}
fn e() {}
fn f(p: *const u8) -> u8 { unsafe { *p } }
"#;
        let fs = unallowed("crates/tu-common/src/alloc.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    // ---- allow directives ----

    #[test]
    fn allow_suppresses_exactly_one_following_finding() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // tu-lint: allow(panic-discipline): invariant — x checked by caller
    let a = x.unwrap();
    let b = x.unwrap();
    a + b
}
"#;
        let all = lint_at("crates/tu-lsm/src/cache.rs", src);
        assert_eq!(all.len(), 2);
        assert!(all[0].allowed, "first finding suppressed");
        assert_eq!(
            all[0].reason.as_deref(),
            Some("invariant — x checked by caller")
        );
        assert!(!all[1].allowed, "second finding still fires");
    }

    #[test]
    fn trailing_same_line_allow_works() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // tu-lint: allow(panic-discipline): caller checked";
        let all = lint_at("crates/tu-core/src/group.rs", src);
        assert_eq!(all.len(), 1);
        assert!(all[0].allowed);
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = r#"
// tu-lint: allow(clock-discipline): not the right rule
fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let (all, unused) = lint_source("crates/tu-core/src/group.rs", src);
        assert_eq!(all.len(), 1);
        assert!(!all[0].allowed);
        assert_eq!(unused.len(), 1, "mismatched allow is reported unused");
        assert_eq!(unused[0].rule, "clock-discipline");
    }

    #[test]
    fn allow_after_the_finding_does_not_apply() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
// tu-lint: allow(panic-discipline): too late, directives precede findings
"#;
        let (all, unused) = lint_source("crates/tu-lsm/src/wal.rs", src);
        assert_eq!(all.len(), 1);
        assert!(!all[0].allowed);
        assert_eq!(unused.len(), 1);
    }

    #[test]
    fn unknown_rule_name_in_allow_is_prose_not_a_directive() {
        let src =
            "// tu-lint: allow(made-up-rule): nope\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (all, unused) = lint_source("crates/tu-core/src/group.rs", src);
        assert_eq!(all.len(), 1);
        assert!(!all[0].allowed);
        assert!(unused.is_empty(), "prose mentions are not stale directives");
    }

    #[test]
    fn seeded_violation_reports_file_line_and_rule() {
        // The acceptance-criteria demo: seed a stray Instant::now() into a
        // tu-lsm fixture and watch the lint name the file, line, and rule.
        let src = "//! Doc header.\n\nfn flush() {\n    let t0 = std::time::Instant::now();\n    let _ = t0;\n}\n";
        let fs = unallowed("crates/tu-lsm/src/tree.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "clock-discipline");
        assert_eq!(fs[0].file, "crates/tu-lsm/src/tree.rs");
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
#[cfg(not(test))]
fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let fs = unallowed("crates/tu-core/src/series.rs", src);
        assert_eq!(fs.len(), 1, "cfg(not(test)) code is production code");
    }

    #[test]
    fn cfg_test_region_ends_at_matching_brace() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn helper(x: Option<u32>) -> u32 { x.unwrap() }
}
fn production(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let fs = unallowed("crates/tu-core/src/series.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 6);
    }
}

//! The harness-owned span recorder of a traced run.
//!
//! Every layer is observed from outside: a span brackets one call into the
//! engine's public API (or one probe), and carries the deltas of public
//! counters read at the same two instants. Spans stay in memory and are
//! written once, as JSON lines, when the workload ends.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use tu_cloud::cost::StorageStats;
use tu_cloud::StorageEnv;
use tu_common::alloc;

/// Public counters read at a span boundary: modelled storage time, both
/// tiers' request/byte counters, and the allocator's call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub virtual_ns: u64,
    pub fast: StorageStats,
    pub slow: StorageStats,
    pub allocs: u64,
}

impl Counts {
    pub fn read(env: &StorageEnv) -> Counts {
        Counts {
            virtual_ns: env.clock.virtual_ns(),
            fast: env.block.stats(),
            slow: env.object.stats(),
            allocs: alloc::total_allocs() as u64,
        }
    }

    fn add(&mut self, other: &Counts) {
        self.virtual_ns += other.virtual_ns;
        self.allocs += other.allocs;
        for (mine, theirs) in [(&mut self.fast, &other.fast), (&mut self.slow, &other.slow)] {
            mine.get_requests += theirs.get_requests;
            mine.put_requests += theirs.put_requests;
            mine.delete_requests += theirs.delete_requests;
            mine.bytes_read += theirs.bytes_read;
            mine.bytes_written += theirs.bytes_written;
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            virtual_ns: self.virtual_ns - earlier.virtual_ns,
            fast: self.fast.since(&earlier.fast),
            slow: self.slow.since(&earlier.slow),
            allocs: self.allocs - earlier.allocs,
        }
    }

    pub fn bytes_written(&self) -> u64 {
        self.fast.bytes_written + self.slow.bytes_written
    }

    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("virtual_ns", self.virtual_ns),
            ("fast_puts", self.fast.put_requests),
            ("fast_gets", self.fast.get_requests),
            ("fast_bytes_written", self.fast.bytes_written),
            ("fast_bytes_read", self.fast.bytes_read),
            ("slow_puts", self.slow.put_requests),
            ("slow_gets", self.slow.get_requests),
            ("slow_bytes_written", self.slow.bytes_written),
            ("slow_bytes_read", self.slow.bytes_read),
            ("allocs", self.allocs),
        ]
    }
}

struct Span {
    parent: u32,
    name: &'static str,
    /// Units of work the call carried (samples of a batch, 1 for a query).
    ops: u64,
    start_ns: u64,
    end_ns: u64,
    counts: Counts,
}

/// Sums over the spans of one name under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub ops: u64,
    pub ns: u64,
    pub max_ns: u64,
    pub counts: Counts,
}

/// In-memory span recorder. Single-threaded by design: the benchmark is a
/// closed loop with one client thread, and engine-internal workers are not
/// traced from here.
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices (1-based ids) of the open spans, innermost last.
    stack: RefCell<Vec<u32>>,
    /// Nanoseconds spent inside the recorder itself, per open phase.
    overhead_ns: Cell<u64>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            overhead_ns: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, attaching the count deltas of
    /// `env` when one is given. Spans nest by call structure.
    pub fn span<R>(
        &self,
        name: &'static str,
        ops: u64,
        env: Option<&StorageEnv>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t_in = self.now_ns();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                parent: self.stack.borrow().last().copied().unwrap_or(0),
                name,
                ops,
                start_ns: 0,
                end_ns: 0,
                counts: Counts::default(),
            });
            spans.len() as u32
        };
        self.stack.borrow_mut().push(id);
        let before = env.map(Counts::read);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let after = env.map(Counts::read);
        self.stack.borrow_mut().pop();
        {
            let span = &mut self.spans.borrow_mut()[id as usize - 1];
            span.start_ns = start;
            span.end_ns = end;
            if let (Some(b), Some(a)) = (before, after) {
                span.counts = a.since(&b);
            }
        }
        let t_out = self.now_ns();
        self.overhead_ns
            .set(self.overhead_ns.get() + (start - t_in) + (t_out - end));
        out
    }

    /// Nanoseconds the recorder itself has consumed since the last call.
    pub fn take_overhead_ns(&self) -> u64 {
        self.overhead_ns.replace(0)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time of the spans named `name`: their duration minus what
    /// their direct children cover.
    pub fn self_time_ns(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len() + 1];
        for s in spans.iter() {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i + 1]))
            .sum()
    }

    /// Totals of the spans named `name` whose parent span is named `under`
    /// (`""` for roots), e.g. every `put_batch` of the `ingest` phase but
    /// not the preload's.
    pub fn totals(&self, name: &str, under: &str) -> Totals {
        let spans = self.spans.borrow();
        let mut t = Totals::default();
        for s in spans.iter().filter(|s| s.name == name) {
            let parent = s
                .parent
                .checked_sub(1)
                .map_or("", |p| spans[p as usize].name);
            if parent != under {
                continue;
            }
            let ns = s.end_ns - s.start_ns;
            t.calls += 1;
            t.ops += s.ops;
            t.ns += ns;
            t.max_ns = t.max_ns.max(ns);
            t.counts.add(&s.counts);
        }
        t
    }

    /// Writes every span as one JSON object per line: id, parent (0 for a
    /// root), the shared run id, name, start/end in ns since the recorder
    /// was created, and the non-zero count deltas.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"ops\":{},\"start_ns\":{},\"end_ns\":{}",
                i + 1,
                s.parent,
                self.run_id,
                s.name,
                s.ops,
                s.start_ns,
                s.end_ns
            )?;
            let counts: Vec<String> = s
                .counts
                .fields()
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            if !counts.is_empty() {
                write!(out, ",\"counts\":{{{}}}", counts.join(","))?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(7);
        t.span("outer", 0, None, || {
            t.span("inner", 3, None, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", 4, None, || ());
        });
        t.span("inner", 5, None, || ());
        assert_eq!(t.span_count(), 4);
        let outer = t.totals("outer", "");
        assert_eq!(outer.calls, 1);
        let inner = t.totals("inner", "outer");
        assert_eq!((inner.calls, inner.ops), (2, 7));
        assert!(inner.ns >= 5_000_000 && outer.ns >= inner.ns && inner.max_ns >= 5_000_000);
        assert_eq!(t.self_time_ns("outer"), outer.ns - inner.ns);
        assert!(t.take_overhead_ns() > 0);
        assert_eq!(t.take_overhead_ns(), 0);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let dir = std::env::temp_dir().join(format!("tu-e2e-tracer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = Tracer::new(3);
        t.span("run", 0, None, || t.span("phase", 0, None, || ()));
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(child.get("run").and_then(|p| p.as_f64()), Some(3.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

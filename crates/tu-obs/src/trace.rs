//! Scoped per-operation trace contexts for cost attribution.
//!
//! The registry answers "what did the process spend in total"; this module
//! answers "which operation paid for it". A [`TraceContext`] carries an id,
//! an operation label, and local counter/span deltas. While a context is
//! installed on a thread, every [`TracedCounter`] charge and every span
//! recorded on that thread is *also* added to the context, so after
//! [`TraceContext::finish`] the caller holds exactly the slice of
//! `cloud.<tier>.*` requests, cache hits, and stage timings the operation
//! caused — the per-operation denominators of the paper's Eq. 3–6.
//!
//! Contexts nest (a figure-harness phase context around profiled queries):
//! charges go to every context on the thread's stack, so a parent sees the
//! sum of its children plus its own direct work. Crossing threads is
//! explicit: capture [`TraceContext::handle`] (or [`current_handle`]) on
//! the owning thread, [`TraceHandle::attach`] it on the worker, and drop
//! the guard before joining. Workers share the same interned delta maps,
//! so "merging on join" is exact and automatic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lockdep::{self, Mutex};

use crate::registry::Counter;

/// Accumulated span time inside one context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanDelta {
    /// Number of span completions.
    pub count: u64,
    /// Total nanoseconds across those completions.
    pub total_ns: u64,
}

#[derive(Debug)]
struct ContextInner {
    id: u64,
    op: String,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    spans: Mutex<BTreeMap<String, SpanDelta>>,
}

thread_local! {
    /// Innermost-last stack of contexts active on this thread.
    static CURRENT: RefCell<Vec<Arc<ContextInner>>> = const { RefCell::new(Vec::new()) };
}

fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A scoped trace context. Constructing installs it on the current thread;
/// [`TraceContext::finish`] (or drop) uninstalls it. Not `Send`: the
/// context must finish on the thread that started it — workers join via
/// [`TraceHandle`].
#[derive(Debug)]
pub struct TraceContext {
    inner: Option<Arc<ContextInner>>,
    _not_send: PhantomData<*const ()>,
}

impl TraceContext {
    /// Starts a context labelled `op` and installs it on this thread.
    pub fn start(op: impl Into<String>) -> TraceContext {
        let inner = Arc::new(ContextInner {
            id: next_trace_id(),
            op: op.into(),
            counters: Mutex::new(&lockdep::OBS_TRACE_COUNTERS, BTreeMap::new()),
            spans: Mutex::new(&lockdep::OBS_TRACE_SPANS, BTreeMap::new()),
        });
        CURRENT.with(|cur| cur.borrow_mut().push(inner.clone()));
        TraceContext {
            inner: Some(inner),
            _not_send: PhantomData,
        }
    }

    /// Unique id of this context (also stamped on flight-recorder events).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().expect("context not finished").id
    }

    /// The operation label given to [`TraceContext::start`].
    pub fn op(&self) -> &str {
        &self.inner.as_ref().expect("context not finished").op
    }

    /// A cloneable handle for charging this context from other threads.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            stack: vec![self.inner.as_ref().expect("context not finished").clone()],
        }
    }

    /// Uninstalls the context and returns its accumulated deltas.
    pub fn finish(mut self) -> TraceSummary {
        let inner = self.inner.take().expect("context finished twice");
        detach(&inner);
        let counters = inner
            .counters
            .lock()
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let spans = inner.spans.lock().clone();
        TraceSummary {
            id: inner.id,
            op: inner.op.clone(),
            counters,
            spans,
        }
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            detach(&inner);
        }
    }
}

/// Removes the topmost occurrence of `inner` from this thread's stack.
fn detach(inner: &Arc<ContextInner>) {
    CURRENT.with(|cur| {
        let mut stack = cur.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|c| Arc::ptr_eq(c, inner)) {
            stack.remove(pos);
        }
    });
}

/// A snapshot of one thread's context stack, cloneable and `Send`, for
/// propagating attribution across worker threads.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    stack: Vec<Arc<ContextInner>>,
}

impl TraceHandle {
    /// Installs the handle's contexts on the current thread until the
    /// returned guard drops. Contexts already active on this thread are
    /// skipped, so re-attaching on the owning thread never double-charges.
    pub fn attach(&self) -> AttachGuard {
        let pushed = CURRENT.with(|cur| {
            let mut stack = cur.borrow_mut();
            let mut pushed = 0;
            for ctx in &self.stack {
                if !stack.iter().any(|c| Arc::ptr_eq(c, ctx)) {
                    stack.push(ctx.clone());
                    pushed += 1;
                }
            }
            pushed
        });
        AttachGuard {
            pushed,
            _not_send: PhantomData,
        }
    }
}

/// RAII guard from [`TraceHandle::attach`]; pops the attached contexts on
/// drop. Guards must drop in LIFO order on a given thread (the natural
/// RAII shape).
#[derive(Debug)]
pub struct AttachGuard {
    pushed: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CURRENT.with(|cur| {
            let mut stack = cur.borrow_mut();
            for _ in 0..self.pushed {
                stack.pop();
            }
        });
    }
}

/// The full context stack active on this thread, `None` when empty. Thread
/// pools capture this before spawning and attach it inside each worker.
pub fn current_handle() -> Option<TraceHandle> {
    CURRENT.with(|cur| {
        let stack = cur.borrow();
        if stack.is_empty() {
            None
        } else {
            Some(TraceHandle {
                stack: stack.clone(),
            })
        }
    })
}

/// True when at least one context is active on this thread.
pub fn active() -> bool {
    CURRENT.with(|cur| !cur.borrow().is_empty())
}

/// `(id, op)` of the innermost active context, for event stamping.
pub(crate) fn current_id_op() -> Option<(u64, String)> {
    CURRENT.with(|cur| cur.borrow().last().map(|c| (c.id, c.op.clone())))
}

/// Adds `n` under `name` to every context active on this thread.
pub(crate) fn charge(name: &'static str, n: u64) {
    CURRENT.with(|cur| {
        let stack = cur.borrow();
        for ctx in stack.iter() {
            *ctx.counters.lock().entry(name).or_insert(0) += n;
        }
    });
}

/// Adds one completion of `ns` under span `name` to every active context.
pub(crate) fn charge_span(name: &str, ns: u64) {
    CURRENT.with(|cur| {
        let stack = cur.borrow();
        for ctx in stack.iter() {
            let mut spans = ctx.spans.lock();
            let d = spans.entry(name.to_string()).or_default();
            d.count += 1;
            d.total_ns += ns;
        }
    });
}

/// Interns `name` to a `&'static str` (leaked once per distinct name) so
/// per-call [`traced`] lookups on hot paths never accumulate allocations.
fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let map = INTERNED.get_or_init(|| Mutex::new(&lockdep::OBS_TRACE_COUNTERS, BTreeMap::new()));
    let mut map = map.lock();
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

/// A counter that charges the global registry *and* the active trace
/// contexts with one call. `Copy`, so instrumented structs can hold it by
/// value like a plain `&'static Counter`.
#[derive(Debug, Clone, Copy)]
pub struct TracedCounter {
    counter: &'static Counter,
    name: &'static str,
}

impl TracedCounter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.counter.add(n);
        charge(self.name, n);
    }

    /// Current global value (identical to the underlying registry counter).
    pub fn get(&self) -> u64 {
        self.counter.get()
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// The traced counter named `name` on the [`crate::global`] registry,
/// registering it on first use.
pub fn traced(name: &str) -> TracedCounter {
    let name = intern(name);
    TracedCounter {
        counter: crate::global().counter(name),
        name,
    }
}

/// Everything one finished [`TraceContext`] accumulated: counter deltas by
/// metric name and span completions by span name. Maps are sorted, so the
/// [`fmt::Display`] and [`TraceSummary::to_json`] renderings are stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub id: u64,
    pub op: String,
    pub counters: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, SpanDelta>,
}

impl TraceSummary {
    /// Delta of one counter inside this context (0 when never charged).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Accumulated time of one span inside this context.
    pub fn span(&self, name: &str) -> SpanDelta {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Stable JSON encoding mirroring [`crate::MetricsSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace_id\":{},\"op\":\"{}\",\"counters\":{{",
            self.id,
            crate::snapshot::escape(&self.op)
        );
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", crate::snapshot::escape(k)));
        }
        out.push_str("},\"spans\":{");
        let mut first = true;
        for (k, d) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{}}}",
                crate::snapshot::escape(k),
                d.count,
                d.total_ns
            ));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "--- trace {} op={} ---", self.id, self.op)?;
        for (name, v) in &self.counters {
            writeln!(f, "{name:<44} {v:>14}")?;
        }
        for (name, d) in &self.spans {
            writeln!(
                f,
                "span {name:<39} count={:<6} total_ns={}",
                d.count, d.total_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_traced_charges() {
        let before = traced("trace.test.alpha").get();
        let ctx = TraceContext::start("unit");
        traced("trace.test.alpha").add(3);
        traced("trace.test.alpha").inc();
        let summary = ctx.finish();
        assert_eq!(summary.op, "unit");
        assert_eq!(summary.counter("trace.test.alpha"), 4);
        // The global registry got the same charges.
        assert_eq!(traced("trace.test.alpha").get(), before + 4);
        // Charges after finish no longer attribute anywhere.
        traced("trace.test.alpha").inc();
        assert_eq!(summary.counter("trace.test.alpha"), 4);
    }

    #[test]
    fn charges_without_context_only_hit_registry() {
        assert!(!active());
        let c = traced("trace.test.nocontext");
        c.add(2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn nested_contexts_both_charge() {
        let outer = TraceContext::start("outer");
        traced("trace.test.nested").inc();
        {
            let inner = TraceContext::start("inner");
            traced("trace.test.nested").add(10);
            let s = inner.finish();
            assert_eq!(s.counter("trace.test.nested"), 10);
        }
        traced("trace.test.nested").inc();
        let s = outer.finish();
        // The parent saw its own 2 charges plus the child's 10.
        assert_eq!(s.counter("trace.test.nested"), 12);
    }

    #[test]
    fn handle_attaches_across_threads() {
        let ctx = TraceContext::start("fanout");
        let handle = ctx.handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = handle.clone();
                s.spawn(move || {
                    let _g = h.attach();
                    traced("trace.test.fanout").add(5);
                });
            }
        });
        let summary = ctx.finish();
        assert_eq!(summary.counter("trace.test.fanout"), 20);
    }

    #[test]
    fn reattaching_on_owner_thread_does_not_double_charge() {
        let ctx = TraceContext::start("self");
        let handle = ctx.handle();
        {
            let _g = handle.attach(); // already active here: no-op
            traced("trace.test.reattach").inc();
        }
        traced("trace.test.reattach").inc();
        assert_eq!(ctx.finish().counter("trace.test.reattach"), 2);
    }

    #[test]
    fn span_deltas_accumulate() {
        let ctx = TraceContext::start("spans");
        charge_span("stage.x", 100);
        charge_span("stage.x", 50);
        let s = ctx.finish();
        assert_eq!(
            s.span("stage.x"),
            SpanDelta {
                count: 2,
                total_ns: 150
            }
        );
        assert_eq!(s.span("stage.missing"), SpanDelta::default());
    }

    #[test]
    fn drop_without_finish_detaches() {
        {
            let _ctx = TraceContext::start("dropped");
            assert!(active());
        }
        assert!(!active());
        assert!(current_handle().is_none());
    }

    #[test]
    fn summary_render_and_json_are_stable() {
        let ctx = TraceContext::start("render");
        traced("trace.test.render").add(7);
        charge_span("stage.r", 9);
        let s = ctx.finish();
        let text = s.to_string();
        assert!(text.contains("op=render"));
        assert!(text.contains("trace.test.render"));
        let json = s.to_json();
        assert!(json.contains("\"op\":\"render\""));
        assert!(json.contains("\"trace.test.render\":7"));
        assert!(json.contains("\"stage.r\":{\"count\":1,\"total_ns\":9}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn interning_is_stable() {
        let a = traced("trace.test.intern");
        let b = traced("trace.test.intern");
        assert!(std::ptr::eq(a.name(), b.name()));
        assert_eq!(a.name(), "trace.test.intern");
    }
}

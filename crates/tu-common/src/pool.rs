//! A small scoped worker pool for fan-out/fan-in parallelism.
//!
//! Queries fan out across matched series (§3.4 runs one merge per matched
//! timeseries; the per-series work — block fetches, decompression, sample
//! merging — is independent), so the engine needs a way to run `n`
//! index-addressed tasks on `t` threads and collect the results *in task
//! order*. [`WorkerPool::run`] does exactly that on [`std::thread::scope`]:
//! no queues, no detached threads, no dependencies, and borrowing the
//! caller's state works because the threads cannot outlive the call.
//!
//! Determinism: results are returned indexed by task, so the output of
//! `run` is identical for every thread count (including 1, which runs
//! inline without spawning). Panics in a task propagate to the caller.
//!
//! Cost attribution: the caller's `tu-obs` trace contexts are captured
//! before spawning and attached inside every worker, so storage charges
//! made by pool tasks land on the operation that fanned out (the contexts
//! share one delta map, so the join merge is exact). The inline path needs
//! nothing — tasks already run under the caller's thread-local contexts.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::lockdep::{self, Mutex};

/// Environment variable overriding the query thread count
/// (`TU_QUERY_THREADS=1` forces sequential execution; CI runs the test
/// suite at both 1 and 8).
pub const QUERY_THREADS_ENV: &str = "TU_QUERY_THREADS";

/// Environment variable overriding the ingest thread count (batched
/// writer fan-out and the flush/compaction workers). Resolution mirrors
/// the query knob: env > `Options::ingest_threads` > cores capped at 8.
pub const INGEST_THREADS_ENV: &str = "TU_INGEST_THREADS";

/// A fixed-width scoped thread pool.
///
/// The pool is a plain value (just a thread count): threads are scoped to
/// each [`WorkerPool::run`] call, so there is no lifecycle to manage and a
/// pool can be constructed per call for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of exactly `threads` workers (0 is clamped to 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Resolves the thread count from, in priority order: the
    /// `TU_QUERY_THREADS` environment variable, the caller's configured
    /// value (`configured > 0`), and finally the machine's available
    /// parallelism (capped at 8 — query fan-out saturates well before the
    /// core counts of large hosts).
    pub fn resolve(configured: usize) -> Self {
        WorkerPool::resolve_env(QUERY_THREADS_ENV, configured)
    }

    /// [`WorkerPool::resolve`] generalized over the overriding environment
    /// variable, so the ingest path resolves through `TU_INGEST_THREADS`
    /// with the same env > configured > cores-capped-at-8 chain.
    pub fn resolve_env(var: &str, configured: usize) -> Self {
        if let Some(n) = env_threads_var(var) {
            return WorkerPool::new(n);
        }
        if configured > 0 {
            return WorkerPool::new(configured);
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkerPool::new(cores.min(8))
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), ..., f(n-1)` across the pool and returns the
    /// results in task order. With one thread (or one task) everything
    /// runs inline on the caller's thread. Tasks are claimed from a shared
    /// cursor, so an expensive task does not hold up the rest of the pool.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n)
            .map(|_| Mutex::new(&lockdep::COMMON_POOL_SLOT, None))
            .collect();
        let trace = tu_obs::trace::current_handle();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| {
                    let _attached = trace.as_ref().map(|h| h.attach());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(i);
                        *slots[i].lock() = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("every task index is claimed exactly once")
            })
            .collect()
    }
}

/// Parses `TU_QUERY_THREADS` if set to a positive integer.
pub fn env_threads() -> Option<usize> {
    env_threads_var(QUERY_THREADS_ENV)
}

/// Parses the given thread-count environment variable if set to a
/// positive integer.
pub fn env_threads_var(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        assert!(WorkerPool::new(0).run(0, |i| i).is_empty());
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(4).run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let pool = WorkerPool::new(8);
        let out = pool.run(1000, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let data: Vec<u64> = (0..100).collect();
        let sum: u64 = WorkerPool::new(4)
            .run(data.len(), |i| data[i] * 2)
            .iter()
            .sum();
        assert_eq!(sum, 2 * (0..100u64).sum::<u64>());
    }

    #[test]
    fn trace_context_propagates_to_workers() {
        for threads in [1, 2, 8] {
            let ctx = tu_obs::TraceContext::start("pool-test");
            let c = tu_obs::traced("common.pool.test_charges");
            WorkerPool::new(threads).run(24, |i| {
                c.add(1 + i as u64 % 2);
            });
            let summary = ctx.finish();
            // 12 tasks charge 1, 12 charge 2, on whatever worker ran them.
            assert_eq!(
                summary.counter("common.pool.test_charges"),
                36,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn resolve_env_prefers_env_then_configured() {
        // A variable that is certainly unset: configured wins.
        assert_eq!(
            WorkerPool::resolve_env("TU_POOL_TEST_UNSET_VAR", 3).threads(),
            3
        );
        // Unset and unconfigured: cores capped at 8.
        let fallback = WorkerPool::resolve_env("TU_POOL_TEST_UNSET_VAR", 0).threads();
        assert!((1..=8).contains(&fallback));
        // Set: env wins over configured.
        std::env::set_var("TU_POOL_TEST_SET_VAR", "5");
        assert_eq!(
            WorkerPool::resolve_env("TU_POOL_TEST_SET_VAR", 3).threads(),
            5
        );
        std::env::remove_var("TU_POOL_TEST_SET_VAR");
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn task_panics_propagate() {
        WorkerPool::new(2).run(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}

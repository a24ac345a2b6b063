//! `lockdep`: the debug-build runtime lock witness.
//!
//! The static concurrency pass in `tu-lint` proves what the *source*
//! says about lock nesting; this module checks what the *threads
//! actually do*. Each wrapped lock carries a [`LockClass`] — name, rank,
//! and flags copied verbatim from `docs/LOCK_ORDER.md` (the drift test at
//! the workspace root fails if they diverge) — and every acquisition is
//! checked against the thread's held-class stack: a thread may only
//! acquire a class whose rank is strictly above everything it already
//! holds (same-class nesting is tolerated for `multi` classes). A
//! violation panics with both classes and the full held stack, so the
//! stress tests (`parallel_ingest`, `parallel_query`, `http_plane`,
//! `introspection`) fail loudly on the exact interleaving the static
//! model says cannot exist.
//!
//! The witness is **debug-only**: in release builds [`enabled`] is
//! compile-time `false` and the wrappers cost one pointer per lock and a
//! predictable never-taken branch per acquisition. In debug builds it
//! defaults **on** and can be silenced with `TU_LOCK_WITNESS=0` (the env
//! var is read once).
//!
//! `lock()`/`read()`/`write()` return guards directly, `try_*` return
//! `Option`, and poisoning is swallowed. [`Condvar`] additionally asserts
//! the condvar discipline at `wait` time: the waiting thread must hold
//! *only* the mutex it is about to release.

use std::cell::RefCell;
use std::mem::ManuallyDrop;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
    RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard, WaitTimeoutResult,
};
use std::time::Duration;

/// One lock class from `docs/LOCK_ORDER.md`. Classes are compared by
/// pointer identity: every lock of a class shares one `&'static` def.
#[derive(Debug)]
pub struct LockClass {
    pub name: &'static str,
    /// Position in the declared total order; acquisitions must strictly
    /// ascend.
    pub rank: u16,
    /// Same-class nested acquisition is tolerated (sharded structures).
    pub multi: bool,
}

macro_rules! classes {
    ($($static_name:ident = ($name:literal, $rank:literal $(, $multi:ident)?);)*) => {
        $(pub static $static_name: LockClass = LockClass {
            name: $name,
            rank: $rank,
            multi: classes!(@multi $($multi)?),
        };)*

        static ALL_CLASSES: &[&LockClass] = &[$(&$static_name),*];

        /// Every witness class, for the drift test against
        /// `docs/LOCK_ORDER.md`.
        pub fn all() -> &'static [&'static LockClass] {
            ALL_CLASSES
        }
    };
    (@multi multi) => { true };
    (@multi) => { false };
}

classes! {
    TSDB_WINDOW = ("tsdb.window", 2);
    TSDB_HEAD = ("tsdb.head", 3);
    TSDB_BLOCKS = ("tsdb.blocks", 4);
    TSDB_BY_LABELS = ("tsdb.by_labels", 5);
    TSDB_SERIES_MAP = ("tsdb.series_map", 6);
    TSDB_LABELS_OF = ("tsdb.labels_of", 8);
    TSDB_OBJECT = ("tsdb.object", 9);
    TSDB_INDEX = ("tsdb.index", 12);
    ENGINE_MAINTENANCE = ("engine.maintenance", 16);
    ENGINE_WORKER = ("engine.worker", 18);
    ENGINE_SERVE = ("engine.serve", 20);
    CORE_MAP_LABELS = ("core.map.labels", 24);
    CORE_MAP_SHARD = ("core.map.shard", 26, multi);
    CORE_MAP_OBJECTS = ("core.map.objects", 28);
    CORE_OBJECT = ("core.object", 34);
    ENGINE_CKPTS = ("engine.ckpts", 38);
    CORE_CATALOG_PENDING = ("core.catalog.pending", 42);
    INDEX_TRIE = ("index.trie", 46);
    INDEX_POSTINGS = ("index.postings", 50);
    MMAP_SEGARR = ("mmap.segarr", 54, multi);
    MMAP_CHUNKFILE = ("mmap.chunkfile", 58);
    MMAP_PAGECACHE = ("mmap.pagecache", 62);
    LSM_MEMTABLE_ACTIVE = ("lsm.memtable.active", 66);
    LSM_MEMTABLE_IMM = ("lsm.memtable.imm", 68);
    LSM_TREE_LEVELS = ("lsm.tree.levels", 70);
    LSM_TREE_STATS = ("lsm.tree.stats", 72);
    LSM_TREE_TABLES = ("lsm.tree.tables", 74);
    LSM_LEVELED_LEVELS = ("lsm.leveled.levels", 76);
    LSM_LEVELED_STATS = ("lsm.leveled.stats", 78);
    LSM_LEVELED_TABLES = ("lsm.leveled.tables", 80);
    LSM_CACHE_SHARD = ("lsm.cache.shard", 82);
    LSM_WAL_PENDING = ("lsm.wal.pending", 84);
    LSM_WAL_COMMIT = ("lsm.wal.commit", 86);
    CLOUD_BLOCK_STATE = ("cloud.block.state", 90);
    CLOUD_OBJECT_STATE = ("cloud.object.state", 92);
    OBS_MONITOR_SAMPLER = ("obs.monitor.sampler", 96);
    OBS_MONITOR_STATE = ("obs.monitor.state", 98);
    OBS_MONITOR_RING = ("obs.monitor.ring", 104);
    OBS_SERVE_THREADS = ("obs.serve.threads", 106);
    OBS_SERVE_RX = ("obs.serve.rx", 108);
    OBS_FLIGHT_RING = ("obs.flight.ring", 116);
    OBS_TRACE_SPANS = ("obs.trace.spans", 118);
    OBS_TRACE_COUNTERS = ("obs.trace.counters", 120);
    OBS_REGISTRY = ("obs.registry", 122);
    OBS_LOG_INNER = ("obs.log.inner", 124);
    COMMON_POOL_SLOT = ("common.pool.slot", 128);
}

thread_local! {
    /// The classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
}

/// True when the witness is checking: debug builds only, and
/// `TU_LOCK_WITNESS` is not `"0"` (read once, default on).
pub fn enabled() -> bool {
    if !cfg!(debug_assertions) {
        return false;
    }
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var("TU_LOCK_WITNESS").map_or(true, |v| v != "0"))
}

/// Checks `class` against the held stack. Runs *before* blocking on the
/// underlying primitive so an inversion is reported even when the other
/// thread never arrives (the would-be deadlock, not the deadlock).
fn check(class: &'static LockClass) {
    if !enabled() {
        return;
    }
    HELD.with(|h| {
        let h = h.borrow();
        for held in h.iter() {
            let same = std::ptr::eq(*held, class);
            if held.rank < class.rank || (same && class.multi) {
                continue;
            }
            let stack: Vec<&str> = h.iter().map(|c| c.name).collect();
            panic!(
                "lockdep: lock-order violation: acquiring `{}` (rank {}) while \
                 holding `{}` (rank {}); thread's held stack: {:?}. The declared \
                 hierarchy in docs/LOCK_ORDER.md requires strictly ascending ranks.",
                class.name, class.rank, held.name, held.rank, stack
            );
        }
    });
}

/// Records `class` as held (after the underlying primitive granted it).
fn push(class: &'static LockClass) {
    if !enabled() {
        return;
    }
    HELD.with(|h| h.borrow_mut().push(class));
}

/// Forgets the most recent hold of `class` (guard drop, condvar park).
fn pop(class: &'static LockClass) {
    if !enabled() {
        return;
    }
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(i) = h.iter().rposition(|c| std::ptr::eq(*c, class)) {
            h.remove(i);
        }
    });
}

/// Asserts the condvar discipline: a thread about to park on `class`'s
/// mutex must hold nothing else — the wait releases only its own mutex,
/// so any other guard would stay locked while the thread sleeps.
fn check_wait(class: &'static LockClass) {
    if !enabled() {
        return;
    }
    HELD.with(|h| {
        let h = h.borrow();
        let others: Vec<&str> = {
            let mut seen_own = false;
            h.iter()
                .filter(|c| {
                    if !seen_own && std::ptr::eq(**c, class) {
                        seen_own = true;
                        false
                    } else {
                        true
                    }
                })
                .map(|c| c.name)
                .collect()
        };
        if !others.is_empty() {
            panic!(
                "lockdep: condvar-discipline violation: waiting on `{}`'s condvar \
                 while also holding {:?}; a condvar wait releases only its own \
                 mutex — every other lock stays held while this thread sleeps.",
                class.name, others
            );
        }
    });
}

/// The classes currently held by this thread, outermost first. Test and
/// diagnostic hook; empty when the witness is disabled.
pub fn held() -> Vec<&'static str> {
    if !enabled() {
        return Vec::new();
    }
    HELD.with(|h| h.borrow().iter().map(|c| c.name).collect())
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutex that reports its acquisitions to the witness.
pub struct Mutex<T: ?Sized> {
    class: &'static LockClass,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Mutex {
            class,
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        check(self.class);
        let g = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        push(self.class);
        MutexGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        check(self.class);
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        push(self.class);
        Some(MutexGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; pops the class from the held stack on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    inner: ManuallyDrop<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: ManuallyDrop::drop in Drop is the canonical pattern;
        // the field is never touched again, and Condvar::wait forgets the
        // guard before this can run.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        pop(self.class);
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock that reports its acquisitions to the witness.
/// Read and write acquisitions rank identically: the order discipline is
/// about *which* lock, not the mode.
pub struct RwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        RwLock {
            class,
            inner: StdRwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        check(self.class);
        let g = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        push(self.class);
        RwLockReadGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        check(self.class);
        let g = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        push(self.class);
        RwLockWriteGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        check(self.class);
        let g = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        push(self.class);
        Some(RwLockReadGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        })
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        check(self.class);
        let g = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        push(self.class);
        Some(RwLockWriteGuard {
            class: self.class,
            inner: ManuallyDrop::new(g),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    inner: ManuallyDrop<StdRwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: ManuallyDrop::drop in Drop; the field is never
        // touched again.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        pop(self.class);
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    inner: ManuallyDrop<StdRwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: ManuallyDrop::drop in Drop; the field is never
        // touched again.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        pop(self.class);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with a witness [`Mutex`]. Beyond relaying
/// to [`std::sync::Condvar`], `wait*` asserts the condvar discipline
/// (no second lock held) and keeps the held stack accurate across the
/// park/wake cycle.
pub struct Condvar(StdCondvar);

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar(StdCondvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (class, std_guard) = Self::park(guard);
        let g = match self.0.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        push(class);
        MutexGuard {
            class,
            inner: ManuallyDrop::new(g),
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (class, std_guard) = Self::park(guard);
        let (g, timed_out) = match self.0.wait_timeout(std_guard, dur) {
            Ok(r) => r,
            Err(p) => p.into_inner(),
        };
        push(class);
        (
            MutexGuard {
                class,
                inner: ManuallyDrop::new(g),
            },
            timed_out,
        )
    }

    /// Checks the discipline, marks the mutex released for the duration
    /// of the park, and dismantles the witness guard into its parts.
    fn park<'a, T>(mut guard: MutexGuard<'a, T>) -> (&'static LockClass, StdMutexGuard<'a, T>) {
        let class = guard.class;
        check_wait(class);
        // SAFETY: ManuallyDrop::take paired with mem::forget — exactly
        // one of take/Drop runs, so the std guard is moved out once and
        // never dropped twice.
        let std_guard = unsafe { ManuallyDrop::take(&mut guard.inner) };
        std::mem::forget(guard);
        pop(class);
        (class, std_guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // The witness only checks in debug builds with TU_LOCK_WITNESS unset
    // or non-zero; the violation tests are vacuous otherwise.
    fn witness_on() -> bool {
        enabled()
    }

    static T_OUTER: LockClass = LockClass {
        name: "test.outer",
        rank: 1,
        multi: false,
    };
    static T_INNER: LockClass = LockClass {
        name: "test.inner",
        rank: 2,
        multi: false,
    };
    static T_SHARD: LockClass = LockClass {
        name: "test.shard",
        rank: 3,
        multi: true,
    };

    /// Runs `f` on a fresh thread (its own held stack) and reports
    /// whether it panicked.
    fn panics(f: impl FnOnce() + Send + 'static) -> bool {
        std::thread::spawn(f).join().is_err()
    }

    #[test]
    fn conforming_order_is_silent() {
        let ok = !panics(|| {
            let a = Mutex::new(&T_OUTER, 1u32);
            let b = RwLock::new(&T_INNER, 2u32);
            let ga = a.lock();
            let gb = b.read();
            assert_eq!(*ga + *gb, 3);
            assert_eq!(
                held(),
                if witness_on() {
                    vec!["test.outer", "test.inner"]
                } else {
                    vec![]
                }
            );
            drop(gb);
            drop(ga);
            assert!(held().is_empty());
            // Re-acquire in the other order *sequentially* — fine.
            drop(b.write());
            drop(a.lock());
        });
        assert!(ok);
    }

    #[test]
    fn inverted_acquisition_panics() {
        if !witness_on() {
            return;
        }
        assert!(panics(|| {
            let a = Mutex::new(&T_OUTER, ());
            let b = Mutex::new(&T_INNER, ());
            let _gb = b.lock();
            let _ga = a.lock(); // rank 1 under rank 2: inversion
        }));
    }

    #[test]
    fn same_class_nesting_panics_unless_multi() {
        if !witness_on() {
            return;
        }
        assert!(panics(|| {
            let a = Mutex::new(&T_INNER, ());
            let b = Mutex::new(&T_INNER, ());
            let _ga = a.lock();
            let _gb = b.lock();
        }));
        assert!(!panics(|| {
            let a = RwLock::new(&T_SHARD, ());
            let b = RwLock::new(&T_SHARD, ());
            let _ga = a.write();
            let _gb = b.write();
        }));
    }

    #[test]
    fn try_lock_failure_does_not_leak_a_hold() {
        let m = Arc::new(Mutex::new(&T_OUTER, ()));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            assert!(m2.try_lock().is_none());
            assert!(held().is_empty());
        })
        .join()
        .expect("no panic");
        drop(g);
    }

    #[test]
    fn drop_order_releases_correctly_with_interleaving() {
        if !witness_on() {
            return;
        }
        let ok = !panics(|| {
            let a = Mutex::new(&T_OUTER, ());
            let b = Mutex::new(&T_INNER, ());
            let ga = a.lock();
            let gb = b.lock();
            // Out-of-order release is legal; only acquisition order matters.
            drop(ga);
            assert_eq!(held(), vec!["test.inner"]);
            drop(gb);
        });
        assert!(ok);
    }

    #[test]
    fn condvar_wait_holding_second_lock_panics() {
        if !witness_on() {
            return;
        }
        assert!(panics(|| {
            let a = Mutex::new(&T_OUTER, ());
            let m = Mutex::new(&T_INNER, false);
            let cv = Condvar::new();
            let _ga = a.lock();
            let gm = m.lock();
            let _ = cv.wait_timeout(gm, Duration::from_millis(1));
        }));
    }

    #[test]
    fn condvar_wait_with_only_its_mutex_works() {
        let m = Arc::new(Mutex::new(&T_INNER, false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
            assert_eq!(
                held(),
                if enabled() {
                    vec!["test.inner"]
                } else {
                    vec![]
                }
            );
        });
        std::thread::sleep(Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter conforms");
    }

    #[test]
    fn class_table_is_strictly_ranked() {
        let all = all();
        assert!(all.len() >= 30);
        for w in all.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} vs {}", w[0].name, w[1].name);
        }
    }
}

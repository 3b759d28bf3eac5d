//! Persistent worker pool behind [`crate::parallel`].
//!
//! Spawning OS threads per kernel call costs tens of microseconds per
//! launch — fatal in the bi-level search loop, which issues thousands of
//! small kernels per epoch. This pool spawns workers once (lazily, on the
//! first parallel kernel), parks them on a condvar between jobs, and
//! wakes them with a generation counter, so steady-state dispatch is a
//! mutex + condvar round-trip instead of a thread spawn.
//!
//! Determinism is unaffected by construction: the pool only changes *who*
//! executes a share, never how shares are partitioned (`share()`) or how
//! partial results are combined (fixed worker order) — both stay in
//! [`crate::parallel`].
//!
//! # Protocol
//!
//! - `run(n_shares, task)` publishes one job: the calling thread executes
//!   share 0 itself, workers `1..n_shares` execute theirs, and `run` does
//!   not return until every worker finished. Jobs are serialized by a
//!   dispatch mutex (concurrent callers queue; the pool is a process-wide
//!   singleton).
//! - Workers park in `Condvar::wait` and identify fresh work by an
//!   incrementing job epoch, so there are no missed or double-executed
//!   jobs across spurious wakeups.
//! - A worker panic is caught, recorded, and re-raised on the dispatching
//!   thread after the job drains; a dispatcher panic still waits for its
//!   workers before unwinding (see `CompletionGuard`), so the borrow
//!   erased in [`ErasedTask`] can never dangle.
//! - Nested dispatch (a kernel closure issuing another parallel kernel)
//!   falls back to executing all shares serially in ascending order on
//!   the current thread — deadlock-free and bit-identical, because share
//!   execution order never affects results.
//!
//! # Why `unsafe` (and why only here)
//!
//! Persistent threads cannot borrow from a caller's stack frame in safe
//! Rust — that is exactly the lifetime crossing scoped threads exist for.
//! The pool erases the task borrow to a raw pointer for the duration of
//! one job and re-establishes the invariant dynamically: the dispatcher
//! blocks until `active == 0` before the borrow ends. This is the only
//! module in the crate allowed to use `unsafe` (the crate is
//! `deny(unsafe_code)`), and the two exceptions below carry their proofs.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

// --- Observability counters (always-on atomics; timing metrics-gated) ---

/// Jobs published to workers (parallel regions with at least one worker).
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Nested parallel regions degraded to in-place serial execution.
static NESTED_SERIAL: AtomicU64 = AtomicU64::new(0);
/// Worker job pickups (wake transitions out of the condvar).
static WAKES: AtomicU64 = AtomicU64::new(0);
/// Worker condvar waits entered (park transitions).
static PARKS: AtomicU64 = AtomicU64::new(0);
/// Per-worker busy nanoseconds; worker `id` accumulates into slot
/// `min(id - 1, N_BUSY - 1)` (ids beyond the tracked range fold into the
/// last slot). Only advances while `cts_obs::metrics_enabled()`.
const N_BUSY: usize = 64;
static BUSY_NS: [AtomicU64; N_BUSY] = [const { AtomicU64::new(0) }; N_BUSY];

fn busy_slot(id: usize) -> &'static AtomicU64 {
    &BUSY_NS[(id - 1).min(N_BUSY - 1)]
}

/// Snapshot the pool's dispatch counters.
pub(crate) fn stats() -> cts_obs::PoolStats {
    let workers = worker_count();
    cts_obs::PoolStats {
        workers,
        dispatches: DISPATCHES.load(Ordering::Relaxed),
        nested_serial: NESTED_SERIAL.load(Ordering::Relaxed),
        wakes: WAKES.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS[..workers.clamp(1, N_BUSY)]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Zero the pool's dispatch counters (worker count is live state, not a
/// counter, and is unaffected).
pub(crate) fn reset_stats() {
    DISPATCHES.store(0, Ordering::Relaxed);
    NESTED_SERIAL.store(0, Ordering::Relaxed);
    WAKES.store(0, Ordering::Relaxed);
    PARKS.store(0, Ordering::Relaxed);
    for a in &BUSY_NS {
        a.store(0, Ordering::Relaxed);
    }
}

/// Lifetime-erased pointer to the current job's share closure. The
/// pointee type is `+ 'static` only because a stored trait object must
/// name *some* lifetime — the actual borrow is shorter and is kept alive
/// dynamically (see `run` / `CompletionGuard`).
struct ErasedTask(*const (dyn Fn(usize) + Sync + 'static));

// The pointer is created from a `&(dyn Fn(usize) + Sync)` in `run`, which
// does not return (and does not let the erased borrow end, even on panic —
// see `CompletionGuard`) until `active == 0`, i.e. until every worker has
// finished dereferencing it.
// SAFETY: the pointee outlives all worker accesses (above) and is `Sync`,
// so concurrent `&`-calls from multiple workers are sound.
unsafe impl Send for ErasedTask {}
// SAFETY: as above — shared access to a `Sync` closure.
unsafe impl Sync for ErasedTask {}

struct State {
    /// Job generation counter; bumped once per published job.
    epoch: u64,
    /// The currently published job, if any.
    task: Option<ErasedTask>,
    /// Worker ids `1..=participants` run the current job.
    participants: usize,
    /// Participants that have not yet finished the current job.
    active: usize,
    /// Worker threads currently alive.
    spawned: usize,
    /// Set while `shutdown` drains the pool.
    quitting: bool,
    /// A worker panicked during the current job.
    panicked: bool,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The dispatcher parks here until `active == 0`.
    done: Condvar,
    /// Serializes dispatches: one parallel region at a time.
    dispatch: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True while this thread is inside a parallel region (dispatcher or
    /// worker); nested dispatch then runs all shares serially in place.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            epoch: 0,
            task: None,
            participants: 0,
            active: 0,
            spawned: 0,
            quitting: false,
            panicked: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        dispatch: Mutex::new(()),
        handles: Mutex::new(Vec::new()),
    })
}

/// Poison-tolerant lock: a panicking kernel closure must not wedge the
/// pool for every subsequent kernel in the process.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Waits out the current job on drop, then clears it. Exists so that a
/// panic in the dispatcher's own share cannot end the erased borrow while
/// workers still hold the task pointer.
struct CompletionGuard {
    p: &'static Pool,
    engaged: bool,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if self.engaged {
            let mut st = lock(&self.p.state);
            while st.active > 0 {
                st = self
                    .p
                    .done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.task = None;
        }
        IN_PARALLEL.with(|f| f.set(false));
    }
}

/// Execute `task(0) ..= task(n_shares - 1)`, share 0 on the calling
/// thread, the rest on pool workers. Returns after all shares complete;
/// propagates the first panic observed.
pub(crate) fn run(n_shares: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_shares == 0 {
        return;
    }
    let nested = IN_PARALLEL.with(|f| f.replace(true));
    if nested {
        // Nested parallel region (kernel inside kernel): run every share
        // in ascending order right here. Share execution order never
        // affects results, so this is bit-identical and deadlock-free.
        // The flag was already true; leave it for the outer region.
        NESTED_SERIAL.fetch_add(1, Ordering::Relaxed);
        for w in 0..n_shares {
            task(w);
        }
        return;
    }
    let p = pool();
    let region = lock(&p.dispatch);
    let needed = n_shares - 1;
    if needed > 0 {
        DISPATCHES.fetch_add(1, Ordering::Relaxed);
        let mut st = lock(&p.state);
        spawn_to(p, &mut st, needed);
        st.epoch += 1;
        // Pure lifetime erasure to satisfy ErasedTask's stored type; the
        // borrow stays alive until every worker finished with it.
        // SAFETY: `run` does not return (even on panic: CompletionGuard)
        // before `active == 0`, and `task` is cleared right after.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        st.task = Some(ErasedTask(erased));
        st.participants = needed;
        st.active = needed;
        st.panicked = false;
        drop(st);
        p.work.notify_all();
    }
    let guard = CompletionGuard {
        p,
        engaged: needed > 0,
    };
    let own = catch_unwind(AssertUnwindSafe(|| task(0)));
    drop(guard); // waits for all workers, clears the job, resets the flag
    let worker_panicked = lock(&p.state).panicked;
    drop(region);
    match own {
        Err(payload) => resume_unwind(payload),
        Ok(()) if worker_panicked => panic!("parallel kernel worker panicked"),
        Ok(()) => {}
    }
}

/// Spawn workers until `needed` are alive. Called under the state lock.
fn spawn_to(p: &'static Pool, st: &mut State, needed: usize) {
    while st.spawned < needed {
        let id = st.spawned + 1;
        let h = std::thread::Builder::new()
            .name(format!("cts-pool-{id}"))
            .spawn(move || worker_loop(id))
            // invariant: thread spawn only fails on resource exhaustion,
            // at which point the process cannot make progress anyway.
            .expect("failed to spawn pool worker");
        lock(&p.handles).push(h);
        st.spawned += 1;
    }
}

fn worker_loop(id: usize) {
    // invariant: workers are only spawned from `run`, after POOL is set.
    let p = POOL.get().expect("pool initialised before workers spawn");
    let mut seen = 0u64;
    let mut st = lock(&p.state);
    loop {
        if st.quitting {
            return;
        }
        if st.epoch != seen {
            seen = st.epoch;
            if id <= st.participants {
                if let Some(t) = &st.task {
                    let task = t.0;
                    drop(st);
                    WAKES.fetch_add(1, Ordering::Relaxed);
                    let busy = cts_obs::timer();
                    IN_PARALLEL.with(|f| f.set(true));
                    // SAFETY: the dispatcher keeps the closure (and all
                    // it borrows) alive until `active` drops to 0 — only
                    // after this call returns; it is `Sync` (ErasedTask).
                    let r = catch_unwind(AssertUnwindSafe(|| (unsafe { &*task })(id)));
                    IN_PARALLEL.with(|f| f.set(false));
                    if let Some(ns) = busy.elapsed_ns() {
                        busy_slot(id).fetch_add(ns, Ordering::Relaxed);
                    }
                    st = lock(&p.state);
                    if r.is_err() {
                        st.panicked = true;
                    }
                    st.active -= 1;
                    if st.active == 0 {
                        p.done.notify_all();
                    }
                    continue;
                }
            }
        }
        PARKS.fetch_add(1, Ordering::Relaxed);
        st = p
            .work
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Join every worker and reset the pool to its never-started state. The
/// next parallel kernel lazily respawns workers. Used by tests to prove
/// teardown/re-init keeps results bit-identical, and available to hosts
/// that want to reclaim the threads.
pub(crate) fn shutdown() {
    let Some(p) = POOL.get() else { return };
    let _region = lock(&p.dispatch);
    {
        let mut st = lock(&p.state);
        if st.spawned == 0 {
            return;
        }
        st.quitting = true;
    }
    p.work.notify_all();
    let handles = std::mem::take(&mut *lock(&p.handles));
    for h in handles {
        let _ = h.join();
    }
    let mut st = lock(&p.state);
    *st = State {
        epoch: 0,
        task: None,
        participants: 0,
        active: 0,
        spawned: 0,
        quitting: false,
        panicked: false,
    };
}

/// Number of worker threads currently parked in the pool (not counting
/// dispatching callers, which always run share 0 themselves).
pub(crate) fn worker_count() -> usize {
    POOL.get().map_or(0, |p| lock(&p.state).spawned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // The pool is a process-wide singleton; tests that count workers or
    // tear the pool down serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn runs_every_share_exactly_once() {
        let _g = lock(&TEST_LOCK);
        for n in [1usize, 2, 3, 7] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run(n, &|w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "share {w} of {n}");
            }
        }
    }

    #[test]
    fn workers_persist_between_jobs() {
        let _g = lock(&TEST_LOCK);
        run(4, &|_| {});
        let after_first = worker_count();
        assert!(after_first >= 3);
        for _ in 0..10 {
            run(4, &|_| {});
        }
        assert_eq!(
            worker_count(),
            after_first,
            "steady-state spawns no threads"
        );
    }

    #[test]
    fn shutdown_then_reinit_still_runs() {
        let _g = lock(&TEST_LOCK);
        run(3, &|_| {});
        shutdown();
        assert_eq!(worker_count(), 0);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        run(3, &|w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let _g = lock(&TEST_LOCK);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run(4, &|w| {
                if w == 2 {
                    panic!("boom in worker");
                }
            });
        }));
        assert!(r.is_err(), "dispatcher must observe the worker panic");
        // Pool must still be functional afterwards.
        let ok = AtomicUsize::new(0);
        run(4, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn dispatcher_panic_waits_for_workers() {
        let _g = lock(&TEST_LOCK);
        let slow = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run(4, &|w| {
                if w == 0 {
                    panic!("boom in caller");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                slow.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(r.is_err());
        // By the time run unwound, every worker must have finished (the
        // guard waited) — otherwise the erased borrow would have dangled.
        assert_eq!(slow.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_dispatch_runs_serially_in_order() {
        let _g = lock(&TEST_LOCK);
        let order = Mutex::new(Vec::new());
        run(2, &|outer| {
            if outer == 0 {
                run(3, &|inner| {
                    order.lock().unwrap().push(inner);
                });
            }
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }
}

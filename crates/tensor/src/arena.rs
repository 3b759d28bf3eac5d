//! Thread-local buffer arena: size-class free lists that recycle tensor
//! data buffers (and kernel scratch) across tape steps instead of
//! round-tripping every allocation through the system allocator.
//!
//! Every [`crate::Tensor`] acquires its `Vec<f32>` here and returns it on
//! drop, so a steady-state training step — which creates and destroys the
//! same population of activation/gradient tensors every iteration —
//! reaches a fixed point where the arena satisfies (almost) every request
//! from its free lists and the system allocator is no longer on the hot
//! path.
//!
//! # Design
//!
//! - **Thread-local**: each thread owns its free lists, so there is no
//!   locking. The persistent worker pool ([`crate::parallel`]) keeps its
//!   threads alive between kernels, which is what makes worker-local
//!   recycling effective (scoped spawn-per-kernel threads would drop
//!   their lists on every kernel exit).
//! - **Power-of-two size classes**: a freed buffer is binned by
//!   `floor(log2(capacity))`; a request of `len` floats takes from bin
//!   `ceil(log2(len))`, so any recycled hit is guaranteed to have enough
//!   capacity. Fresh allocations round their capacity up to the class
//!   size so they re-enter the exact bin that will serve them next time.
//! - **Bounded residency**: at most [`PER_CLASS`] buffers per class and
//!   [`MAX_RESIDENT_FLOATS`] floats total stay cached per thread; excess
//!   buffers fall through to the system allocator's `dealloc` as before.
//! - **Demand-bounded free lists**: a thread keeps at most as many buffers
//!   of a class as it has itself had out at once. Buffers freed by a
//!   thread that never asks for their class — a serving shard freeing a
//!   client's request window, a client freeing the shard's answer — fall
//!   through to the system allocator instead of piling up in a free list
//!   nobody takes from.
//! - **Deterministic values**: every buffer handed out is fully
//!   initialised (zeroed, constant-filled, or copied) before the caller
//!   sees it, so recycling can never change numerical results. Debug
//!   builds additionally poison-fill recycled buffers with a NaN pattern
//!   ([`POISON`]) so any code path that could observe stale data fails
//!   loudly in tests.
//!
//! # Counters
//!
//! [`stats`] exposes per-thread hit/miss/recycle counters; a *miss* is a
//! real system allocation, so `misses per step` is the arena-level
//! counting-allocator metric the benchmark suite and the
//! allocation-regression gate in `scripts/check.sh` report.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Number of size classes (class `c` holds capacities in `[2^c, 2^{c+1})`).
const N_CLASSES: usize = 27;

/// Maximum buffers retained per size class. A whole tape's activations of
/// one size are live simultaneously and all recycle at tape drop, so this
/// must cover the per-step population of a size class (thousands for the
/// supernet's activation shape) or the overflow is discarded and
/// re-allocated every step. [`MAX_RESIDENT_FLOATS`] is the real memory
/// bound; this only guards against one class monopolising it.
const PER_CLASS: usize = 8192;

/// Total floats retained per thread across all classes (2^28 floats =
/// 1 GiB of f32). Sized for the default-scale supernet (`NODES=16`,
/// `BATCH=8`, `D_MODEL=16`), whose per-step buffer population is a few
/// hundred MB; a smaller cap makes every step re-allocate the overflow
/// from the system. Retention is demand-driven — the cap only fills if
/// the workload actually churns that much.
///
/// The budget is accounted in *actual capacity* (`Vec::capacity`), which
/// for arena-allocated buffers is the rounded power-of-two class size —
/// never the smaller requested length. Both sides of the ledger use the
/// same measure (`take_raw` subtracts `buf.capacity()` on a hit,
/// [`recycle`] adds `cap` back), so residency can neither drift nor
/// undercount rounding slack; `arena_residency_counts_class_capacity` in
/// the tests pins this at class boundaries.
const MAX_RESIDENT_FLOATS: usize = 1 << 28;

/// NaN bit pattern written over recycled buffers in debug builds, so any
/// read of stale data is unmistakable (and poisons downstream results).
pub const POISON: f32 = f32::from_bits(0x7fc0_dead);

/// Snapshot of this thread's arena counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served from a free list (no system allocation).
    pub hits: u64,
    /// Requests that fell through to the system allocator.
    pub misses: u64,
    /// Buffers accepted back into a free list.
    pub recycled: u64,
    /// Buffers dropped (arena disabled, class full, or over budget).
    pub discarded: u64,
    /// Floats currently cached in this thread's free lists.
    pub resident_floats: u64,
}

/// Per-size-class gauges for one class of this thread's arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Size-class index (buffers hold `2^class` floats).
    pub class: usize,
    /// Buffers currently cached in this class's free list.
    pub buffers: usize,
    /// Floats currently cached in this class (`buffers * 2^class` for
    /// arena-allocated buffers; exact capacity sum in general).
    pub resident_floats: u64,
    /// Requests this class served from its free list.
    pub hits: u64,
    /// Requests routed to this class that fell through to the allocator.
    pub misses: u64,
}

struct ArenaTls {
    bins: Vec<Vec<Vec<f32>>>,
    resident: usize,
    stats: ArenaStats,
    class_hits: [u64; N_CLASSES],
    class_misses: [u64; N_CLASSES],
    // Per-class demand: buffers taken on this thread and not yet freed on
    // it (saturating, since buffers taken elsewhere are freed here too),
    // and that count's high-water mark, which caps the class's free list.
    out: [usize; N_CLASSES],
    demand: [usize; N_CLASSES],
    // Live-buffer gauge: capacity handed out by `take_raw` and not yet
    // returned through `recycle`. `live` can only undercount (buffers
    // built outside the arena still recycle on Tensor drop), never
    // overcount — which keeps `peak_live` a sound *lower* bound on true
    // peak residency for the static cost model's `estimate >= measured`
    // regression gate.
    live: usize,
    peak_live: usize,
}

impl ArenaTls {
    fn new() -> Self {
        ArenaTls {
            bins: (0..N_CLASSES).map(|_| Vec::new()).collect(),
            resident: 0,
            stats: ArenaStats::default(),
            class_hits: [0; N_CLASSES],
            class_misses: [0; N_CLASSES],
            out: [0; N_CLASSES],
            demand: [0; N_CLASSES],
            live: 0,
            peak_live: 0,
        }
    }

    fn note_taken(&mut self, cap: usize) {
        self.live += cap;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
    }
}

thread_local! {
    static ARENA: RefCell<ArenaTls> = RefCell::new(ArenaTls::new());
}

/// 0 = follow `CTS_ARENA` env (default on), 1 = forced on, 2 = forced off.
static MODE: AtomicU8 = AtomicU8::new(0);

fn env_disabled() -> bool {
    // Read per call so tests can flip the env before first use; the parse
    // is trivial and off the hot path only when the arena is disabled.
    static ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        matches!(
            std::env::var("CTS_ARENA").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Is buffer recycling active on this thread?
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => !env_disabled(),
    }
}

/// Force the arena on/off process-wide (`None` restores the `CTS_ARENA`
/// env default). Benchmarks use this to measure the allocation churn the
/// arena removes.
pub fn set_enabled(on: Option<bool>) {
    MODE.store(
        match on {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Size class a request of `len` floats takes from: smallest class whose
/// buffers are all guaranteed to hold `len`.
fn class_for_request(len: usize) -> usize {
    (usize::BITS - len.max(1).next_power_of_two().leading_zeros() - 1) as usize
}

/// Size class a buffer of `cap` floats is stored in.
fn class_for_capacity(cap: usize) -> usize {
    (usize::BITS - cap.leading_zeros() - 1) as usize
}

/// Pop a recycled buffer with capacity ≥ `len`, or allocate a fresh one
/// whose capacity is rounded up to the class size (so it re-enters the
/// serving bin when recycled). The returned Vec has `len == 0`.
fn take_raw(len: usize) -> Vec<f32> {
    if !enabled() {
        return Vec::with_capacity(len);
    }
    let class = class_for_request(len);
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if class < N_CLASSES {
            a.out[class] += 1;
            a.demand[class] = a.demand[class].max(a.out[class]);
            if let Some(mut buf) = a.bins[class].pop() {
                a.resident -= buf.capacity();
                a.stats.hits += 1;
                a.class_hits[class] += 1;
                a.stats.resident_floats = a.resident as u64;
                a.note_taken(buf.capacity());
                buf.clear();
                return buf;
            }
            a.class_misses[class] += 1;
        }
        a.stats.misses += 1;
        let cap = len.max(1).next_power_of_two();
        a.note_taken(cap);
        Vec::with_capacity(cap)
    })
}

/// A zero-filled buffer of exactly `len` floats.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_raw(len);
    v.resize(len, 0.0);
    v
}

/// A constant-filled buffer of exactly `len` floats.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take_raw(len);
    v.resize(len, value);
    v
}

/// A buffer holding a copy of `src`.
pub fn take_copied(src: &[f32]) -> Vec<f32> {
    let mut v = take_raw(src.len());
    v.extend_from_slice(src);
    v
}

/// A buffer of `len` floats filled from `it` (must yield ≥ `len` items).
pub fn take_from_iter(len: usize, it: impl Iterator<Item = f32>) -> Vec<f32> {
    let mut v = take_raw(len);
    v.extend(it.take(len));
    debug_assert_eq!(v.len(), len, "take_from_iter: iterator too short");
    v
}

/// Pre-populate this thread's free lists so that a later sequence of
/// `take_*` requests for exactly these lengths is served without touching
/// the system allocator (compiled inference plans call this with their
/// full intermediate-buffer population before the first forward).
///
/// All buffers are taken *before* any is recycled: duplicate lengths in
/// `lens` therefore end up as distinct free-list entries, matching a
/// forward pass that holds several same-sized intermediates live at once.
pub fn prewarm(lens: &[usize]) {
    let taken: Vec<Vec<f32>> = lens.iter().map(|&l| take_raw(l)).collect();
    for buf in taken {
        recycle(buf);
    }
}

/// Return a buffer to this thread's free lists (or drop it when the
/// arena is disabled, the class is full or already holds this thread's
/// demand for it, or the residency budget is hit).
pub fn recycle(mut buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    if !enabled() {
        ARENA.with(|a| a.borrow_mut().stats.discarded += 1);
        return;
    }
    let class = class_for_capacity(cap);
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        // Gauge first: the buffer stops being live whether or not the
        // free list accepts it. Saturating because buffers created
        // outside `take_raw` (e.g. `Tensor::from_vec`) also land here.
        a.live = a.live.saturating_sub(cap);
        if class >= N_CLASSES {
            a.stats.discarded += 1;
            return;
        }
        a.out[class] = a.out[class].saturating_sub(1);
        let held = a.bins[class].len();
        if held >= PER_CLASS || held >= a.demand[class] || a.resident + cap > MAX_RESIDENT_FLOATS {
            a.stats.discarded += 1;
            return;
        }
        #[cfg(debug_assertions)]
        {
            // Poison so any use of recycled memory that skipped
            // re-initialisation surfaces as NaNs in debug/test builds.
            buf.clear();
            buf.resize(cap, POISON);
        }
        buf.clear();
        a.resident += cap;
        a.stats.recycled += 1;
        a.stats.resident_floats = a.resident as u64;
        a.bins[class].push(buf);
    });
}

/// This thread's arena counters.
pub fn stats() -> ArenaStats {
    ARENA.with(|a| a.borrow().stats)
}

/// `(live, peak_live)` floats currently handed out by `take_raw` and not
/// yet recycled on this thread, and the high-water mark since the last
/// [`reset_live_peak`]. Measured in *actual capacity* (rounded
/// power-of-two class sizes), the same ledger unit as `resident_floats`.
/// The static cost model's peak-bytes regression gate compares its
/// estimate against `peak_live × 4` bytes.
pub fn live_stats() -> (usize, usize) {
    ARENA.with(|a| {
        let a = a.borrow();
        (a.live, a.peak_live)
    })
}

/// Reset this thread's live high-water mark to the current live gauge
/// (the gauge itself is preserved — buffers taken before the reset still
/// count as live until recycled).
pub fn reset_live_peak() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.peak_live = a.live;
    });
}

/// Per-class gauges for this thread, skipping classes with no activity
/// (no cached buffers and no hits/misses).
pub fn class_stats() -> Vec<ClassStats> {
    ARENA.with(|a| {
        let a = a.borrow();
        (0..N_CLASSES)
            .filter_map(|c| {
                let buffers = a.bins[c].len();
                let hits = a.class_hits[c];
                let misses = a.class_misses[c];
                if buffers == 0 && hits == 0 && misses == 0 {
                    return None;
                }
                Some(ClassStats {
                    class: c,
                    buffers,
                    resident_floats: a.bins[c].iter().map(|b| b.capacity() as u64).sum(),
                    hits,
                    misses,
                })
            })
            .collect()
    })
}

/// Zero this thread's counters (residency is preserved and re-reported).
pub fn reset_stats() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let resident = a.resident as u64;
        a.stats = ArenaStats {
            resident_floats: resident,
            ..ArenaStats::default()
        };
        a.class_hits = [0; N_CLASSES];
        a.class_misses = [0; N_CLASSES];
    });
}

/// Drop every buffer cached by this thread.
pub fn clear() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        for bin in &mut a.bins {
            bin.clear();
        }
        a.resident = 0;
        a.stats.resident_floats = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        // Any buffer stored in the class serving a request has capacity
        // >= the request.
        for len in [1usize, 2, 3, 48, 64, 65, 1000, 4096] {
            let serve = class_for_request(len);
            // fresh allocation capacity for this request
            let cap = len.next_power_of_two();
            assert_eq!(class_for_capacity(cap), serve, "len {len}");
            assert!(cap >= len);
        }
    }

    #[test]
    fn take_recycle_roundtrip_reuses_allocation() {
        clear();
        reset_stats();
        let v = take_zeroed(1000);
        let ptr = v.as_ptr();
        recycle(v);
        let v2 = take_zeroed(900); // same class (1024)
        assert_eq!(v2.as_ptr(), ptr, "same-class request must reuse the buffer");
        assert_eq!(v2.len(), 900);
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffer must be zeroed");
        let s = stats();
        assert_eq!(s.hits, 1);
        recycle(v2);
        clear();
    }

    #[test]
    fn disabled_arena_never_caches() {
        clear();
        set_enabled(Some(false));
        let v = take_zeroed(128);
        recycle(v);
        assert_eq!(stats().resident_floats, 0);
        set_enabled(None);
    }

    #[test]
    fn filled_and_copied() {
        let f = take_filled(5, 2.5);
        assert_eq!(f, vec![2.5; 5]);
        let c = take_copied(&[1.0, 2.0]);
        assert_eq!(c, vec![1.0, 2.0]);
        let it = take_from_iter(3, [7.0, 8.0, 9.0, 10.0].into_iter());
        assert_eq!(it, vec![7.0, 8.0, 9.0]);
        recycle(f);
        recycle(c);
        recycle(it);
    }

    #[test]
    fn arena_residency_counts_class_capacity() {
        // The residency ledger must count the rounded power-of-two class
        // capacity a buffer actually occupies, not the requested length —
        // a 1025-float request allocates (and must be accounted as) 2048.
        clear();
        reset_stats();
        let v = take_zeroed(1025);
        assert_eq!(v.capacity(), 2048, "fresh alloc rounds up to class size");
        recycle(v);
        let s = stats();
        assert_eq!(
            s.resident_floats, 2048,
            "resident floats must be class capacity, not requested 1025"
        );
        let cs = class_stats();
        let c11 = cs
            .iter()
            .find(|c| c.class == 11)
            .expect("class 11 (2048) active");
        assert_eq!((c11.buffers, c11.resident_floats), (1, 2048));
        // Exact power-of-two boundary: 1024 lands one class below.
        let w = take_zeroed(1024);
        assert_eq!(w.capacity(), 1024);
        recycle(w);
        assert_eq!(stats().resident_floats, 2048 + 1024);
        // Taking the 1025-class buffer back removes its full capacity.
        let v2 = take_zeroed(1025);
        assert_eq!(stats().resident_floats, 1024);
        assert_eq!(v2.capacity(), 2048, "hit returns the rounded buffer");
        recycle(v2);
        clear();
    }

    #[test]
    fn class_stats_track_hits_and_misses() {
        clear();
        reset_stats();
        let v = take_zeroed(100); // miss in class 7 (128)
        recycle(v);
        let v = take_zeroed(100); // hit in class 7
        recycle(v);
        let cs = class_stats();
        let c7 = cs.iter().find(|c| c.class == 7).expect("class 7 active");
        assert_eq!((c7.hits, c7.misses, c7.buffers), (1, 1, 1));
        assert_eq!(c7.resident_floats, 128);
        clear();
        reset_stats();
    }

    #[test]
    fn residency_is_bounded_per_class() {
        clear();
        // A demand past the cap: every buffer is out at once.
        let held: Vec<Vec<f32>> = (0..(PER_CLASS + 4)).map(|_| take_zeroed(256)).collect();
        for buf in held {
            recycle(buf);
        }
        ARENA.with(|a| {
            let a = a.borrow();
            assert!(a.bins[class_for_capacity(256)].len() <= PER_CLASS);
        });
        clear();
    }

    #[test]
    fn buffers_freed_by_another_thread_stay_within_the_receivers_demand() {
        // One thread takes a stream of buffers and another frees them, as
        // a serving client and shard do with request windows. The
        // receiver has had at most two buffers of that class out at once,
        // so its free list may keep two, never the sender's stream.
        let (tx, rx) = std::sync::mpsc::channel::<Vec<f32>>();
        let sender = std::thread::spawn(move || {
            for _ in 0..1000 {
                tx.send(take_zeroed(300)).unwrap();
            }
        });
        let receiver = std::thread::spawn(move || {
            let (a, b) = (take_zeroed(300), take_zeroed(300));
            recycle(a);
            recycle(b);
            for buf in rx {
                recycle(buf);
            }
            stats().resident_floats
        });
        sender.join().unwrap();
        let resident = receiver.join().unwrap();
        assert!(resident <= 2 * 512, "receiver caches {resident} floats for a demand of 2 x 512");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn recycled_buffers_are_poisoned_then_reinitialised() {
        clear();
        let mut v = take_zeroed(64);
        v[0] = 42.0;
        recycle(v);
        // The cached buffer is poisoned; but everything the public API
        // hands back is re-initialised, so the poison is never visible.
        let v2 = take_zeroed(64);
        assert!(v2.iter().all(|&x| x == 0.0));
        let v3 = take_filled(64, 1.0);
        assert!(v3.iter().all(|&x| x == 1.0));
        recycle(v2);
        recycle(v3);
        clear();
    }
}

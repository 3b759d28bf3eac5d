//! Deterministic parallel partitioning for tensor kernels, dispatched on
//! a persistent worker pool.
//!
//! Every data-parallel kernel in [`crate::ops`] funnels through the helpers
//! here. The model is deliberately simple: an output buffer is viewed as a
//! sequence of fixed-size *units* (a matmul output row, a softmax row, one
//! batch matrix, a single element, …) and contiguous runs of units are
//! dealt out to workers.
//!
//! # Dispatch
//!
//! Shares execute on a lazily-started persistent worker pool
//! (`pool.rs`): workers are spawned on the first sufficiently large
//! kernel, then park on a condvar between jobs, so steady-state dispatch
//! is a wake/sleep round-trip instead of an OS thread spawn per kernel.
//!
//! The pool affects scheduling only. Partitioning (`share`) lives here,
//! and every worker writes its own output units, so results are
//! bit-identical at any thread count and across pool teardown/re-init.
//! Per-launch share bookkeeping lives in bounded inline storage, so a
//! warmed multi-thread launch allocates nothing.
//!
//! # Thread count
//!
//! The worker count comes from, in priority order:
//!
//! 1. [`set_num_threads`] (process-wide override, mainly for tests/benches),
//! 2. the `CTS_NUM_THREADS` environment variable (read once, cached),
//! 3. [`std::thread::available_parallelism`].
//!
//! With a thread count of 1 every helper takes the exact serial code path,
//! so `CTS_NUM_THREADS=1` is bit-identical to a fully serial build.
//!
//! # Serial fallback
//!
//! Callers pass an estimated scalar-op count for the whole kernel; work
//! smaller than [`PAR_THRESHOLD`] never crosses a thread boundary, so tiny
//! tensors (the common case inside cell-search inner loops) pay nothing.
//!
//! # Determinism registry
//!
//! Bit-identical results at any thread count (the guarantee the
//! checkpoint/resume layer depends on) only hold if no element's
//! arithmetic depends on how the work was split. Every kernel therefore
//! writes disjoint output units, each computed by exactly the chain the
//! serial loop would run; a kernel whose output sums over its input
//! (a weight gradient summed over series) splits its *output* rows, never
//! the summed axis. That contract is machine checked, not conventional:
//! each call into [`for_units`] must present a [`KernelSpec`] registered
//! in [`kernels::ALL`], and the [`Partition`] / [`Reduction`] enums only
//! have order-deterministic variants. A new kernel that skips
//! registration panics on first use; one that invents a non-deterministic
//! strategy cannot even name it. `cts-verify` audits the registry as part
//! of its static report.

use crate::pool;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// How a kernel's output is split across workers.
///
/// Every variant is deterministic by construction: the assignment of work
/// to a worker index depends only on the unit count and thread count,
/// never on scheduling order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Contiguous runs of fixed-size units, dealt out in worker order
    /// (worker `w` gets units `[start_w, start_w + n_w)`; see `share`).
    ContiguousUnits,
}

/// How per-worker results are combined into the kernel's output.
///
/// The only variant combines nothing, so no floating-point sum depends on
/// the thread count. Summing per-worker partial buffers would regroup the
/// additions whenever the worker count changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Workers write disjoint output ranges; nothing is combined.
    DisjointWrites,
}

/// How a kernel's vector (SIMD) lanes relate to its scalar accumulation
/// order — the declaration the cts-verify determinism audit checks against
/// each kernel's lane width.
///
/// Every variant is bit-deterministic: `ElementChains` and
/// `PinnedMaxTree` produce outputs bit-identical to the scalar path at
/// every SIMD level and thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOrder {
    /// No vector path: the kernel's inner loops are scalar at every SIMD
    /// level (sequential sums, odometer gathers, pure copies).
    ScalarOnly,
    /// Lanes are independent *output elements*; each element keeps its
    /// scalar ascending addition chain (separate mul + add, never FMA), so
    /// no cross-lane combine exists and results are bit-identical to
    /// scalar by construction.
    ElementChains,
    /// Per-lane running maxima combined through a fixed pairwise tree
    /// (softmax max scan). Max is order-insensitive up to the sign of an
    /// equal-zero result, which the consuming `exp(x − m)` cannot observe.
    PinnedMaxTree,
}

/// A kernel's declared SIMD shape: lane width and lane-order contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdContract {
    /// f32 lanes the vector path is written for (1 = scalar only). The
    /// audit requires `ScalarOnly ⇔ width 1` and vectorized kernels to
    /// match [`crate::simd::LANES`].
    pub lane_width: usize,
    /// How lanes relate to the scalar accumulation order.
    pub order: LaneOrder,
}

/// Static description of one parallel kernel: its name and the
/// partition/reduction strategy it is allowed to use.
///
/// Specs are `'static` and identity-checked against [`kernels::ALL`], so
/// the set of kernels that can touch the thread pool is a closed, auditable
/// list.
#[derive(Debug)]
pub struct KernelSpec {
    /// Stable kernel name (module-qualified, e.g. `"conv.temporal_grad_w"`).
    pub name: &'static str,
    /// Work-splitting strategy.
    pub partition: Partition,
    /// Result-combination strategy.
    pub reduction: Reduction,
    /// Declared SIMD lane width and order (audited by cts-verify).
    pub simd: SimdContract,
    /// Cumulative invocation/timing counters (observability). Embedded in
    /// the spec so recording needs no lookup; timing is only added when
    /// `cts_obs::metrics_enabled()`.
    pub stats: cts_obs::KernelStats,
}

/// The closed registry of kernels allowed on the parallel layer.
pub mod kernels {
    use super::{KernelSpec, LaneOrder, Partition, Reduction, SimdContract};

    const fn disjoint(name: &'static str) -> KernelSpec {
        KernelSpec {
            name,
            partition: Partition::ContiguousUnits,
            reduction: Reduction::DisjointWrites,
            simd: SimdContract {
                lane_width: 1,
                order: LaneOrder::ScalarOnly,
            },
            stats: cts_obs::KernelStats::new(),
        }
    }

    /// Mark a spec's hot loops as vectorized at [`crate::simd::LANES`]
    /// width with the given lane-order contract.
    const fn vectorized(mut spec: KernelSpec, order: LaneOrder) -> KernelSpec {
        spec.simd = SimdContract {
            lane_width: crate::simd::LANES,
            order,
        };
        spec
    }

    /// Cache-blocked packed-B matrix product (one unit = one output row).
    pub static MATMUL: KernelSpec = vectorized(disjoint("matmul"), LaneOrder::ElementChains);
    /// Fused A·Bᵀ product used by `matmul_grad_a` (one unit = one output
    /// row); transpose-packs B into per-worker scratch instead of
    /// materialising a transposed tensor.
    pub static MATMUL_NT: KernelSpec = vectorized(disjoint("matmul.nt"), LaneOrder::ElementChains);
    /// Fused Aᵀ·G product used by `matmul_grad_b` (one unit = one output
    /// row); transpose-packs the rows of Aᵀ each worker needs into
    /// per-worker scratch, then runs the forward product's microkernel.
    pub static MATMUL_TN: KernelSpec = vectorized(disjoint("matmul.tn"), LaneOrder::ElementChains);
    /// Tiled last-two-dims transpose (one unit = one matrix).
    pub static TRANSPOSE: KernelSpec = disjoint("matmul.transpose_last2");
    /// Same-shape elementwise zip (one unit = one scalar).
    pub static EW_ZIP: KernelSpec =
        vectorized(disjoint("elementwise.zip"), LaneOrder::ElementChains);
    /// Broadcasting elementwise zip (one unit = one scalar): trailing axes
    /// merge into contiguous or constant runs, each mapped on the vector
    /// lanes; an odometer walks the outer axes once per run.
    pub static EW_ZIP_BROADCAST: KernelSpec = vectorized(
        disjoint("elementwise.zip_broadcast"),
        LaneOrder::ElementChains,
    );
    /// Elementwise unary map.
    pub static EW_UNARY: KernelSpec =
        vectorized(disjoint("elementwise.unary"), LaneOrder::ElementChains);
    /// Exact-length zip used by saved-value gradient kernels.
    pub static EW_ZIP_EXACT: KernelSpec = disjoint("elementwise.zip_exact");
    /// Broadcast-gradient reduction: one unit = one *target* element,
    /// each summing its grad preimage in ascending flat order (the same
    /// per-element order as the old serial scatter, so results are
    /// bit-identical to it). A contiguous preimage (reduced axes trailing
    /// the kept ones) is one scalar chain; otherwise, when the last axis
    /// is kept, 8 consecutive targets share a vector preimage walk.
    pub static REDUCE_TO_SHAPE: KernelSpec = vectorized(
        disjoint("elementwise.reduce_to_shape"),
        LaneOrder::ElementChains,
    );
    /// Axis sum (one unit = one inner slice).
    pub static REDUCE_SUM_AXIS: KernelSpec =
        vectorized(disjoint("reduce.sum_axis"), LaneOrder::ElementChains);
    /// Axis-sum gradient broadcast-back.
    pub static REDUCE_SUM_AXIS_GRAD: KernelSpec = disjoint("reduce.sum_axis_grad");
    /// Axis max.
    pub static REDUCE_MAX_AXIS: KernelSpec =
        vectorized(disjoint("reduce.max_axis"), LaneOrder::ElementChains);
    /// Broadcast materialisation.
    pub static BROADCAST_TO: KernelSpec = disjoint("reduce.broadcast_to");
    /// Softmax forward (one unit = one row).
    pub static SOFTMAX: KernelSpec =
        vectorized(disjoint("softmax.forward"), LaneOrder::PinnedMaxTree);
    /// Softmax backward.
    pub static SOFTMAX_GRAD: KernelSpec =
        vectorized(disjoint("softmax.grad"), LaneOrder::ElementChains);
    /// Log-sum-exp rows.
    pub static LOGSUMEXP: KernelSpec = disjoint("softmax.logsumexp");
    /// Dilated causal temporal convolution (one unit = one series).
    pub static TEMPORAL_CONV: KernelSpec =
        vectorized(disjoint("conv.temporal"), LaneOrder::ElementChains);
    /// Temporal convolution input gradient.
    pub static TEMPORAL_CONV_GRAD_X: KernelSpec = disjoint("conv.temporal_grad_x");
    /// Temporal convolution weight gradient (one unit = one `Dout` row of
    /// the `[K, Din, Dout]` output); each worker sums every series into
    /// its own rows.
    pub static TEMPORAL_CONV_GRAD_W: KernelSpec =
        vectorized(disjoint("conv.temporal_grad_w"), LaneOrder::ElementChains);

    /// Every kernel allowed to use [`super::for_units`]. Keep in sync with
    /// the statics above; the registration assert fires on first use of an
    /// unlisted spec.
    pub static ALL: &[&KernelSpec] = &[
        &MATMUL,
        &MATMUL_NT,
        &MATMUL_TN,
        &TRANSPOSE,
        &EW_ZIP,
        &EW_ZIP_BROADCAST,
        &EW_UNARY,
        &EW_ZIP_EXACT,
        &REDUCE_TO_SHAPE,
        &REDUCE_SUM_AXIS,
        &REDUCE_SUM_AXIS_GRAD,
        &REDUCE_MAX_AXIS,
        &BROADCAST_TO,
        &SOFTMAX,
        &SOFTMAX_GRAD,
        &LOGSUMEXP,
        &TEMPORAL_CONV,
        &TEMPORAL_CONV_GRAD_X,
        &TEMPORAL_CONV_GRAD_W,
    ];

    /// True when `spec` is one of the registered kernel descriptors
    /// (checked by identity: the registry is a closed set of statics, not
    /// a structural pattern).
    pub fn is_registered(spec: &KernelSpec) -> bool {
        ALL.iter().any(|k| std::ptr::eq::<KernelSpec>(*k, spec))
    }
}

/// Panic unless `spec` is registered.
fn check_spec(spec: &'static KernelSpec) {
    assert!(
        kernels::is_registered(spec),
        "kernel spec {:?} is not in parallel::kernels::ALL — register it \
         so the determinism audit can see it",
        spec.name
    );
}

/// Estimated scalar-op count below which kernels stay on the serial path.
///
/// Even with persistent workers, waking and joining the pool costs a few
/// microseconds; at roughly one fused multiply-add per nanosecond, work
/// below ~32k ops is cheaper to run in place than to fan out.
pub const PAR_THRESHOLD: usize = 32_768;

/// Sentinel meaning "no override set".
const UNSET: usize = usize::MAX;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(UNSET);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("CTS_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The worker-thread count kernels will use for sufficiently large work.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        UNSET => env_threads(),
        n => n,
    }
}

/// Override the worker-thread count process-wide.
///
/// `n >= 1` forces that many workers; `n == 0` clears the override, falling
/// back to `CTS_NUM_THREADS` / available parallelism. Intended for tests and
/// benchmarks that compare serial and parallel execution in one process.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(if n == 0 { UNSET } else { n }, Ordering::Relaxed);
}

/// Tear down the persistent pool (joining its workers); the next parallel
/// kernel lazily re-creates it. Results before and after a reset are
/// bit-identical — the pool holds no numeric state.
pub fn reset_pool() {
    pool::shutdown();
}

/// Number of parked worker threads currently owned by the pool.
pub fn pool_workers() -> usize {
    pool::worker_count()
}

/// Snapshot the worker pool's dispatch counters (observability).
pub fn pool_stats() -> cts_obs::PoolStats {
    pool::stats()
}

/// Zero the worker pool's dispatch counters.
pub fn reset_pool_stats() {
    pool::reset_stats()
}

/// Split `units` items over `threads` workers: first `rem` workers get one
/// extra unit. Returns the unit count for worker `w`.
fn share(units: usize, threads: usize, w: usize) -> usize {
    units / threads + usize::from(w < units % threads)
}

/// A pre-assigned work share, handed to exactly one worker. The mutex is
/// uncontended (each worker takes only its own slot); it exists so the
/// share's `&mut` chunk can cross the closure boundary without `unsafe`.
type Slot<T> = Mutex<Option<T>>;

fn take_slot<T>(slot: &Slot<T>) -> Option<T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Shares per launch kept inline; launches wider than this spill to the
/// heap.
const INLINE_SHARES: usize = 32;

/// Per-launch share list: up to [`INLINE_SHARES`] entries inline, more
/// spill to a `Vec` — the [`crate::Shape`] idiom, so launches at
/// realistic thread counts never touch the system allocator. Derefs to
/// the filled prefix.
struct Shares<T> {
    len: usize,
    inline: [T; INLINE_SHARES],
    // Used only when `len > INLINE_SHARES`; an empty Vec never allocates.
    spill: Vec<T>,
}

impl<T: Default> Shares<T> {
    fn new() -> Self {
        Shares {
            len: 0,
            inline: std::array::from_fn(|_| T::default()),
            spill: Vec::new(),
        }
    }

    fn push(&mut self, v: T) {
        if self.len < INLINE_SHARES {
            self.inline[self.len] = v;
        } else {
            if self.len == INLINE_SHARES {
                self.spill.reserve(INLINE_SHARES + 1);
                self.spill
                    .extend(self.inline.iter_mut().map(std::mem::take));
            }
            self.spill.push(v);
        }
        self.len += 1;
    }
}

impl<T> Deref for Shares<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        if self.len <= INLINE_SHARES {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T> DerefMut for Shares<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= INLINE_SHARES {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// Partition `out` into contiguous units of `unit_len` elements and run
/// `f(first_unit, units_slice)` over disjoint runs of units, in parallel
/// when `work` (estimated scalar ops) is large enough.
///
/// `spec` must be a kernel registered in [`kernels::ALL`]; unregistered
/// specs panic.
///
/// `out.len()` must be a multiple of `unit_len`. The serial path is a single
/// `f(0, out)` call, so `f` must handle any number of units.
pub fn for_units<F>(spec: &'static KernelSpec, out: &mut [f32], unit_len: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    check_spec(spec);
    debug_assert!(unit_len > 0 && out.len().is_multiple_of(unit_len));
    let units = out.len() / unit_len;
    let t = cts_obs::timer();
    let threads = num_threads().min(units);
    if threads <= 1 || work < PAR_THRESHOLD {
        if !out.is_empty() {
            f(0, out);
        }
        spec.stats.record(t, units as u64, false);
        crate::meter::add_exec(work, out.len());
        return;
    }
    // Deal out contiguous chunks (deterministic: depends only on units
    // and thread count), then execute the shares on the pool.
    let mut slots: Shares<Slot<(usize, &mut [f32])>> = Shares::new();
    {
        let mut rest = out;
        let mut first = 0usize;
        for w in 0..threads {
            let n_units = share(units, threads, w);
            if n_units == 0 {
                break;
            }
            let (head, tail) = rest.split_at_mut(n_units * unit_len);
            rest = tail;
            slots.push(Mutex::new(Some((first, head))));
            first += n_units;
        }
    }
    let f = &f;
    pool::run(slots.len(), &|w| {
        if let Some((start, chunk)) = take_slot(&slots[w]) {
            f(start, chunk);
        }
    });
    spec.stats.record(t, units as u64, true);
    crate::meter::add_exec(work, units * unit_len);
}

/// Snapshot every registered kernel's cumulative counters, in registry
/// order. Kernels with zero calls are included (callers filter).
pub fn kernel_stats() -> Vec<(&'static str, cts_obs::KernelCounters)> {
    kernels::ALL
        .iter()
        .map(|k| (k.name, k.stats.snapshot()))
        .collect()
}

/// Zero every registered kernel's counters.
pub fn reset_kernel_stats() {
    for k in kernels::ALL {
        k.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests here mutate the process-wide thread override; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn thread_count_override_roundtrip() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn for_units_covers_every_unit_once() {
        let _g = LOCK.lock().unwrap();
        for threads in [1, 2, 5] {
            set_num_threads(threads);
            let mut out = vec![0.0f32; 7 * 3];
            // work above threshold to force the parallel path
            for_units(
                &kernels::EW_UNARY,
                &mut out,
                3,
                PAR_THRESHOLD * 2,
                |first, chunk| {
                    for (u, slot) in chunk.chunks_mut(3).enumerate() {
                        for s in slot.iter_mut() {
                            *s += (first + u) as f32;
                        }
                    }
                },
            );
            let expect: Vec<f32> = (0..7).flat_map(|u| [u as f32; 3]).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
        set_num_threads(0);
    }

    #[test]
    fn launches_wider_than_inline_storage_spill_correctly() {
        let _g = LOCK.lock().unwrap();
        let threads = INLINE_SHARES + 3;
        set_num_threads(threads);
        let mut out = vec![0.0f32; threads * 2];
        for_units(
            &kernels::EW_UNARY,
            &mut out,
            1,
            PAR_THRESHOLD * 2,
            |first, chunk| {
                for (u, s) in chunk.iter_mut().enumerate() {
                    *s = (first + u) as f32;
                }
            },
        );
        set_num_threads(0);
        let expect: Vec<f32> = (0..threads * 2).map(|u| u as f32).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn for_units_small_work_stays_serial() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(8);
        let mut out = vec![0.0f32; 4];
        let mut calls = std::sync::atomic::AtomicUsize::new(0);
        for_units(&kernels::EW_UNARY, &mut out, 1, 8, |_, chunk| {
            calls.fetch_add(1, Ordering::SeqCst);
            for s in chunk.iter_mut() {
                *s = 1.0;
            }
        });
        assert_eq!(*calls.get_mut(), 1, "below-threshold work must not split");
        assert_eq!(out, vec![1.0; 4]);
        set_num_threads(0);
    }

    #[test]
    fn pool_persists_and_survives_reset() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        let run_kernel = || {
            let mut out = vec![0.0f32; 64];
            for_units(
                &kernels::EW_UNARY,
                &mut out,
                1,
                PAR_THRESHOLD * 2,
                |first, chunk| {
                    for (u, s) in chunk.iter_mut().enumerate() {
                        *s = (first + u) as f32;
                    }
                },
            );
            out
        };
        let before = run_kernel();
        assert!(pool_workers() >= 3, "pool should have spawned workers");
        let workers = pool_workers();
        let again = run_kernel();
        assert_eq!(pool_workers(), workers, "steady state spawns no threads");
        reset_pool();
        assert_eq!(pool_workers(), 0);
        let after = run_kernel();
        assert_eq!(before, again);
        assert_eq!(before, after, "teardown/re-init must not change results");
        set_num_threads(0);
    }

    #[test]
    fn unregistered_spec_rejected() {
        static ROGUE: KernelSpec = KernelSpec {
            name: "rogue",
            partition: Partition::ContiguousUnits,
            reduction: Reduction::DisjointWrites,
            simd: SimdContract {
                lane_width: 1,
                order: LaneOrder::ScalarOnly,
            },
            stats: cts_obs::KernelStats::new(),
        };
        assert!(!kernels::is_registered(&ROGUE));
        let panicked = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 4];
            for_units(&ROGUE, &mut out, 1, 8, |_, _| {});
        })
        .is_err();
        assert!(panicked, "unregistered kernel spec must be rejected");
    }

    #[test]
    fn registry_names_unique_and_nonempty() {
        assert!(!kernels::ALL.is_empty());
        let mut names: Vec<&str> = kernels::ALL.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate kernel names in registry");
        for k in kernels::ALL {
            assert!(kernels::is_registered(k));
        }
    }
}

//! Tensor-layer observability roll-ups: emits per-kernel, arena, and
//! worker-pool counter rows into the `cts-obs` run log.
//!
//! The obs crate sits *below* this one in the dependency graph (so the
//! hot paths in [`crate::parallel`] / the worker pool can record into it),
//! which means `cts-obs` cannot itself read tensor-layer state — this
//! module is the bridge that publishes it. Callers pair
//! [`emit_epoch_rows`] with `cts_obs::emit_epoch_rows` (phases + tape)
//! once per epoch.

use crate::{arena, parallel};
use cts_obs::runlog::{self, Value};

/// Emit one epoch's tensor-layer rows into the run log: a `kernel` row
/// per active kernel, one `arena` row (plus `arena_class` rows for active
/// size classes), and one `pool` row. Counters are cumulative; the
/// `report` summarizer diffs/aggregates them. No-op when metrics are off.
pub fn emit_epoch_rows(epoch: u64) {
    if !cts_obs::metrics_enabled() {
        return;
    }
    emit_host_row();
    for (name, c) in parallel::kernel_stats() {
        if c.calls == 0 {
            continue;
        }
        runlog::emit(
            "kernel",
            &[
                ("epoch", Value::U64(epoch)),
                ("name", Value::Str(name)),
                ("calls", Value::U64(c.calls)),
                ("parallel_calls", Value::U64(c.parallel_calls)),
                ("simd_calls", Value::U64(c.simd_calls)),
                ("units", Value::U64(c.units)),
                ("ns", Value::U64(c.ns)),
            ],
        );
    }
    let a = arena::stats();
    runlog::emit(
        "arena",
        &[
            ("epoch", Value::U64(epoch)),
            ("hits", Value::U64(a.hits)),
            ("misses", Value::U64(a.misses)),
            ("recycled", Value::U64(a.recycled)),
            ("discarded", Value::U64(a.discarded)),
            ("resident_floats", Value::U64(a.resident_floats)),
        ],
    );
    for c in arena::class_stats() {
        runlog::emit(
            "arena_class",
            &[
                ("epoch", Value::U64(epoch)),
                ("class", Value::U64(c.class as u64)),
                ("buffers", Value::U64(c.buffers as u64)),
                ("resident_floats", Value::U64(c.resident_floats)),
                ("hits", Value::U64(c.hits)),
                ("misses", Value::U64(c.misses)),
            ],
        );
    }
    let p = parallel::pool_stats();
    let busy_total: u64 = p.busy_ns.iter().sum();
    runlog::emit(
        "pool",
        &[
            ("epoch", Value::U64(epoch)),
            ("workers", Value::U64(p.workers as u64)),
            ("dispatches", Value::U64(p.dispatches)),
            ("nested_serial", Value::U64(p.nested_serial)),
            ("wakes", Value::U64(p.wakes)),
            ("parks", Value::U64(p.parks)),
            ("busy_ns_total", Value::U64(busy_total)),
        ],
    );
}

/// Emit one `host` row per process: available hardware parallelism plus
/// the detected and active SIMD levels. `cts-obs` sits below this crate
/// and cannot ask [`crate::simd`] itself, so the tensor layer publishes
/// the facts the `report` summarizer needs to judge whether `simd_calls`
/// counters reflect a capable host running scalar fallbacks.
fn emit_host_row() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        runlog::emit(
            "host",
            &[
                ("available_parallelism", Value::U64(par as u64)),
                ("simd_detected", Value::Str(crate::simd::detected_name())),
                ("simd_active", Value::Str(crate::simd::level_name())),
            ],
        );
    });
}

/// Zero every tensor-layer counter (kernels, arena, pool) — used at run
/// start so cumulative rows start from a clean slate.
pub fn reset() {
    parallel::reset_kernel_stats();
    parallel::reset_pool_stats();
    arena::reset_stats();
}

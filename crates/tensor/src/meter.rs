//! Execution meter: a thread-local count-under-execution oracle for the
//! static cost model.
//!
//! Every metered kernel dispatch through [`crate::parallel`] records the
//! exact scalar-op count (the `work` argument the kernel already computes
//! for the parallel-dispatch threshold) and the number of output elements
//! it writes; the op entry points in [`crate::ops`] additionally record
//! the elements they read. `cts-verify`'s static analyzer re-derives the
//! same numbers from shapes alone, and the proptest oracle in
//! `tests/cost_oracle.rs` pins the two bit-for-bit — the same
//! count-under-execution pattern as `Tape::reachable_params`.
//!
//! The meter is debug-oriented tooling, not observability: it is **off by
//! default** and adds only a thread-local boolean check to the metered
//! paths when disabled. It is compiled in release builds too (unlike a
//! `debug_assertions` gate) so the calibration/exactness benchmark
//! (`bench_cost`) can run it against release-mode kernels.
//!
//! Counts are element counts, not bytes; every buffer in the workspace is
//! `f32`, so bytes are exactly `4 ×` the element counts
//! ([`MeterSnapshot::bytes_read`] / [`MeterSnapshot::bytes_written`]).
//!
//! Deliberately **not** metered (both the oracle and the static model
//! treat them as free): pure data-movement ops that never dispatch a
//! registered kernel (`permute`, `concat`, `slice`, `index_select`,
//! `stack`, `pad_axis`, `broadcast_to`/`reduce_to_shape` fast paths),
//! tensor clones/reshapes, scalar constructors, and the in-place scale
//! used by `mean_axis` normalization.

use std::cell::Cell;

/// A point-in-time copy of this thread's meter counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Scalar operations executed (the `work` parameter of every metered
    /// kernel dispatch — e.g. `2·b·m·n·k` for a matmul).
    pub flops: u64,
    /// Elements read by metered ops (operand lengths at op entry).
    pub read_elems: u64,
    /// Elements written by metered kernel dispatches (output lengths).
    pub write_elems: u64,
    /// Metered kernel dispatches (one per `for_units` or `serial` call).
    pub kernel_calls: u64,
}

impl MeterSnapshot {
    /// Bytes read (`f32` elements × 4).
    pub fn bytes_read(&self) -> u64 {
        self.read_elems.saturating_mul(4)
    }

    /// Bytes written (`f32` elements × 4).
    pub fn bytes_written(&self) -> u64 {
        self.write_elems.saturating_mul(4)
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static READS: Cell<u64> = const { Cell::new(0) };
    static WRITES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Is the meter recording on this thread?
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turn the meter on/off for this thread. Counters are preserved across
/// toggles; pair with [`reset`] to start a measurement window.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Zero this thread's counters (recording state is unchanged).
pub fn reset() {
    FLOPS.with(|c| c.set(0));
    READS.with(|c| c.set(0));
    WRITES.with(|c| c.set(0));
    CALLS.with(|c| c.set(0));
}

/// Snapshot this thread's counters.
pub fn snapshot() -> MeterSnapshot {
    MeterSnapshot {
        flops: FLOPS.with(Cell::get),
        read_elems: READS.with(Cell::get),
        write_elems: WRITES.with(Cell::get),
        kernel_calls: CALLS.with(Cell::get),
    }
}

/// Record one metered kernel dispatch: `work` scalar ops writing
/// `out_elems` elements. Called by `parallel::for_units` and
/// `parallel::serial` on the dispatching thread (kernel closures may run
/// on pool workers, but dispatch — and therefore metering — is always
/// caller-side).
pub(crate) fn add_exec(work: usize, out_elems: usize) {
    if !enabled() {
        return;
    }
    FLOPS.with(|c| c.set(c.get().saturating_add(work as u64)));
    WRITES.with(|c| c.set(c.get().saturating_add(out_elems as u64)));
    CALLS.with(|c| c.set(c.get().saturating_add(1)));
}

/// Record `elems` elements read by a metered op. Called once at each op
/// entry point in [`crate::ops`], after any early-return fast path (fast
/// paths are unmetered by design).
pub(crate) fn add_reads(elems: usize) {
    if !enabled() {
        return;
    }
    READS.with(|c| c.set(c.get().saturating_add(elems as u64)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_meter_records_nothing() {
        set_enabled(false);
        reset();
        add_exec(100, 10);
        add_reads(20);
        assert_eq!(snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn enabled_meter_accumulates() {
        set_enabled(true);
        reset();
        add_exec(100, 10);
        add_exec(50, 5);
        add_reads(20);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(
            s,
            MeterSnapshot {
                flops: 150,
                read_elems: 20,
                write_elems: 15,
                kernel_calls: 2,
            }
        );
        assert_eq!(s.bytes_read(), 80);
        assert_eq!(s.bytes_written(), 60);
    }
}

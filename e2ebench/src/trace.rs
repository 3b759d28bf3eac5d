//! The traced half of a run: switches the program's own counters on,
//! snapshots them around the timed phase, and turns the deltas into the
//! layer metrics every workload shares.
//!
//! Kernel, phase, tape, serving and allocation counters are process-wide,
//! so they include work done on serving shard threads. The meter and the
//! arena are per thread; they only see work dispatched from the main
//! thread (all of it at pool width 1 for `search`).

use crate::alloc;
use crate::metrics::{kernel_metric, Values, KERNELS};
use cts_obs::{Phase, PhaseCounters};
use cts_tensor::{arena, meter, parallel};

/// Turn tracing on: obs metrics (span and kernel clocks), the meter on
/// this thread, and the counting allocator.
pub fn begin() {
    cts_obs::set_metrics(Some(true));
    meter::set_enabled(true);
    alloc::set_counting(true);
}

/// Turn tracing off again.
pub fn end() {
    alloc::set_counting(false);
    meter::set_enabled(false);
    cts_obs::set_metrics(Some(false));
}

/// Cumulative counters at one instant.
pub struct Snapshot {
    kernels: Vec<(&'static str, cts_obs::KernelCounters)>,
    phases: Vec<(Phase, PhaseCounters)>,
    tape_nodes: u64,
    pub serve: cts_obs::serve::ServeCounters,
    meter: meter::MeterSnapshot,
    arena: arena::ArenaStats,
    allocs: u64,
}

impl Snapshot {
    /// Read every counter now.
    pub fn take() -> Self {
        Self {
            kernels: parallel::kernel_stats(),
            phases: cts_obs::phase_snapshot(),
            tape_nodes: cts_obs::tape::snapshot().nodes,
            serve: cts_obs::serve::snapshot(),
            meter: meter::snapshot(),
            arena: arena::stats(),
            allocs: alloc::allocs(),
        }
    }

    fn phase_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0, |(_, c)| c.ns)
    }
}

/// Counter growth between two snapshots.
pub struct Delta<'a> {
    /// Earlier snapshot.
    pub before: &'a Snapshot,
    /// Later snapshot.
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    /// Nanoseconds spent in `phase` spans.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.after
            .phase_ns(phase)
            .saturating_sub(self.before.phase_ns(phase))
    }

    /// Per-kernel `(name, calls, simd_calls, ns)` growth.
    fn kernels(&self) -> Vec<(&'static str, u64, u64, u64)> {
        self.after
            .kernels
            .iter()
            .map(|&(name, a)| {
                let b = self
                    .before
                    .kernels
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, c)| c)
                    .unwrap_or_default();
                (
                    name,
                    a.calls.saturating_sub(b.calls),
                    a.simd_calls.saturating_sub(b.simd_calls),
                    a.ns.saturating_sub(b.ns),
                )
            })
            .collect()
    }

    /// Total kernel nanoseconds.
    pub fn kernel_ns(&self) -> u64 {
        self.kernels().iter().map(|k| k.3).sum()
    }

    /// Serving counter growth for one field.
    pub fn serve(&self, field: fn(&cts_obs::serve::ServeCounters) -> u64) -> u64 {
        field(&self.after.serve).saturating_sub(field(&self.before.serve))
    }

    /// Meter growth on this thread: `(flops, bytes read + written)`.
    pub fn meter(&self) -> (u64, u64) {
        let (a, b) = (self.after.meter, self.before.meter);
        let bytes =
            (a.bytes_read() + a.bytes_written()).saturating_sub(b.bytes_read() + b.bytes_written());
        (a.flops.saturating_sub(b.flops), bytes)
    }

    /// Record the tensor, autograd and nn metrics shared by every
    /// workload, normalised by `ops` units of throughput done in `secs`
    /// of wall time. Flops and bytes come from this thread's meter.
    pub fn record_common(&self, ops: f64, secs: f64, v: &mut Values) {
        let per_op = |x: f64| if ops > 0.0 { x / ops } else { 0.0 };
        let ms = |ns: u64| ns as f64 / 1e6;
        let kernels = self.kernels();
        let (calls, simd): (u64, u64) = kernels.iter().fold((0, 0), |(c, s), k| (c + k.1, s + k.2));
        for &(name, _, _, ns) in &kernels {
            if KERNELS.contains(&name) {
                v.set(kernel_metric(name), per_op(ms(ns)));
            }
        }
        let kernel_ns = self.kernel_ns();
        v.set("tensor.kernel_ms_per_op", per_op(ms(kernel_ns)));
        v.set(
            "tensor.outside_kernel_ms_per_op",
            per_op((secs * 1e3 - ms(kernel_ns)).max(0.0)),
        );
        v.set(
            "tensor.simd_share",
            if calls > 0 {
                simd as f64 / calls as f64
            } else {
                0.0
            },
        );
        let (flops, bytes) = self.meter();
        v.set("tensor.flops_per_op", per_op(flops as f64));
        v.set("tensor.bytes_per_op", per_op(bytes as f64));
        v.set(
            "tensor.allocs_per_op",
            per_op(self.after.allocs.saturating_sub(self.before.allocs) as f64),
        );
        let (a, b) = (self.after.arena, self.before.arena);
        let hits = a.hits.saturating_sub(b.hits);
        let takes = hits + a.misses.saturating_sub(b.misses);
        v.set(
            "tensor.arena_hit_rate",
            if takes > 0 {
                hits as f64 / takes as f64
            } else {
                0.0
            },
        );
        v.set(
            "tensor.pool_dispatches",
            parallel::pool_stats().dispatches as f64,
        );
        v.set(
            "autograd.tape_nodes_per_op",
            per_op(self.after.tape_nodes.saturating_sub(self.before.tape_nodes) as f64),
        );
        v.set(
            "autograd.backward_ms_per_op",
            per_op(ms(self.phase_ns(Phase::Backward))),
        );
        v.set(
            "nn.forward_ms_per_op",
            per_op(ms(self.phase_ns(Phase::Forward))),
        );
        v.set(
            "nn.weight_step_ms_per_op",
            per_op(ms(self.phase_ns(Phase::WeightStep))),
        );
        v.set(
            "nn.arch_step_ms_per_op",
            per_op(ms(self.phase_ns(Phase::ArchStep))),
        );
    }
}

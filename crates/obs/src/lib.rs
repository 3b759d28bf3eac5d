//! `cts-obs`: the always-cheap observability layer of the workspace.
//!
//! Every other crate reports *into* this one — per-kernel timing and
//! invocation counters from `cts_tensor::parallel`, arena/pool gauges from
//! `cts_tensor::arena`/`pool`, tape statistics from `cts-autograd`, and
//! phase spans (forward, backward, weight/arch step, checkpoint write,
//! derive, retrain) from `cts-nn` and `autocts` — and a structured JSONL
//! run log ([`runlog`]) plus a summarizer ([`report`]) read it back out.
//!
//! # Cost model
//!
//! Observability must never perturb the numbers it observes:
//!
//! - **Metrics off** (the default): every instrumentation point degrades
//!   to a handful of relaxed atomic counter increments. No clock is read
//!   ([`timer`] returns an empty [`Timer`]), nothing is written to disk,
//!   and no allocation happens — the PR-4 allocation budget holds
//!   unchanged (pinned by `tests/alloc_budget.rs`).
//! - **Metrics on** (`CTS_METRICS=1` or [`set_metrics`]): instrumentation
//!   points additionally read a monotonic clock and the run log receives
//!   per-epoch roll-up rows. Timing *observes* compute but never steers
//!   it, so search/train traces are bit-identical with metrics on or off.
//! - **Tracing on** (`CTS_TRACE=1` or [`set_trace`]): loops additionally
//!   emit per-step events. This is the only knob with per-step I/O; it is
//!   for debugging, not production.
//!
//! # Clock discipline
//!
//! This crate (and `cts-bench`) are the only places allowed to name
//! `std::time::Instant` — enforced by `scripts/lint_forbidden.sh` — so
//! wall-clock reads can never leak into deterministic compute paths.
//! Code that legitimately needs coarse timing (per-run / per-epoch
//! seconds in reports) uses [`Stopwatch`]; hot paths use the
//! metrics-gated [`Timer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runlog;
pub mod serve;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Switches
// ---------------------------------------------------------------------------

/// 0 = follow the env (default off), 1 = forced on, 2 = forced off.
static METRICS_MODE: AtomicU8 = AtomicU8::new(0);
static TRACE_MODE: AtomicU8 = AtomicU8::new(0);

fn env_flag(name: &'static str, cell: &'static OnceLock<bool>) -> bool {
    *cell.get_or_init(|| {
        matches!(
            std::env::var(name).as_deref(),
            Ok("1") | Ok("on") | Ok("true")
        )
    })
}

fn env_metrics() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    env_flag("CTS_METRICS", &ENV)
}

fn env_trace() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    env_flag("CTS_TRACE", &ENV)
}

/// Are timing metrics and the JSONL run log active?
///
/// Driven by `CTS_METRICS` (off unless set to `1`/`on`/`true`), overridable
/// process-wide with [`set_metrics`]. When off, instrumentation points
/// increment atomic counters only: no clock reads, no I/O, no allocation.
pub fn metrics_enabled() -> bool {
    match METRICS_MODE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_metrics(),
    }
}

/// Force metrics on/off process-wide (`None` restores the `CTS_METRICS`
/// env default). Tests and benchmarks use this to compare instrumented and
/// bare runs in one process.
pub fn set_metrics(on: Option<bool>) {
    METRICS_MODE.store(mode_byte(on), Ordering::Relaxed);
}

/// Is per-step event tracing requested? (`CTS_TRACE`, or [`set_trace`].)
///
/// Tracing refines metrics: per-step events are only written when
/// [`metrics_enabled`] is also true.
pub fn trace_enabled() -> bool {
    match TRACE_MODE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_trace(),
    }
}

/// Force per-step tracing on/off process-wide (`None` restores the
/// `CTS_TRACE` env default).
pub fn set_trace(on: Option<bool>) {
    TRACE_MODE.store(mode_byte(on), Ordering::Relaxed);
}

fn mode_byte(on: Option<bool>) -> u8 {
    match on {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    }
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// A metrics-gated hot-path timer: holds a start [`Instant`] only when
/// metrics are enabled, so the disabled path never reads a clock.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    start: Option<Instant>,
}

/// Start a [`Timer`] (empty when metrics are off).
pub fn timer() -> Timer {
    Timer {
        start: metrics_enabled().then(Instant::now),
    }
}

impl Timer {
    /// Nanoseconds since the timer started, or `None` when metrics were
    /// off at start time.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// An always-on coarse stopwatch for per-run / per-epoch wall-clock fields
/// in reports (`cts-nn`'s `TrainReport.secs_per_epoch`, `autocts`'s
/// `SearchStats.secs`). Use [`timer`] instead on hot paths.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

// ---------------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------------

/// Cumulative counters for one parallel kernel. Embedded in
/// `cts_tensor::parallel::KernelSpec`, so every registered kernel carries
/// its own slot and recording needs no name lookup.
#[derive(Debug, Default)]
pub struct KernelStats {
    calls: AtomicU64,
    parallel_calls: AtomicU64,
    simd_calls: AtomicU64,
    units: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of one kernel's [`KernelStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Total invocations (serial and parallel).
    pub calls: u64,
    /// Invocations that crossed a thread boundary.
    pub parallel_calls: u64,
    /// Invocations whose inner loops took a vector (SIMD) path. A fraction
    /// well below `calls` on a SIMD-capable host flags a silent scalar
    /// fallback.
    pub simd_calls: u64,
    /// Total work units processed (kernel-specific: rows, matrices, …).
    pub units: u64,
    /// Total nanoseconds inside the kernel (0 unless metrics were on).
    pub ns: u64,
}

impl KernelStats {
    /// A zeroed counter block (const: usable in `static` kernel specs).
    pub const fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            parallel_calls: AtomicU64::new(0),
            simd_calls: AtomicU64::new(0),
            units: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// Record one invocation: always counts, adds elapsed time only when
    /// `t` was started with metrics on.
    pub fn record(&self, t: Timer, units: u64, parallel: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        if parallel {
            self.parallel_calls.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ns) = t.elapsed_ns() {
            self.ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Record that this invocation's inner loops ran on a vector path.
    /// Called by the op (not the dispatcher) because only the op knows
    /// whether its hot loops actually route through `cts_tensor::simd`.
    pub fn record_simd(&self) {
        self.simd_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current counters.
    pub fn snapshot(&self) -> KernelCounters {
        KernelCounters {
            calls: self.calls.load(Ordering::Relaxed),
            parallel_calls: self.parallel_calls.load(Ordering::Relaxed),
            simd_calls: self.simd_calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }

    /// Zero the counters.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.parallel_calls.store(0, Ordering::Relaxed);
        self.simd_calls.store(0, Ordering::Relaxed);
        self.units.store(0, Ordering::Relaxed);
        self.ns.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Pool counters (filled by cts_tensor::pool)
// ---------------------------------------------------------------------------

/// Snapshot of the persistent worker pool's dispatch counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive.
    pub workers: usize,
    /// Jobs published to the pool (parallel regions that woke workers).
    pub dispatches: u64,
    /// Nested parallel regions executed serially in place.
    pub nested_serial: u64,
    /// Worker job pickups (wake transitions).
    pub wakes: u64,
    /// Worker condvar waits entered (park transitions).
    pub parks: u64,
    /// Per-worker busy nanoseconds (index = worker id - 1; all zero
    /// unless metrics were on). Workers beyond the tracked maximum fold
    /// into the last slot.
    pub busy_ns: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------------

/// The run phases instrumented across the training/search stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Model forward pass (+ loss computation).
    Forward,
    /// Reverse-mode sweep.
    Backward,
    /// Architecture (Θ) optimizer step.
    ArchStep,
    /// Network-weight (w) optimizer step (incl. gradient clipping).
    WeightStep,
    /// Run-state checkpoint serialization + atomic write.
    CheckpointWrite,
    /// Discrete-genotype derivation from the supernet.
    Derive,
    /// Architecture-evaluation retraining (whole stage).
    Retrain,
}

/// Every phase, in stable emission order.
pub const PHASES: [Phase; 7] = [
    Phase::Forward,
    Phase::Backward,
    Phase::ArchStep,
    Phase::WeightStep,
    Phase::CheckpointWrite,
    Phase::Derive,
    Phase::Retrain,
];

impl Phase {
    /// Stable snake_case name used in the run log.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::ArchStep => "arch_step",
            Phase::WeightStep => "weight_step",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::Derive => "derive",
            Phase::Retrain => "retrain",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Forward => 0,
            Phase::Backward => 1,
            Phase::ArchStep => 2,
            Phase::WeightStep => 3,
            Phase::CheckpointWrite => 4,
            Phase::Derive => 5,
            Phase::Retrain => 6,
        }
    }
}

struct PhaseSlot {
    calls: AtomicU64,
    ns: AtomicU64,
}

static PHASE_SLOTS: [PhaseSlot; 7] = [const {
    PhaseSlot {
        calls: AtomicU64::new(0),
        ns: AtomicU64::new(0),
    }
}; 7];

/// Point-in-time counters of one [`Phase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Span entries.
    pub calls: u64,
    /// Total nanoseconds inside the phase (0 unless metrics were on).
    pub ns: u64,
}

/// An RAII phase span: records one call (and, with metrics on, the
/// elapsed time) into the phase's slot on drop.
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
pub struct Span {
    phase: Phase,
    t: Timer,
}

/// Open a span over `phase`; drop it to record.
pub fn span(phase: Phase) -> Span {
    Span { phase, t: timer() }
}

impl Drop for Span {
    fn drop(&mut self) {
        let slot = &PHASE_SLOTS[self.phase.index()];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(ns) = self.t.elapsed_ns() {
            slot.ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// Snapshot of every phase's counters, in [`PHASES`] order.
pub fn phase_snapshot() -> Vec<(Phase, PhaseCounters)> {
    PHASES
        .iter()
        .map(|&p| {
            let slot = &PHASE_SLOTS[p.index()];
            (
                p,
                PhaseCounters {
                    calls: slot.calls.load(Ordering::Relaxed),
                    ns: slot.ns.load(Ordering::Relaxed),
                },
            )
        })
        .collect()
}

/// Zero every phase's counters.
pub fn reset_phases() {
    for slot in &PHASE_SLOTS {
        slot.calls.store(0, Ordering::Relaxed);
        slot.ns.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Tape counters (filled by cts-autograd)
// ---------------------------------------------------------------------------

/// Autograd tape statistics, recorded once per backward sweep.
pub mod tape {
    use super::*;

    static BACKWARDS: AtomicU64 = AtomicU64::new(0);
    static NODES: AtomicU64 = AtomicU64::new(0);
    static PEAK_NODES: AtomicU64 = AtomicU64::new(0);
    static PEAK_ACTIVATION_SCALARS: AtomicU64 = AtomicU64::new(0);
    static PEAK_GRAD_SCALARS: AtomicU64 = AtomicU64::new(0);

    /// Point-in-time copy of the tape counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TapeCounters {
        /// Backward sweeps recorded.
        pub backwards: u64,
        /// Total nodes across all recorded sweeps.
        pub nodes: u64,
        /// Largest single-tape node count seen.
        pub peak_nodes: u64,
        /// Largest per-tape activation-scalar total seen (0 unless
        /// metrics were on — computing it walks the tape).
        pub peak_activation_scalars: u64,
        /// Largest number of gradient scalars simultaneously live inside
        /// one backward sweep (0 unless metrics were on).
        pub peak_grad_scalars: u64,
    }

    fn store_max(cell: &AtomicU64, v: u64) {
        cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one backward sweep. `activation_scalars` and
    /// `peak_grad_scalars` should be 0 when metrics are off (the caller
    /// skips computing them).
    pub fn record_backward(nodes: u64, activation_scalars: u64, peak_grad_scalars: u64) {
        BACKWARDS.fetch_add(1, Ordering::Relaxed);
        NODES.fetch_add(nodes, Ordering::Relaxed);
        store_max(&PEAK_NODES, nodes);
        store_max(&PEAK_ACTIVATION_SCALARS, activation_scalars);
        store_max(&PEAK_GRAD_SCALARS, peak_grad_scalars);
    }

    /// Copy out the current tape counters.
    pub fn snapshot() -> TapeCounters {
        TapeCounters {
            backwards: BACKWARDS.load(Ordering::Relaxed),
            nodes: NODES.load(Ordering::Relaxed),
            peak_nodes: PEAK_NODES.load(Ordering::Relaxed),
            peak_activation_scalars: PEAK_ACTIVATION_SCALARS.load(Ordering::Relaxed),
            peak_grad_scalars: PEAK_GRAD_SCALARS.load(Ordering::Relaxed),
        }
    }

    /// Zero the tape counters.
    pub fn reset() {
        BACKWARDS.store(0, Ordering::Relaxed);
        NODES.store(0, Ordering::Relaxed);
        PEAK_NODES.store(0, Ordering::Relaxed);
        PEAK_ACTIVATION_SCALARS.store(0, Ordering::Relaxed);
        PEAK_GRAD_SCALARS.store(0, Ordering::Relaxed);
    }
}

/// Emit the obs-layer epoch roll-up rows (phases + tape) into the run
/// log: one `phase` row per phase with calls, and one `tape` row.
/// Counters are cumulative; the [`report`] summarizer diffs them.
///
/// Tensor-layer rows (kernels, arena, pool) are emitted by
/// `cts_tensor::metrics::emit_epoch_rows`, which callers pair with this.
pub fn emit_epoch_rows(epoch: u64) {
    if !metrics_enabled() {
        return;
    }
    use runlog::Value;
    for (p, c) in phase_snapshot() {
        if c.calls == 0 {
            continue;
        }
        runlog::emit(
            "phase",
            &[
                ("epoch", Value::U64(epoch)),
                ("name", Value::Str(p.name())),
                ("calls", Value::U64(c.calls)),
                ("ns", Value::U64(c.ns)),
            ],
        );
    }
    let t = tape::snapshot();
    if t.backwards > 0 {
        runlog::emit(
            "tape",
            &[
                ("epoch", Value::U64(epoch)),
                ("backwards", Value::U64(t.backwards)),
                ("nodes", Value::U64(t.nodes)),
                ("peak_nodes", Value::U64(t.peak_nodes)),
                (
                    "peak_activation_scalars",
                    Value::U64(t.peak_activation_scalars),
                ),
                ("peak_grad_scalars", Value::U64(t.peak_grad_scalars)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests here (and in `runlog`) flip the process-wide metrics switch;
    /// serialize them.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn metrics_switch_roundtrip() {
        let _g = LOCK.lock().unwrap();
        set_metrics(Some(true));
        assert!(metrics_enabled());
        set_metrics(Some(false));
        assert!(!metrics_enabled());
        set_metrics(None);
    }

    #[test]
    fn timer_is_empty_when_metrics_off() {
        let _g = LOCK.lock().unwrap();
        set_metrics(Some(false));
        assert_eq!(timer().elapsed_ns(), None);
        set_metrics(Some(true));
        assert!(timer().elapsed_ns().is_some());
        set_metrics(None);
    }

    #[test]
    fn kernel_stats_record_and_reset() {
        let _g = LOCK.lock().unwrap();
        static K: KernelStats = KernelStats::new();
        K.reset();
        set_metrics(Some(false));
        K.record(timer(), 7, false);
        let s = K.snapshot();
        assert_eq!((s.calls, s.units, s.parallel_calls, s.ns), (1, 7, 0, 0));
        set_metrics(Some(true));
        K.record(timer(), 3, true);
        let s = K.snapshot();
        assert_eq!((s.calls, s.units, s.parallel_calls), (2, 10, 1));
        K.reset();
        assert_eq!(K.snapshot(), KernelCounters::default());
        set_metrics(None);
    }

    #[test]
    fn spans_count_per_phase() {
        let _g = LOCK.lock().unwrap();
        set_metrics(Some(false));
        reset_phases();
        {
            let _s = span(Phase::Forward);
        }
        {
            let _s = span(Phase::Forward);
        }
        {
            let _s = span(Phase::Derive);
        }
        let snap = phase_snapshot();
        let get = |p: Phase| snap.iter().find(|(q, _)| *q == p).unwrap().1;
        assert_eq!(get(Phase::Forward).calls, 2);
        assert_eq!(get(Phase::Derive).calls, 1);
        assert_eq!(get(Phase::Forward).ns, 0, "metrics off must not time");
        reset_phases();
        set_metrics(None);
    }

    #[test]
    fn tape_counters_track_peaks() {
        let _g = LOCK.lock().unwrap();
        tape::reset();
        tape::record_backward(10, 100, 50);
        tape::record_backward(30, 80, 70);
        let s = tape::snapshot();
        assert_eq!(s.backwards, 2);
        assert_eq!(s.nodes, 40);
        assert_eq!(s.peak_nodes, 30);
        assert_eq!(s.peak_activation_scalars, 100);
        assert_eq!(s.peak_grad_scalars, 70);
        tape::reset();
    }
}

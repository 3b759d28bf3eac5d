//! Allocation-regression gate: a steady-state supernet train step must stay
//! under a pinned system-allocator budget.
//!
//! The persistent worker pool + buffer arena work brought one weight step
//! on the smoke supernet from ~3.6M system allocations (per-element
//! `unravel` churn, fresh `Vec` per op) down to a few thousand, with the
//! arena serving every tensor buffer from its free lists (zero misses in
//! steady state). The budgets below sit ~5x above the measured steady
//! state so ordinary drift passes, while reintroducing per-step churn —
//! a per-element coordinate `Vec`, a gradient buffer that bypasses the
//! arena, un-recycled tape storage — blows through them immediately.
//!
//! `scripts/check.sh` runs this as part of the tier-1 gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cts_autograd::Tape;
use cts_bench::{prepare, ExpContext};
use cts_data::{batches_from_windows, DatasetSpec};
use cts_nn::{Adam, Forecaster, LossKind, Optimizer};
use rand::{rngs::SmallRng, SeedableRng};

/// Serializes the tests in this binary: both flip the process-wide
/// `cts_obs` metrics switch, and the allocation counters are global.
static GATE: Mutex<()> = Mutex::new(());

/// Measured steady state (2026-08): ~3.5k allocs / ~0.2 MB per weight step.
/// Budgets leave ~5x headroom; the pre-arena baseline was ~170k allocs /
/// ~34 MB even after the odometer fixes, so a regression cannot hide.
const MAX_ALLOCS_PER_STEP: u64 = 20_000;
const MAX_BYTES_PER_STEP: u64 = 2 * 1024 * 1024;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ON: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pass-through to the system allocator; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) == 1 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_train_step_stays_under_alloc_budget() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // The budget is pinned for the metrics-off path (the production
    // default); metrics-on adds a few timing reads but no per-step Vecs.
    cts_obs::set_metrics(Some(false));
    let ctx = ExpContext::smoke();
    let p = prepare(&ctx, &DatasetSpec::metr_la());
    let cfg = ctx.search_config();
    let mut rng = SmallRng::seed_from_u64(0);
    let model =
        autocts::SupernetModel::new(&mut rng, &cfg, &p.spec, &p.data.graph, &p.windows.scaler);
    let batches = batches_from_windows(&p.windows.train, ctx.batch);
    let (x, y) = batches[0].clone();
    let mut opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
    let loss_kind = LossKind::MaskedMae {
        null_value: Some(0.0),
    };

    let mut step = || {
        let tape = Tape::new();
        let pred = model.forward(&tape, &tape.constant(x.clone()));
        let loss = loss_kind.compute(&tape, &pred, &y);
        tape.backward(&loss);
        opt.step();
    };

    // Warm the arena and the recycled tape storage to steady state.
    for _ in 0..3 {
        step();
    }

    cts_tensor::arena::reset_stats();
    ON.store(1, Ordering::Relaxed);
    step();
    ON.store(0, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let stats = cts_tensor::arena::stats();

    assert!(
        allocs <= MAX_ALLOCS_PER_STEP,
        "steady-state step made {allocs} system allocations \
         (budget {MAX_ALLOCS_PER_STEP}); per-step Vec churn has crept back in"
    );
    assert!(
        bytes <= MAX_BYTES_PER_STEP,
        "steady-state step allocated {bytes} bytes \
         (budget {MAX_BYTES_PER_STEP}); a buffer is bypassing the arena"
    );
    assert_eq!(
        stats.misses, 0,
        "arena missed {} times in steady state; a tensor buffer population \
         is not reaching its free-list fixed point (stats: {stats:?})",
        stats.misses
    );
}

/// The observability layer must be a pure observer: the numeric trace of
/// a training loop is bit-identical with metrics on and off.
#[test]
fn metrics_do_not_change_training_trace() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let log = std::env::temp_dir().join("cts_alloc_budget_obs.jsonl");
    cts_obs::runlog::set_path(Some(&log));

    let run = |metrics: bool| -> Vec<u32> {
        cts_obs::set_metrics(Some(metrics));
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        let cfg = ctx.search_config();
        let mut rng = SmallRng::seed_from_u64(0);
        let model =
            autocts::SupernetModel::new(&mut rng, &cfg, &p.spec, &p.data.graph, &p.windows.scaler);
        let batches = batches_from_windows(&p.windows.train, ctx.batch);
        let (x, y) = batches[0].clone();
        let mut opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
        let loss_kind = LossKind::MaskedMae {
            null_value: Some(0.0),
        };
        let mut bits = Vec::new();
        for _ in 0..4 {
            let tape = Tape::new();
            let pred = model.forward(&tape, &tape.constant(x.clone()));
            let loss = loss_kind.compute(&tape, &pred, &y);
            bits.push(loss.value().item().to_bits());
            tape.backward(&loss);
            opt.step();
        }
        bits
    };

    let off = run(false);
    let on = run(true);
    cts_obs::set_metrics(Some(false));
    let _ = std::fs::remove_file(&log);
    assert_eq!(off, on, "metrics collection changed the numeric trace");
}

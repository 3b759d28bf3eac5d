//! Compiled-plan parity gate: two backends on one walk. A derived model's
//! tape forward is its `ExecPlan`'s walk on the `Tape` backend, and
//! `try_run` is the same walk on `Eval`; the two must be
//! **bit-identical** (epsilon 0) across randomized genotypes and batch
//! sizes — and a steady-state compiled forward must perform **zero**
//! system allocations, with every buffer served from the warmed arena.
//!
//! Bit-exactness holds by construction: there is one walk, every layer
//! and operator has one forward, generic over `cts_nn::Backend` — the
//! same `cts_tensor::ops` kernels in the same order on both backends —
//! and plans read the live `Parameter` cells rather than snapshots. This
//! suite pins both halves of that contract; `scripts/check.sh` runs it as part of the tier-1 gate, and
//! the `verify_space` sweep repeats the parity check on every accepted
//! candidate of the discrete space.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::Forecaster;
use cts_ops::{compact_set, full_set};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Serializes the tests: the allocation counters are process-global.
static GATE: Mutex<()> = Mutex::new(());

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

/// Edge slots of the canonical M = 3 derived block.
const SLOTS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];

/// Smoke-scale fixture: input_len 6 keeps ProbSparse's top-query
/// selection inside the sort's no-allocation bound.
fn fixture() -> (
    SearchConfig,
    DatasetSpec,
    cts_data::CtsData,
    cts_data::SplitWindows,
) {
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        batch_size: 2,
        ..Default::default()
    };
    (cfg, spec, data, windows)
}

#[test]
fn compiled_forward_is_bit_identical_to_tape() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    cts_obs::set_metrics(Some(false));
    let (cfg, spec, data, windows) = fixture();
    let mut rng = SmallRng::seed_from_u64(42);

    // The compact set is what search derives; the full set covers the six
    // Table 1 kinds outside it (Conv1d, LSTM, GRU, Transformer-T/S, ChebGCN).
    for (set, ops) in [("compact", compact_set()), ("full", full_set())] {
        for trial in 0..12usize {
            let block = BlockGenotype {
                m: 3,
                edges: SLOTS
                    .iter()
                    .map(|&(f, t)| (f, t, ops[rng.gen_range(0..ops.len())]))
                    .collect(),
            };
            let backbone = if rng.gen_range(0..2) == 0 {
                vec![0, 0]
            } else {
                vec![0, 1]
            };
            let genotype = Genotype {
                blocks: vec![block.clone(); cfg.b],
                backbone,
            };
            let batch = rng.gen_range(1..4usize);
            let model = DerivedModel::new(
                &mut rng,
                &cfg,
                &genotype,
                &spec,
                &data.graph,
                &windows.scaler,
            );
            let batches = batches_from_windows(&windows.train, batch);
            let (x, _) = &batches[trial % batches.len()];

            let tape = Tape::new();
            let tape_out = model.forward(&tape, &tape.constant(x.clone())).value();
            let plan = model
                .compiled_plan()
                .expect("every structural genotype compiles");
            let compiled = plan
                .try_run(x)
                .expect("parity fixture input matches plan dims");

            let at = format!("{set} trial {trial} ({})", genotype.to_text());
            assert_eq!(
                compiled.shape(),
                tape_out.shape(),
                "{at}: compiled shape diverged"
            );
            for (i, (a, b)) in compiled.data().iter().zip(tape_out.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{at}: scalar {i} diverges: compiled {a} vs tape {b}"
                );
            }
        }
    }
}

/// Parity must survive a weight update without recompiling: plans read
/// the live parameter cells, never snapshots.
#[test]
fn compiled_plan_tracks_retrained_weights() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    cts_obs::set_metrics(Some(false));
    let (cfg, spec, data, windows) = fixture();
    let mut rng = SmallRng::seed_from_u64(3);
    let block = BlockGenotype {
        m: 3,
        edges: vec![
            (0, 1, cts_ops::OpKind::Gdcc),
            (1, 2, cts_ops::OpKind::InformerT),
            (0, 2, cts_ops::OpKind::Dgcn),
        ],
    };
    let genotype = Genotype {
        blocks: vec![block.clone(); cfg.b],
        backbone: vec![0, 1],
    };
    let model = DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let batches = batches_from_windows(&windows.train, 2);
    let (x, _) = &batches[0];

    let plan = model.compiled_plan().expect("compiles");
    let before = plan
        .try_run(x)
        .expect("parity fixture input matches plan dims");

    // Perturb a weight in place, as an optimizer step would.
    let params = model.parameters();
    let p = &params[1];
    let nudged = cts_tensor::ops::add_scalar(&p.value().clone(), 0.25);
    p.set_value(nudged);

    let tape = Tape::new();
    let tape_out = model.forward(&tape, &tape.constant(x.clone())).value();
    let after = plan
        .try_run(x)
        .expect("parity fixture input matches plan dims");
    assert!(
        before.data().iter().zip(after.data()).any(|(a, b)| a != b),
        "weight perturbation did not reach the compiled plan"
    );
    for (i, (a, b)) in after.data().iter().zip(tape_out.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "post-update scalar {i} diverges: compiled {a} vs tape {b}"
        );
    }
}

#[test]
fn steady_state_compiled_forward_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    cts_obs::set_metrics(Some(false));
    let (cfg, spec, data, windows) = fixture();
    let mut rng = SmallRng::seed_from_u64(9);
    let block = BlockGenotype {
        m: 3,
        edges: vec![
            (0, 1, cts_ops::OpKind::Gdcc),
            (1, 2, cts_ops::OpKind::InformerT),
            (0, 2, cts_ops::OpKind::Dgcn),
        ],
    };
    let genotype = Genotype {
        blocks: vec![block.clone(); cfg.b],
        backbone: vec![0, 1],
    };
    let model = DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let batches = batches_from_windows(&windows.train, 2);
    let (x, _) = &batches[0];

    let plan = model.compiled_plan().expect("compiles");
    plan.prewarm(x.shape()[0]);
    for _ in 0..3 {
        let _ = plan
            .try_run(x)
            .expect("parity fixture input matches plan dims");
    }

    cts_tensor::arena::reset_stats();
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(1, Ordering::Relaxed);
    let out = plan
        .try_run(x)
        .expect("parity fixture input matches plan dims");
    ON.store(0, Ordering::Relaxed);
    drop(out);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let stats = cts_tensor::arena::stats();
    assert_eq!(
        allocs, 0,
        "steady-state compiled forward made {allocs} system allocations \
         ({bytes} bytes); an eval path is churning buffers outside the arena"
    );
    assert_eq!(
        stats.misses, 0,
        "arena missed {} times in a warmed compiled forward (stats: {stats:?})",
        stats.misses
    );
}

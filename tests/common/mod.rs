//! Shared fixture for the serving integration suites: a smoke-scale
//! derived model (METR-LA shapes, mixed temporal/attention/graph ops, all
//! row-independent), its compiled plan, and a pool of live test windows.
//!
//! Everything here is seed-deterministic, which is what makes the
//! front-end tests work at all: a worker thread calling [`fixture`] with
//! the same seed compiles a bit-identical replica of the main thread's
//! plan, so cross-thread answers can be compared bit for bit.

#![allow(dead_code)]

use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::Forecaster;
use cts_ops::OpKind;
use cts_runtime::ExecPlan;
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;

/// Deterministic smoke-scale model + compiled plan + test windows
/// (each `[1, N, T, F]`).
pub fn fixture(seed: u64) -> (Rc<DerivedModel>, Rc<ExecPlan>, Vec<Tensor>) {
    fixture_with(seed, OpKind::TransformerT)
}

/// [`fixture`] with a caller-chosen op on the 1→2 edge.
pub fn fixture_with(seed: u64, mid_op: OpKind) -> (Rc<DerivedModel>, Rc<ExecPlan>, Vec<Tensor>) {
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
    let block = BlockGenotype {
        m: 3,
        edges: vec![(0, 1, OpKind::Gdcc), (1, 2, mid_op), (0, 2, OpKind::Dgcn)],
    };
    let genotype = Genotype {
        blocks: vec![block.clone(); cfg.b],
        backbone: vec![0, 1],
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let model = Rc::new(DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    ));
    let plan = model.compiled_plan().expect("fixture genotype compiles");
    let pool: Vec<Tensor> = batches_from_windows(&windows.test, 1)
        .iter()
        .take(6)
        .map(|(x, _)| x.clone())
        .collect();
    assert!(pool.len() >= 4, "fixture produced too few test windows");
    (model, plan, pool)
}

/// One tape forward of `model` on `x` — the bit-exact reference the
/// compiled plan must reproduce.
pub fn tape_forward(model: &DerivedModel, x: &Tensor) -> Tensor {
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    model.forward(&tape, &xv).value()
}

/// Exact bit equality (`f32::to_bits`), shape included.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

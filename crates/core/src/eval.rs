//! Model evaluation: run a forecaster over batches, collect predictions,
//! and compute the paper's metrics; plus the architecture-evaluation stage
//! (retrain the derived model from scratch, §3.4).

use crate::{DerivedModel, Genotype, SearchConfig};
use cts_data::{
    batches_from_windows, horizon_slice, Batches, DatasetSpec, EvalMetrics, SplitWindows,
};
use cts_graph::SensorGraph;
use cts_nn::{train_full, Forecaster, LossKind, TrainConfig, TrainError};
use cts_tensor::{ops, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

/// Stacked predictions and targets over a batch list: both `[S, N, Q]`.
///
/// Uses the model's gradient-free [`Forecaster::forward_inference`] — for a
/// [`DerivedModel`] that is the compiled tape-free plan.
pub fn collect_predictions(model: &dyn Forecaster, batches: &Batches) -> (Tensor, Tensor) {
    let mut preds: Vec<Tensor> = Vec::with_capacity(batches.len());
    let mut targets: Vec<Tensor> = Vec::with_capacity(batches.len());
    for (x, y) in batches {
        preds.push(model.forward_inference(x));
        targets.push(y.clone());
    }
    let pred_refs: Vec<&Tensor> = preds.iter().collect();
    let target_refs: Vec<&Tensor> = targets.iter().collect();
    (ops::concat(&pred_refs, 0), ops::concat(&target_refs, 0))
}

/// Full evaluation report of one trained model on one dataset.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Metrics over all horizons.
    pub overall: EvalMetrics,
    /// Per-horizon metrics (index `h` = horizon `h+1`); used for the
    /// 15/30/60-min columns of Tables 5, 9–10, 17–20, 35–36.
    pub horizons: Vec<EvalMetrics>,
    /// Mean training seconds per epoch (Tables 27–34).
    pub train_secs_per_epoch: f64,
    /// Mean inference milliseconds per window (Tables 27–34).
    pub inference_ms_per_window: f64,
    /// Trainable parameter count (Tables 27–34).
    pub parameters: usize,
}

/// Evaluate a trained forecaster on test batches.
pub fn evaluate_model(
    model: &dyn Forecaster,
    test_batches: &Batches,
    null_value: Option<f32>,
) -> (EvalMetrics, Vec<EvalMetrics>) {
    let (pred, target) = collect_predictions(model, test_batches);
    let overall = EvalMetrics::compute(&pred, &target, null_value);
    let q = pred.shape()[2];
    let horizons = (0..q)
        .map(|h| {
            EvalMetrics::compute(
                &horizon_slice(&pred, h),
                &horizon_slice(&target, h),
                null_value,
            )
        })
        .collect();
    (overall, horizons)
}

/// Measure mean inference latency per window (milliseconds) through the
/// model's gradient-free forward (the compiled plan for derived models).
pub fn inference_ms_per_window(model: &dyn Forecaster, batches: &Batches) -> f64 {
    let mut windows = 0usize;
    let started = cts_obs::Stopwatch::start();
    for (x, _) in batches {
        let _ = model.forward_inference(x);
        windows += x.shape()[0];
    }
    if windows == 0 {
        0.0
    } else {
        started.elapsed_secs() * 1e3 / windows as f64
    }
}

/// Train any forecaster on train(+val) windows and evaluate on test —
/// the protocol every baseline and AutoCTS itself follows.
///
/// # Errors
/// Propagates [`TrainError`] from the training loop: watchdog budget
/// exhaustion, interruption, or checkpoint I/O failures.
pub fn train_and_evaluate(
    model: &dyn Forecaster,
    spec: &DatasetSpec,
    windows: &SplitWindows,
    train_cfg: &TrainConfig,
    batch_size: usize,
) -> Result<EvalReport, TrainError> {
    let train_batches = batches_from_windows(&windows.train, batch_size);
    let val_batches = batches_from_windows(&windows.val, batch_size);
    let test_batches = batches_from_windows(&windows.test, batch_size);
    let report = train_full(
        model,
        &train_batches,
        (!val_batches.is_empty()).then_some(&val_batches[..]),
        train_cfg,
    )?;
    let (overall, horizons) = evaluate_model(model, &test_batches, spec.null_value);
    Ok(EvalReport {
        overall,
        horizons,
        train_secs_per_epoch: report.secs_per_epoch,
        inference_ms_per_window: inference_ms_per_window(model, &test_batches),
        parameters: cts_nn::count_parameters(&model.parameters()),
    })
}

/// Architecture evaluation (§3.4): instantiate the genotype with fresh
/// weights, retrain on the training+validation windows, report on test.
///
/// The retraining loop inherits the search config's divergence watchdog,
/// and — when the config checkpoints — persists its own run state to the
/// `retrain` stage file (see `CheckpointConfig::stage`), so a killed
/// retraining resumes from its last epoch boundary instead of restarting.
///
/// # Errors
/// Propagates [`TrainError`] from the training loop.
pub fn evaluate_genotype(
    cfg: &SearchConfig,
    genotype: &Genotype,
    spec: &DatasetSpec,
    graph: &SensorGraph,
    windows: &SplitWindows,
    epochs: usize,
) -> Result<EvalReport, TrainError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0x9e37));
    let model = DerivedModel::new(&mut rng, cfg, genotype, spec, graph, &windows.scaler);
    let train_cfg = TrainConfig {
        epochs,
        lr: cfg.weight_lr,
        weight_decay: cfg.weight_wd,
        clip: cfg.clip,
        loss: LossKind::MaskedMae {
            null_value: spec.null_value,
        },
        patience: 0,
        checkpoint: cfg.checkpoint.as_ref().map(|ck| ck.stage("retrain")),
        watchdog: cfg.watchdog.clone(),
    };
    // §3.4: retrain on the original training AND validation data.
    let merged = windows.train_and_val();
    let train_batches = batches_from_windows(&merged, cfg.batch_size);
    let test_batches = batches_from_windows(&windows.test, cfg.batch_size);
    let report = {
        let _span = cts_obs::span(cts_obs::Phase::Retrain);
        train_full(&model, &train_batches, None, &train_cfg)?
    };
    let (overall, horizons) = evaluate_model(&model, &test_batches, spec.null_value);
    Ok(EvalReport {
        overall,
        horizons,
        train_secs_per_epoch: report.secs_per_epoch,
        inference_ms_per_window: inference_ms_per_window(&model, &test_batches),
        parameters: cts_nn::count_parameters(&model.parameters()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::{Parameter, Tape, Var};

    /// Predicts the mean of the input history per node (sane baseline).
    struct MeanModel;

    impl Forecaster for MeanModel {
        fn forward(&self, _tape: &Tape, x: &Var) -> Var {
            // x [B,N,P,F] -> mean over P of feature 0 -> [B,N,1]
            x.slice(3, 0, 1).mean_axis(2, false)
        }
        fn parameters(&self) -> Vec<Parameter> {
            vec![]
        }
    }

    #[test]
    fn collect_stacks_all_samples() {
        let batches: Batches = (0..3)
            .map(|i| {
                (
                    Tensor::full([2, 3, 4, 1], i as f32),
                    Tensor::full([2, 3, 1], i as f32),
                )
            })
            .collect();
        let (pred, target) = collect_predictions(&MeanModel, &batches);
        assert_eq!(pred.shape(), &[6, 3, 1]);
        assert_eq!(target.shape(), &[6, 3, 1]);
        // MeanModel reproduces constant batches exactly
        assert!(pred.approx_eq(&target, 1e-6));
    }

    #[test]
    fn evaluate_model_perfect_on_constant_data() {
        let batches: Batches = vec![(
            Tensor::full([2, 2, 4, 1], 3.0),
            Tensor::full([2, 2, 1], 3.0),
        )];
        let (overall, horizons) = evaluate_model(&MeanModel, &batches, None);
        assert_eq!(overall.mae, 0.0);
        assert_eq!(horizons.len(), 1);
        assert_eq!(horizons[0].rmse, 0.0);
    }

    #[test]
    fn inference_timer_positive() {
        let batches: Batches = vec![(
            Tensor::full([4, 2, 3, 1], 1.0),
            Tensor::full([4, 2, 1], 1.0),
        )];
        let ms = inference_ms_per_window(&MeanModel, &batches);
        assert!(ms >= 0.0);
    }
}

//! A small generic training engine shared by the baselines and by AutoCTS's
//! architecture-evaluation stage.
//!
//! Fault tolerance: the loop optionally persists full run state
//! ([`crate::checkpoint::RunState`]) at epoch boundaries and resumes
//! bit-identically, and the divergence [`Watchdog`] rolls back to the
//! last good state on NaN losses/gradients or loss spikes, cuts the
//! learning rate, and retries within a bounded budget before returning a
//! typed [`TrainError`]. Resume and rollback restore through the same
//! function.

use crate::checkpoint::{
    apply_parameters, load_run_state, save_run_state, CheckpointError, MidEpochState, RunCounters,
    RunState,
};
use crate::runstate::{
    CheckpointConfig, DivergenceReason, EpochAbort, TrainError, Verdict, Watchdog, WatchdogConfig,
};
use crate::{clip_grad_norm, fault, global_grad_norm, Adam, Forecaster, LossKind, Optimizer};
use cts_autograd::Tape;
use cts_tensor::Tensor;

/// Hyper-parameters of a plain supervised training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training batches.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
    /// Loss to optimise.
    pub loss: LossKind,
    /// Stop early when validation loss hasn't improved for this many epochs
    /// (0 disables early stopping).
    pub patience: usize,
    /// Epoch-boundary run-state persistence (None disables).
    pub checkpoint: Option<CheckpointConfig>,
    /// Divergence watchdog (enabled by default).
    pub watchdog: WatchdogConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lr: 1e-3,
            weight_decay: 1e-4,
            clip: 5.0,
            loss: LossKind::MaskedMae {
                null_value: Some(0.0),
            },
            patience: 0,
            checkpoint: None,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Outcome of [`train_full`].
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Mean validation loss per epoch (empty when no validation set given).
    pub val_losses: Vec<f32>,
    /// Epoch index with the best validation loss.
    pub best_epoch: usize,
    /// Wall-clock seconds spent per epoch, averaged.
    pub secs_per_epoch: f64,
    /// Watchdog rollbacks performed during the run.
    pub rollbacks: usize,
}

/// Mean loss of `model` over `batches` without updating weights.
///
/// Uses the model's gradient-free [`Forecaster::forward_inference`] (the
/// compiled plan for derived models — no gradient is needed here); only the
/// loss itself is computed on a throwaway tape.
pub fn evaluate_loss(
    model: &dyn Forecaster,
    batches: &[(Tensor, Tensor)],
    loss_kind: LossKind,
) -> f32 {
    let mut total = 0.0f64;
    for (x, y) in batches {
        let tape = Tape::new();
        let pred = tape.constant(model.forward_inference(x));
        total += loss_kind.compute(&tape, &pred, y).value().item() as f64;
    }
    (total / batches.len().max(1) as f64) as f32
}

/// Everything [`train_full`] carries across steps and epochs.
/// [`RunState`] is its only saved form: a checkpoint, a resume and a
/// watchdog rollback all go through [`TrainRun::capture`] and
/// [`TrainRun::restore`].
struct TrainRun {
    opt: Adam,
    train_losses: Vec<f32>,
    val_losses: Vec<f32>,
    best: f32,
    best_epoch: usize,
    stall: usize,
    step: u64,
    epoch: usize,
    /// Position inside the current epoch: batches already applied and the
    /// `f64` loss sum they contributed, so an epoch resumed mid-way has
    /// the mean an uninterrupted one has. Zero at an epoch boundary.
    mid: MidEpochState,
    /// Wall-clock seconds of earlier processes (resume only).
    secs_before: f64,
    started: cts_obs::Stopwatch,
}

const EPOCH_START: MidEpochState = MidEpochState {
    batch: 0,
    loss_sum: 0.0,
};

impl TrainRun {
    fn new(model: &dyn Forecaster, cfg: &TrainConfig) -> Self {
        Self {
            opt: Adam::new(model.parameters(), cfg.lr, cfg.weight_decay),
            train_losses: Vec::with_capacity(cfg.epochs),
            val_losses: Vec::new(),
            best: f32::INFINITY,
            best_epoch: 0,
            stall: 0,
            step: 0,
            epoch: 0,
            mid: EPOCH_START,
            secs_before: 0.0,
            started: cts_obs::Stopwatch::start(),
        }
    }

    /// Store the loop's state in `rs`, in place where an earlier capture
    /// of this run left buffers ([`RunState::store_params`]).
    fn capture(&self, rs: &mut RunState) -> Result<(), CheckpointError> {
        rs.store_params(self.opt.params())?;
        rs.store_optimizers(&[("main", &self.opt)]);
        rs.schedule = None;
        rs.counters = RunCounters {
            epoch: self.epoch as u64,
            step: self.step,
            best_epoch: self.best_epoch as u64,
            stall: self.stall as u64,
            memory_scalars: 0,
            best_val: self.best,
            last_val: self.val_losses.last().copied().unwrap_or(0.0),
            secs: self.secs_before + self.started.elapsed_secs(),
        };
        rs.rng = None;
        rs.trace.clear();
        rs.train_losses.clone_from(&self.train_losses);
        rs.val_losses.clone_from(&self.val_losses);
        rs.mid_epoch = (self.mid.batch > 0).then_some(self.mid);
        Ok(())
    }

    /// Continue from `rs`. The wall clock is not rewound: a resume takes
    /// `rs.counters.secs` itself.
    fn restore(&mut self, rs: &RunState) -> Result<(), TrainError> {
        apply_parameters(&rs.params, self.opt.params())?;
        self.opt.zero_grad();
        // A params-only checkpoint (`save_parameters`) resumes with fresh
        // moments.
        if let Some(os) = rs.optimizers.iter().find(|o| o.name == "main") {
            self.opt.import_state(os)?;
        }
        self.train_losses.clone_from(&rs.train_losses);
        self.val_losses.clone_from(&rs.val_losses);
        self.best = rs.counters.best_val;
        self.best_epoch = rs.counters.best_epoch as usize;
        self.stall = rs.counters.stall as usize;
        self.step = rs.counters.step;
        self.epoch = rs.counters.epoch as usize;
        self.mid = rs.mid_epoch.unwrap_or(EPOCH_START);
        Ok(())
    }

    /// One health-checked optimisation pass from `self.mid`: consults the
    /// fault-injection plan and the watchdog at every step, refusing to
    /// apply a poisoned update, and writes the mid-epoch checkpoints.
    /// Returns the epoch's mean loss.
    fn run_epoch(
        &mut self,
        model: &dyn Forecaster,
        batches: &[(Tensor, Tensor)],
        cfg: &TrainConfig,
    ) -> Result<f32, EpochAbort> {
        let watchdog_on = cfg.watchdog.enabled;
        for (x, y) in batches.iter().skip(self.mid.batch as usize) {
            if fault::take_abort(self.step) {
                return Err(EpochAbort::Interrupted);
            }
            let tape = Tape::new();
            let fwd = cts_obs::span(cts_obs::Phase::Forward);
            let xv = tape.constant(x.clone());
            let pred = model.forward(&tape, &xv);
            let loss = cfg.loss.compute(&tape, &pred, y);
            let lv = loss.value().item();
            drop(fwd);
            if watchdog_on && !lv.is_finite() {
                return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteLoss {
                    step: self.step,
                }));
            }
            self.mid.loss_sum += lv as f64;
            {
                let _span = cts_obs::span(cts_obs::Phase::Backward);
                tape.backward(&loss);
            }
            if fault::take_nan_grad(self.step) {
                fault::poison_gradients(self.opt.params());
            }
            if watchdog_on && !global_grad_norm(self.opt.params()).is_finite() {
                return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteGradient {
                    step: self.step,
                }));
            }
            {
                let _span = cts_obs::span(cts_obs::Phase::WeightStep);
                if cfg.clip > 0.0 {
                    clip_grad_norm(self.opt.params(), cfg.clip);
                }
                self.opt.step();
            }
            self.step += 1;
            self.mid.batch += 1;
            // Mid-epoch checkpoint. The final batch of an epoch is skipped:
            // the boundary checkpoint records that state without the
            // mid-epoch chunk.
            if let Some(ck) = &cfg.checkpoint {
                if ck.steps_due(self.step) && (self.mid.batch as usize) < batches.len() {
                    let _span = cts_obs::span(cts_obs::Phase::CheckpointWrite);
                    let mut rs = RunState::default();
                    self.capture(&mut rs)
                        .and_then(|()| save_run_state(&ck.path, &rs))
                        .map_err(|e| EpochAbort::Failed(e.into()))?;
                }
            }
        }
        let mean = (self.mid.loss_sum / batches.len().max(1) as f64) as f32;
        self.mid = EPOCH_START;
        Ok(mean)
    }
}

/// Full training loop with optional validation-based early stopping,
/// epoch-boundary checkpointing/resume, and a divergence watchdog.
///
/// With `cfg.checkpoint` set, a run killed mid-epoch resumes from the
/// last completed epoch — or, with
/// [`CheckpointConfig::every_steps`] enabled, from the last mid-epoch
/// step checkpoint — and produces the *bit-identical* loss trace an
/// uninterrupted run would have produced.
///
/// # Errors
/// [`TrainError`] when the watchdog's budget is spent, the run is
/// interrupted, or checkpoint I/O fails; also when two parameters share a
/// name, since the run state could not be restored unambiguously.
pub fn train_full(
    model: &dyn Forecaster,
    train_batches: &[(Tensor, Tensor)],
    val_batches: Option<&[(Tensor, Tensor)]>,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    let mut run = TrainRun::new(model, cfg);
    // Resume from a previous run's checkpoint when configured. A corrupt
    // file is a hard error — it is never loaded, and never silently
    // replaced by a fresh start.
    if let Some(ck) = cfg
        .checkpoint
        .as_ref()
        .filter(|ck| ck.resume && ck.path.exists())
    {
        let rs = load_run_state(&ck.path)?;
        run.restore(&rs)?;
        run.secs_before = rs.counters.secs;
    }
    let mut watchdog = Watchdog::new(&cfg.watchdog, "train");
    run.capture(watchdog.keep())?;

    while run.epoch < cfg.epochs {
        let outcome = run.run_epoch(model, train_batches, cfg);
        let tl = match watchdog.judge(outcome, &run.train_losses, run.epoch, run.step)? {
            Verdict::Keep(tl) => tl,
            Verdict::Retry { good, lr_scale } => {
                run.restore(good)?;
                run.opt.set_lr(run.opt.lr() * lr_scale);
                continue;
            }
        };
        run.train_losses.push(tl);

        let mut stop = false;
        if let Some(vb) = val_batches {
            let vl = evaluate_loss(model, vb, cfg.loss);
            run.val_losses.push(vl);
            if vl < run.best {
                run.best = vl;
                run.best_epoch = run.epoch;
                run.stall = 0;
            } else {
                run.stall += 1;
                if cfg.patience > 0 && run.stall >= cfg.patience {
                    stop = true;
                }
            }
        } else if tl < run.best {
            run.best = tl;
            run.best_epoch = run.epoch;
        }

        run.epoch += 1;
        let good = watchdog.keep();
        run.capture(good)?;
        if let Some(ck) = &cfg.checkpoint {
            if ck.due(run.epoch) || stop || run.epoch == cfg.epochs {
                let _span = cts_obs::span(cts_obs::Phase::CheckpointWrite);
                save_run_state(&ck.path, good)?;
            }
        }
        if cts_obs::metrics_enabled() {
            use cts_obs::runlog::Value;
            let done = run.epoch as u64 - 1;
            cts_obs::runlog::emit(
                "epoch",
                &[
                    ("kind", Value::Str("train")),
                    ("epoch", Value::U64(done)),
                    ("train_loss", Value::F64(tl as f64)),
                    (
                        // A missing validation set serializes as null
                        // (non-finite F64s are written as JSON null).
                        "val_loss",
                        run.val_losses
                            .last()
                            .map_or(Value::F64(f64::NAN), |&v| Value::F64(v as f64)),
                    ),
                    ("rollbacks", Value::U64(watchdog.rollbacks() as u64)),
                    (
                        "secs",
                        Value::F64(run.secs_before + run.started.elapsed_secs()),
                    ),
                ],
            );
            cts_obs::emit_epoch_rows(done);
            cts_tensor::metrics::emit_epoch_rows(done);
        }
        if stop {
            break;
        }
    }

    let completed = run.train_losses.len().max(1) as f64;
    Ok(TrainReport {
        secs_per_epoch: (run.secs_before + run.started.elapsed_secs()) / completed,
        rollbacks: watchdog.rollbacks(),
        train_losses: run.train_losses,
        val_losses: run.val_losses,
        best_epoch: run.best_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use cts_autograd::{Parameter, Var};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// A one-layer model: mean over history, then a linear map per node.
    struct TinyModel {
        lin: Linear,
        q: usize,
    }

    impl Forecaster for TinyModel {
        fn forward(&self, tape: &Tape, x: &Var) -> Var {
            // x: [B,N,P,F] -> mean over P -> [B,N,F] -> linear -> [B,N,Q]
            let pooled = x.mean_axis(2, false);
            self.lin.forward(tape, &pooled)
        }
        fn parameters(&self) -> Vec<Parameter> {
            self.lin.parameters()
        }
        fn name(&self) -> &str {
            "tiny"
        }
    }

    fn toy_batches(rng: &mut impl Rng, n_batches: usize) -> Vec<(Tensor, Tensor)> {
        // target = 2 * mean(history) + 1, one-step horizon
        (0..n_batches)
            .map(|_| {
                let x = init::uniform(rng, [4, 3, 5, 1], 0.0, 1.0);
                let mut y = Tensor::zeros([4, 3, 1]);
                for b in 0..4 {
                    for n in 0..3 {
                        let mean: f32 = (0..5).map(|t| x.at(&[b, n, t, 0])).sum::<f32>() / 5.0;
                        *y.at_mut(&[b, n, 0]) = 2.0 * mean + 1.0;
                    }
                }
                (x, y)
            })
            .collect()
    }

    fn tiny_model(seed: u64) -> TinyModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        TinyModel {
            lin: Linear::new(&mut rng, "lin", 1, 1, true),
            q: 1,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(0);
        let model = TinyModel {
            lin: Linear::new(&mut rng, "lin", 1, 1, true),
            q: 1,
        };
        let _ = model.q;
        let batches = toy_batches(&mut rng, 16);
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            ..Default::default()
        };
        let report = train_full(&model, &batches, None, &cfg).unwrap();
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn early_stopping_halts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let model = TinyModel {
            lin: Linear::new(&mut rng, "lin", 1, 1, true),
            q: 1,
        };
        let batches = toy_batches(&mut rng, 4);
        // Validation on unrelated random targets: no improvement possible
        // after initial epochs, so patience must kick in.
        let val: Vec<(Tensor, Tensor)> = batches
            .iter()
            .map(|(x, y)| (x.clone(), y.map(|v| -v)))
            .collect();
        let cfg = TrainConfig {
            epochs: 100,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            patience: 3,
            ..Default::default()
        };
        let report = train_full(&model, &batches, Some(&val), &cfg).unwrap();
        assert!(report.train_losses.len() < 100, "never stopped early");
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("cts_train_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        std::fs::remove_file(&ckpt).ok();

        let mut rng = SmallRng::seed_from_u64(7);
        let batches = toy_batches(&mut rng, 6);
        let cfg = TrainConfig {
            epochs: 10,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            checkpoint: Some(CheckpointConfig::new(&ckpt)),
            ..Default::default()
        };

        // Reference: uninterrupted run.
        let reference = train_full(
            &tiny_model(3),
            &batches,
            None,
            &TrainConfig {
                checkpoint: None,
                ..cfg.clone()
            },
        )
        .unwrap();

        // Kill mid-epoch 4 (6 batches/epoch -> step 27 is inside epoch 4).
        fault::arm(fault::FaultPlan {
            abort_at_step: Some(27),
            ..fault::FaultPlan::default()
        });
        let err = train_full(&tiny_model(3), &batches, None, &cfg).unwrap_err();
        fault::disarm();
        assert!(matches!(err, TrainError::Interrupted { .. }), "{err}");

        // Resume into a *fresh* model: must complete and match bit-for-bit.
        let resumed = train_full(&tiny_model(99), &batches, None, &cfg).unwrap();
        assert_eq!(resumed.train_losses.len(), reference.train_losses.len());
        for (a, b) in resumed.train_losses.iter().zip(&reference.train_losses) {
            assert_eq!(a.to_bits(), b.to_bits(), "loss traces diverge");
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn mid_epoch_kill_and_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("cts_train_midepoch_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        std::fs::remove_file(&ckpt).ok();

        let mut rng = SmallRng::seed_from_u64(11);
        let batches = toy_batches(&mut rng, 6);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            checkpoint: Some(CheckpointConfig::new(&ckpt).every_steps(4)),
            ..Default::default()
        };

        // Reference: uninterrupted run.
        let reference = train_full(
            &tiny_model(3),
            &batches,
            None,
            &TrainConfig {
                checkpoint: None,
                ..cfg.clone()
            },
        )
        .unwrap();

        // Kill at step 9: the last mid-epoch checkpoint landed at step 8,
        // two batches into epoch 1, so the resume loses exactly one step.
        fault::arm(fault::FaultPlan {
            abort_at_step: Some(9),
            ..fault::FaultPlan::default()
        });
        let err = train_full(&tiny_model(3), &batches, None, &cfg).unwrap_err();
        fault::disarm();
        assert!(matches!(err, TrainError::Interrupted { .. }), "{err}");

        // The on-disk state really is mid-epoch, not an epoch boundary.
        let rs = load_run_state(&ckpt).unwrap();
        let me = rs.mid_epoch.expect("mid-epoch chunk present");
        assert_eq!((rs.counters.epoch, rs.counters.step, me.batch), (1, 8, 2));

        // Resume into a *fresh* model: finishes epoch 1 from batch 2 and
        // must reproduce the uninterrupted loss trace bit-for-bit.
        let resumed = train_full(&tiny_model(99), &batches, None, &cfg).unwrap();
        assert_eq!(resumed.train_losses.len(), reference.train_losses.len());
        for (a, b) in resumed.train_losses.iter().zip(&reference.train_losses) {
            assert_eq!(a.to_bits(), b.to_bits(), "loss traces diverge");
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn watchdog_recovers_from_nan_gradients() {
        let mut rng = SmallRng::seed_from_u64(21);
        let batches = toy_batches(&mut rng, 4);
        let cfg = TrainConfig {
            epochs: 8,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            ..Default::default()
        };
        fault::arm(fault::FaultPlan {
            nan_grad_at_step: Some(9),
            ..fault::FaultPlan::default()
        });
        let report = train_full(&tiny_model(5), &batches, None, &cfg).unwrap();
        fault::disarm();
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.train_losses.len(), 8);
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
    }

    /// [`TinyModel`] whose first `nan_forwards` forwards return NaN: a
    /// divergence that replays on every retry until it has fired.
    struct FlakyModel {
        inner: TinyModel,
        nan_forwards: std::cell::Cell<usize>,
    }

    impl Forecaster for FlakyModel {
        fn forward(&self, tape: &Tape, x: &Var) -> Var {
            let out = self.inner.forward(tape, x);
            match self.nan_forwards.get() {
                0 => out,
                n => {
                    self.nan_forwards.set(n - 1);
                    out.scale(f32::NAN)
                }
            }
        }
        fn parameters(&self) -> Vec<Parameter> {
            self.inner.parameters()
        }
        fn name(&self) -> &str {
            "flaky"
        }
    }

    fn param_bits(model: &dyn Forecaster) -> Vec<u32> {
        model
            .parameters()
            .iter()
            .flat_map(|p| {
                p.value()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn loss_bits(report: &TrainReport) -> Vec<u32> {
        report.train_losses.iter().map(|l| l.to_bits()).collect()
    }

    #[test]
    fn repeated_rollbacks_of_one_epoch_compound_the_lr_cut() {
        let mut rng = SmallRng::seed_from_u64(23);
        let batches = toy_batches(&mut rng, 4);
        let cfg = TrainConfig {
            epochs: 3,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            ..Default::default()
        };
        let flaky = FlakyModel {
            inner: tiny_model(8),
            nan_forwards: std::cell::Cell::new(2),
        };
        let report = train_full(&flaky, &batches, None, &cfg).unwrap();
        assert_eq!(report.rollbacks, 2);
        // Two rollbacks of epoch 0: the run is a clean one at lr × cut².
        let cut = cfg.watchdog.lr_cut;
        let clean_model = tiny_model(8);
        let clean = TrainConfig {
            lr: cfg.lr * (cut * cut),
            ..cfg.clone()
        };
        let reference = train_full(&clean_model, &batches, None, &clean).unwrap();
        assert_eq!(loss_bits(&report), loss_bits(&reference));
        assert_eq!(param_bits(&flaky), param_bits(&clean_model));
    }

    /// With `lr_cut = 1.0` a rollback changes nothing the retry reads: a
    /// transient NaN blast leaves the clean run's bits.
    #[test]
    fn rollback_restores_exactly() {
        let mut rng = SmallRng::seed_from_u64(24);
        let batches = toy_batches(&mut rng, 4);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            watchdog: WatchdogConfig {
                lr_cut: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let clean_model = tiny_model(9);
        let clean = train_full(&clean_model, &batches, None, &cfg).unwrap();
        let model = tiny_model(9);
        fault::arm(fault::FaultPlan {
            nan_grad_at_step: Some(6),
            ..fault::FaultPlan::default()
        });
        let rolled_back = train_full(&model, &batches, None, &cfg).unwrap();
        fault::disarm();
        assert_eq!(rolled_back.rollbacks, 1);
        assert_eq!(loss_bits(&rolled_back), loss_bits(&clean));
        assert_eq!(param_bits(&model), param_bits(&clean_model));
    }

    /// A run resumed mid-epoch rolls back to the resume point — batch and
    /// loss sum included — not to an epoch boundary it never visited.
    #[test]
    fn rollback_after_mid_epoch_resume_restores_exactly() {
        let dir = std::env::temp_dir().join("cts_train_midepoch_rollback_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        std::fs::remove_file(&ckpt).ok();

        let mut rng = SmallRng::seed_from_u64(25);
        let batches = toy_batches(&mut rng, 6);
        let cfg = TrainConfig {
            epochs: 3,
            lr: 0.05,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            checkpoint: Some(CheckpointConfig::new(&ckpt).every_steps(4)),
            watchdog: WatchdogConfig {
                lr_cut: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let clean_model = tiny_model(4);
        let clean = train_full(
            &clean_model,
            &batches,
            None,
            &TrainConfig {
                checkpoint: None,
                ..cfg.clone()
            },
        )
        .unwrap();

        // Kill at step 9: the resume point is step 8, two batches into
        // epoch 1. The resumed run then diverges at step 9, inside the
        // epoch it resumed.
        fault::arm(fault::FaultPlan {
            abort_at_step: Some(9),
            ..fault::FaultPlan::default()
        });
        let err = train_full(&tiny_model(4), &batches, None, &cfg).unwrap_err();
        assert!(matches!(err, TrainError::Interrupted { .. }), "{err}");
        let me = load_run_state(&ckpt).unwrap().mid_epoch;
        assert_eq!(me.map(|m| m.batch), Some(2));
        let model = tiny_model(99);
        fault::arm(fault::FaultPlan {
            nan_grad_at_step: Some(9),
            ..fault::FaultPlan::default()
        });
        let resumed = train_full(&model, &batches, None, &cfg).unwrap();
        fault::disarm();
        assert_eq!(resumed.rollbacks, 1);
        assert_eq!(loss_bits(&resumed), loss_bits(&clean));
        assert_eq!(param_bits(&model), param_bits(&clean_model));
        std::fs::remove_file(&ckpt).ok();
    }

    /// Run state is captured by parameter name, so a model that lists one
    /// name twice is refused before its first step.
    #[test]
    fn duplicate_parameter_names_are_refused_before_training() {
        struct Twice(TinyModel);
        impl Forecaster for Twice {
            fn forward(&self, tape: &Tape, x: &Var) -> Var {
                self.0.forward(tape, x)
            }
            fn parameters(&self) -> Vec<Parameter> {
                let mut ps = self.0.parameters();
                ps.extend(self.0.parameters());
                ps
            }
            fn name(&self) -> &str {
                "twice"
            }
        }
        let batches = toy_batches(&mut SmallRng::seed_from_u64(26), 2);
        match train_full(
            &Twice(tiny_model(1)),
            &batches,
            None,
            &TrainConfig::default(),
        ) {
            Err(TrainError::Checkpoint(CheckpointError::Incompatible(m))) => {
                assert!(m.contains("duplicate parameter name"), "{m}")
            }
            other => panic!("expected a duplicate-name error, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_budget_exhaustion_is_typed_error() {
        let mut rng = SmallRng::seed_from_u64(22);
        let batches = toy_batches(&mut rng, 2);
        // NaN every retry: the built-in one-shot trigger only fires once,
        // so force divergence with an absurd LR instead (loss overflows to
        // infinity almost immediately).
        let cfg = TrainConfig {
            epochs: 50,
            lr: 1e30,
            weight_decay: 0.0,
            loss: LossKind::Mse,
            watchdog: WatchdogConfig {
                max_retries: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        match train_full(&tiny_model(6), &batches, None, &cfg) {
            Err(TrainError::Diverged { retries, .. }) => assert_eq!(retries, 2),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }
}

//! The joint bi-level search strategy (Algorithm 1), with crash-safe
//! checkpointing and a divergence watchdog.
//!
//! The loop's state has one form, [`RunState`]: parameters, both Adam
//! optimizers, the temperature schedule, the shuffle RNG, and the
//! per-epoch trace. The loop captures it at every epoch boundary as the
//! watchdog's last-good state and, on the checkpoint cadence, writes that
//! same capture to disk, so a killed search resumes *bit-identically*.
//! Resume and rollback restore through one function. Epoch orderings are
//! tracked as index permutations (shuffled with exactly the RNG
//! consumption of [`cts_data::shuffle_windows`]), so a restore replays the
//! completed epochs' shuffles and then verifies the RNG landed on the
//! captured state, rejecting checkpoints from a different seed, config,
//! or dataset. The watchdog policy itself is [`cts_nn::Watchdog`], shared
//! with `cts_nn::train_full`.

use crate::error::SearchError;
use crate::{Genotype, SearchConfig, SupernetModel};
use cts_autograd::{Parameter, Tape};
use cts_data::{
    batches_from_windows, shuffle_in_place, Batches, DatasetSpec, SplitWindows, Window,
};
use cts_graph::SensorGraph;
use cts_nn::checkpoint::{
    apply_parameters, load_run_state, save_run_state, CheckpointError, RunCounters, RunState,
    ScheduleState,
};
use cts_nn::{
    clip_grad_norm, fault, global_grad_norm, Adam, DivergenceReason, EpochAbort, Forecaster,
    LossKind, Optimizer, TemperatureSchedule, Verdict, Watchdog,
};
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};

/// Per-epoch trace of the search (observability for Figure 5's
/// temperature/gap discussion).
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Temperature the epoch ran at.
    pub tau: f32,
    /// Mean pseudo-validation loss over the epoch.
    pub val_loss: f32,
    /// Mean α softmax entropy (at the epoch's τ) after the epoch — the
    /// discretisation gap; annealing should drive it toward 0.
    pub alpha_entropy: f32,
}

/// Cost accounting of one search run (Table 7 and the "GPU hours" columns
/// of the ablation tables; wall-clock seconds substitute for GPU hours on
/// this substrate).
#[derive(Clone, Debug)]
pub struct SearchStats {
    /// Wall-clock duration of the whole search (across resumes).
    pub secs: f64,
    /// Number of (Θ, w) step pairs executed.
    pub steps: usize,
    /// Estimated peak memory of the search in MB: the liveness-based
    /// arena-residency bound of [`crate::stats::search_memory_estimate`]
    /// (parameters + optimiser state + peak live activations, slot-padded,
    /// floored at the derived plan's static peak).
    pub memory_mb: f64,
    /// Final temperature at derivation time.
    pub final_tau: f32,
    /// Mean pseudo-validation loss of the last epoch.
    pub final_val_loss: f32,
    /// Watchdog rollbacks performed during the run.
    pub rollbacks: usize,
    /// Per-epoch trace (τ, val loss, α entropy).
    pub epochs: Vec<EpochStats>,
}

/// Everything [`joint_search`] carries across steps and epochs.
/// [`RunState`] is its only saved form: a checkpoint, a resume and a
/// watchdog rollback all go through [`SearchRun::capture`] and
/// [`SearchRun::restore`].
struct SearchRun<'a> {
    cfg: &'a SearchConfig,
    model: SupernetModel,
    loss_kind: LossKind,
    arch_opt: Adam,
    weight_opt: Adam,
    schedule: TemperatureSchedule,
    /// Θ then w.
    params: Vec<Parameter>,
    /// The shuffle RNG, and its state right after model initialisation:
    /// [`SearchRun::restore`] replays the completed epochs' shuffles from
    /// there.
    rng: SmallRng,
    rng_init: [u64; 4],
    /// The training split halved into pseudo-train / pseudo-validation
    /// windows (§3.4).
    pseudo_train: Vec<Window>,
    pseudo_val: Vec<Window>,
    /// Epoch orderings are cumulative in-place shuffles, tracked as index
    /// permutations so a restore can replay them without the window data.
    perm_train: Vec<usize>,
    perm_val: Vec<usize>,
    steps: usize,
    memory_scalars: usize,
    final_val_loss: f32,
    trace: Vec<EpochStats>,
    /// Mean pseudo-validation loss per completed epoch (the spike test's
    /// history).
    loss_history: Vec<f32>,
    epoch: usize,
    /// Wall-clock seconds of earlier processes (resume only).
    secs_before: f64,
    started: cts_obs::Stopwatch,
}

impl<'a> SearchRun<'a> {
    fn new(
        cfg: &'a SearchConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        windows: &SplitWindows,
    ) -> Result<Self, SearchError> {
        let (pseudo_train, pseudo_val) = windows.pseudo_split();
        if pseudo_train.is_empty() || pseudo_val.is_empty() {
            return Err(SearchError::EmptySplit {
                train: pseudo_train.len(),
                val: pseudo_val.len(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let model = SupernetModel::new(&mut rng, cfg, spec, graph, &windows.scaler);
        let params: Vec<Parameter> = model
            .arch_parameters()
            .into_iter()
            .chain(model.weight_parameters())
            .collect();
        Ok(Self {
            cfg,
            loss_kind: LossKind::MaskedMae {
                null_value: spec.null_value,
            },
            arch_opt: Adam::for_architecture(model.arch_parameters(), cfg.arch_lr, cfg.arch_wd),
            weight_opt: Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd),
            schedule: TemperatureSchedule::new(cfg.tau_init, cfg.tau_factor, cfg.tau_min),
            model,
            params,
            rng_init: rng.state(),
            rng,
            perm_train: (0..pseudo_train.len()).collect(),
            perm_val: (0..pseudo_val.len()).collect(),
            pseudo_train,
            pseudo_val,
            steps: 0,
            memory_scalars: 0,
            final_val_loss: 0.0,
            trace: Vec::with_capacity(cfg.epochs),
            loss_history: Vec::with_capacity(cfg.epochs),
            epoch: 0,
            secs_before: 0.0,
            started: cts_obs::Stopwatch::start(),
        })
    }

    /// Store the loop's state in `rs`, in place where an earlier capture
    /// of this run left buffers ([`RunState::store_params`]).
    fn capture(&self, rs: &mut RunState) -> Result<(), CheckpointError> {
        rs.store_params(&self.params)?;
        rs.store_optimizers(&[("arch", &self.arch_opt), ("weight", &self.weight_opt)]);
        rs.schedule = Some(ScheduleState {
            tau: self.schedule.tau(),
            factor: self.schedule.factor(),
            min: self.schedule.min_tau(),
        });
        rs.counters = RunCounters {
            epoch: self.epoch as u64,
            step: self.steps as u64,
            memory_scalars: self.memory_scalars as u64,
            last_val: self.final_val_loss,
            secs: self.secs_before + self.started.elapsed_secs(),
            ..RunCounters::default()
        };
        rs.rng = Some(self.rng.state());
        rs.trace.clear();
        rs.trace.extend(
            self.trace
                .iter()
                .map(|e| [e.tau, e.val_loss, e.alpha_entropy]),
        );
        rs.train_losses.clear();
        rs.val_losses.clone_from(&self.loss_history);
        rs.mid_epoch = None;
        Ok(())
    }

    /// Continue from `rs`. The wall clock is not rewound: a resume takes
    /// `rs.counters.secs` itself.
    ///
    /// The shuffle permutations are rebuilt by replaying `epoch` shuffles
    /// from the post-initialisation RNG state, and the RNG must then land
    /// on `rs.rng`: this proves a checkpoint belongs to this (seed, config,
    /// dataset).
    fn restore(&mut self, rs: &RunState) -> Result<(), SearchError> {
        let incompatible = |m: String| SearchError::Checkpoint(CheckpointError::Incompatible(m));
        apply_parameters(&rs.params, &self.params)?;
        for p in &self.params {
            p.zero_grad();
        }
        for os in &rs.optimizers {
            match os.name.as_str() {
                "arch" => self.arch_opt.import_state(os)?,
                "weight" => self.weight_opt.import_state(os)?,
                other => {
                    return Err(incompatible(format!(
                        "unknown optimizer {other:?} in search checkpoint"
                    )))
                }
            }
        }
        if let Some(s) = &rs.schedule {
            let sched = &self.schedule;
            if s.factor != sched.factor() || s.min != sched.min_tau() {
                return Err(incompatible(format!(
                    "checkpoint temperature schedule (factor {}, min {}) does not \
                     match the config (factor {}, min {})",
                    s.factor,
                    s.min,
                    sched.factor(),
                    sched.min_tau()
                )));
            }
            self.schedule.restore(s.tau);
        }
        self.epoch = rs.counters.epoch as usize;
        self.steps = rs.counters.step as usize;
        self.memory_scalars = rs.counters.memory_scalars as usize;
        self.final_val_loss = rs.counters.last_val;
        self.trace = rs
            .trace
            .iter()
            .map(|t| EpochStats {
                tau: t[0],
                val_loss: t[1],
                alpha_entropy: t[2],
            })
            .collect();
        self.loss_history.clone_from(&rs.val_losses);
        if let Some(last) = self.trace.last() {
            self.model.set_tau(last.tau);
        }
        self.rng = SmallRng::from_state(self.rng_init);
        for perm in [&mut self.perm_train, &mut self.perm_val] {
            perm.iter_mut().enumerate().for_each(|(i, p)| *p = i);
        }
        for _ in 0..self.epoch {
            shuffle_in_place(&mut self.rng, &mut self.perm_train);
            shuffle_in_place(&mut self.rng, &mut self.perm_val);
        }
        match rs.rng {
            Some(state) if self.rng.state() != state => Err(incompatible(
                "checkpoint RNG state does not match a deterministic replay — the \
                 checkpoint was produced with a different seed, config, or dataset"
                    .into(),
            )),
            _ => Ok(()),
        }
    }

    /// Shuffle for the next epoch and batch both pseudo splits in the new
    /// order.
    fn shuffled_batches(&mut self) -> (Batches, Batches) {
        shuffle_in_place(&mut self.rng, &mut self.perm_train);
        shuffle_in_place(&mut self.rng, &mut self.perm_val);
        let batches = |perm: &[usize], windows: &[Window]| {
            let shuffled: Vec<Window> = perm.iter().map(|&i| windows[i].clone()).collect();
            batches_from_windows(&shuffled, self.cfg.batch_size)
        };
        (
            batches(&self.perm_train, &self.pseudo_train),
            batches(&self.perm_val, &self.pseudo_val),
        )
    }

    /// One health-checked pass of alternating (Θ, w) updates: consults the
    /// fault-injection plan and the watchdog at every step pair, refusing
    /// to apply a poisoned update. Returns the mean pseudo-validation loss.
    fn run_epoch(
        &mut self,
        train_batches: &[(Tensor, Tensor)],
        val_batches: &[(Tensor, Tensor)],
    ) -> Result<f32, EpochAbort> {
        let Self {
            cfg,
            model,
            loss_kind,
            arch_opt,
            weight_opt,
            steps,
            memory_scalars,
            ..
        } = self;
        let watchdog_on = cfg.watchdog.enabled;
        let mut val_loss_acc = 0.0f64;
        let mut val_count = 0usize;
        for (step_in_epoch, (x_tr, y_tr)) in train_batches.iter().enumerate() {
            let gstep = *steps as u64;
            if fault::take_abort(gstep) {
                return Err(EpochAbort::Interrupted);
            }
            // line 3-4: update Θ on a pseudo-validation mini-batch
            let (x_va, y_va) = &val_batches[step_in_epoch % val_batches.len()];
            let step_val = {
                let tape = Tape::new();
                let fwd = cts_obs::span(cts_obs::Phase::Forward);
                let xv = tape.constant(x_va.clone());
                let pred = model.forward(&tape, &xv);
                let mut loss = loss_kind.compute(&tape, &pred, y_va);
                let lv = loss.value().item();
                if watchdog_on && !lv.is_finite() {
                    return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteLoss {
                        step: gstep,
                    }));
                }
                val_loss_acc += lv as f64;
                val_count += 1;
                if cfg.cost_penalty > 0.0 {
                    // efficiency-aware objective (§6 future work):
                    // L_val + λ · E[operator cost]
                    loss = loss.add(&model.expected_cost(&tape).scale(cfg.cost_penalty));
                }
                drop(fwd);
                // w gradients from this pass are not computed (first-order
                // approximation): only Θ steps here.
                {
                    let _span = cts_obs::span(cts_obs::Phase::Backward);
                    tape.backward_for(&loss, arch_opt.params());
                }
                if watchdog_on && !global_grad_norm(arch_opt.params()).is_finite() {
                    return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteGradient {
                        step: gstep,
                    }));
                }
                {
                    let _span = cts_obs::span(cts_obs::Phase::ArchStep);
                    arch_opt.step();
                }
                lv
            };
            // line 5-6: update w on a pseudo-training mini-batch
            {
                let tape = Tape::new();
                let fwd = cts_obs::span(cts_obs::Phase::Forward);
                let xv = tape.constant(x_tr.clone());
                let pred = model.forward(&tape, &xv);
                let loss = loss_kind.compute(&tape, &pred, y_tr);
                if watchdog_on && !loss.value().item().is_finite() {
                    return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteLoss {
                        step: gstep,
                    }));
                }
                drop(fwd);
                // Θ gradients from this pass are not computed either.
                {
                    let _span = cts_obs::span(cts_obs::Phase::Backward);
                    tape.backward_for(&loss, weight_opt.params());
                }
                if fault::take_nan_grad(gstep) {
                    fault::poison_gradients(weight_opt.params());
                }
                if watchdog_on && !global_grad_norm(weight_opt.params()).is_finite() {
                    return Err(EpochAbort::Diverged(DivergenceReason::NonFiniteGradient {
                        step: gstep,
                    }));
                }
                *memory_scalars = (*memory_scalars).max(tape.activation_scalars());
                {
                    let _span = cts_obs::span(cts_obs::Phase::WeightStep);
                    if cfg.clip > 0.0 {
                        clip_grad_norm(weight_opt.params(), cfg.clip);
                    }
                    weight_opt.step();
                }
            }
            *steps += 1;
            if cts_obs::trace_enabled() {
                use cts_obs::runlog::Value;
                cts_obs::runlog::emit(
                    "step",
                    &[
                        ("kind", Value::Str("joint_search")),
                        ("step", Value::U64(gstep)),
                        ("val_loss", Value::F64(step_val as f64)),
                    ],
                );
            }
        }
        Ok(if val_count > 0 {
            (val_loss_acc / val_count as f64) as f32
        } else {
            0.0
        })
    }
}

/// Run Algorithm 1 and return the derived genotype, the trained supernet,
/// and the cost statistics.
///
/// The training split of `windows` is halved into pseudo-train /
/// pseudo-validation (§3.4); `Θ` steps use pseudo-validation batches and
/// `w` steps pseudo-training batches, strictly alternating (lines 3–6).
///
/// With `cfg.checkpoint` set, run state is persisted atomically at epoch
/// boundaries, and a search killed mid-epoch resumes from the last
/// checkpoint producing the *bit-identical* genotype and per-epoch trace
/// an uninterrupted run would have produced. The divergence watchdog
/// (`cfg.watchdog`) rolls both optimizers back to the last good epoch on
/// NaN losses/gradients or loss spikes, cuts both learning rates, and
/// retries within a bounded budget before returning
/// [`SearchError::Diverged`].
pub fn joint_search(
    cfg: &SearchConfig,
    spec: &DatasetSpec,
    graph: &SensorGraph,
    windows: &SplitWindows,
) -> Result<(Genotype, SupernetModel, SearchStats), SearchError> {
    cfg.try_validate().map_err(SearchError::InvalidConfig)?;
    let mut run = SearchRun::new(cfg, spec, graph, windows)?;

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

    if cts_obs::metrics_enabled() {
        use cts_obs::runlog::Value;
        cts_obs::runlog::emit(
            "run_start",
            &[
                ("kind", Value::Str("joint_search")),
                ("seed", Value::U64(cfg.seed)),
                ("epochs", Value::U64(cfg.epochs as u64)),
                ("start_epoch", Value::U64(run.epoch as u64)),
                ("tau", Value::F64(run.schedule.tau() as f64)),
            ],
        );
    }
    let mut watchdog = Watchdog::new(&cfg.watchdog, "joint_search");
    run.capture(watchdog.keep())?;

    while run.epoch < cfg.epochs {
        run.model.set_tau(run.schedule.tau());
        let (train_batches, val_batches) = run.shuffled_batches();
        let outcome = run.run_epoch(&train_batches, &val_batches);
        let history = &run.loss_history;
        let val_loss = match watchdog.judge(outcome, history, run.epoch, run.steps as u64)? {
            Verdict::Keep(vl) => vl,
            Verdict::Retry { good, lr_scale } => {
                run.restore(good)?;
                run.arch_opt.set_lr(run.arch_opt.lr() * lr_scale);
                run.weight_opt.set_lr(run.weight_opt.lr() * lr_scale);
                continue; // retry the same epoch at the reduced LRs
            }
        };

        run.final_val_loss = val_loss;
        run.loss_history.push(val_loss);
        let epoch_stats = EpochStats {
            tau: run.model.tau(),
            val_loss,
            alpha_entropy: run.model.mean_alpha_entropy(),
        };
        run.trace.push(epoch_stats);
        if cfg.use_temperature {
            run.schedule.step();
        }
        run.epoch += 1;
        let good = watchdog.keep();
        run.capture(good)?;
        if let Some(ck) = &cfg.checkpoint {
            if ck.due(run.epoch) || run.epoch == cfg.epochs {
                let _span = cts_obs::span(cts_obs::Phase::CheckpointWrite);
                save_run_state(&ck.path, good)?;
            }
        }

        if cts_obs::metrics_enabled() {
            use cts_obs::runlog::Value;
            // `epoch` was already advanced past the epoch that just ran.
            let done = run.epoch as u64 - 1;
            cts_obs::runlog::emit(
                "epoch",
                &[
                    ("kind", Value::Str("joint_search")),
                    ("epoch", Value::U64(done)),
                    ("tau", Value::F64(epoch_stats.tau as f64)),
                    ("val_loss", Value::F64(epoch_stats.val_loss as f64)),
                    (
                        "alpha_entropy",
                        Value::F64(epoch_stats.alpha_entropy as f64),
                    ),
                    ("steps", Value::U64(run.steps as u64)),
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
    }

    let genotype = {
        let _span = cts_obs::span(cts_obs::Phase::Derive);
        run.model.derive()?
    };
    // Static plan peak of the derived architecture (its compiled plan
    // priced on shapes) floors the activation term of the memory estimate.
    // A derived genotype always passes validation, but fall back to 0
    // rather than fail the whole search over a cost-model refusal.
    let plan_peak = crate::preflight::analyze_cost(
        &crate::preflight::arch_spec(cfg, &genotype, spec, graph),
        cfg.batch_size,
    )
    .map_or(0, |c| c.peak_bytes);
    let mem = crate::stats::search_memory_estimate(&run.model, run.memory_scalars, plan_peak);
    let stats = SearchStats {
        secs: run.secs_before + run.started.elapsed_secs(),
        steps: run.steps,
        memory_mb: mem.peak_mb,
        final_tau: run.model.tau(),
        final_val_loss: run.final_val_loss,
        rollbacks: watchdog.rollbacks(),
        epochs: run.trace,
    };
    if cts_obs::metrics_enabled() {
        use cts_obs::runlog::Value;
        // Final roll-up past the last epoch boundary so the derivation
        // phase (and any kernel work it did) reaches the log.
        cts_obs::emit_epoch_rows(run.epoch as u64);
        cts_tensor::metrics::emit_epoch_rows(run.epoch as u64);
        cts_obs::runlog::emit(
            "run_end",
            &[
                ("kind", Value::Str("joint_search")),
                ("epochs", Value::U64(run.epoch as u64)),
                ("steps", Value::U64(stats.steps as u64)),
                ("rollbacks", Value::U64(stats.rollbacks as u64)),
                ("final_tau", Value::F64(stats.final_tau as f64)),
                ("final_val_loss", Value::F64(stats.final_val_loss as f64)),
                ("memory_mb", Value::F64(stats.memory_mb)),
                ("secs", Value::F64(stats.secs)),
            ],
        );
        cts_obs::runlog::flush();
    }
    Ok((genotype, run.model, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{build_windows, generate};

    fn fixture(cfg: &SearchConfig) -> (DatasetSpec, cts_data::CtsData, SplitWindows) {
        let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
        let data = generate(&spec, 9);
        let windows = build_windows(&data, 6, 24);
        let _ = cfg;
        (spec, data, windows)
    }

    fn small_cfg() -> SearchConfig {
        SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        }
    }

    #[test]
    fn search_produces_valid_genotype_and_stats() {
        let cfg = small_cfg();
        let (spec, data, windows) = fixture(&cfg);
        let (genotype, model, stats) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
        genotype.validate().unwrap();
        assert_eq!(genotype.b(), cfg.b);
        assert!(stats.steps > 0);
        assert!(stats.secs > 0.0);
        assert!(stats.memory_mb > 0.0);
        assert_eq!(stats.rollbacks, 0);
        // the last epoch ran at tau = 5.0 * 0.9 (annealed once before it)
        assert!((stats.final_tau - 5.0 * 0.9).abs() < 1e-5);
        assert!(model.tau() < 5.0);
    }

    #[test]
    fn search_moves_architecture_parameters() {
        let cfg = small_cfg();
        let (spec, data, windows) = fixture(&cfg);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let fresh = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let before: Vec<f32> = fresh
            .arch_parameters()
            .iter()
            .map(|p| p.value().norm())
            .collect();
        let (_, model, _) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
        let after: Vec<f32> = model
            .arch_parameters()
            .iter()
            .map(|p| p.value().norm())
            .collect();
        assert_ne!(before, after, "Θ never moved");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg();
        let (spec, data, windows) = fixture(&cfg);
        let (g1, _, _) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
        let (g2, _, _) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn without_temperature_keeps_tau_constant() {
        let cfg = small_cfg().without_temperature();
        let (spec, data, windows) = fixture(&cfg);
        let (_, model, stats) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
        let _ = model;
        assert_eq!(stats.final_tau, cfg.tau_init);
    }

    #[test]
    fn invalid_config_is_typed_error() {
        let cfg = SearchConfig {
            m: 1,
            ..small_cfg()
        };
        let (spec, data, windows) = fixture(&cfg);
        match joint_search(&cfg, &spec, &data.graph, &windows) {
            Err(SearchError::InvalidConfig(msg)) => {
                assert!(msg.contains("input + output"), "{msg}");
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got Ok"),
        }
    }

    #[test]
    fn empty_split_is_typed_error() {
        let cfg = small_cfg();
        let (spec, data, mut windows) = fixture(&cfg);
        windows.train.truncate(1); // pseudo-split halves this into (0, 1)
        match joint_search(&cfg, &spec, &data.graph, &windows) {
            Err(SearchError::EmptySplit { train: 0, val: 1 }) => {}
            Err(other) => panic!("expected EmptySplit, got {other:?}"),
            Ok(_) => panic!("expected EmptySplit, got Ok"),
        }
    }

    fn all_zero(params: &[Parameter]) -> bool {
        params
            .iter()
            .all(|p| p.grad().data().iter().all(|&g| g == 0.0))
    }

    /// The bi-level step computes Θ gradients only in the Θ pass and w
    /// gradients only in the w pass, and each `Adam::step` zeroes its own
    /// set — so the other set's gradients are zero at every step without a
    /// discard loop, and an epoch ends with every gradient at zero.
    #[test]
    fn each_pass_leaves_the_other_sets_gradients_zero() {
        let cfg = small_cfg();
        let (spec, data, windows) = fixture(&cfg);
        let mut run = SearchRun::new(&cfg, &spec, &data.graph, &windows).unwrap();
        let (model, loss_kind) = (&run.model, run.loss_kind);
        let (arch_opt, weight_opt) = (&mut run.arch_opt, &mut run.weight_opt);
        let batches = batches_from_windows(&windows.train, cfg.batch_size);
        let (x, y) = &batches[0];
        let nonzero = |ps: &[Parameter]| ps.iter().any(|p| p.grad().norm() > 0.0);

        let tape = Tape::new();
        let loss = loss_kind.compute(&tape, &model.forward(&tape, &tape.constant(x.clone())), y);
        tape.backward_for(&loss, arch_opt.params());
        assert!(nonzero(arch_opt.params()), "Θ pass delivered no Θ gradient");
        assert!(all_zero(weight_opt.params()), "Θ pass computed w gradients");
        arch_opt.step();
        assert!(
            all_zero(arch_opt.params()),
            "Adam::step left Θ gradients behind"
        );

        let tape = Tape::new();
        let loss = loss_kind.compute(&tape, &model.forward(&tape, &tape.constant(x.clone())), y);
        tape.backward_for(&loss, weight_opt.params());
        assert!(
            nonzero(weight_opt.params()),
            "w pass delivered no w gradient"
        );
        assert!(all_zero(arch_opt.params()), "w pass computed Θ gradients");
        weight_opt.step();
        assert!(
            all_zero(weight_opt.params()),
            "Adam::step left w gradients behind"
        );

        let outcome = run.run_epoch(&batches[..3], &batches[3..6]);
        assert!(outcome.is_ok());
        assert_eq!(run.steps, 3);
        assert!(all_zero(run.arch_opt.params()) && all_zero(run.weight_opt.params()));
    }
}

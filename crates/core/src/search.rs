//! The joint bi-level search strategy (Algorithm 1), with crash-safe
//! checkpointing and a divergence watchdog.
//!
//! Fault tolerance mirrors `cts_nn::train_full`: the loop optionally
//! persists complete run state ([`RunState`]) at epoch boundaries —
//! parameters, both Adam optimizers, the temperature schedule, the
//! shuffle RNG, and the per-epoch trace — and a killed search resumes
//! *bit-identically*. Epoch orderings are tracked as index permutations
//! (shuffled with exactly the RNG consumption of
//! [`cts_data::shuffle_windows`]), so resume replays the completed
//! epochs' shuffles and then verifies the RNG landed on the
//! checkpointed state, rejecting checkpoints from a different seed,
//! config, or dataset.

use crate::error::SearchError;
use crate::{Genotype, SearchConfig, SupernetModel};
use cts_autograd::{Parameter, Tape};
use cts_data::{batches_from_windows, shuffle_in_place, DatasetSpec, SplitWindows, Window};
use cts_graph::SensorGraph;
use cts_nn::checkpoint::{
    apply_parameters, load_run_state, save_run_state, CheckpointError, OptimizerState, RunCounters,
    RunState, ScheduleState,
};
use cts_nn::{
    clip_grad_norm, fault, global_grad_norm, Adam, DivergenceReason, Forecaster, LossKind,
    Optimizer, TemperatureSchedule,
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

/// Why an epoch could not complete.
enum EpochAbort {
    Interrupted,
    Diverged(DivergenceReason),
}

/// One health-checked pass of alternating (Θ, w) updates: consults the
/// fault-injection plan and the watchdog at every step pair, refusing to
/// apply a poisoned update. Returns the mean pseudo-validation loss.
#[allow(clippy::too_many_arguments)]
fn run_search_epoch(
    model: &SupernetModel,
    arch_opt: &mut Adam,
    weight_opt: &mut Adam,
    train_batches: &[(Tensor, Tensor)],
    val_batches: &[(Tensor, Tensor)],
    cfg: &SearchConfig,
    loss_kind: LossKind,
    steps: &mut usize,
    memory_scalars: &mut usize,
) -> Result<f32, EpochAbort> {
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

/// Last-good in-memory snapshot for watchdog rollback. Includes the
/// shuffle permutations and RNG so a retried epoch replays the same
/// batch order and checkpoint resume stays replayable.
struct Snapshot {
    values: Vec<Tensor>,
    arch: OptimizerState,
    weight: OptimizerState,
    steps: usize,
    memory_scalars: usize,
    perm_train: Vec<usize>,
    perm_val: Vec<usize>,
    rng: [u64; 4],
}

impl Snapshot {
    #[allow(clippy::too_many_arguments)]
    fn capture(
        params: &[Parameter],
        arch_opt: &Adam,
        weight_opt: &Adam,
        steps: usize,
        memory_scalars: usize,
        perm_train: &[usize],
        perm_val: &[usize],
        rng: &SmallRng,
    ) -> Self {
        Self {
            values: params.iter().map(|p| p.value().clone()).collect(),
            arch: arch_opt.export_state("arch"),
            weight: weight_opt.export_state("weight"),
            steps,
            memory_scalars,
            perm_train: perm_train.to_vec(),
            perm_val: perm_val.to_vec(),
            rng: rng.state(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn restore(
        &self,
        params: &[Parameter],
        arch_opt: &mut Adam,
        weight_opt: &mut Adam,
        steps: &mut usize,
        memory_scalars: &mut usize,
        perm_train: &mut Vec<usize>,
        perm_val: &mut Vec<usize>,
        rng: &mut SmallRng,
    ) {
        for (p, t) in params.iter().zip(&self.values) {
            p.set_value(t.clone());
            p.zero_grad();
        }
        arch_opt
            .import_state(&self.arch)
            // invariant: the snapshot was exported from this same optimizer.
            .expect("snapshot taken from this optimizer");
        weight_opt
            .import_state(&self.weight)
            // invariant: the snapshot was exported from this same optimizer.
            .expect("snapshot taken from this optimizer");
        *steps = self.steps;
        *memory_scalars = self.memory_scalars;
        perm_train.clone_from(&self.perm_train);
        perm_val.clone_from(&self.perm_val);
        *rng = SmallRng::from_state(self.rng);
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
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let model = SupernetModel::new(&mut rng, cfg, spec, graph, &windows.scaler);

    let (pseudo_train, pseudo_val) = windows.pseudo_split();
    if pseudo_train.is_empty() || pseudo_val.is_empty() {
        return Err(SearchError::EmptySplit {
            train: pseudo_train.len(),
            val: pseudo_val.len(),
        });
    }

    let mut arch_opt = Adam::for_architecture(model.arch_parameters(), cfg.arch_lr, cfg.arch_wd);
    let mut weight_opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
    let mut schedule = TemperatureSchedule::new(cfg.tau_init, cfg.tau_factor, cfg.tau_min);
    let loss_kind = LossKind::MaskedMae {
        null_value: spec.null_value,
    };
    let all_params: Vec<Parameter> = model
        .arch_parameters()
        .into_iter()
        .chain(model.weight_parameters())
        .collect();

    // Epoch orderings are cumulative in-place shuffles, tracked as index
    // permutations so resume can replay them without the window data.
    let mut perm_train: Vec<usize> = (0..pseudo_train.len()).collect();
    let mut perm_val: Vec<usize> = (0..pseudo_val.len()).collect();

    let mut steps = 0usize;
    let mut memory_scalars = 0usize;
    let mut final_val_loss = 0.0f32;
    let mut epoch_trace: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut loss_history: Vec<f32> = Vec::with_capacity(cfg.epochs);
    let mut epoch = 0usize;
    let mut secs_before = 0.0f64;

    // Resume from a previous run's checkpoint when configured. A corrupt
    // file is a hard error — it is never loaded, and never silently
    // replaced by a fresh start.
    if let Some(ck) = &cfg.checkpoint {
        if ck.resume && ck.path.exists() {
            let rs = load_run_state(&ck.path)?;
            apply_parameters(&rs.params, &all_params)?;
            for os in &rs.optimizers {
                match os.name.as_str() {
                    "arch" => arch_opt.import_state(os)?,
                    "weight" => weight_opt.import_state(os)?,
                    other => {
                        return Err(SearchError::Checkpoint(CheckpointError::Incompatible(
                            format!("unknown optimizer {other:?} in search checkpoint"),
                        )))
                    }
                }
            }
            if let Some(s) = &rs.schedule {
                if s.factor != schedule.factor() || s.min != schedule.min_tau() {
                    return Err(SearchError::Checkpoint(CheckpointError::Incompatible(
                        format!(
                            "checkpoint temperature schedule (factor {}, min {}) does not \
                             match the config (factor {}, min {})",
                            s.factor,
                            s.min,
                            schedule.factor(),
                            schedule.min_tau()
                        ),
                    )));
                }
                schedule.restore(s.tau);
            }
            epoch = rs.counters.epoch as usize;
            steps = rs.counters.step as usize;
            memory_scalars = rs.counters.memory_scalars as usize;
            final_val_loss = rs.counters.last_val;
            secs_before = rs.counters.secs;
            epoch_trace = rs
                .trace
                .iter()
                .map(|t| EpochStats {
                    tau: t[0],
                    val_loss: t[1],
                    alpha_entropy: t[2],
                })
                .collect();
            loss_history = rs.val_losses.clone();
            if let Some(last) = epoch_trace.last() {
                model.set_tau(last.tau);
            }
            // Replay the completed epochs' shuffles, then verify the RNG
            // landed exactly where the checkpoint recorded it — this both
            // reconstructs the cumulative permutations and proves the
            // checkpoint belongs to this (seed, config, dataset).
            for _ in 0..epoch {
                shuffle_in_place(&mut rng, &mut perm_train);
                shuffle_in_place(&mut rng, &mut perm_val);
            }
            if let Some(state) = rs.rng {
                if rng.state() != state {
                    return Err(SearchError::Checkpoint(CheckpointError::Incompatible(
                        "checkpoint RNG state does not match a deterministic replay — \
                         the checkpoint was produced with a different seed, config, or \
                         dataset"
                            .into(),
                    )));
                }
            }
        }
    }

    let started = cts_obs::Stopwatch::start();
    if cts_obs::metrics_enabled() {
        use cts_obs::runlog::Value;
        cts_obs::runlog::emit(
            "run_start",
            &[
                ("kind", Value::Str("joint_search")),
                ("seed", Value::U64(cfg.seed)),
                ("epochs", Value::U64(cfg.epochs as u64)),
                ("start_epoch", Value::U64(epoch as u64)),
                ("tau", Value::F64(schedule.tau() as f64)),
            ],
        );
    }
    let mut snapshot = Snapshot::capture(
        &all_params,
        &arch_opt,
        &weight_opt,
        steps,
        memory_scalars,
        &perm_train,
        &perm_val,
        &rng,
    );
    let mut rollbacks = 0usize;

    while epoch < cfg.epochs {
        model.set_tau(schedule.tau());
        shuffle_in_place(&mut rng, &mut perm_train);
        shuffle_in_place(&mut rng, &mut perm_val);
        let shuffled_train: Vec<Window> = perm_train
            .iter()
            .map(|&i| pseudo_train[i].clone())
            .collect();
        let shuffled_val: Vec<Window> = perm_val.iter().map(|&i| pseudo_val[i].clone()).collect();
        let train_batches = batches_from_windows(&shuffled_train, cfg.batch_size);
        let val_batches = batches_from_windows(&shuffled_val, cfg.batch_size);

        let outcome = run_search_epoch(
            &model,
            &mut arch_opt,
            &mut weight_opt,
            &train_batches,
            &val_batches,
            cfg,
            loss_kind,
            &mut steps,
            &mut memory_scalars,
        );
        let diverged = match outcome {
            Err(EpochAbort::Interrupted) => {
                return Err(SearchError::Interrupted {
                    epoch,
                    step: steps as u64,
                });
            }
            Err(EpochAbort::Diverged(reason)) => Some(reason),
            Ok(vl) if cfg.watchdog.enabled && cfg.watchdog.is_spike(vl, &loss_history) => {
                Some(DivergenceReason::LossSpike {
                    loss: vl,
                    median: cfg.watchdog.running_median(&loss_history).unwrap_or(0.0),
                })
            }
            Ok(vl) => {
                final_val_loss = vl;
                None
            }
        };
        if let Some(reason) = diverged {
            if rollbacks >= cfg.watchdog.max_retries {
                return Err(SearchError::Diverged {
                    epoch,
                    retries: rollbacks,
                    reason,
                });
            }
            rollbacks += 1;
            if cts_obs::metrics_enabled() {
                use cts_obs::runlog::Value;
                let reason_text = reason.to_string();
                cts_obs::runlog::emit(
                    "watchdog",
                    &[
                        ("kind", Value::Str("joint_search")),
                        ("epoch", Value::U64(epoch as u64)),
                        ("step", Value::U64(steps as u64)),
                        ("reason", Value::Str(&reason_text)),
                        ("rollbacks", Value::U64(rollbacks as u64)),
                    ],
                );
            }
            snapshot.restore(
                &all_params,
                &mut arch_opt,
                &mut weight_opt,
                &mut steps,
                &mut memory_scalars,
                &mut perm_train,
                &mut perm_val,
                &mut rng,
            );
            arch_opt.set_lr(arch_opt.lr() * cfg.watchdog.lr_cut);
            weight_opt.set_lr(weight_opt.lr() * cfg.watchdog.lr_cut);
            continue; // retry the same epoch at the reduced LRs
        }

        loss_history.push(final_val_loss);
        let epoch_stats = EpochStats {
            tau: model.tau(),
            val_loss: final_val_loss,
            alpha_entropy: model.mean_alpha_entropy(),
        };
        epoch_trace.push(epoch_stats);
        if cfg.use_temperature {
            schedule.step();
        }
        epoch += 1;
        snapshot = Snapshot::capture(
            &all_params,
            &arch_opt,
            &weight_opt,
            steps,
            memory_scalars,
            &perm_train,
            &perm_val,
            &rng,
        );

        if let Some(ck) = &cfg.checkpoint {
            if ck.due(epoch) || epoch == cfg.epochs {
                let rs = RunState {
                    params: RunState::capture_params(&all_params)?,
                    optimizers: vec![
                        arch_opt.export_state("arch"),
                        weight_opt.export_state("weight"),
                    ],
                    schedule: Some(ScheduleState {
                        tau: schedule.tau(),
                        factor: schedule.factor(),
                        min: schedule.min_tau(),
                    }),
                    counters: RunCounters {
                        epoch: epoch as u64,
                        step: steps as u64,
                        memory_scalars: memory_scalars as u64,
                        last_val: final_val_loss,
                        secs: secs_before + started.elapsed_secs(),
                        ..RunCounters::default()
                    },
                    rng: Some(rng.state()),
                    trace: epoch_trace
                        .iter()
                        .map(|e| [e.tau, e.val_loss, e.alpha_entropy])
                        .collect(),
                    train_losses: Vec::new(),
                    val_losses: loss_history.clone(),
                    mid_epoch: None,
                };
                {
                    let _span = cts_obs::span(cts_obs::Phase::CheckpointWrite);
                    save_run_state(&ck.path, &rs)?;
                }
            }
        }

        if cts_obs::metrics_enabled() {
            use cts_obs::runlog::Value;
            // `epoch` was already advanced past the epoch that just ran.
            let done = epoch as u64 - 1;
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
                    ("steps", Value::U64(steps as u64)),
                    ("rollbacks", Value::U64(rollbacks as u64)),
                    ("secs", Value::F64(secs_before + started.elapsed_secs())),
                ],
            );
            cts_obs::emit_epoch_rows(done);
            cts_tensor::metrics::emit_epoch_rows(done);
        }
    }

    let genotype = {
        let _span = cts_obs::span(cts_obs::Phase::Derive);
        model.derive()?
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
    let mem = crate::stats::search_memory_estimate(&model, memory_scalars, plan_peak);
    let stats = SearchStats {
        secs: secs_before + started.elapsed_secs(),
        steps,
        memory_mb: mem.peak_mb,
        final_tau: model.tau(),
        final_val_loss,
        rollbacks,
        epochs: epoch_trace,
    };
    if cts_obs::metrics_enabled() {
        use cts_obs::runlog::Value;
        // Final roll-up past the last epoch boundary so the derivation
        // phase (and any kernel work it did) reaches the log.
        cts_obs::emit_epoch_rows(epoch as u64);
        cts_tensor::metrics::emit_epoch_rows(epoch as u64);
        cts_obs::runlog::emit(
            "run_end",
            &[
                ("kind", Value::Str("joint_search")),
                ("epochs", Value::U64(epoch as u64)),
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
    Ok((genotype, model, stats))
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
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let mut arch_opt =
            Adam::for_architecture(model.arch_parameters(), cfg.arch_lr, cfg.arch_wd);
        let mut weight_opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
        let loss_kind = LossKind::MaskedMae {
            null_value: spec.null_value,
        };
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

        let (mut steps, mut memory) = (0, 0);
        let outcome = run_search_epoch(
            &model,
            &mut arch_opt,
            &mut weight_opt,
            &batches[..3],
            &batches[3..6],
            &cfg,
            loss_kind,
            &mut steps,
            &mut memory,
        );
        assert!(outcome.is_ok());
        assert_eq!(steps, 3);
        assert!(all_zero(arch_opt.params()) && all_zero(weight_opt.params()));
    }
}

//! Fault-tolerant runs: checkpoint cadence and the divergence watchdog
//! shared by [`crate::train_full`] and the search loop in `autocts`.
//!
//! Both loops keep one form of their state, [`RunState`]: the checkpoint a
//! run writes, the file a resumed run restores, and the last-good snapshot
//! a watchdog rollback restores are the same value, captured by one
//! function and restored by one function per loop.

use crate::checkpoint::{CheckpointError, RunState};
use std::fmt;
use std::path::PathBuf;

/// Where and how often to persist run state.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically; see
    /// [`crate::checkpoint::save_run_state`]).
    pub path: PathBuf,
    /// Write a checkpoint every this many completed epochs (≥ 1).
    pub every_epochs: usize,
    /// Additionally write a checkpoint every this many optimizer steps
    /// *within* an epoch (0 disables mid-epoch checkpoints, the default).
    /// Mid-epoch state rides in the same file as epoch checkpoints via a
    /// dedicated chunk, so a kill between epoch boundaries loses at most
    /// `steps_per_checkpoint` steps instead of the whole epoch.
    pub steps_per_checkpoint: usize,
    /// When `true` and `path` holds a valid checkpoint, continue the run
    /// from it instead of starting fresh. A corrupt or truncated file is
    /// a hard error, never silently ignored.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint to `path` after every epoch, resuming when possible.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every_epochs: 1,
            steps_per_checkpoint: 0,
            resume: true,
        }
    }

    /// Override the checkpoint cadence.
    pub fn every(mut self, epochs: usize) -> Self {
        assert!(epochs >= 1, "checkpoint cadence must be >= 1 epoch");
        self.every_epochs = epochs;
        self
    }

    /// Enable mid-epoch checkpoints every `steps` optimizer steps (0
    /// disables them again).
    pub fn every_steps(mut self, steps: usize) -> Self {
        self.steps_per_checkpoint = steps;
        self
    }

    /// Disable resuming (always start fresh, overwriting checkpoints).
    pub fn fresh(mut self) -> Self {
        self.resume = false;
        self
    }

    /// True when epoch `completed` (1-based count of finished epochs)
    /// falls on the cadence.
    pub fn due(&self, completed: usize) -> bool {
        completed.is_multiple_of(self.every_epochs.max(1))
    }

    /// True when a mid-epoch checkpoint is due after the `step`-th global
    /// optimizer step (1-based count of completed steps).
    pub fn steps_due(&self, step: u64) -> bool {
        self.steps_per_checkpoint > 0
            && step > 0
            && step.is_multiple_of(self.steps_per_checkpoint as u64)
    }

    /// Derive a stage-scoped config writing to the sibling file
    /// `<stem>.<name>[.<ext>]`, keeping cadence and resume policy. Lets
    /// one run config checkpoint its search and retraining stages
    /// independently without the two stages clobbering each other's file.
    pub fn stage(&self, name: &str) -> Self {
        let mut path = self.path.clone();
        let file = match (path.file_stem(), path.extension()) {
            (Some(stem), Some(ext)) => {
                format!(
                    "{}.{name}.{}",
                    stem.to_string_lossy(),
                    ext.to_string_lossy()
                )
            }
            (Some(stem), None) => format!("{}.{name}", stem.to_string_lossy()),
            (None, _) => name.to_string(),
        };
        path.set_file_name(file);
        Self {
            path,
            ..self.clone()
        }
    }
}

/// Numerical-health monitoring of a training loop.
///
/// DARTS-style searches are divergence-prone (loss spikes under the
/// annealed softmax, NaN blow-ups); the watchdog detects non-finite
/// losses/gradients and epoch-loss spikes, rolls the run back to the
/// last good epoch boundary, cuts the learning rate, and retries within
/// a bounded budget before surfacing a typed error.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Master switch. When off, non-finite values propagate as they did
    /// historically.
    pub enabled: bool,
    /// An epoch whose mean loss exceeds `spike_factor ×` the running
    /// median of previous epoch losses counts as divergence.
    pub spike_factor: f32,
    /// Epochs of loss history required before spike detection engages.
    pub min_history: usize,
    /// Total rollback budget for one run; exhausting it surfaces an
    /// error.
    pub max_retries: usize,
    /// Multiplier applied to the learning rate on every rollback. It
    /// compounds: the k-th retry of one epoch runs at the last good
    /// state's learning rate × `lr_cut`^k.
    pub lr_cut: f32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            spike_factor: 10.0,
            min_history: 5,
            max_retries: 3,
            lr_cut: 0.5,
        }
    }
}

impl WatchdogConfig {
    /// Disabled watchdog (legacy propagate-NaN behaviour).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Median of `history`; `None` while shorter than
    /// [`WatchdogConfig::min_history`].
    pub fn running_median(&self, history: &[f32]) -> Option<f32> {
        if history.len() < self.min_history {
            return None;
        }
        let mut sorted: Vec<f32> = history.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f32::total_cmp);
        Some(sorted[sorted.len() / 2])
    }

    /// Spike test for an epoch's mean loss against the loss history.
    pub fn is_spike(&self, loss: f32, history: &[f32]) -> bool {
        match self.running_median(history) {
            Some(median) if median > 0.0 => loss > self.spike_factor * median,
            _ => false,
        }
    }
}

/// Why the watchdog flagged an epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DivergenceReason {
    /// The loss itself went NaN/±∞.
    NonFiniteLoss {
        /// Global step where it was observed.
        step: u64,
    },
    /// A gradient buffer went NaN/±∞ after backward.
    NonFiniteGradient {
        /// Global step where it was observed.
        step: u64,
    },
    /// The epoch's mean loss spiked beyond the configured factor of the
    /// running median.
    LossSpike {
        /// Observed mean epoch loss.
        loss: f32,
        /// Running median it was compared against.
        median: f32,
    },
}

impl fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss { step } => {
                write!(f, "non-finite loss at step {step}")
            }
            DivergenceReason::NonFiniteGradient { step } => {
                write!(f, "non-finite gradient at step {step}")
            }
            DivergenceReason::LossSpike { loss, median } => {
                write!(f, "loss spike: {loss} vs running median {median}")
            }
        }
    }
}

/// Typed failure of a training run.
#[derive(Debug)]
pub enum TrainError {
    /// The watchdog's retry budget is exhausted.
    Diverged {
        /// Epoch the final divergence occurred in.
        epoch: usize,
        /// Rollbacks performed before giving up.
        retries: usize,
        /// The final divergence.
        reason: DivergenceReason,
    },
    /// The run was killed mid-epoch (fault injection or external stop).
    /// State up to the last checkpoint is on disk; resume to continue.
    Interrupted {
        /// Epoch the interruption occurred in.
        epoch: usize,
        /// Global step at interruption.
        step: u64,
    },
    /// Persisting or restoring run state failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                retries,
                reason,
            } => write!(
                f,
                "training diverged at epoch {epoch} after {retries} rollback(s): {reason}"
            ),
            TrainError::Interrupted { epoch, step } => {
                write!(f, "training interrupted at epoch {epoch}, step {step}")
            }
            TrainError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Why an epoch attempt stopped before its last batch.
#[derive(Debug)]
pub enum EpochAbort {
    /// The fault-injection plan killed the run ([`crate::fault::take_abort`]).
    Interrupted,
    /// A step's loss or gradient went non-finite.
    Diverged(DivergenceReason),
    /// A per-step side effect (a mid-epoch checkpoint write) failed.
    Failed(TrainError),
}

/// What a loop does after an epoch attempt, from [`Watchdog::judge`].
#[derive(Debug)]
pub enum Verdict<'a> {
    /// The epoch is healthy: keep its mean loss.
    Keep(f32),
    /// Restore the last-good state, multiply every optimizer's learning
    /// rate by `lr_scale` and run the epoch again.
    Retry {
        /// The state to restore.
        good: &'a RunState,
        /// `lr_cut`^k for the k-th rollback since `good` was kept.
        lr_scale: f32,
    },
}

/// The divergence watchdog of one run: its last-good state, the rollback
/// budget spent, and the learning-rate cut of the next retry.
///
/// The k-th rollback since the last good state retries at that state's
/// learning rate × `lr_cut`^k, so a divergence that survives one cut meets
/// a deeper one instead of replaying the same bits.
pub struct Watchdog<'a> {
    cfg: &'a WatchdogConfig,
    /// `kind` field of the `watchdog` run-log rows (`"train"`, `"joint_search"`).
    kind: &'static str,
    good: RunState,
    rollbacks: usize,
    lr_scale: f32,
}

impl<'a> Watchdog<'a> {
    /// Watch a run; capture its starting state into [`Watchdog::keep`]
    /// before the first [`Watchdog::judge`].
    pub fn new(cfg: &'a WatchdogConfig, kind: &'static str) -> Self {
        Self {
            cfg,
            kind,
            good: RunState::default(),
            rollbacks: 0,
            lr_scale: 1.0,
        }
    }

    /// Rollbacks performed so far.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// The last-good state, for the loop to capture its current state into
    /// after a completed epoch (and once at the start). The next rollback
    /// cuts the learning rate from this state's. A checkpoint write saves
    /// the same capture.
    pub fn keep(&mut self) -> &mut RunState {
        self.lr_scale = 1.0;
        &mut self.good
    }

    /// Judge one epoch attempt that ended with `outcome`, given the
    /// earlier epochs' mean losses `history` (for the spike test), at
    /// `epoch` and global `step`.
    ///
    /// Every divergence emits a `watchdog` run-log row, the last one
    /// included.
    ///
    /// # Errors
    /// [`TrainError::Interrupted`] for an interrupted epoch, the error of a
    /// failed step, and [`TrainError::Diverged`] once the retry budget is
    /// spent.
    pub fn judge(
        &mut self,
        outcome: Result<f32, EpochAbort>,
        history: &[f32],
        epoch: usize,
        step: u64,
    ) -> Result<Verdict<'_>, TrainError> {
        let reason = match outcome {
            Err(EpochAbort::Interrupted) => return Err(TrainError::Interrupted { epoch, step }),
            Err(EpochAbort::Failed(e)) => return Err(e),
            Err(EpochAbort::Diverged(reason)) => reason,
            Ok(loss) if self.cfg.enabled && self.cfg.is_spike(loss, history) => {
                DivergenceReason::LossSpike {
                    loss,
                    median: self.cfg.running_median(history).unwrap_or(0.0),
                }
            }
            Ok(loss) => return Ok(Verdict::Keep(loss)),
        };
        if cts_obs::metrics_enabled() {
            use cts_obs::runlog::Value;
            cts_obs::runlog::emit(
                "watchdog",
                &[
                    ("kind", Value::Str(self.kind)),
                    ("epoch", Value::U64(epoch as u64)),
                    ("step", Value::U64(step)),
                    ("reason", Value::Str(&reason.to_string())),
                    ("rollbacks", Value::U64(self.rollbacks as u64 + 1)),
                ],
            );
        }
        if self.rollbacks >= self.cfg.max_retries {
            return Err(TrainError::Diverged {
                epoch,
                retries: self.rollbacks,
                reason,
            });
        }
        self.rollbacks += 1;
        self.lr_scale *= self.cfg.lr_cut;
        Ok(Verdict::Retry {
            good: &self.good,
            lr_scale: self.lr_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence() {
        let ck = CheckpointConfig::new("/tmp/x.ckpt").every(3);
        assert!(!ck.due(1));
        assert!(!ck.due(2));
        assert!(ck.due(3));
        assert!(ck.due(6));
        assert!(CheckpointConfig::new("/tmp/x.ckpt").due(1));
    }

    #[test]
    fn step_cadence() {
        let off = CheckpointConfig::new("/tmp/x.ckpt");
        assert!(!off.steps_due(4), "mid-epoch checkpoints default off");
        let ck = CheckpointConfig::new("/tmp/x.ckpt").every_steps(4);
        assert!(!ck.steps_due(0));
        assert!(!ck.steps_due(3));
        assert!(ck.steps_due(4));
        assert!(!ck.steps_due(5));
        assert!(ck.steps_due(8));
        let disabled_again = ck.every_steps(0);
        assert!(!disabled_again.steps_due(4));
    }

    #[test]
    fn stage_derives_sibling_path_and_keeps_policy() {
        let ck = CheckpointConfig::new("/tmp/run.ckpt").every(3).fresh();
        let retrain = ck.stage("retrain");
        assert_eq!(
            retrain.path,
            std::path::PathBuf::from("/tmp/run.retrain.ckpt")
        );
        assert_eq!(retrain.every_epochs, 3);
        assert!(!retrain.resume);
        // extension-less paths get the stage suffix appended
        let bare = CheckpointConfig::new("/tmp/run").stage("retrain");
        assert_eq!(bare.path, std::path::PathBuf::from("/tmp/run.retrain"));
        // stages must not collide with each other or the base file
        assert_ne!(ck.stage("search").path, retrain.path);
        assert_ne!(ck.stage("search").path, ck.path);
    }

    #[test]
    fn spike_needs_history() {
        let wd = WatchdogConfig {
            min_history: 3,
            spike_factor: 10.0,
            ..Default::default()
        };
        assert!(!wd.is_spike(100.0, &[1.0, 1.0]));
        assert!(wd.is_spike(100.0, &[1.0, 1.2, 0.9]));
        assert!(!wd.is_spike(5.0, &[1.0, 1.2, 0.9]));
    }

    fn retry_scale(wd: &mut Watchdog<'_>) -> f32 {
        let nan = Err(EpochAbort::Diverged(DivergenceReason::NonFiniteLoss {
            step: 0,
        }));
        match wd.judge(nan, &[], 0, 0) {
            Ok(Verdict::Retry { lr_scale, .. }) => lr_scale,
            other => panic!("expected a retry, got {other:?}"),
        }
    }

    #[test]
    fn lr_cut_compounds_until_a_good_state_is_kept() {
        let cfg = WatchdogConfig {
            max_retries: 4,
            ..Default::default()
        };
        let mut wd = Watchdog::new(&cfg, "test");
        assert_eq!(retry_scale(&mut wd), 0.5);
        assert_eq!(retry_scale(&mut wd), 0.25);
        wd.keep();
        assert_eq!(retry_scale(&mut wd), 0.5, "a kept state resets the cut");
        assert_eq!(wd.rollbacks(), 3, "the budget spans the whole run");
        retry_scale(&mut wd);
        let nan = Err(EpochAbort::Diverged(DivergenceReason::NonFiniteLoss {
            step: 7,
        }));
        match wd.judge(nan, &[], 2, 7) {
            Err(TrainError::Diverged { epoch, retries, .. }) => {
                assert_eq!((epoch, retries), (2, 4))
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn judge_keeps_healthy_epochs_and_flags_spikes() {
        let cfg = WatchdogConfig {
            min_history: 2,
            ..Default::default()
        };
        let mut wd = Watchdog::new(&cfg, "test");
        assert!(matches!(
            wd.judge(Ok(5.0), &[1.0, 1.0], 2, 9),
            Ok(Verdict::Keep(5.0))
        ));
        assert!(matches!(
            wd.judge(Ok(50.0), &[1.0, 1.0], 2, 9),
            Ok(Verdict::Retry { .. })
        ));
        assert!(matches!(
            wd.judge(Err(EpochAbort::Interrupted), &[], 2, 9),
            Err(TrainError::Interrupted { epoch: 2, step: 9 })
        ));
    }

    #[test]
    fn median_ignores_non_finite() {
        let wd = WatchdogConfig {
            min_history: 3,
            ..Default::default()
        };
        let m = wd.running_median(&[1.0, f32::NAN, 3.0]).unwrap();
        assert!((1.0..=3.0).contains(&m));
    }
}

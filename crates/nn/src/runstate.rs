//! Fault-tolerant run configuration: checkpoint cadence and the
//! divergence watchdog shared by [`crate::train_full`] and the search
//! loop in `autocts`.

use crate::checkpoint::CheckpointError;
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
    /// Multiplier applied to the learning rate on every rollback.
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

//! Typed errors of the search and evaluation stages.

use cts_nn::checkpoint::CheckpointError;
use cts_nn::{DivergenceReason, TrainError};
use cts_verify::VerifyError;
use std::fmt;

/// Typed failure of [`crate::joint_search`] (previously panics or
/// silently-propagated NaNs).
#[derive(Debug)]
pub enum SearchError {
    /// The [`crate::SearchConfig`] violates an invariant.
    InvalidConfig(String),
    /// The training split is too small for the bi-level pseudo-split.
    EmptySplit {
        /// Pseudo-training windows available.
        train: usize,
        /// Pseudo-validation windows available.
        val: usize,
    },
    /// The divergence watchdog exhausted its rollback budget.
    Diverged {
        /// Epoch the final divergence occurred in.
        epoch: usize,
        /// Rollbacks performed before giving up.
        retries: usize,
        /// The final divergence.
        reason: DivergenceReason,
    },
    /// The search was killed mid-epoch (fault injection or external
    /// stop). State up to the last checkpoint is on disk; rerun with
    /// `resume` to continue.
    Interrupted {
        /// Epoch the interruption occurred in.
        epoch: usize,
        /// Global step at interruption.
        step: u64,
    },
    /// Persisting or restoring run state failed (I/O, corruption, or a
    /// checkpoint that does not match this run's config/data).
    Checkpoint(CheckpointError),
    /// The derived genotype failed the static pre-flight analysis
    /// (`cts-verify`): shape, wiring, or gradient-reachability errors.
    InvalidGenotype(VerifyError),
    /// Discretisation refused the architecture snapshot (non-finite α/β —
    /// the search diverged without tripping the watchdog).
    Derive(crate::DeriveError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::InvalidConfig(m) => write!(f, "invalid search config: {m}"),
            SearchError::EmptySplit { train, val } => write!(
                f,
                "not enough training windows for the bi-level split \
                 (pseudo-train {train}, pseudo-val {val})"
            ),
            SearchError::Diverged {
                epoch,
                retries,
                reason,
            } => write!(
                f,
                "search diverged at epoch {epoch} after {retries} rollback(s): {reason}"
            ),
            SearchError::Interrupted { epoch, step } => {
                write!(f, "search interrupted at epoch {epoch}, step {step}")
            }
            SearchError::Checkpoint(e) => write!(f, "{e}"),
            SearchError::InvalidGenotype(e) => {
                write!(f, "derived genotype failed static verification: {e}")
            }
            SearchError::Derive(e) => write!(f, "architecture derivation failed: {e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<crate::DeriveError> for SearchError {
    fn from(e: crate::DeriveError) -> Self {
        SearchError::Derive(e)
    }
}

impl From<CheckpointError> for SearchError {
    fn from(e: CheckpointError) -> Self {
        SearchError::Checkpoint(e)
    }
}

/// The loop failures the search shares with `cts_nn::train_full`, one
/// variant to one variant.
impl From<TrainError> for SearchError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Diverged {
                epoch,
                retries,
                reason,
            } => SearchError::Diverged {
                epoch,
                retries,
                reason,
            },
            TrainError::Interrupted { epoch, step } => SearchError::Interrupted { epoch, step },
            TrainError::Checkpoint(e) => SearchError::Checkpoint(e),
        }
    }
}

/// Typed failure of [`crate::AutoCts::try_evaluate`] (architecture
/// evaluation, §3.4).
#[derive(Debug)]
pub enum EvalError {
    /// The genotype failed the static pre-flight analysis before any
    /// model was built (malformed wiring, shape errors, starved
    /// parameters — common with hand-written or transferred genotypes).
    Rejected(VerifyError),
    /// Retraining failed (divergence, interruption, checkpoint I/O).
    Train(TrainError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Rejected(e) => write!(f, "genotype rejected before retraining: {e}"),
            EvalError::Train(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<TrainError> for EvalError {
    fn from(e: TrainError) -> Self {
        EvalError::Train(e)
    }
}

//! Typed serving-path errors.
//!
//! Every failure a request can hit between `submit` and its forecast is a
//! [`ServeError`] variant — the serving layer never panics on request
//! data. Operational knobs gone wrong (`Config`), hostile inputs
//! (`BadShape`, `NonFinite`, `TooMissing`), overload (`QueueFull`,
//! `DeadlineExpired`), execution faults after the degradation ladder is
//! exhausted (`PlanExec`, `PoisonedOutput`), rollout protection
//! (`CanaryRejected`), and front-end routing/transport failures
//! (`UnknownModel`, `ShardDown`, `FrontClosed`) each carry the numbers an
//! operator needs to act on the error without a debugger.

use std::fmt;

/// Why a serving request (or a serving-layer operation) failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The serving layer was configured with an unusable knob value.
    Config(String),
    /// The request tensor does not match the compiled plan's input shape.
    BadShape {
        /// The shape the request arrived with.
        got: Vec<usize>,
        /// The `[N, T, F]` trailer the plan was compiled for (batch free).
        want: [usize; 3],
    },
    /// The request contains NaN/Inf and the dataset has no null sentinel
    /// to mask them into.
    NonFinite {
        /// Number of non-finite entries found.
        count: usize,
    },
    /// The request's missing-value fraction exceeds the admission cap.
    TooMissing {
        /// Observed missing fraction (sentinel + non-finite entries).
        frac: f32,
        /// The configured cap.
        cap: f32,
    },
    /// The pending queue is at its bound; the request was shed at submit.
    QueueFull {
        /// The configured queue bound.
        limit: usize,
    },
    /// The request waited past its deadline and was shed at flush.
    DeadlineExpired {
        /// Milliseconds the request spent queued.
        waited_ms: f64,
        /// The deadline it carried.
        deadline_ms: f64,
    },
    /// Plan execution failed and every ladder rung (solo retries, tape
    /// fallback) was exhausted.
    PlanExec {
        /// Total execution attempts made for this request.
        attempts: usize,
        /// What the last failure looked like.
        cause: String,
    },
    /// Execution succeeded but the output stayed non-finite through every
    /// ladder rung.
    PoisonedOutput {
        /// Total execution attempts made for this request.
        attempts: usize,
    },
    /// A new plan failed the registry's canary health check and was not
    /// admitted; the previously registered plan (if any) still serves.
    CanaryRejected {
        /// The model id the plan was offered under.
        id: String,
        /// Why the canary run failed or diverged.
        cause: String,
    },
    /// The request named a model id no serving shard has a plan for.
    UnknownModel {
        /// The model id the request carried.
        id: String,
    },
    /// A shard's request channel or worker is gone (the worker exited or
    /// its channel disconnected); the request was not enqueued.
    ShardDown {
        /// Index of the unreachable shard.
        shard: usize,
        /// What the channel failure looked like.
        cause: String,
    },
    /// The front-end's reply channel disconnected mid-collection — every
    /// worker is gone, so no further answers can arrive.
    FrontClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serving config: {msg}"),
            ServeError::BadShape { got, want } => write!(
                f,
                "request shape {got:?} does not match plan input [B, {}, {}, {}]",
                want[0], want[1], want[2]
            ),
            ServeError::NonFinite { count } => write!(
                f,
                "request has {count} non-finite entries and no null sentinel to mask them into"
            ),
            ServeError::TooMissing { frac, cap } => write!(
                f,
                "request is {:.1}% missing, above the {:.1}% admission cap",
                frac * 100.0,
                cap * 100.0
            ),
            ServeError::QueueFull { limit } => {
                write!(f, "pending queue is at its bound of {limit}; request shed")
            }
            ServeError::DeadlineExpired {
                waited_ms,
                deadline_ms,
            } => write!(
                f,
                "request waited {waited_ms:.2} ms, past its {deadline_ms:.2} ms deadline"
            ),
            ServeError::PlanExec { attempts, cause } => write!(
                f,
                "plan execution failed after {attempts} attempts: {cause}"
            ),
            ServeError::PoisonedOutput { attempts } => {
                write!(f, "output stayed non-finite through {attempts} attempts")
            }
            ServeError::CanaryRejected { id, cause } => {
                write!(f, "plan '{id}' rejected by canary gate: {cause}")
            }
            ServeError::UnknownModel { id } => {
                write!(f, "no serving shard has a plan for model '{id}'")
            }
            ServeError::ShardDown { shard, cause } => {
                write!(f, "serving shard {shard} is unreachable: {cause}")
            }
            ServeError::FrontClosed => {
                write!(
                    f,
                    "serving front-end reply channel closed: all workers exited"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_operator_numbers() {
        let e = ServeError::TooMissing {
            frac: 0.5,
            cap: 0.2,
        };
        assert_eq!(
            e.to_string(),
            "request is 50.0% missing, above the 20.0% admission cap"
        );
        let e = ServeError::BadShape {
            got: vec![1, 2, 3],
            want: [3, 4, 2],
        };
        assert!(e.to_string().contains("[B, 3, 4, 2]"));
        let e = ServeError::DeadlineExpired {
            waited_ms: 7.5,
            deadline_ms: 5.0,
        };
        assert!(e.to_string().contains("7.50 ms"));
        let e = ServeError::UnknownModel { id: "m9".into() };
        assert!(e.to_string().contains("'m9'"));
        let e = ServeError::ShardDown {
            shard: 3,
            cause: "request channel disconnected".into(),
        };
        assert!(e.to_string().contains("shard 3"));
    }
}

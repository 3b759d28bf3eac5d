//! `cts-nn`: neural-network building blocks on top of `cts-autograd`.
//!
//! Provides the layers every model in the workspace is assembled from
//! (linear, temporal convolutions, normalisation, recurrent cells, full and
//! ProbSparse attention), each with one forward generic over a [`Backend`]
//! (the autograd [`cts_autograd::Tape`], the tape-free [`Eval`], or the
//! symbolic [`Price`], which prices a forward by running it on shapes); the
//! optimisers of the paper (Adam with weight decay, plus SGD), the
//! temperature/learning-rate schedules, masked losses, and a small generic
//! training engine shared by baselines and AutoCTS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod backend;
pub mod checkpoint;
mod conv;
pub mod fault;
mod linear;
mod loss;
mod module;
mod norm;
mod optim;
mod price;
mod rnn;
mod runstate;
mod schedule;
mod trainer;

pub use attention::{
    prob_sparse_attention, prob_sparse_u, scaled_dot_attention, AttentionKind, AttentionLayer,
};
pub use backend::{Backend, Eval, Leaf};
pub use conv::{GatedTemporalConv, TemporalConvLayer};
pub use linear::Linear;
pub use loss::{l1_loss, masked_mae_loss, masked_mse_loss, mse_loss, LossKind};
pub use module::{count_parameters, Forecaster, ParamBundle};
pub use norm::LayerNorm;
pub use optim::{clip_grad_norm, global_grad_norm, Adam, Optimizer, Sgd};
pub use price::{arena_bytes, OpCost, Price, Priced};
pub use rnn::{Gru, Lstm};
pub use runstate::{
    CheckpointConfig, DivergenceReason, EpochAbort, TrainError, Verdict, Watchdog, WatchdogConfig,
};
pub use schedule::TemperatureSchedule;
pub use trainer::{evaluate_loss, train_full, TrainConfig, TrainReport};

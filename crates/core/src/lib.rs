//! `autocts`: the paper's contribution — joint micro/macro neural
//! architecture search for correlated time series forecasting.
//!
//! The pipeline mirrors §3 of the paper:
//!
//! 1. [`SearchConfig`] fixes the search space: `M` latent nodes per
//!    ST-block (micro), `B` ST-blocks (macro), the operator set `O`
//!    ([`cts_ops::compact_set`] by default), and the temperature schedule.
//! 2. [`search`](search::joint_search) trains a [`SupernetModel`] with the
//!    bi-level first-order strategy of Algorithm 1, alternating updates of
//!    the architecture parameters `Θ = ({αᵢ, βᵢ}, γ)` on pseudo-validation
//!    batches and the network weights `w` on pseudo-training batches.
//! 3. [`derive`](derive::derive_genotype) extracts a discrete [`Genotype`]
//!    (Eq. 7 + the two-incoming-edges rule + argmax-γ backbone).
//! 4. [Architecture evaluation](eval::evaluate_genotype) retrains the derived
//!    [`DerivedModel`] from scratch on train+validation and reports test
//!    metrics.
//!
//! The high-level entry point is [`AutoCts`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod config;
#[cfg(test)]
mod cost_tests;
mod derive;
mod error;
mod genotype;
mod macro_space;
mod micro;
mod model;
mod search;
mod stats;

pub mod eval;
pub mod preflight;

pub use api::{AutoCts, SearchOutcome};
pub use config::SearchConfig;
pub use derive::{derive_genotype, DeriveError};
pub use error::{EvalError, SearchError};
pub use genotype::{BlockGenotype, Genotype};
pub use macro_space::MacroTopology;
pub use micro::MicroCell;
pub use model::DerivedModel;
pub use search::{joint_search, EpochStats, SearchStats};
pub use stats::{search_memory_estimate, MemoryEstimate, ModelStats};

pub use model::SupernetModel;

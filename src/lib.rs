//! `autocts-repro`: workspace umbrella crate hosting the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! The re-exports below give examples a single import surface.
#![forbid(unsafe_code)]

pub use autocts;
pub use cts_baselines as baselines;
pub use cts_data as data;
pub use cts_graph as graph;
pub use cts_nn as nn;
pub use cts_ops as st_ops;
pub use cts_tensor as tensor;
pub use cts_verify as verify;

//! `cts-ops`: the spatio-temporal operator library of Table 1.
//!
//! Every operator maps `[B, N, T, D] → [B, N, T, D]` so that the micro-DAG
//! can mix them freely. T-operators (1D-Conv, GDCC, LSTM, GRU, Transformer,
//! Informer) act along the time axis per series; S-operators (Chebyshev GCN,
//! Diffusion GCN, Transformer, Informer) act across series per timestamp.
//!
//! [`compact_set`] is the paper's judiciously selected operator set
//! {GDCC, INF-T, DGCN, INF-S, zero, identity} (§3.2.3); [`full_set`] is the
//! unpruned Table 1 set used by the *w/o design principles* ablation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention_ops;
mod basic;
mod context;
mod gcn_ops;
mod kinds;
mod registry;
mod rnn_ops;
mod step_cost;
mod taxonomy;
mod view;

pub use attention_ops::{InformerSOp, InformerTOp, TransformerSOp, TransformerTOp};
pub use basic::{Conv1dOp, GdccOp, IdentityOp, ZeroOp};
pub use context::{node_mix, GraphContext};
pub use gcn_ops::{ChebGcnOp, DgcnOp};
pub use kinds::{OpFamily, OpKind};
pub use registry::{build_operator, compact_set, full_set, Operator, StOperator};
pub use rnn_ops::{GruOp, LstmOp};
pub use step_cost::StepCost;
pub use taxonomy::{operator_table, st_block_taxonomy, OperatorRow, TaxonomyCell};

// Re-exported so crates that roll costs up (`cts-verify`) can name the
// price type without a dependency edge to `cts-nn`.
pub use cts_nn::OpCost;

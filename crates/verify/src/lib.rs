//! `cts-verify` — static analyzer for AutoCTS candidate architectures.
//!
//! The joint micro+macro search space of AutoCTS is discrete and fully
//! describable without running a model: an [`ArchSpec`] names the block
//! DAGs, the operator on every edge, and the backbone wiring. This crate
//! analyzes that description without executing a kernel — the shape and
//! reachability passes are abstract interpretation over it, and the cost
//! report ([`CostReport`]) rolls up the compiled plan's steps priced on
//! shapes — and reports, per architecture:
//!
//! 1. **Symbolic shape inference** ([`validate_genotype`]): every operator
//!    exposes a `shape_fn` ([`OpKind::infer_shape`]) mapping a symbolic
//!    input shape to its output shape. The analyzer walks the embedding,
//!    every block DAG, the residual/skip sums, and the output head,
//!    inferring each intermediate shape and flagging rank errors, channel
//!    mismatches, broadcast-incompatible sums, and dims that fail to
//!    round-trip `[B, N, T, D]` through the ST-backbone.
//! 2. **Gradient reachability**: a static liveness pass over the op DAG
//!    proving every trainable parameter is reachable from the loss through
//!    at least one non-`zero` path, and flagging dead nodes and starved
//!    parameters. Its edge-liveness verdict is designed to agree *exactly*
//!    with the runtime tape audit (`Tape::reachable_params` in
//!    `cts-autograd`), which the sweep binary cross-checks.
//! 3. **Static cost** ([`CostReport`], [`check_budgets`]): FLOPs, bytes,
//!    peak arena bytes and predicted latency of the compiled plan, priced
//!    on shapes, with budget findings for the search pre-flight.
//!
//! Errors mean "reject this architecture before spending a training run on
//! it"; warnings mean "trainable, but part of the compute is wasted".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod cost;
mod finding;
mod spec;

pub use analyze::{validate_block, validate_genotype};
pub use cost::{check_budgets, CostBudgets, CostReport, LatencyModel};
pub use finding::{Finding, FindingKind, Severity, VerifyError, VerifyReport};
pub use spec::{ArchSpec, BlockSpec, ModelDims};

// Re-exported so downstream callers can name the shape-fn and cost types
// without depending on cts-ops directly.
pub use cts_ops::{OpCost, OpKind, ShapeCtx, ShapeIssue, StepCost};

/// Validate and convert to a `Result`: `Ok(report)` when no error-severity
/// finding was recorded, `Err(VerifyError)` otherwise (warnings ride along
/// inside the report either way).
pub fn check_genotype(spec: &ArchSpec) -> Result<VerifyReport, VerifyError> {
    let report = validate_genotype(spec);
    if report.is_ok() {
        Ok(report)
    } else {
        Err(VerifyError { report })
    }
}

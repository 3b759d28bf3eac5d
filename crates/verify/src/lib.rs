//! `cts-verify` — static analyzer for AutoCTS candidate architectures.
//!
//! The joint micro+macro search space of AutoCTS is discrete and fully
//! describable without running a model: an [`ArchSpec`] names the block
//! DAGs, the operator on every edge, and the backbone wiring. This crate
//! analyzes that description without executing a kernel and reports, per
//! architecture:
//!
//! 1. **Structure** ([`validate_genotype`]): every block DAG has at least
//!    two nodes, forward edges only and an incoming edge per node, and the
//!    backbone wires each block to the embedding or an earlier block.
//!    Shapes need no pass of their own: every operator maps
//!    `[B, N, T, D]` to itself, so a structurally valid architecture is
//!    shape-valid.
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

pub use analyze::validate_genotype;
pub use cost::{check_budgets, CostBudgets, CostReport, LatencyModel};
pub use finding::{Finding, FindingKind, Severity, VerifyError, VerifyReport};
pub use spec::{ArchSpec, BlockSpec, ModelDims};

// Re-exported so downstream callers can name the operator and cost types
// without depending on cts-ops directly.
pub use cts_ops::{OpCost, OpKind, StepCost};

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

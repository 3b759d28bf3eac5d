//! The per-stage price record of a compiled forward.

use crate::OpKind;
use cts_nn::OpCost;

/// The static price of one stage of a compiled forward: the embedding, a
/// step of the flat program, or the output head.
///
/// `cts_runtime::ExecPlan` produces these by running its steps on the
/// `cts_nn::Price` backend; the `cts-verify` cost report rolls them up.
#[derive(Clone, Debug)]
pub struct StepCost {
    /// Where: `"embed"`, `"block0.e2"`, `"block1 residual"`,
    /// `"merge block2"`, `"output head"`.
    pub site: String,
    /// The operator kind, for op-edge steps.
    pub kind: Option<OpKind>,
    /// Exact flops/bytes plus scratch upper bound for this step (edge steps
    /// that accumulate into an already-written node include the fold add),
    /// and the parameter count of the layer or operator it runs.
    pub cost: OpCost,
    /// Workspace slots this step reads.
    pub srcs: Vec<usize>,
    /// Workspace slot this step writes.
    pub dst: usize,
    /// True when `dst` is written for the first time (resident set grows).
    pub new_slot: bool,
}

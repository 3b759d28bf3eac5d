//! Non-parametric ops and the CNN-family T-operators.

use crate::registry::Operator;
use crate::{GraphContext, OpKind};
use cts_autograd::Parameter;
use cts_nn::{Backend, GatedTemporalConv, TemporalConvLayer};
use rand::Rng;

/// The zero operator: cuts an edge in the micro-DAG.
pub struct ZeroOp;

impl Operator for ZeroOp {
    const KIND: OpKind = OpKind::Zero;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        be.scale(x, 0.0)
    }

    fn weights(&self) -> Vec<Parameter> {
        vec![]
    }
}

/// The identity operator: a residual edge.
pub struct IdentityOp;

impl Operator for IdentityOp {
    const KIND: OpKind = OpKind::Identity;

    fn apply<B: Backend>(&self, _be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        x.clone()
    }

    fn weights(&self) -> Vec<Parameter> {
        vec![]
    }
}

/// Plain 1D causal convolution over time (Eq. 8), kernel 2.
pub struct Conv1dOp {
    conv: TemporalConvLayer,
}

impl Conv1dOp {
    /// Kernel-2, dilation-1 causal convolution with `d` channels.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            conv: TemporalConvLayer::new(rng, name, 2, d, d, 1, true),
        }
    }
}

impl Operator for Conv1dOp {
    const KIND: OpKind = OpKind::Conv1d;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        self.conv.forward(be, x)
    }

    fn weights(&self) -> Vec<Parameter> {
        self.conv.parameters()
    }
}

/// Gated dilated causal convolution (Eq. 9), kernel 2, dilation 2 — the
/// CNN-family representative of the compact set.
pub struct GdccOp {
    gate: GatedTemporalConv,
}

impl GdccOp {
    /// GDCC with `d` channels.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            gate: GatedTemporalConv::new(rng, name, 2, d, d, 2),
        }
    }
}

impl Operator for GdccOp {
    const KIND: OpKind = OpKind::Gdcc;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        self.gate.forward(be, x)
    }

    fn weights(&self) -> Vec<Parameter> {
        self.gate.parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StOperator;
    use cts_autograd::Tape;
    use cts_graph::SensorGraph;
    use cts_tensor::{init, Tensor};
    use rand::{rngs::SmallRng, SeedableRng};

    fn ctx() -> GraphContext {
        GraphContext::from_graph(&SensorGraph::identity(3), 2)
    }

    #[test]
    fn zero_is_zero_identity_is_identity() {
        let tape = Tape::new();
        let x = tape.constant(init::uniform(
            &mut SmallRng::seed_from_u64(0),
            [1, 3, 4, 2],
            -1.0,
            1.0,
        ));
        let zero = ZeroOp.forward(&tape, &x, &ctx());
        assert_eq!(zero.value().sum(), 0.0);
        assert_eq!(zero.value().shape(), x.value().shape());
        let id = IdentityOp.forward(&tape, &x, &ctx());
        assert!(id.value().approx_eq(&x.value(), 0.0));
    }

    #[test]
    fn gdcc_respects_causality() {
        let mut rng = SmallRng::seed_from_u64(1);
        let op = GdccOp::new(&mut rng, "gdcc", 2);
        let tape = Tape::new();
        let mut base = Tensor::zeros([1, 1, 8, 2]);
        base.data_mut()[0] = 1.0;
        let x0 = tape.constant(base.clone());
        let y0 = op.forward(&tape, &x0, &ctx()).value();
        // perturb the last timestamp: earlier outputs must not change
        base.data_mut()[7 * 2] = 9.0;
        let x1 = tape.constant(base);
        let y1 = op.forward(&tape, &x1, &ctx()).value();
        for t in 0..7 {
            assert_eq!(y0.at(&[0, 0, t, 0]), y1.at(&[0, 0, t, 0]), "leak at t={t}");
        }
    }

    #[test]
    fn conv1d_param_count() {
        let mut rng = SmallRng::seed_from_u64(2);
        let op = Conv1dOp::new(&mut rng, "c", 4);
        // kernel [2,4,4] + bias [4]
        let total: usize = op.parameters().iter().map(|p| p.len()).sum();
        assert_eq!(total, 2 * 4 * 4 + 4);
    }
}

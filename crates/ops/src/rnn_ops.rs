//! RNN-family T-operators (Eqs. 10–11). Excluded from the compact set by
//! design principle 1, but required for the *w/o design principles*
//! ablation.

use crate::registry::Operator;
use crate::view::{from_temporal, temporal_view};
use crate::{GraphContext, OpKind};
use cts_autograd::Parameter;
use cts_nn::{Backend, Gru, Lstm};
use rand::Rng;

/// LSTM applied independently to each series (Eq. 10); hidden width = D so
/// the shape is preserved.
pub struct LstmOp {
    cell: Lstm,
}

impl LstmOp {
    /// LSTM with hidden width `d`.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            cell: Lstm::new(rng, name, d, d),
        }
    }
}

impl Operator for LstmOp {
    const KIND: OpKind = OpKind::Lstm;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        let (series, dims) = temporal_view(be, x);
        let y = self.cell.forward_sequence(be, &series);
        from_temporal(be, y, dims)
    }

    fn weights(&self) -> Vec<Parameter> {
        self.cell.parameters()
    }
}

/// GRU applied independently to each series (Eq. 11).
pub struct GruOp {
    cell: Gru,
}

impl GruOp {
    /// GRU with hidden width `d`.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            cell: Gru::new(rng, name, d, d),
        }
    }
}

impl Operator for GruOp {
    const KIND: OpKind = OpKind::Gru;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
        let (series, dims) = temporal_view(be, x);
        let y = self.cell.forward_sequence(be, &series);
        from_temporal(be, y, dims)
    }

    fn weights(&self) -> Vec<Parameter> {
        self.cell.parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StOperator;
    use cts_autograd::Tape;
    use cts_graph::SensorGraph;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn rnn_ops_preserve_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let ctx = GraphContext::from_graph(&SensorGraph::identity(3), 2);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 3, 5, 4], -1.0, 1.0));
        let lstm = LstmOp::new(&mut rng, "l", 4);
        assert_eq!(lstm.forward(&tape, &x, &ctx).shape(), vec![2, 3, 5, 4]);
        let gru = GruOp::new(&mut rng, "g", 4);
        assert_eq!(gru.forward(&tape, &x, &ctx).shape(), vec![2, 3, 5, 4]);
    }

    #[test]
    fn series_are_independent() {
        // output of series 0 must not depend on series 1's input
        let mut rng = SmallRng::seed_from_u64(1);
        let ctx = GraphContext::from_graph(&SensorGraph::identity(2), 2);
        let op = GruOp::new(&mut rng, "g", 2);
        let tape = Tape::new();
        let mut a = init::uniform(&mut rng, [1, 2, 4, 2], -1.0, 1.0);
        let y0 = op.forward(&tape, &tape.constant(a.clone()), &ctx).value();
        // perturb node 1's inputs only
        for t in 0..4 {
            *a.at_mut(&[0, 1, t, 0]) += 5.0;
        }
        let y1 = op.forward(&tape, &tape.constant(a), &ctx).value();
        for t in 0..4 {
            for d in 0..2 {
                assert_eq!(y0.at(&[0, 0, t, d]), y1.at(&[0, 0, t, d]));
            }
        }
    }
}

//! Attention-family T- and S-operators (Eqs. 12–13, 16–17).

use crate::registry::Operator;
use crate::view::{from_spatial, from_temporal, spatial_view, temporal_view};
use crate::{GraphContext, OpKind};
use cts_autograd::Parameter;
use cts_nn::{AttentionKind, AttentionLayer, Backend};
use rand::Rng;

/// Informer's default sampling factor `c` in `u = ⌈c·ln L⌉`.
pub(crate) const INFORMER_FACTOR: f32 = 1.0;

macro_rules! attention_op {
    ($name:ident, $kind:expr, $attn:expr, $view:ident, $unview:ident, $doc:literal) => {
        #[doc = $doc]
        pub struct $name {
            attn: AttentionLayer,
        }

        impl $name {
            /// Build with channel width `d`.
            pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
                Self {
                    attn: AttentionLayer::new(rng, name, d, $attn),
                }
            }
        }

        impl Operator for $name {
            const KIND: OpKind = $kind;

            fn apply<B: Backend>(&self, be: &B, x: &B::V, _ctx: &GraphContext) -> B::V {
                let (v, dims) = $view(be, x);
                let y = self.attn.forward(be, &v);
                $unview(be, y, dims)
            }

            fn weights(&self) -> Vec<Parameter> {
                self.attn.parameters()
            }
        }
    };
}

attention_op!(
    TransformerTOp,
    OpKind::TransformerT,
    AttentionKind::Full,
    temporal_view,
    from_temporal,
    "Full self-attention over timestamps per series (Eq. 12)."
);

attention_op!(
    InformerTOp,
    OpKind::InformerT,
    AttentionKind::ProbSparse {
        factor: INFORMER_FACTOR
    },
    temporal_view,
    from_temporal,
    "ProbSparse self-attention over timestamps per series — INF-T (Eq. 13)."
);

attention_op!(
    TransformerSOp,
    OpKind::TransformerS,
    AttentionKind::Full,
    spatial_view,
    from_spatial,
    "Full self-attention over series per timestamp (Eq. 16)."
);

attention_op!(
    InformerSOp,
    OpKind::InformerS,
    AttentionKind::ProbSparse {
        factor: INFORMER_FACTOR
    },
    spatial_view,
    from_spatial,
    "ProbSparse self-attention over series per timestamp — INF-S (Eq. 17)."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StOperator;
    use cts_graph::SensorGraph;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    fn ctx(n: usize) -> GraphContext {
        GraphContext::from_graph(&SensorGraph::identity(n), 2)
    }

    #[test]
    fn temporal_attention_isolates_series() {
        // T-attention must not mix information across nodes.
        let mut rng = SmallRng::seed_from_u64(1);
        let op = TransformerTOp::new(&mut rng, "att", 3);
        let tape = cts_autograd::Tape::new();
        let mut x = init::uniform(&mut rng, [1, 2, 4, 3], -1.0, 1.0);
        let y0 = op
            .forward(&tape, &tape.constant(x.clone()), &ctx(2))
            .value();
        for t in 0..4 {
            for d in 0..3 {
                *x.at_mut(&[0, 1, t, d]) += 3.0;
            }
        }
        let y1 = op.forward(&tape, &tape.constant(x), &ctx(2)).value();
        for t in 0..4 {
            for d in 0..3 {
                assert_eq!(y0.at(&[0, 0, t, d]), y1.at(&[0, 0, t, d]));
            }
        }
    }

    #[test]
    fn spatial_attention_isolates_timestamps() {
        // S-attention must not mix information across time.
        let mut rng = SmallRng::seed_from_u64(2);
        let op = TransformerSOp::new(&mut rng, "att", 3);
        let tape = cts_autograd::Tape::new();
        let mut x = init::uniform(&mut rng, [1, 3, 4, 3], -1.0, 1.0);
        let y0 = op
            .forward(&tape, &tape.constant(x.clone()), &ctx(3))
            .value();
        for n in 0..3 {
            for d in 0..3 {
                *x.at_mut(&[0, n, 3, d]) += 3.0; // only t=3 changes
            }
        }
        let y1 = op.forward(&tape, &tape.constant(x), &ctx(3)).value();
        for n in 0..3 {
            for t in 0..3 {
                for d in 0..3 {
                    assert_eq!(y0.at(&[0, n, t, d]), y1.at(&[0, n, t, d]));
                }
            }
        }
    }

    #[test]
    fn spatial_attention_mixes_nodes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let op = TransformerSOp::new(&mut rng, "att", 3);
        let tape = cts_autograd::Tape::new();
        let mut x = init::uniform(&mut rng, [1, 3, 2, 3], -1.0, 1.0);
        let y0 = op
            .forward(&tape, &tape.constant(x.clone()), &ctx(3))
            .value();
        *x.at_mut(&[0, 2, 0, 0]) += 4.0;
        let y1 = op.forward(&tape, &tape.constant(x), &ctx(3)).value();
        // node 0 at t=0 should feel node 2's change
        assert_ne!(y0.at(&[0, 0, 0, 0]), y1.at(&[0, 0, 0, 0]));
    }
}

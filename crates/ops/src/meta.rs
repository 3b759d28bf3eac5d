//! Static op metadata: the `shape_fn` contract.
//!
//! Every operator kind declares, *without being instantiated*, what input
//! shapes it accepts and what output shape it produces. `cts-verify` uses
//! this to infer every intermediate shape of a candidate architecture
//! before a single forward pass runs.
//!
//! The contract (see DESIGN.md § "shape_fn contract"):
//!
//! * Non-parametric ops (`zero`, `identity`) are polymorphic: any shape
//!   passes through unchanged.
//! * Parametric ops require rank-4 `[B, N, T, D]` input with the channel
//!   dim provably equal to the operator width `d` they were built with
//!   (the `ReluNormed` wrapper's LayerNorm is sized to `d`).
//! * Spatial ops additionally require the node dim to provably equal the
//!   graph's node count when one is known (their supports are `[N, N]`).
//!
//! New operators MUST extend [`OpKind::infer_shape`]; the exhaustive match
//! makes forgetting a compile error.

use crate::OpKind;
use cts_tensor::sym::{format_shape, SymDim};
use std::fmt;

/// Static context the shape rules check against.
#[derive(Clone, Copy, Debug)]
pub struct ShapeCtx {
    /// Channel width `d` the operator's weights are sized for.
    pub width: usize,
    /// Node count of the graph the spatial ops were built against;
    /// `None` when unknown (shape rule then accepts any node dim).
    pub graph_nodes: Option<usize>,
}

/// Why an operator rejects an input shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeIssue {
    /// Input rank differs from the required rank.
    Rank {
        /// Rank the operator requires.
        expected: usize,
        /// Shape that was offered.
        got: Vec<SymDim>,
    },
    /// Channel dim is not provably the operator width.
    Channel {
        /// Width the operator's weights are sized for.
        expected: usize,
        /// The channel dim offered.
        got: SymDim,
    },
    /// Node dim is not provably the graph's node count.
    Nodes {
        /// Node count of the graph context.
        expected: usize,
        /// The node dim offered.
        got: SymDim,
    },
}

impl fmt::Display for ShapeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeIssue::Rank { expected, got } => write!(
                f,
                "rank error: expected rank-{expected} [B, N, T, D], got {}",
                format_shape(got)
            ),
            ShapeIssue::Channel { expected, got } => write!(
                f,
                "channel mismatch: operator width is {expected}, input channel dim is {got}"
            ),
            ShapeIssue::Nodes { expected, got } => write!(
                f,
                "node-count mismatch: graph has {expected} nodes, input node dim is {got}"
            ),
        }
    }
}

impl OpKind {
    /// Infer the symbolic output shape this operator produces for `input`,
    /// or explain why it rejects it. Pure metadata — no weights touched.
    pub fn infer_shape(&self, input: &[SymDim], ctx: &ShapeCtx) -> Result<Vec<SymDim>, ShapeIssue> {
        match self {
            // Zero and Identity are plumbing: whatever comes in goes out.
            OpKind::Zero | OpKind::Identity => Ok(input.to_vec()),
            // Every parametric ST-operator maps [B, N, T, d] → [B, N, T, d].
            OpKind::Conv1d
            | OpKind::Gdcc
            | OpKind::Lstm
            | OpKind::Gru
            | OpKind::TransformerT
            | OpKind::InformerT
            | OpKind::ChebGcn
            | OpKind::Dgcn
            | OpKind::TransformerS
            | OpKind::InformerS => {
                if input.len() != 4 {
                    return Err(ShapeIssue::Rank {
                        expected: 4,
                        got: input.to_vec(),
                    });
                }
                let d = input[3];
                if !d.is_const(ctx.width) {
                    return Err(ShapeIssue::Channel {
                        expected: ctx.width,
                        got: d,
                    });
                }
                if self.is_spatial() {
                    if let Some(n) = ctx.graph_nodes {
                        if !input[1].is_const(n) {
                            return Err(ShapeIssue::Nodes {
                                expected: n,
                                got: input[1],
                            });
                        }
                    }
                }
                Ok(input.to_vec())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_tensor::sym::SymShape;

    const B: SymDim = SymDim::Sym("B");

    fn bntd(n: usize, t: usize, d: usize) -> SymShape {
        vec![B, SymDim::Const(n), SymDim::Const(t), SymDim::Const(d)]
    }

    #[test]
    fn parametric_ops_preserve_bntd() {
        let ctx = ShapeCtx {
            width: 6,
            graph_nodes: Some(5),
        };
        for kind in OpKind::all() {
            let out = kind.infer_shape(&bntd(5, 8, 6), &ctx).unwrap();
            assert_eq!(out, bntd(5, 8, 6), "{kind}");
        }
    }

    #[test]
    fn zero_identity_polymorphic() {
        let ctx = ShapeCtx {
            width: 6,
            graph_nodes: None,
        };
        let odd = vec![SymDim::Const(3), SymDim::Const(2)];
        assert_eq!(OpKind::Zero.infer_shape(&odd, &ctx).unwrap(), odd);
        assert_eq!(OpKind::Identity.infer_shape(&odd, &ctx).unwrap(), odd);
    }

    #[test]
    fn rank_error_reported() {
        let ctx = ShapeCtx {
            width: 6,
            graph_nodes: None,
        };
        let err = OpKind::Gdcc
            .infer_shape(&[B, SymDim::Const(6)], &ctx)
            .unwrap_err();
        assert!(matches!(err, ShapeIssue::Rank { expected: 4, .. }));
        assert!(err.to_string().contains("rank error"));
    }

    #[test]
    fn channel_mismatch_reported() {
        let ctx = ShapeCtx {
            width: 6,
            graph_nodes: None,
        };
        let err = OpKind::InformerT
            .infer_shape(&bntd(5, 8, 7), &ctx)
            .unwrap_err();
        assert_eq!(
            err,
            ShapeIssue::Channel {
                expected: 6,
                got: SymDim::Const(7)
            }
        );
        // A symbolic channel dim is not *provably* the width either.
        let sym_d = vec![B, SymDim::Const(5), SymDim::Const(8), SymDim::Sym("D")];
        assert!(OpKind::InformerT.infer_shape(&sym_d, &ctx).is_err());
    }

    #[test]
    fn spatial_ops_check_node_count() {
        let ctx = ShapeCtx {
            width: 6,
            graph_nodes: Some(5),
        };
        let err = OpKind::Dgcn.infer_shape(&bntd(4, 8, 6), &ctx).unwrap_err();
        assert_eq!(
            err,
            ShapeIssue::Nodes {
                expected: 5,
                got: SymDim::Const(4)
            }
        );
        // Temporal ops don't care about the node dim.
        assert!(OpKind::Gdcc.infer_shape(&bntd(4, 8, 6), &ctx).is_ok());
        // Without a known graph, any node dim passes.
        let free = ShapeCtx {
            width: 6,
            graph_nodes: None,
        };
        assert!(OpKind::Dgcn.infer_shape(&bntd(4, 8, 6), &free).is_ok());
    }

    /// The static rule must agree with what the runtime operators actually
    /// do: build every op at a concrete size, run a forward pass, and
    /// compare shapes.
    #[test]
    fn static_shapes_agree_with_runtime() {
        use crate::{build_operator, GraphContext};
        use cts_autograd::Tape;
        use cts_graph::{random_geometric_graph, GraphGenConfig};
        use cts_tensor::init;
        use cts_tensor::sym::eval_shape;
        use rand::{rngs::SmallRng, SeedableRng};

        let (n, t, d, b) = (5usize, 8usize, 6usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(11);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        let sctx = ShapeCtx {
            width: d,
            graph_nodes: Some(n),
        };
        let input = bntd(n, t, d);
        for kind in OpKind::all() {
            let stat = kind.infer_shape(&input, &sctx).unwrap();
            let op = build_operator(&mut rng, kind, &format!("t.{kind}"), d, 2, false);
            let tape = Tape::new();
            let x = tape.constant(init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0));
            let y = op.forward(&tape, &x, &ctx);
            let concrete = eval_shape(&stat, &[("B", b)]).unwrap();
            assert_eq!(
                y.shape(),
                concrete,
                "static and runtime shapes disagree for {kind}"
            );
        }
    }
}

//! GCN-family S-operators: Chebyshev GCN (Eq. 14) and Diffusion GCN
//! (Eq. 15).

use crate::registry::Operator;
use crate::{node_mix, GraphContext, OpKind};
use cts_autograd::Parameter;
use cts_nn::{Backend, Linear};
use rand::Rng;

/// Chebyshev graph convolution: `H_t = Σ_k W_k T_k(L̃) Z_t`.
pub struct ChebGcnOp {
    weights: Vec<Linear>,
}

impl ChebGcnOp {
    /// One linear map per Chebyshev order. `k` must match the diffusion
    /// order of the [`GraphContext`] the op will run against (the basis has
    /// `k + 1` matrices): fewer weights silently truncate the expansion,
    /// more weights are never reached by a gradient.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize, k: usize) -> Self {
        let weights = (0..=k)
            .map(|k| Linear::new(rng, &format!("{name}.w{k}"), d, d, k == 0))
            .collect();
        Self { weights }
    }
}

impl Operator for ChebGcnOp {
    const KIND: OpKind = OpKind::ChebGcn;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, ctx: &GraphContext) -> B::V {
        let mut acc: Option<B::V> = None;
        for (t_k, w_k) in ctx.chebyshev(be).zip(&self.weights) {
            let term = w_k.forward(be, &node_mix(be, x, &t_k));
            acc = Some(match acc {
                Some(a) => be.add(&a, &term),
                None => term,
            });
        }
        // invariant: gcn_k >= 1 (validated config), so the basis is non-empty.
        acc.expect("chebyshev basis is never empty")
    }

    fn weights(&self) -> Vec<Parameter> {
        self.weights.iter().flat_map(Linear::parameters).collect()
    }
}

/// Diffusion graph convolution:
/// `H_t = Σ_k (D_O⁻¹A)^k Z_t W1_k + (D_I⁻¹Aᵀ)^k Z_t W2_k`, plus an adaptive
/// third direction when the context learns one (Graph WaveNet extension —
/// this is what lets DGCN run on datasets without a predefined adjacency).
pub struct DgcnOp {
    fwd_weights: Vec<Linear>,
    bwd_weights: Vec<Linear>,
    adp_weights: Vec<Linear>,
    self_weight: Linear,
}

impl DgcnOp {
    /// DGCN with `d` channels and `k` diffusion steps per direction
    /// (matching the [`GraphContext`]'s support count — a mismatch leaves
    /// weights gradient-starved or truncates the diffusion). Adaptive
    /// weights are only allocated when `adaptive` is set: a context without
    /// an adaptive support would never route a gradient into them.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize, k: usize, adaptive: bool) -> Self {
        let mk = |tag: &str, rng: &mut dyn FnMut(&str) -> Linear| -> Vec<Linear> {
            (0..k).map(|i| rng(&format!("{name}.{tag}{i}"))).collect()
        };
        let mut build = |n: &str| Linear::new(rng, n, d, d, false);
        let fwd_weights = mk("fwd", &mut build);
        let bwd_weights = mk("bwd", &mut build);
        let adp_weights = if adaptive {
            mk("adp", &mut build)
        } else {
            Vec::new()
        };
        Self {
            fwd_weights,
            bwd_weights,
            adp_weights,
            self_weight: Linear::new(rng, &format!("{name}.self"), d, d, true),
        }
    }
}

impl Operator for DgcnOp {
    const KIND: OpKind = OpKind::Dgcn;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, ctx: &GraphContext) -> B::V {
        // k = 0 term: the node's own features.
        let mut acc = self.self_weight.forward(be, x);
        for (p_k, w_k) in ctx.diffusion_fwd(be).zip(&self.fwd_weights) {
            acc = be.add(&acc, &w_k.forward(be, &node_mix(be, x, &p_k)));
        }
        for (p_k, w_k) in ctx.diffusion_bwd(be).zip(&self.bwd_weights) {
            acc = be.add(&acc, &w_k.forward(be, &node_mix(be, x, &p_k)));
        }
        if let Some(adp) = ctx.adaptive_support(be) {
            let mut mixed = x.clone();
            for w_k in &self.adp_weights {
                mixed = node_mix(be, &mixed, &adp);
                acc = be.add(&acc, &w_k.forward(be, &mixed));
            }
        }
        acc
    }

    fn weights(&self) -> Vec<Parameter> {
        let mut v: Vec<Parameter> = self
            .fwd_weights
            .iter()
            .chain(self.bwd_weights.iter())
            .chain(self.adp_weights.iter())
            .flat_map(Linear::parameters)
            .collect();
        v.extend(self.self_weight.parameters());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StOperator;
    use cts_graph::{random_geometric_graph, GraphGenConfig, SensorGraph};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn dgcn_uses_neighbour_information() {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 5,
                sigma: 0.8,
                threshold: 0.1,
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        let op = DgcnOp::new(&mut rng, "dgcn", 3, 2, false);
        let tape = cts_autograd::Tape::new();
        let mut x = init::uniform(&mut rng, [1, 5, 2, 3], -1.0, 1.0);
        let y0 = op.forward(&tape, &tape.constant(x.clone()), &ctx).value();
        // perturb node 4; some other node's output must change
        for t in 0..2 {
            for d in 0..3 {
                *x.at_mut(&[0, 4, t, d]) += 2.0;
            }
        }
        let y1 = op.forward(&tape, &tape.constant(x), &ctx).value();
        let mut changed = false;
        for n in 0..4 {
            for t in 0..2 {
                for d in 0..3 {
                    if (y0.at(&[0, n, t, d]) - y1.at(&[0, n, t, d])).abs() > 1e-6 {
                        changed = true;
                    }
                }
            }
        }
        assert!(changed, "diffusion did not propagate");
    }

    #[test]
    fn dgcn_on_disconnected_graph_degenerates_to_self_term() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ctx = GraphContext::from_graph(&SensorGraph::disconnected(4), 2);
        let op = DgcnOp::new(&mut rng, "dgcn", 3, 2, false);
        let tape = cts_autograd::Tape::new();
        let mut x = init::uniform(&mut rng, [1, 4, 2, 3], -1.0, 1.0);
        let y0 = op.forward(&tape, &tape.constant(x.clone()), &ctx).value();
        for t in 0..2 {
            for d in 0..3 {
                *x.at_mut(&[0, 3, t, d]) += 2.0;
            }
        }
        let y1 = op.forward(&tape, &tape.constant(x), &ctx).value();
        for n in 0..3 {
            for t in 0..2 {
                for d in 0..3 {
                    assert_eq!(y0.at(&[0, n, t, d]), y1.at(&[0, n, t, d]));
                }
            }
        }
    }

    #[test]
    fn dgcn_adaptive_support_gets_gradients() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ctx =
            GraphContext::from_graph(&SensorGraph::disconnected(4), 2).with_adaptive(&mut rng, 3);
        let op = DgcnOp::new(&mut rng, "dgcn", 3, 2, true);
        let tape = cts_autograd::Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [1, 4, 2, 3], -1.0, 1.0));
        let loss = op.forward(&tape, &x, &ctx).square().sum_all();
        tape.backward(&loss);
        for p in ctx.parameters() {
            assert!(p.grad().norm() > 0.0, "adaptive embedding got no grad");
        }
    }

    #[test]
    fn cheb_gcn_shape_and_grads() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 4,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        let op = ChebGcnOp::new(&mut rng, "cheb", 3, 2);
        let tape = cts_autograd::Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 4, 3, 3], -1.0, 1.0));
        let y = op.forward(&tape, &x, &ctx);
        assert_eq!(y.shape(), vec![2, 4, 3, 3]);
        let loss = y.square().sum_all();
        tape.backward(&loss);
        assert!(op.parameters().iter().all(|p| p.grad().norm() >= 0.0));
        assert!(op.parameters().iter().any(|p| p.grad().norm() > 0.0));
    }
}

//! The micro search space: a continuous-relaxation supernet ST-block
//! (§3.2, Figure 4).

use crate::SearchConfig;
use cts_autograd::{Parameter, Tape, Var};
use cts_ops::{build_operator, GraphContext, OpKind, StOperator};
use cts_tensor::{init, Tensor};
use rand::Rng;

/// Index of pair `(i, j)` (`i < j`) in the flat pair ordering
/// `(0,1), (0,2), (1,2), (0,3), …` — all predecessors of node 1, then of
/// node 2, and so on.
pub(crate) fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i < j);
    j * (j - 1) / 2 + i
}

/// One supernet ST-block: `M` latent nodes, every pair `(h_i, h_j)`
/// carrying a softmax-weighted mixture of all candidate operators
/// (Eqs. 4–6), with per-node input weights `β` and the temperature-annealed
/// `α` softmax (§3.2.2).
///
/// Partial channel connections (§4.1.4): only the first
/// `op_channels` channels flow through the candidate operators; the rest
/// bypass and the concatenation rotates channels so later edges see
/// different subsets.
pub struct MicroCell {
    m: usize,
    op_set: Vec<OpKind>,
    /// `ops[pair][op_idx]`, only parametric + identity entries are applied.
    ops: Vec<Vec<Box<dyn StOperator>>>,
    /// `α ∈ R^{pairs × |O|}`.
    alpha: Parameter,
    /// `β^{(j)} ∈ R^{j}` for `j = 1..M-1`.
    betas: Vec<Parameter>,
    d_model: usize,
    d_op: usize,
}

impl MicroCell {
    /// Build a supernet cell for the given config. `adaptive` states
    /// whether the model's [`GraphContext`] carries an adaptive support
    /// (forwarded to [`build_operator`] so DGCN only allocates adaptive
    /// weights that can actually receive gradients).
    pub fn new(rng: &mut impl Rng, name: &str, cfg: &SearchConfig, adaptive: bool) -> Self {
        let m = cfg.m;
        let d_op = cfg.op_channels();
        let pairs = cfg.num_pairs();
        let mut ops = Vec::with_capacity(pairs);
        for j in 1..m {
            for i in 0..j {
                let pair_ops: Vec<Box<dyn StOperator>> = cfg
                    .op_set
                    .iter()
                    .map(|&kind| {
                        build_operator(
                            rng,
                            kind,
                            &format!("{name}.p{i}_{j}.{}", kind.label()),
                            d_op,
                            cfg.gcn_k,
                            adaptive,
                        )
                    })
                    .collect();
                ops.push(pair_ops);
            }
        }
        let alpha = Parameter::new(
            format!("{name}.alpha"),
            init::normal(rng, [pairs, cfg.op_set.len()], 1e-3),
        );
        let betas = (1..m)
            .map(|j| Parameter::new(format!("{name}.beta{j}"), init::normal(rng, [j], 1e-3)))
            .collect();
        Self {
            m,
            op_set: cfg.op_set.clone(),
            ops,
            alpha,
            betas,
            d_model: cfg.d_model,
            d_op,
        }
    }

    /// Number of latent nodes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The operator set this cell searches over.
    pub fn op_set(&self) -> &[OpKind] {
        &self.op_set
    }

    /// Forward through the relaxed DAG; returns `h_{M-1}`.
    pub fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext, tau: f32) -> Var {
        // invariant: supernet inputs are rank-4 [B, N, T, D].
        debug_assert_eq!(*x.shape().last().unwrap(), self.d_model);
        let alpha = tape.param(&self.alpha);
        let mut nodes: Vec<Var> = vec![x.clone()];
        for j in 1..self.m {
            let beta = tape
                .param(&self.betas[j - 1])
                .reshape(&[1, j])
                .softmax_last();
            let edges: Vec<Var> = nodes
                .iter()
                .enumerate()
                .map(|(i, h_i)| self.edge_mixture(tape, h_i, ctx, &alpha, pair_index(i, j), tau))
                .collect();
            nodes.push(Var::mixed_edge(&edges, &beta, 0..j, None));
        }
        // invariant: m >= 2, so the node list is non-empty.
        nodes.pop().expect("m >= 2")
    }

    /// The mixed transformation `f^{(i,j)}` of Eq. 4 with partial channels:
    /// one [`Var::mixed_edge`] node over the non-zero operators' outputs,
    /// weighted by their columns of `softmax(α/τ)`, with `h_i` as its
    /// bypass input when `d_op < d`.
    ///
    /// The node comes after the operator-channel slice of `h_i` and after
    /// every operator, so the sweep hands each input its gradient in the
    /// order the composed slice/mul/add/concat chain did.
    fn edge_mixture(
        &self,
        tape: &Tape,
        h_i: &Var,
        ctx: &GraphContext,
        alpha: &Var,
        pair: usize,
        tau: f32,
    ) -> Var {
        let probs = alpha
            .slice(0, pair, pair + 1)
            .softmax_last_with_temperature(tau); // [1, |O|]
        let x_op = (self.d_op < self.d_model).then(|| h_i.slice(3, 0, self.d_op));
        let op_input = x_op.as_ref().unwrap_or(h_i);
        // The zero operator contributes nothing; its softmax mass still
        // deflates the other operators' weights.
        let cols: Vec<usize> = (0..self.op_set.len())
            .filter(|&o| self.op_set[o] != OpKind::Zero)
            .collect();
        let mut ys = Vec::with_capacity(cols.len());
        for &o in &cols {
            let y = self.ops[pair][o].forward(tape, op_input, ctx);
            // Identity hands back its input node itself. A node of its own
            // here delivers the identity's gradient into the input at this
            // point of the sweep, after the later operators' gradients, so
            // the input's gradient keeps the summation order
            // `search_golden` pins.
            let identity = self.op_set[o] == OpKind::Identity;
            ys.push(if identity { y.reshape(&y.shape()) } else { y });
        }
        Var::mixed_edge(&ys, &probs, cols, x_op.is_some().then_some(h_i))
    }

    /// Differentiable expected operator cost of this cell:
    /// `Σ_{pairs} Σ_o softmax(α/τ)_o · cost(o)`, in units of a 1×1 conv.
    /// Drives the efficiency-aware search extension (§6 future work).
    pub fn expected_cost(&self, tape: &Tape, tau: f32) -> Var {
        let costs: Vec<f32> = self.op_set.iter().map(|k| k.relative_cost()).collect();
        let cost_row = tape.constant(Tensor::from_vec(vec![1, costs.len()], costs));
        let probs = tape.param(&self.alpha).softmax_last_with_temperature(tau); // [pairs, |O|]
        probs.mul(&cost_row).sum_all()
    }

    /// Architecture parameters `{α, β}` of this cell.
    pub fn arch_parameters(&self) -> Vec<Parameter> {
        let mut v = vec![self.alpha.clone()];
        v.extend(self.betas.iter().cloned());
        v
    }

    /// Network weights `w` of this cell (operator weights).
    pub fn weight_parameters(&self) -> Vec<Parameter> {
        self.ops
            .iter()
            .flat_map(|pair| pair.iter().flat_map(|op| op.parameters()))
            .collect()
    }

    /// Mean softmax entropy of the α rows at temperature `tau` (nats).
    ///
    /// Quantifies §3.2.2's "gap" between the relaxed micro-DAG and the
    /// derived ST-block: entropy → 0 means each edge's operator choice is
    /// effectively discrete, so discretisation loses nothing.
    pub fn alpha_entropy(&self, tau: f32) -> f32 {
        let alpha = self.alpha.value();
        let (pairs, o) = (alpha.shape()[0], alpha.shape()[1]);
        let mut total = 0.0f32;
        for pair in 0..pairs {
            let row: Vec<f32> = (0..o).map(|i| alpha.at(&[pair, i]) / tau).collect();
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|x| (x - m).exp()).sum();
            for x in &row {
                let p = (x - m).exp() / z;
                if p > 1e-12 {
                    total -= p * p.ln();
                }
            }
        }
        total / pairs as f32
    }

    /// Snapshot of the current architecture parameters for derivation:
    /// (`α` `[pairs, |O|]`, per-node `β` vectors).
    pub fn arch_snapshot(&self) -> (Tensor, Vec<Tensor>) {
        (
            self.alpha.value().clone(),
            self.betas.iter().map(|b| b.value().clone()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use rand::{rngs::SmallRng, SeedableRng};

    fn setup(m: usize, d: usize, pc: f32) -> (MicroCell, GraphContext) {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = SearchConfig {
            m,
            d_model: d,
            partial_channels: pc,
            ..Default::default()
        };
        let cell = MicroCell::new(&mut rng, "cell", &cfg, false);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 4,
                ..Default::default()
            },
        );
        (cell, GraphContext::from_graph(&g, 2))
    }

    #[test]
    fn pair_index_ordering() {
        assert_eq!(pair_index(0, 1), 0);
        assert_eq!(pair_index(0, 2), 1);
        assert_eq!(pair_index(1, 2), 2);
        assert_eq!(pair_index(0, 3), 3);
        assert_eq!(pair_index(2, 3), 5);
    }

    #[test]
    fn forward_preserves_shape_full_channels() {
        let (cell, ctx) = setup(4, 8, 1.0);
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let x = tape.constant(init::uniform(&mut rng, [2, 4, 6, 8], -1.0, 1.0));
        let y = cell.forward(&tape, &x, &ctx, 1.0);
        assert_eq!(y.shape(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn forward_preserves_shape_partial_channels() {
        let (cell, ctx) = setup(3, 8, 0.25);
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let x = tape.constant(init::uniform(&mut rng, [1, 4, 5, 8], -1.0, 1.0));
        let y = cell.forward(&tape, &x, &ctx, 0.5);
        assert_eq!(y.shape(), vec![1, 4, 5, 8]);
    }

    #[test]
    fn alpha_and_beta_receive_gradients() {
        let (cell, ctx) = setup(3, 4, 1.0);
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let x = tape.constant(init::uniform(&mut rng, [1, 4, 5, 4], -1.0, 1.0));
        let loss = cell.forward(&tape, &x, &ctx, 1.0).square().sum_all();
        tape.backward(&loss);
        for p in cell.arch_parameters() {
            // beta vectors of length 1 are constant under softmax: no grad
            if p.len() == 1 {
                continue;
            }
            assert!(p.grad().norm() > 0.0, "no grad for {}", p.name());
        }
        let weight_grads = cell
            .weight_parameters()
            .iter()
            .filter(|p| p.grad().norm() > 0.0)
            .count();
        assert!(weight_grads > 0, "no operator weight gradients at all");
    }

    #[test]
    fn low_temperature_concentrates_on_argmax_op() {
        // Bias alpha hard toward identity on every edge; with tau→0 the cell
        // output must approach the pure-identity computation.
        let (cell, ctx) = setup(3, 4, 1.0);
        let id_idx = cell
            .op_set()
            .iter()
            .position(|k| *k == OpKind::Identity)
            .unwrap();
        {
            let mut a = cell.alpha.value_mut();
            a.fill(0.0);
            for pair in 0..3 {
                *a.at_mut(&[pair, id_idx]) = 3.0;
            }
        }
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let x = tape.constant(init::uniform(&mut rng, [1, 4, 3, 4], -1.0, 1.0));
        let sharp = cell.forward(&tape, &x, &ctx, 0.01).value();
        // pure identity path: h1 = x, h2 = β-weighted sum of identities = x
        let diff = cts_tensor::ops::sub(&sharp, &x.value()).norm() / x.value().norm();
        assert!(diff < 0.05, "relative diff {diff}");
        let soft = cell.forward(&tape, &x, &ctx, 5.0).value();
        let diff_soft = cts_tensor::ops::sub(&soft, &x.value()).norm() / x.value().norm();
        assert!(diff_soft > diff, "temperature had no effect");
    }

    #[test]
    fn parameter_partition_is_disjoint() {
        let (cell, _) = setup(3, 4, 1.0);
        let arch = cell.arch_parameters();
        let weights = cell.weight_parameters();
        for a in &arch {
            assert!(!weights.iter().any(|w| w.ptr_eq(a)));
        }
        assert_eq!(arch.len(), 1 + 2); // alpha + beta1 + beta2
    }
}

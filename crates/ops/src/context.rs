//! Graph context shared by all S-operators: precomputed diffusion supports,
//! Chebyshev bases, and (optionally) a learned adaptive adjacency.

use cts_autograd::Parameter;
use cts_graph::{chebyshev_basis, transition_matrices, transition_powers, SensorGraph};
use cts_nn::Backend;
use cts_tensor::{init, Tensor};
use rand::Rng;

/// Everything an S-operator needs beyond its own weights.
///
/// Built once per model from the dataset's [`SensorGraph`]; the diffusion
/// powers `P_f^k`, `P_b^k` (Eq. 15) and the Chebyshev basis `T_k(L̃)`
/// (Eq. 14) are precomputed as constants. When the dataset has no
/// predefined adjacency (Solar-Energy, Electricity) an *adaptive* adjacency
/// `softmax(relu(E₁·E₂))` is learned from node embeddings instead
/// (Graph WaveNet / MTGNN style).
pub struct GraphContext {
    n: usize,
    k: usize,
    /// `None` in a shape-only pricing context ([`Self::shapes_only`]).
    supports: Option<Supports>,
    adaptive: Option<(Parameter, Parameter)>,
}

/// The precomputed constant supports of a graph.
struct Supports {
    diffusion_fwd: Vec<Tensor>,
    diffusion_bwd: Vec<Tensor>,
    cheb: Vec<Tensor>,
}

impl GraphContext {
    /// Precompute supports from a sensor graph with `k` diffusion steps /
    /// Chebyshev order.
    pub fn from_graph(graph: &SensorGraph, k: usize) -> Self {
        let (fwd, bwd) = transition_matrices(graph.adjacency());
        Self {
            n: graph.n(),
            k,
            supports: Some(Supports {
                // skip power 0 (identity) — the identity path is the DAG's job
                diffusion_fwd: transition_powers(&fwd, k)[1..].to_vec(),
                diffusion_bwd: transition_powers(&bwd, k)[1..].to_vec(),
                cheb: chebyshev_basis(graph.adjacency(), k + 1),
            }),
            adaptive: None,
        }
    }

    /// A context of `n` nodes that knows its supports only by shape: the
    /// counts [`Self::from_graph`] builds for order `k`, each `[n, n]`.
    ///
    /// It holds no support buffer, so pricing a forward on `cts_nn::Price`
    /// (which reads only shapes) needs no memory that grows with `n²`. A
    /// backend that computes cannot run on it: lending a support panics.
    pub fn shapes_only(n: usize, k: usize) -> Self {
        Self {
            n,
            k,
            supports: None,
            adaptive: None,
        }
    }

    /// Add learned node embeddings for an adaptive adjacency.
    pub fn with_adaptive(mut self, rng: &mut impl Rng, emb_dim: usize) -> Self {
        let e1 = Parameter::new("adaptive.e1", init::normal(rng, [self.n, emb_dim], 0.1));
        let e2 = Parameter::new("adaptive.e2", init::normal(rng, [emb_dim, self.n], 0.1));
        self.adaptive = Some((e1, e2));
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Diffusion-step count `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Forward diffusion supports `P_f¹..P_f^K`.
    pub fn diffusion_fwd<'a, B: Backend>(
        &'a self,
        be: &'a B,
    ) -> impl Iterator<Item = B::Const<'a>> {
        self.lend_all(be, self.k, |s| &s.diffusion_fwd)
    }

    /// Backward diffusion supports `P_b¹..P_b^K`.
    pub fn diffusion_bwd<'a, B: Backend>(
        &'a self,
        be: &'a B,
    ) -> impl Iterator<Item = B::Const<'a>> {
        self.lend_all(be, self.k, |s| &s.diffusion_bwd)
    }

    /// Chebyshev basis `T₀..T_K`.
    pub fn chebyshev<'a, B: Backend>(&'a self, be: &'a B) -> impl Iterator<Item = B::Const<'a>> {
        self.lend_all(be, self.k + 1, |s| &s.cheb)
    }

    /// Lend `count` supports picked from the precomputed set, or by shape
    /// alone in a shape-only context.
    fn lend_all<'a, B: Backend>(
        &'a self,
        be: &'a B,
        count: usize,
        pick: fn(&Supports) -> &[Tensor],
    ) -> impl Iterator<Item = B::Const<'a>> {
        (0..count).map(move |i| match &self.supports {
            Some(s) => be.lend(&pick(s)[i]),
            None => {
                let lent = be.lend_shape(&[self.n, self.n]);
                // invariant: a shape-only context is built for pricing, and
                // the pricing backend lends by shape.
                lent.expect("a shape-only GraphContext runs on a pricing backend only")
            }
        })
    }

    /// The adaptive adjacency `softmax(relu(E₁·E₂))`, when embeddings are
    /// present; differentiable on the tape.
    pub fn adaptive_support<B: Backend>(&self, be: &B) -> Option<B::V> {
        self.adaptive.as_ref().map(|(e1, e2)| {
            let logits = be.matmul(&be.param(e1), &be.param(e2));
            be.softmax_last(&be.relu(&logits))
        })
    }

    /// Embedding parameters (must be trained with the network weights).
    pub fn parameters(&self) -> Vec<Parameter> {
        match &self.adaptive {
            Some((e1, e2)) => vec![e1.clone(), e2.clone()],
            None => vec![],
        }
    }

    /// True when an adaptive adjacency is learned (operators that own
    /// adaptive-direction weights should only allocate them in this case).
    pub fn has_adaptive(&self) -> bool {
        self.adaptive.is_some()
    }

    /// True when the context carries usable spatial structure (either a
    /// non-empty predefined graph or adaptive embeddings).
    pub fn has_spatial_signal(&self) -> bool {
        self.adaptive.is_some()
            || self
                .supports
                .as_ref()
                .is_some_and(|s| s.diffusion_fwd.iter().any(|m| m.sum() > 0.0))
    }
}

/// Mix node information: `A · X` over the node axis of `[B, N, T, D]`.
///
/// `support` is `[N, N]` (constant or learned). `x` is viewed as
/// `[B, N, T·D]`, so one broadcast matmul per batch element mixes every
/// step and channel at once, and the product is viewed back: no permute.
/// Each output element and each element of `∂x` keeps its ascending-node
/// chain; `∂A` sums each batch element's `(t, d)` products in one chain.
pub fn node_mix<B: Backend>(be: &B, x: &B::V, support: &B::V) -> B::V {
    let s = be.shape(x);
    debug_assert_eq!(s.len(), 4);
    let [b, n, t, d] = [s[0], s[1], s[2], s[3]];
    let flat = be.reshape(x.clone(), &[b, n, t * d]);
    let mixed = be.matmul(support, &flat); // broadcast over B
    be.reshape(mixed, &[b, n, t, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::{Tape, Var};
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use rand::{rngs::SmallRng, SeedableRng};

    fn ctx() -> GraphContext {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 6,
                ..Default::default()
            },
        );
        GraphContext::from_graph(&g, 2)
    }

    #[test]
    fn supports_have_right_counts_and_shapes() {
        let c = ctx();
        let tape = Tape::new();
        assert_eq!(c.diffusion_fwd(&tape).count(), 2);
        assert_eq!(c.diffusion_bwd(&tape).count(), 2);
        assert_eq!(c.chebyshev(&tape).count(), 3);
        assert!(c.diffusion_fwd(&tape).all(|p| p.shape() == vec![6, 6]));
        assert!(c.adaptive_support(&tape).is_none());
        assert!(c.has_spatial_signal());
    }

    #[test]
    fn shapes_only_context_lends_supports_by_shape() {
        let c = GraphContext::shapes_only(50_000, 2);
        let be = cts_nn::Price::new();
        assert_eq!(c.diffusion_fwd(&be).count(), 2);
        assert_eq!(c.diffusion_bwd(&be).count(), 2);
        assert_eq!(c.chebyshev(&be).count(), 3);
        assert!(c
            .chebyshev(&be)
            .all(|p| be.shape(&p).to_vec() == vec![50_000, 50_000]));
        assert_eq!(be.take(), cts_nn::OpCost::default(), "lending is free");
        assert!(!c.has_spatial_signal());
    }

    #[test]
    fn adaptive_rows_are_distributions() {
        let mut rng = SmallRng::seed_from_u64(1);
        let c = ctx().with_adaptive(&mut rng, 4);
        let tape = Tape::new();
        let a = c.adaptive_support(&tape).unwrap().value();
        for i in 0..6 {
            let s: f32 = (0..6).map(|j| a.at(&[i, j])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert_eq!(c.parameters().len(), 2);
    }

    #[test]
    fn node_mix_identity_is_noop() {
        let tape = Tape::new();
        let x = tape.constant(cts_tensor::init::uniform(
            &mut SmallRng::seed_from_u64(2),
            [2, 4, 3, 5],
            -1.0,
            1.0,
        ));
        let eye = tape.constant(Tensor::eye(4));
        let y = node_mix(&tape, &x, &eye);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
    }

    #[test]
    fn node_mix_averages_neighbours() {
        let tape = Tape::new();
        // two nodes, swap matrix
        let x = tape.constant(Tensor::from_vec([1, 2, 1, 1], vec![1.0, 5.0]));
        let swap = tape.constant(Tensor::from_vec([2, 2], vec![0.0, 1.0, 1.0, 0.0]));
        let y = node_mix(&tape, &x, &swap).value();
        assert_eq!(y.data(), &[5.0, 1.0]);
    }

    #[test]
    fn node_mix_keeps_the_node_major_bits_of_forward_and_dx() {
        // The old permute → matmul → permute form, against node_mix: the
        // forward and ∂x are bit-identical, ∂A only regroups its sum.
        let mut rng = SmallRng::seed_from_u64(3);
        let x = Parameter::new("x", init::uniform(&mut rng, [2, 5, 3, 4], -1.0, 1.0));
        let a = Parameter::new("a", init::uniform(&mut rng, [5, 5], -1.0, 1.0));
        let up = init::uniform(&mut rng, [2, 5, 3, 4], -1.0, 1.0);
        let run = |mix: &dyn Fn(&Tape, &Var, &Var) -> Var| {
            x.zero_grad();
            a.zero_grad();
            let tape = Tape::new();
            let y = mix(&tape, &tape.param(&x), &tape.param(&a));
            tape.backward(&y.mul(&tape.constant(up.clone())).sum_all());
            (y.value(), x.grad().clone(), a.grad().clone())
        };
        let (y_new, gx_new, ga_new) = run(&|tape, x, a| node_mix(tape, x, a));
        let (y_old, gx_old, ga_old) =
            run(&|_, x, a| a.matmul(&x.permute(&[0, 2, 1, 3])).permute(&[0, 2, 1, 3]));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_new), bits(&y_old), "forward");
        assert_eq!(bits(&gx_new), bits(&gx_old), "∂x");
        assert!(ga_new.approx_eq(&ga_old, 1e-5), "∂A");
    }

    #[test]
    fn disconnected_graph_has_no_signal() {
        let g = SensorGraph::disconnected(4);
        let c = GraphContext::from_graph(&g, 2);
        assert!(!c.has_spatial_signal());
    }
}

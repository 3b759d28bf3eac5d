//! The operator traits, the compact/full operator sets, and the factory.

use crate::{
    ChebGcnOp, Conv1dOp, DgcnOp, GdccOp, GraphContext, GruOp, IdentityOp, InformerSOp, InformerTOp,
    LstmOp, OpKind, TransformerSOp, TransformerTOp, ZeroOp,
};
use cts_autograd::{Parameter, Tape, Var};
use cts_nn::{count_parameters, Backend, Eval, LayerNorm, OpCost, Price, Priced};
use cts_tensor::Tensor;
use rand::Rng;

/// A spatio-temporal operator `[B,N,T,D] → [B,N,T,D]`, defined once: its
/// forward is generic over the [`Backend`], so the tape, the compiled plan
/// and the static cost model run the same body.
pub trait Operator {
    /// Which kind this operator instantiates.
    const KIND: OpKind;
    /// Apply the operator on backend `be`.
    fn apply<B: Backend>(&self, be: &B, x: &B::V, ctx: &GraphContext) -> B::V;
    /// The operator's trainable weights (excluding shared context params).
    fn weights(&self) -> Vec<Parameter>;
}

/// The object-safe face of an [`Operator`], for `Rc<dyn StOperator>` in
/// models and compiled plans. Implemented once, for every [`Operator`].
pub trait StOperator {
    /// Apply the operator on a tape.
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var;
    /// Apply the operator without a tape (compiled inference plans);
    /// bit-identical to [`Self::forward`], reading weights in place.
    fn forward_eval(&self, x: &Tensor, ctx: &GraphContext) -> Tensor;
    /// Apply the operator on the pricing backend: no kernel runs, and `be`
    /// is charged what [`Self::forward_eval`] would meter and allocate.
    fn forward_price(&self, be: &Price, x: &Priced, ctx: &GraphContext) -> Priced;
    /// The operator's trainable weights (excluding shared context params).
    fn parameters(&self) -> Vec<Parameter>;
    /// Which kind this operator instantiates.
    fn kind(&self) -> OpKind;

    /// Static cost of one forward on an `input`-shaped activation: the
    /// operator's own forward run on [`Price`], with `param_count` the
    /// length of its parameters.
    ///
    /// `input` must be a `[B, N, T, D]` shape with `D` the operator's width
    /// and `N` the context's node count; like the forward itself, pricing
    /// panics on one it does not.
    fn cost(&self, input: &[usize], ctx: &GraphContext) -> OpCost {
        let be = Price::new();
        self.forward_price(&be, &be.input(input), ctx);
        OpCost {
            param_count: count_parameters(&self.parameters()) as u64,
            ..be.take()
        }
    }
}

impl<O: Operator> StOperator for O {
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        self.apply(tape, x, ctx)
    }

    fn forward_eval(&self, x: &Tensor, ctx: &GraphContext) -> Tensor {
        self.apply(&Eval, x, ctx)
    }

    fn forward_price(&self, be: &Price, x: &Priced, ctx: &GraphContext) -> Priced {
        self.apply(be, x, ctx)
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.weights()
    }

    fn kind(&self) -> OpKind {
        O::KIND
    }
}

/// The paper's compact operator set `O` (§3.2.3): GDCC, INF-T, DGCN, INF-S
/// plus the non-parametric zero and identity.
pub fn compact_set() -> Vec<OpKind> {
    vec![
        OpKind::Zero,
        OpKind::Identity,
        OpKind::Gdcc,
        OpKind::InformerT,
        OpKind::Dgcn,
        OpKind::InformerS,
    ]
}

/// Every operator of Table 1 plus zero/identity — the *w/o design
/// principles* ablation search space (Tables 9–16).
pub fn full_set() -> Vec<OpKind> {
    OpKind::all().to_vec()
}

/// ReLU → op → LayerNorm wrapper applied to every parametric operator for
/// training stability (the paper follows DARTS's ReLU-op-BN ordering;
/// LayerNorm substitutes for BN, see DESIGN.md).
struct ReluNormed<O> {
    inner: O,
    norm: LayerNorm,
}

impl<O: Operator> Operator for ReluNormed<O> {
    const KIND: OpKind = O::KIND;

    fn apply<B: Backend>(&self, be: &B, x: &B::V, ctx: &GraphContext) -> B::V {
        let activated = be.relu(x);
        let out = self.inner.apply(be, &activated, ctx);
        self.norm.forward(be, &out)
    }

    fn weights(&self) -> Vec<Parameter> {
        let mut v = self.inner.weights();
        v.extend(self.norm.parameters());
        v
    }
}

/// Box `inner` in the ReLU-op-norm wrapper of width `d`.
fn normed<O: Operator + 'static>(inner: O, name: &str, d: usize) -> Box<dyn StOperator> {
    Box::new(ReluNormed {
        inner,
        norm: LayerNorm::new(&format!("{name}.norm"), d),
    })
}

/// Instantiate an operator of `kind` with channel width `d`.
///
/// `gcn_k` sizes the GCN-family weight stacks and must match the diffusion
/// order the [`GraphContext`] was built with; `adaptive` states whether
/// that context carries an adaptive support (it gates DGCN's adaptive
/// weights — allocating them against a context that never offers the
/// support would leave them permanently gradient-starved).
///
/// Parametric operators are wrapped in ReLU-op-norm; zero/identity are
/// returned bare.
pub fn build_operator(
    rng: &mut impl Rng,
    kind: OpKind,
    name: &str,
    d: usize,
    gcn_k: usize,
    adaptive: bool,
) -> Box<dyn StOperator> {
    match kind {
        OpKind::Zero => Box::new(ZeroOp),
        OpKind::Identity => Box::new(IdentityOp),
        OpKind::Conv1d => normed(Conv1dOp::new(rng, name, d), name, d),
        OpKind::Gdcc => normed(GdccOp::new(rng, name, d), name, d),
        OpKind::Lstm => normed(LstmOp::new(rng, name, d), name, d),
        OpKind::Gru => normed(GruOp::new(rng, name, d), name, d),
        OpKind::TransformerT => normed(TransformerTOp::new(rng, name, d), name, d),
        OpKind::InformerT => normed(InformerTOp::new(rng, name, d), name, d),
        OpKind::ChebGcn => normed(ChebGcnOp::new(rng, name, d, gcn_k), name, d),
        OpKind::Dgcn => normed(DgcnOp::new(rng, name, d, gcn_k, adaptive), name, d),
        OpKind::TransformerS => normed(TransformerSOp::new(rng, name, d), name, d),
        OpKind::InformerS => normed(InformerSOp::new(rng, name, d), name, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use cts_tensor::{init, meter};
    use rand::{rngs::SmallRng, SeedableRng};

    /// Run `f` under the kernel meter, returning its result and the counts.
    fn metered<R>(f: impl FnOnce() -> R) -> (R, meter::MeterSnapshot) {
        meter::set_enabled(true);
        meter::reset();
        let r = f();
        let got = meter::snapshot();
        meter::set_enabled(false);
        (r, got)
    }

    /// The heart of the cost contract: for every operator kind, the price
    /// of its forward on `Price` must equal, bit for bit, the instrumented
    /// meter's observation of one forward on both the tape-free and the
    /// tape entry point (pre-flight budgets price training steps with this
    /// cost), and pricing itself must run no kernel. It also pins the one
    /// shape invariant of the search space: every kind maps `[B, N, T, D]`
    /// to itself on all three backends.
    #[test]
    fn cost_matches_meter_for_every_op() {
        let (b, n, t, d, k) = (2usize, 5usize, 12usize, 6usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(42);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n,
                sigma: 0.8,
                threshold: 0.1,
            },
        );
        for adaptive in [false, true] {
            let ctx = if adaptive {
                GraphContext::from_graph(&g, k).with_adaptive(&mut rng, 4)
            } else {
                GraphContext::from_graph(&g, k)
            };
            for kind in full_set() {
                let op = build_operator(&mut rng, kind, "op", d, k, adaptive);
                let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
                let (want, pricing) = metered(|| op.cost(x.shape(), &ctx));
                let no_kernels = meter::MeterSnapshot::default();
                assert_eq!(pricing, no_kernels, "{kind}: pricing ran a kernel");
                let be = Price::new();
                let priced = op.forward_price(&be, &be.input(x.shape()), &ctx);
                assert_eq!(
                    &*be.shape(&priced),
                    x.shape(),
                    "{kind} (adaptive={adaptive}, price): changed shape"
                );
                let tape = Tape::new();
                let xv = tape.constant(x.clone());
                let eval = metered(|| op.forward_eval(&x, &ctx).shape().to_vec());
                let taped = metered(|| op.forward(&tape, &xv, &ctx).shape().to_vec());
                for (path, (shape, got)) in [("eval", eval), ("tape", taped)] {
                    let at = format!("{kind} (adaptive={adaptive}, {path})");
                    assert_eq!(shape, x.shape(), "{at}: changed shape");
                    assert_eq!(want.flops, got.flops, "{at}: flops");
                    assert_eq!(want.bytes_read, got.bytes_read(), "{at}: bytes_read");
                    assert_eq!(
                        want.bytes_written,
                        got.bytes_written(),
                        "{at}: bytes_written"
                    );
                    assert_eq!(want.kernel_calls, got.kernel_calls, "{at}: kernel_calls");
                }
                assert!(want.dense_flops <= want.flops, "{kind}: dense subset");
            }
        }
    }

    /// ProbSparse must fall back to the full path exactly when the runtime
    /// does (u ≥ L), including the boundary the f32 ceil math produces.
    #[test]
    fn informer_fallback_boundary_matches_runtime() {
        let (b, n, d, k) = (1usize, 3usize, 4usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, k);
        for t in [2usize, 3, 4, 8, 16, 24] {
            let op = build_operator(&mut rng, OpKind::InformerT, "op", d, k, false);
            let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
            let (_, got) = metered(|| op.forward_eval(&x, &ctx));
            let want = op.cost(x.shape(), &ctx);
            assert_eq!(want.flops, got.flops, "T={t}: flops");
            assert_eq!(want.kernel_calls, got.kernel_calls, "T={t}: calls");
        }
    }

    #[test]
    fn costs_scale_with_batch() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ctx = GraphContext::shapes_only(5, 2);
        let op = build_operator(&mut rng, OpKind::Gdcc, "op", 6, 2, false);
        let small = op.cost(&[1, 5, 8, 6], &ctx);
        let big = op.cost(&[4, 5, 8, 6], &ctx);
        assert!(big.flops > small.flops);
        assert_eq!(big.param_count, small.param_count);
    }

    /// ProbSparse's query measurement runs on raw values: an Informer
    /// forward records only the attention itself on the tape, whose
    /// output rows are one `place_rows` node.
    #[test]
    fn informer_measurement_records_no_tape_nodes() {
        let (b, n, t, d, k) = (2usize, 5usize, 12usize, 6usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(42);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n,
                sigma: 0.8,
                threshold: 0.1,
            },
        );
        let ctx = GraphContext::from_graph(&g, k);
        for (kind, nodes) in [(OpKind::InformerT, 19), (OpKind::InformerS, 21)] {
            let op = build_operator(&mut rng, kind, "op", d, k, false);
            let tape = Tape::new();
            let x = tape.constant(init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0));
            let before = tape.len();
            let _ = op.forward(&tape, &x, &ctx);
            assert_eq!(tape.len() - before, nodes, "{kind}");
        }
    }

    #[test]
    fn compact_set_matches_paper() {
        let set = compact_set();
        assert_eq!(set.len(), 6);
        assert!(set.contains(&OpKind::Gdcc));
        assert!(set.contains(&OpKind::InformerT));
        assert!(set.contains(&OpKind::Dgcn));
        assert!(set.contains(&OpKind::InformerS));
        assert!(set.contains(&OpKind::Zero));
        assert!(set.contains(&OpKind::Identity));
        // RNNs and the non-chosen variants are excluded
        assert!(!set.contains(&OpKind::Gru));
        assert!(!set.contains(&OpKind::TransformerT));
        assert!(!set.contains(&OpKind::ChebGcn));
    }

    #[test]
    fn full_set_has_all_twelve() {
        assert_eq!(full_set().len(), 12);
    }

    #[test]
    fn every_operator_preserves_shape_and_trains() {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 5,
                ..Default::default()
            },
        );
        let d = 6;
        for adaptive in [false, true] {
            let ctx = if adaptive {
                GraphContext::from_graph(&g, 2).with_adaptive(&mut rng, 4)
            } else {
                GraphContext::from_graph(&g, 2)
            };
            for kind in full_set() {
                let op = build_operator(&mut rng, kind, "op", d, 2, adaptive);
                assert_eq!(op.kind(), kind);
                let tape = Tape::new();
                let xt = init::uniform(&mut rng, [2, 5, 8, d], -1.0, 1.0);
                let x = tape.constant(xt.clone());
                let y = op.forward(&tape, &x, &ctx);
                assert_eq!(y.shape(), vec![2, 5, 8, d], "{kind} changed shape");
                // The tape and tape-free entry points run one generic body,
                // so their outputs agree to the bit.
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&y.value()),
                    bits(&op.forward_eval(&xt, &ctx)),
                    "{kind} (adaptive={adaptive}): tape and eval outputs differ"
                );
                if kind.is_parametric() {
                    let loss = y.square().sum_all();
                    tape.backward(&loss);
                    let got_grad = op.parameters().iter().any(|p| p.grad().norm() > 0.0);
                    assert!(got_grad, "{kind}: no gradient reached any parameter");
                    assert!(!op.parameters().is_empty());
                } else {
                    assert!(op.parameters().is_empty());
                }
            }
        }
    }

    /// Regression for the hard-coded `k = 2` weight stacks: at any other
    /// diffusion order the GCN ops used to leave weights permanently
    /// gradient-starved (ChebGcn) or truncate the expansion (Dgcn). Every
    /// parameter must now see a gradient at non-default `k`.
    #[test]
    fn gcn_ops_train_every_weight_at_non_default_k() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 5,
                sigma: 0.8,
                threshold: 0.1,
            },
        );
        for k in [1usize, 3] {
            let ctx = GraphContext::from_graph(&g, k).with_adaptive(&mut rng, 4);
            let d = 4;
            for kind in [OpKind::ChebGcn, OpKind::Dgcn] {
                let op = build_operator(&mut rng, kind, "op", d, k, true);
                let tape = Tape::new();
                let x = tape.constant(init::uniform(&mut rng, [2, 5, 3, d], -1.0, 1.0));
                let loss = op.forward(&tape, &x, &ctx).square().sum_all();
                tape.backward(&loss);
                for p in op.parameters() {
                    assert!(
                        p.grad().norm() > 0.0,
                        "{kind} (k={k}): parameter {} got no gradient",
                        p.name()
                    );
                }
            }
        }
    }
}

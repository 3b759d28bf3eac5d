//! Human-designed ST-blocks as reusable `[B,N,T,D] → [B,N,T,D]` units.
//!
//! These are the atomic search units of the *macro only* ablation
//! (§4.2.3): the ST-blocks of STGCN, DCRNN, Graph WaveNet, and MTGNN.

use crate::common::diffusion_gconv;
use cts_autograd::{Parameter, Tape, Var};
use cts_nn::{GatedTemporalConv, LayerNorm, Linear};
use cts_ops::{node_mix, GraphContext};
use rand::Rng;

/// A human-designed ST-block (shape-preserving).
pub trait HumanStBlock {
    /// Apply the block.
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var;
    /// Trainable weights.
    fn parameters(&self) -> Vec<Parameter>;
    /// Source model name.
    fn name(&self) -> &'static str;
}

/// STGCN's "sandwich": gated temporal conv → Chebyshev GCN → gated
/// temporal conv, with layer normalisation (Yu et al. 2018, Figure 3).
pub struct StgcnBlock {
    tcn1: GatedTemporalConv,
    cheb: Vec<Linear>,
    tcn2: GatedTemporalConv,
    norm: LayerNorm,
}

impl StgcnBlock {
    /// Build with `d` channels.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            tcn1: GatedTemporalConv::new(rng, &format!("{name}.tcn1"), 2, d, d, 1),
            cheb: (0..3)
                .map(|k| Linear::new(rng, &format!("{name}.cheb{k}"), d, d, k == 0))
                .collect(),
            tcn2: GatedTemporalConv::new(rng, &format!("{name}.tcn2"), 2, d, d, 1),
            norm: LayerNorm::new(&format!("{name}.norm"), d),
        }
    }
}

impl HumanStBlock for StgcnBlock {
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        let t1 = self.tcn1.forward(tape, x);
        let mut gc: Option<Var> = None;
        for (t_k, w_k) in ctx.chebyshev(tape).zip(self.cheb.iter()) {
            let term = w_k.forward(tape, &node_mix(tape, &t1, &t_k));
            gc = Some(match gc {
                Some(a) => a.add(&term),
                None => term,
            });
        }
        // invariant: the Chebyshev basis loop runs at least once, so `gc` is Some.
        let t2 = self
            .tcn2
            .forward(tape, &gc.expect("basis non-empty").relu());
        self.norm.forward(tape, &t2)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.tcn1.parameters();
        v.extend(self.cheb.iter().flat_map(Linear::parameters));
        v.extend(self.tcn2.parameters());
        v.extend(self.norm.parameters());
        v
    }

    fn name(&self) -> &'static str {
        "STGCN-block"
    }
}

/// Graph WaveNet's block: GDCC then diffusion GCN with a residual
/// (Wu et al. 2019).
pub struct GwnetBlock {
    gdcc: GatedTemporalConv,
    self_w: Linear,
    fwd: Vec<Linear>,
    bwd: Vec<Linear>,
    norm: LayerNorm,
    dilation_marker: usize,
}

impl GwnetBlock {
    /// Build with `d` channels and the given GDCC dilation.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize, dilation: usize) -> Self {
        Self {
            gdcc: GatedTemporalConv::new(rng, &format!("{name}.gdcc"), 2, d, d, dilation),
            self_w: Linear::new(rng, &format!("{name}.self"), d, d, true),
            fwd: (0..2)
                .map(|k| Linear::new(rng, &format!("{name}.fwd{k}"), d, d, false))
                .collect(),
            bwd: (0..2)
                .map(|k| Linear::new(rng, &format!("{name}.bwd{k}"), d, d, false))
                .collect(),
            norm: LayerNorm::new(&format!("{name}.norm"), d),
            dilation_marker: dilation,
        }
    }

    /// The GDCC dilation this block was built with.
    pub fn dilation(&self) -> usize {
        self.dilation_marker
    }
}

impl HumanStBlock for GwnetBlock {
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        let t = self.gdcc.forward(tape, x);
        // diffusion GCN applied across the whole [B,N,T,D] tensor
        let mut acc = self.self_w.forward(tape, &t);
        for (p, w) in ctx.diffusion_fwd(tape).zip(self.fwd.iter()) {
            acc = acc.add(&w.forward(tape, &node_mix(tape, &t, &p)));
        }
        for (p, w) in ctx.diffusion_bwd(tape).zip(self.bwd.iter()) {
            acc = acc.add(&w.forward(tape, &node_mix(tape, &t, &p)));
        }
        if let Some(adp) = ctx.adaptive_support(tape) {
            acc = acc.add(&self.fwd[0].forward(tape, &node_mix(tape, &t, &adp)));
        }
        self.norm.forward(tape, &acc.add(x))
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.gdcc.parameters();
        v.extend(self.self_w.parameters());
        v.extend(self.fwd.iter().flat_map(Linear::parameters));
        v.extend(self.bwd.iter().flat_map(Linear::parameters));
        v.extend(self.norm.parameters());
        v
    }

    fn name(&self) -> &'static str {
        "GWNet-block"
    }
}

/// MTGNN's block: GDCC with a *learned* (adaptive) graph propagation
/// (Wu et al. 2020). The block owns its node embeddings so it works even
/// without a predefined adjacency.
pub struct MtgnnBlock {
    gdcc: GatedTemporalConv,
    e1: Parameter,
    e2: Parameter,
    hop_w: Vec<Linear>,
    norm: LayerNorm,
}

impl MtgnnBlock {
    /// Build with `d` channels for an `n`-node graph.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize, n: usize, emb: usize) -> Self {
        Self {
            gdcc: GatedTemporalConv::new(rng, &format!("{name}.gdcc"), 2, d, d, 1),
            e1: Parameter::new(
                format!("{name}.e1"),
                cts_tensor::init::normal(rng, [n, emb], 0.1),
            ),
            e2: Parameter::new(
                format!("{name}.e2"),
                cts_tensor::init::normal(rng, [emb, n], 0.1),
            ),
            hop_w: (0..2)
                .map(|k| Linear::new(rng, &format!("{name}.hop{k}"), d, d, k == 0))
                .collect(),
            norm: LayerNorm::new(&format!("{name}.norm"), d),
        }
    }
}

impl HumanStBlock for MtgnnBlock {
    fn forward(&self, tape: &Tape, x: &Var, _ctx: &GraphContext) -> Var {
        let t = self.gdcc.forward(tape, x);
        let adj = tape
            .param(&self.e1)
            .matmul(&tape.param(&self.e2))
            .relu()
            .softmax_last();
        // mix-hop propagation: h_{k+1} = A h_k, summed with per-hop weights
        let mut acc = self.hop_w[0].forward(tape, &t);
        let mut h = t.clone();
        for w in &self.hop_w[1..] {
            h = node_mix(tape, &h, &adj);
            acc = acc.add(&w.forward(tape, &h));
        }
        self.norm.forward(tape, &acc.add(x))
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.gdcc.parameters();
        v.push(self.e1.clone());
        v.push(self.e2.clone());
        v.extend(self.hop_w.iter().flat_map(Linear::parameters));
        v.extend(self.norm.parameters());
        v
    }

    fn name(&self) -> &'static str {
        "MTGNN-block"
    }
}

/// DCRNN's block: a diffusion-convolutional GRU sweep over the window,
/// returning the hidden state at every step (Li et al. 2018).
pub struct DcrnnBlock {
    // gate graph convs operate on [x; h] of width 2d
    z_self: Linear,
    z_fwd: Vec<Linear>,
    z_bwd: Vec<Linear>,
    r_self: Linear,
    r_fwd: Vec<Linear>,
    r_bwd: Vec<Linear>,
    c_self: Linear,
    c_fwd: Vec<Linear>,
    c_bwd: Vec<Linear>,
    d: usize,
}

impl DcrnnBlock {
    /// Build with `d` channels.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize) -> Self {
        let mk_set = |rng: &mut dyn FnMut(&str, bool) -> Linear,
                      tag: &str|
         -> (Linear, Vec<Linear>, Vec<Linear>) {
            (
                rng(&format!("{name}.{tag}.self"), true),
                (0..2)
                    .map(|k| rng(&format!("{name}.{tag}.fwd{k}"), false))
                    .collect(),
                (0..2)
                    .map(|k| rng(&format!("{name}.{tag}.bwd{k}"), false))
                    .collect(),
            )
        };
        let mut build = |n: &str, bias: bool| Linear::new(rng, n, 2 * d, d, bias);
        let (z_self, z_fwd, z_bwd) = mk_set(&mut build, "z");
        let (r_self, r_fwd, r_bwd) = mk_set(&mut build, "r");
        let (c_self, c_fwd, c_bwd) = mk_set(&mut build, "c");
        Self {
            z_self,
            z_fwd,
            z_bwd,
            r_self,
            r_fwd,
            r_bwd,
            c_self,
            c_fwd,
            c_bwd,
            d,
        }
    }

    /// One DCGRU step on `[B,N,D]` inputs.
    fn step(&self, tape: &Tape, x_t: &Var, h: &Var, ctx: &GraphContext) -> Var {
        let xh = Var::concat(&[x_t.clone(), h.clone()], 2); // [B,N,2D]
        let z = diffusion_gconv(tape, &xh, ctx, &self.z_self, &self.z_fwd, &self.z_bwd).sigmoid();
        let r = diffusion_gconv(tape, &xh, ctx, &self.r_self, &self.r_fwd, &self.r_bwd).sigmoid();
        let xrh = Var::concat(&[x_t.clone(), r.mul(h)], 2);
        let c = diffusion_gconv(tape, &xrh, ctx, &self.c_self, &self.c_fwd, &self.c_bwd).tanh();
        let one_minus_z = z.neg().add_scalar(1.0);
        z.mul(h).add(&one_minus_z.mul(&c))
    }
}

impl HumanStBlock for DcrnnBlock {
    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        let s = x.shape(); // [B,N,T,D]
        let (b, n, t) = (s[0], s[1], s[2]);
        let mut h = tape.constant(cts_tensor::Tensor::zeros([b, n, self.d]));
        let mut outs = Vec::with_capacity(t);
        for ti in 0..t {
            let x_t = x.slice(2, ti, ti + 1).reshape(&[b, n, self.d]);
            h = self.step(tape, &x_t, &h, ctx);
            outs.push(h.reshape(&[b, n, 1, self.d]));
        }
        Var::concat(&outs, 2)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = Vec::new();
        for lin in [&self.z_self, &self.r_self, &self.c_self] {
            v.extend(lin.parameters());
        }
        for set in [
            &self.z_fwd,
            &self.z_bwd,
            &self.r_fwd,
            &self.r_bwd,
            &self.c_fwd,
            &self.c_bwd,
        ] {
            v.extend(set.iter().flat_map(Linear::parameters));
        }
        v
    }

    fn name(&self) -> &'static str {
        "DCRNN-block"
    }
}

/// The four human blocks of the *macro only* ablation (§4.2.3).
pub fn macro_only_blocks(
    rng: &mut impl Rng,
    d: usize,
    n: usize,
    emb: usize,
) -> Vec<Box<dyn HumanStBlock>> {
    vec![
        Box::new(StgcnBlock::new(rng, "stgcn", d)),
        Box::new(DcrnnBlock::new(rng, "dcrnn", d)),
        Box::new(GwnetBlock::new(rng, "gwnet", d, 2)),
        Box::new(MtgnnBlock::new(rng, "mtgnn", d, n, emb)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn all_human_blocks_preserve_shape_and_train() {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 4,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        for block in macro_only_blocks(&mut rng, 6, 4, 4) {
            let tape = Tape::new();
            let x = tape.constant(init::uniform(&mut rng, [2, 4, 5, 6], -1.0, 1.0));
            let y = block.forward(&tape, &x, &ctx);
            assert_eq!(
                y.shape(),
                vec![2, 4, 5, 6],
                "{} changed shape",
                block.name()
            );
            let loss = y.square().sum_all();
            tape.backward(&loss);
            let live = block
                .parameters()
                .iter()
                .filter(|p| p.grad().norm() > 0.0)
                .count();
            assert!(live > 0, "{} got no gradients", block.name());
        }
    }

    #[test]
    fn dcrnn_block_is_causal() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 3,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        let block = DcrnnBlock::new(&mut rng, "d", 4);
        let tape = Tape::new();
        let mut x = init::uniform(&mut rng, [1, 3, 5, 4], -1.0, 1.0);
        let y0 = block
            .forward(&tape, &tape.constant(x.clone()), &ctx)
            .value();
        // change the final step: earlier hiddens must not move
        for n in 0..3 {
            for d in 0..4 {
                *x.at_mut(&[0, n, 4, d]) += 1.0;
            }
        }
        let y1 = block.forward(&tape, &tape.constant(x), &ctx).value();
        for t in 0..4 {
            assert_eq!(y0.at(&[0, 0, t, 0]), y1.at(&[0, 0, t, 0]), "leak at t={t}");
        }
    }

    #[test]
    fn mtgnn_block_works_without_predefined_graph() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ctx = GraphContext::from_graph(&cts_graph::SensorGraph::disconnected(4), 2);
        let block = MtgnnBlock::new(&mut rng, "m", 4, 4, 3);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [1, 4, 3, 4], -1.0, 1.0));
        let y = block.forward(&tape, &x, &ctx);
        assert_eq!(y.shape(), vec![1, 4, 3, 4]);
    }
}

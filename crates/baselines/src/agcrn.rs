//! AGCRN: adaptive graph convolutional recurrent network (Bai et al.
//! 2020) — a GRU whose gate transforms are graph convolutions over a
//! *learned* adjacency (no predefined graph needed).

use crate::common::{BaselineConfig, OutputHead};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::node_mix;
use cts_tensor::{init, Tensor};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One adaptive graph convolution: `W₀x + W₁(Ax)` with `A = softmax(relu(E₁E₂))`.
struct AdaptiveGconv {
    w0: Linear,
    w1: Linear,
}

impl AdaptiveGconv {
    fn new(rng: &mut impl Rng, name: &str, d_in: usize, d_out: usize) -> Self {
        Self {
            w0: Linear::new(rng, &format!("{name}.w0"), d_in, d_out, true),
            w1: Linear::new(rng, &format!("{name}.w1"), d_in, d_out, false),
        }
    }

    /// `x: [B,N,D]`, `adj: [N,N]`.
    fn forward(&self, tape: &Tape, x: &Var, adj: &Var) -> Var {
        let s = x.shape();
        let x4 = x.reshape(&[s[0], s[1], 1, s[2]]);
        let mixed = node_mix(tape, &x4, adj);
        let out = self
            .w0
            .forward(tape, &x4)
            .add(&self.w1.forward(tape, &mixed));
        // invariant: the projection output is at least rank 1.
        let d_out = *out.shape().last().expect("non-empty");
        out.reshape(&[s[0], s[1], d_out])
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.w0.parameters();
        v.extend(self.w1.parameters());
        v
    }
}

/// AGCRN: adaptive-GCN GRU over the window plus the shared output head.
pub struct Agcrn {
    embed: Linear,
    e1: Parameter,
    e2: Parameter,
    zr: AdaptiveGconv, // [x;h] -> 2D
    cand: AdaptiveGconv,
    head: OutputHead,
    d: usize,
}

impl Agcrn {
    /// Build for a dataset.
    pub fn new(
        cfg: &BaselineConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        let n = graph.n();
        Self {
            embed: Linear::new(&mut rng, "agcrn.embed", spec.features, d, true),
            e1: Parameter::new(
                "agcrn.e1",
                init::normal(&mut rng, [n, cfg.adaptive_emb], 0.1),
            ),
            e2: Parameter::new(
                "agcrn.e2",
                init::normal(&mut rng, [cfg.adaptive_emb, n], 0.1),
            ),
            zr: AdaptiveGconv::new(&mut rng, "agcrn.zr", 2 * d, 2 * d),
            cand: AdaptiveGconv::new(&mut rng, "agcrn.cand", 2 * d, d),
            head: OutputHead::new(&mut rng, spec, scaler, d),
            d,
        }
    }
}

impl Forecaster for Agcrn {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let z = self.embed.forward(tape, x); // [B,N,T,D]
        let s = z.shape();
        let (b, n, t) = (s[0], s[1], s[2]);
        let adj = tape
            .param(&self.e1)
            .matmul(&tape.param(&self.e2))
            .relu()
            .softmax_last();
        let mut h = tape.constant(Tensor::zeros([b, n, self.d]));
        let mut outs = Vec::with_capacity(t);
        for ti in 0..t {
            let x_t = z.slice(2, ti, ti + 1).reshape(&[b, n, self.d]);
            let xh = Var::concat(&[x_t.clone(), h.clone()], 2);
            let zr = self.zr.forward(tape, &xh, &adj).sigmoid();
            let zg = zr.slice(2, 0, self.d);
            let rg = zr.slice(2, self.d, 2 * self.d);
            let xrh = Var::concat(&[x_t, rg.mul(&h)], 2);
            let cand = self.cand.forward(tape, &xrh, &adj).tanh();
            let one_minus_z = zg.neg().add_scalar(1.0);
            h = zg.mul(&h).add(&one_minus_z.mul(&cand));
            outs.push(h.reshape(&[b, n, 1, self.d]));
        }
        let seq = Var::concat(&outs, 2);
        self.head.forward(tape, &seq)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        v.push(self.e1.clone());
        v.push(self.e2.clone());
        v.extend(self.zr.parameters());
        v.extend(self.cand.parameters());
        v.extend(self.head.parameters());
        v
    }

    fn name(&self) -> &str {
        "AGCRN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn agcrn_runs_without_predefined_graph() {
        // AGCRN learns its graph, so feed it a disconnected one.
        let spec = DatasetSpec::pems04().scaled(0.04, 0.02);
        let data = generate(&spec, 3);
        let windows = build_windows(&data, 8, 6);
        let graph = SensorGraph::disconnected(spec.n);
        let model = Agcrn::new(&BaselineConfig::default(), &spec, &graph, &windows.scaler);
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);
        let loss = cts_nn::masked_mae_loss(&tape, &y, &batches[0].1, Some(0.0));
        tape.backward(&loss);
        assert!(model.e1.grad().norm() > 0.0, "adaptive graph got no grads");
    }
}

//! Layer normalisation.
//!
//! The AutoCTS supernet follows DARTS's ReLU-operator-norm ordering (§4.1.4).
//! [`LayerNorm`] (running-stat free, identical in training and inference)
//! fills the norm role; the substitution for batch norm is noted in
//! DESIGN.md.

use crate::Backend;
use cts_autograd::Parameter;
use cts_tensor::Tensor;

/// Layer normalisation over the last (channel) axis with learnable affine.
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    eps: f32,
}

impl LayerNorm {
    /// LayerNorm over a channel dimension of width `d`.
    pub fn new(name: &str, d: usize) -> Self {
        Self {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones([d])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros([d])),
            eps: 1e-5,
        }
    }

    /// Normalise `[..., d]` per position over the channel axis: one
    /// fused kernel ([`Backend::layer_norm`]) with the bits of the
    /// mean/centre/variance/scale/shift chain.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let (gamma, beta) = (be.param(&self.gamma), be.param(&self.beta));
        be.layer_norm(x, &gamma, &beta, self.eps)
    }

    /// Learnable affine parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut rng = SmallRng::seed_from_u64(0);
        let ln = LayerNorm::new("ln", 8);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [4, 8], -5.0, 5.0));
        let y = ln.forward(&tape, &x).value();
        for row in 0..4 {
            let vals = &y.data()[row * 8..(row + 1) * 8];
            let mean: f32 = vals.iter().sum::<f32>() / 8.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    /// The chain `LayerNorm::forward` recorded before it became one node.
    fn composed(tape: &Tape, ln: &LayerNorm, x: &cts_autograd::Var) -> cts_autograd::Var {
        let axis = x.shape().len() - 1;
        let c = x.sub(&x.mean_axis(axis, true));
        let sd = c.square().mean_axis(axis, true).add_scalar(ln.eps).sqrt();
        c.div(&sd)
            .mul(&tape.param(&ln.gamma))
            .add(&tape.param(&ln.beta))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused node gives the composed chain's output and, under every
    /// wanted set the bi-level step uses, its gradients at `f32::to_bits`:
    /// rows off the 8-row blocks, widths off the 8 lanes, a zero-variance
    /// row and signed zeros.
    #[test]
    fn fused_node_matches_the_composed_chain_bitwise() {
        let mut rng = SmallRng::seed_from_u64(7);
        for shape in [
            vec![3usize, 5, 8],
            vec![2, 9, 16],
            vec![19, 3],
            vec![4, 1],
            vec![6],
        ] {
            let d = *shape.last().unwrap();
            let ln = LayerNorm::new("ln", d);
            *ln.gamma.value_mut() = init::uniform(&mut rng, [d], 0.5, 1.5);
            *ln.beta.value_mut() = init::uniform(&mut rng, [d], -0.5, 0.5);
            let mut xv = init::uniform(&mut rng, shape.clone(), -2.0, 2.0);
            let data = xv.data_mut();
            data[..d].fill(0.75);
            data[d.min(data.len() - 1)] = -0.0;
            data[data.len() - 1] = 0.0;
            let x = Parameter::new("x", xv);
            let w = init::uniform(&mut rng, shape.clone(), -1.0, 1.0);
            let all = [x.clone(), ln.gamma.clone(), ln.beta.clone()];
            let wanted: [Vec<Parameter>; 4] = [
                all.to_vec(),
                vec![x.clone()],
                vec![ln.gamma.clone(), ln.beta.clone()],
                vec![ln.beta.clone()],
            ];
            for want in &wanted {
                let run = |fused: bool| {
                    for p in &all {
                        p.grad_mut().fill(0.0);
                    }
                    let tape = Tape::new();
                    let xv = tape.param(&x).scale(1.0);
                    let y = if fused {
                        ln.forward(&tape, &xv)
                    } else {
                        composed(&tape, &ln, &xv)
                    };
                    tape.backward_for(&y.mul(&tape.constant(w.clone())).sum_all(), want);
                    let grads: Vec<Vec<u32>> = all.iter().map(|p| bits(&p.grad())).collect();
                    (bits(&y.value()), grads)
                };
                assert_eq!(run(true), run(false), "{shape:?}, {} wanted", want.len());
            }
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        use cts_autograd::gradcheck::assert_gradients;
        let mut rng = SmallRng::seed_from_u64(1);
        let ln = LayerNorm::new("ln", 4);
        let x = cts_autograd::Parameter::new("x", init::uniform(&mut rng, [2, 4], -1.0, 1.0));
        let mut params = ln.parameters();
        params.push(x.clone());
        assert_gradients(&params, 1e-2, 5e-2, |tape| {
            ln.forward(tape, &tape.param(&x)).square().sum_all()
        });
    }
}

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

    /// Normalise `[..., d]` per position over the channel axis.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let axis = be.shape(x).len() - 1;
        let mean = be.mean_axis(x, axis, true);
        let centered = be.sub(x, &mean);
        let var = be.mean_axis(&be.square(&centered), axis, true);
        let std = be.sqrt(&be.add_scalar(&var, self.eps));
        let normed = be.div(&centered, &std);
        let scaled = be.mul(&normed, &be.param(&self.gamma));
        be.add(&scaled, &be.param(&self.beta))
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

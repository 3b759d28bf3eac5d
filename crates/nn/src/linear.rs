//! Dense (fully connected) layer applied to the last axis.

use crate::Backend;
use cts_autograd::Parameter;
use cts_tensor::init;
use rand::Rng;

/// `y = x · W (+ b)` over the last axis; leading axes are batch.
///
/// Equivalent to the 1×1 convolutions used as embedding/output layers in the
/// CTS literature.
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    d_in: usize,
    d_out: usize,
}

impl Linear {
    /// Xavier-initialised linear layer.
    pub fn new(rng: &mut impl Rng, name: &str, d_in: usize, d_out: usize, bias: bool) -> Self {
        let weight = Parameter::new(
            format!("{name}.weight"),
            init::xavier_uniform(rng, [d_in, d_out], d_in, d_out),
        );
        let bias = bias
            .then(|| Parameter::new(format!("{name}.bias"), cts_tensor::Tensor::zeros([d_out])));
        Self {
            weight,
            bias,
            d_in,
            d_out,
        }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Apply to `[..., d_in]`, producing `[..., d_out]`.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let y = be.matmul(x, &be.param(&self.weight));
        match &self.bias {
            Some(b) => be.add(&y, &be.param(b)),
            None => y,
        }
    }

    /// Parameters of this layer.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use cts_tensor::Tensor;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SmallRng::seed_from_u64(0);
        let lin = Linear::new(&mut rng, "l", 3, 5, true);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones([2, 4, 3]));
        let y = lin.forward(&tape, &x);
        assert_eq!(y.shape(), vec![2, 4, 5]);
        assert_eq!(lin.parameters().len(), 2);
        assert_eq!(lin.d_in(), 3);
        assert_eq!(lin.d_out(), 5);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = SmallRng::seed_from_u64(0);
        let lin = Linear::new(&mut rng, "l", 2, 2, false);
        assert_eq!(lin.parameters().len(), 1);
    }

    #[test]
    fn gradient_reaches_weight_and_bias() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lin = Linear::new(&mut rng, "l", 2, 2, true);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones([1, 2]));
        let loss = lin.forward(&tape, &x).sum_all();
        tape.backward(&loss);
        for p in lin.parameters() {
            assert!(p.grad().norm() > 0.0, "no grad for {}", p.name());
        }
    }
}

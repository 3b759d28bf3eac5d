//! Temporal convolution layers over `[B, N, T, D]` activations.

use crate::Backend;
use cts_autograd::Parameter;
use cts_tensor::{init, Tensor};
use rand::Rng;

/// Dilated causal temporal convolution with optional bias.
pub struct TemporalConvLayer {
    kernel: Parameter,
    bias: Option<Parameter>,
    dilation: usize,
}

impl TemporalConvLayer {
    /// Create a layer with kernel `[k, d_in, d_out]` and the given dilation.
    pub fn new(
        rng: &mut impl Rng,
        name: &str,
        k: usize,
        d_in: usize,
        d_out: usize,
        dilation: usize,
        bias: bool,
    ) -> Self {
        let kernel = Parameter::new(
            format!("{name}.kernel"),
            init::xavier_uniform(rng, [k, d_in, d_out], k * d_in, d_out),
        );
        let bias = bias.then(|| Parameter::new(format!("{name}.bias"), Tensor::zeros([d_out])));
        Self {
            kernel,
            bias,
            dilation,
        }
    }

    /// Apply to `[B, N, T, d_in]`, producing `[B, N, T, d_out]`.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let y = be.temporal_conv(x, &be.param(&self.kernel), self.dilation);
        match &self.bias {
            Some(b) => be.add(&y, &be.param(b)),
            None => y,
        }
    }

    /// Parameters of this layer.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = vec![self.kernel.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }
}

/// The gated dilated causal convolution (GDCC) of Table 1, Eq. 9:
/// `H = tanh(Z * W1) ⊙ σ(Z * W2)`.
pub struct GatedTemporalConv {
    filter: TemporalConvLayer,
    gate: TemporalConvLayer,
}

impl GatedTemporalConv {
    /// GDCC with kernel size `k` and the given dilation.
    pub fn new(
        rng: &mut impl Rng,
        name: &str,
        k: usize,
        d_in: usize,
        d_out: usize,
        dilation: usize,
    ) -> Self {
        Self {
            filter: TemporalConvLayer::new(
                rng,
                &format!("{name}.filter"),
                k,
                d_in,
                d_out,
                dilation,
                true,
            ),
            gate: TemporalConvLayer::new(
                rng,
                &format!("{name}.gate"),
                k,
                d_in,
                d_out,
                dilation,
                true,
            ),
        }
    }

    /// Apply the gated convolution.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let f = be.tanh(&self.filter.forward(be, x));
        let g = be.sigmoid(&self.gate.forward(be, x));
        be.mul(&f, &g)
    }

    /// Parameters of both branches.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.filter.parameters();
        v.extend(self.gate.parameters());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn conv_layer_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let layer = TemporalConvLayer::new(&mut rng, "c", 2, 3, 8, 2, true);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones([2, 4, 6, 3]));
        let y = layer.forward(&tape, &x);
        assert_eq!(y.shape(), vec![2, 4, 6, 8]);
        assert_eq!(layer.parameters().len(), 2);
    }

    #[test]
    fn gdcc_bounded_by_gate() {
        // tanh ∈ (-1,1) and sigmoid ∈ (0,1), so |output| < 1 elementwise.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = GatedTemporalConv::new(&mut rng, "g", 2, 2, 4, 1);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [1, 3, 5, 2], -3.0, 3.0));
        let y = g.forward(&tape, &x).value();
        assert!(y.max() < 1.0 && y.min() > -1.0);
    }

    #[test]
    fn gdcc_gradients_flow() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = GatedTemporalConv::new(&mut rng, "g", 2, 2, 2, 1);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [1, 2, 4, 2], -1.0, 1.0));
        let loss = g.forward(&tape, &x).square().sum_all();
        tape.backward(&loss);
        for p in g.parameters() {
            assert!(p.grad().norm() > 0.0, "no grad for {}", p.name());
        }
    }
}

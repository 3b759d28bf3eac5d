//! Model-level traits and parameter bookkeeping.

use cts_autograd::{Parameter, Tape, Var};
use cts_tensor::Tensor;

/// A collection of parameters gathered from a module tree.
#[derive(Default, Clone)]
pub struct ParamBundle {
    params: Vec<Parameter>,
}

impl ParamBundle {
    /// Empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one parameter.
    pub fn push(&mut self, p: Parameter) {
        self.params.push(p);
    }

    /// Register many parameters.
    pub fn extend(&mut self, ps: impl IntoIterator<Item = Parameter>) {
        self.params.extend(ps);
    }

    /// The registered parameters.
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<Parameter> {
        self.params
    }

    /// Total scalar weight count.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Parameter::len).sum()
    }
}

/// Total scalar count of a parameter list (the paper's "Parameters" columns,
/// Tables 27–34).
pub fn count_parameters(params: &[Parameter]) -> usize {
    params.iter().map(Parameter::len).sum()
}

/// A complete CTS forecasting model.
///
/// Input `x` is `[B, N, P, F]` (batch, series, history steps, features);
/// output is `[B, N, Q]` — the forecast for the next `Q` steps (or the
/// single step `Q` for single-step tasks, with the last axis of length 1).
pub trait Forecaster {
    /// Build the forward graph for one batch.
    fn forward(&self, tape: &Tape, x: &Var) -> Var;

    /// Every trainable parameter of the model.
    fn parameters(&self) -> Vec<Parameter>;

    /// Gradient-free forward for inference: `x` is `[B, N, P, F]`, the
    /// result `[B, N, Q]`. The default builds a throwaway tape; models with
    /// a compiled execution plan override this with a tape-free path that
    /// must stay bit-identical to [`Self::forward`].
    fn forward_inference(&self, x: &Tensor) -> Tensor {
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        self.forward(&tape, &xv).value()
    }

    /// A short human-readable model name for reports.
    fn name(&self) -> &str {
        "model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_tensor::Tensor;

    #[test]
    fn bundle_counts_scalars() {
        let mut b = ParamBundle::new();
        b.push(Parameter::new("a", Tensor::zeros([2, 3])));
        b.extend([Parameter::new("b", Tensor::zeros([4]))]);
        assert_eq!(b.num_scalars(), 10);
        assert_eq!(count_parameters(b.params()), 10);
        assert_eq!(b.into_vec().len(), 2);
    }
}

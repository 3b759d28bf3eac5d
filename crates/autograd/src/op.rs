//! The primitive operation set and its backward dispatch.

use cts_tensor::{arena, ops, Shape, Tensor};

/// Gradients of one node's inputs, held inline for the 0/1/2-input ops
/// that make up essentially the whole tape; only variadic ops (concat)
/// spill to a heap Vec. Backward runs once per node per step, so this
/// container is on the allocation-count hot path.
///
/// A multi-input slot is `None` when the sweep does not need that
/// input's gradient: [`Op::backward`] then neither computes it nor
/// allocates a placeholder for it.
pub enum Grads {
    /// Leaf: nothing to differentiate.
    None,
    /// Unary op.
    One(Tensor),
    /// Binary op.
    Two(Option<Tensor>, Option<Tensor>),
    /// Variadic op (concat).
    Many(Vec<Option<Tensor>>),
}

impl Grads {
    /// Number of input slots (computed or skipped).
    pub fn len(&self) -> usize {
        match self {
            Grads::None => 0,
            Grads::One(_) => 1,
            Grads::Two(_, _) => 2,
            Grads::Many(v) => v.len(),
        }
    }

    /// True when there are no input slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Draining iterator over [`Grads`] in input order, one slot per input
/// (`None` for a skipped one).
pub struct GradsIter {
    inline: [Option<Tensor>; 2],
    inline_len: usize,
    idx: usize,
    spill: std::vec::IntoIter<Option<Tensor>>,
}

impl Iterator for GradsIter {
    type Item = Option<Tensor>;
    fn next(&mut self) -> Option<Option<Tensor>> {
        if self.idx < self.inline_len {
            self.idx += 1;
            return Some(self.inline[self.idx - 1].take());
        }
        self.spill.next()
    }
}

impl IntoIterator for Grads {
    type Item = Option<Tensor>;
    type IntoIter = GradsIter;
    fn into_iter(self) -> GradsIter {
        let (inline, inline_len, spill) = match self {
            Grads::None => ([None, None], 0, Vec::new()),
            Grads::One(a) => ([Some(a), None], 1, Vec::new()),
            Grads::Two(a, b) => ([a, b], 2, Vec::new()),
            Grads::Many(v) => ([None, None], 0, v),
        };
        GradsIter {
            inline,
            inline_len,
            idx: 0,
            spill: spill.into_iter(),
        }
    }
}

/// Every differentiable primitive the tape can record.
///
/// Backward formulas live in [`Op::backward`]; the numeric kernels (forward
/// and gradient) come from [`cts_tensor::ops`] so they can be unit-tested
/// without a tape.
#[derive(Clone, Debug)]
pub enum Op {
    /// Constant or parameter leaf; nothing to differentiate through.
    Leaf,
    /// Elementwise `a + b` with broadcasting.
    Add,
    /// Elementwise `a - b` with broadcasting.
    Sub,
    /// Elementwise `a * b` with broadcasting.
    Mul,
    /// Elementwise `a / b` with broadcasting.
    Div,
    /// Elementwise negation.
    Neg,
    /// Multiply by a compile-time scalar.
    Scale(f32),
    /// Add a compile-time scalar.
    AddScalar(f32),
    /// max(x, 0).
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Elementwise square root.
    Sqrt,
    /// Elementwise absolute value.
    Abs,
    /// Elementwise square.
    Square,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Clamp into `[lo, hi]`; gradient passes only inside the range.
    Clamp(f32, f32),
    /// Softmax over the last axis.
    SoftmaxLast,
    /// Batched matrix multiplication over the trailing two dims.
    MatMul,
    /// Dimension permutation.
    Permute(Shape),
    /// Reshape to a new shape of the same element count.
    Reshape,
    /// Concatenation along `axis` (any number of inputs).
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Contiguous slice `[start, start+len)` along `axis`.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// Slice start offset.
        start: usize,
    },
    /// Gather `indices` along `axis`.
    IndexSelect {
        /// Gather axis.
        axis: usize,
        /// Gathered indices.
        indices: Vec<usize>,
    },
    /// Zero-pad along `axis`.
    PadAxis {
        /// Padded axis.
        axis: usize,
        /// Zeros inserted before.
        before: usize,
        /// Zeros appended after.
        after: usize,
    },
    /// Sum over one axis.
    SumAxis {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as length 1.
        keepdim: bool,
    },
    /// Mean over one axis.
    MeanAxis {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as length 1.
        keepdim: bool,
    },
    /// Sum of every element (shape `[1]`).
    SumAll,
    /// Mean of every element (shape `[1]`).
    MeanAll,
    /// Dilated causal temporal convolution (input 0: x, input 1: kernel).
    TemporalConv {
        /// Convolution dilation over the time axis.
        dilation: usize,
    },
}

impl Op {
    /// Gradients w.r.t. the inputs the sweep needs.
    ///
    /// * `grad` — upstream gradient w.r.t. this node's output, owned: an
    ///   input gradient that is the upstream one unchanged (`Add`, `Sub`'s
    ///   first side, `AddScalar`, `Reshape`) takes it by move, not by copy
    /// * `output` — the saved forward output of this node
    /// * `inputs` — the saved forward values of the node's inputs
    /// * `needs` — per input, whether the sweep reads its gradient
    ///
    /// Returns one slot per input: the gradient, shaped exactly like that
    /// input, where `needs` is set, and `None` (nothing computed) where it
    /// is not. An op is only swept when at least one input needs a
    /// gradient, so a unary op's single input always does. A computed
    /// gradient runs the same kernel on the same values whatever the rest
    /// of the mask says, so it is bit-identical to the all-`true` call.
    pub fn backward(
        &self,
        grad: Tensor,
        output: &Tensor,
        inputs: &[&Tensor],
        needs: &[bool],
    ) -> Grads {
        debug_assert_eq!(needs.len(), inputs.len());
        debug_assert!(
            inputs.len() != 1 || needs[0],
            "unary op swept without a need"
        );
        match self {
            Op::Leaf => Grads::None,
            Op::Add => {
                // `grad` moves into one needed side, into `b` only when `b`
                // keeps the output shape and `a` does not; the other side
                // reads it first (reduced, or copied when both keep it).
                let (sa, sb) = (inputs[0].shape(), inputs[1].shape());
                if needs[1] && (!needs[0] || (grad.shape() == sb && grad.shape() != sa)) {
                    let ga = needs[0].then(|| ops::reduce_to_shape(&grad, sa));
                    Grads::Two(ga, Some(ops::reduce_owned(grad, sb)))
                } else {
                    let gb = needs[1].then(|| ops::reduce_to_shape(&grad, sb));
                    Grads::Two(needs[0].then(|| ops::reduce_owned(grad, sa)), gb)
                }
            }
            Op::Sub => {
                let gb = needs[1].then(|| ops::reduce_owned(ops::neg(&grad), inputs[1].shape()));
                Grads::Two(
                    needs[0].then(|| ops::reduce_owned(grad, inputs[0].shape())),
                    gb,
                )
            }
            Op::Mul => Grads::Two(
                needs[0].then(|| ops::mul_grad(&grad, inputs[1], inputs[0].shape())),
                needs[1].then(|| ops::mul_grad(&grad, inputs[0], inputs[1].shape())),
            ),
            Op::Div => Grads::Two(
                needs[0].then(|| ops::div_grad_a(&grad, inputs[1], inputs[0].shape())),
                needs[1].then(|| ops::div_grad_b(&grad, inputs[0], inputs[1])),
            ),
            Op::Neg => Grads::One(ops::neg(&grad)),
            Op::Scale(c) => Grads::One(ops::scale(&grad, *c)),
            Op::AddScalar(_) => Grads::One(grad),
            Op::Relu => Grads::One(ops::relu_grad(&grad, inputs[0])),
            Op::Sigmoid => Grads::One(ops::sigmoid_grad(&grad, output)),
            Op::Tanh => Grads::One(ops::tanh_grad(&grad, output)),
            Op::Exp => Grads::One(ops::mul(&grad, output)),
            Op::Ln => Grads::One(ops::ln_grad(&grad, inputs[0])),
            Op::Sqrt => Grads::One(ops::sqrt_grad(&grad, output)),
            Op::Abs => Grads::One(ops::abs_grad(&grad, inputs[0])),
            Op::Square => Grads::One(ops::square_grad(&grad, inputs[0])),
            Op::Gelu => Grads::One(ops::gelu_grad(&grad, inputs[0])),
            Op::Clamp(lo, hi) => {
                let data = arena::take_from_iter(
                    grad.len(),
                    grad.data()
                        .iter()
                        .zip(inputs[0].data().iter())
                        .map(|(&g, &x)| if x > *lo && x < *hi { g } else { 0.0 }),
                );
                Grads::One(Tensor::from_vec(inputs[0].shape(), data))
            }
            Op::SoftmaxLast => Grads::One(ops::softmax_last_grad(&grad, output)),
            Op::MatMul => Grads::Two(
                needs[0].then(|| ops::matmul_grad_a(&grad, inputs[1], inputs[0].shape())),
                needs[1].then(|| ops::matmul_grad_b(&grad, inputs[0], inputs[1].shape())),
            ),
            Op::Permute(perm) => Grads::One(ops::permute_grad(&grad, perm)),
            Op::Reshape => Grads::One(grad.reshaped(inputs[0].shape())),
            Op::Concat { axis } => {
                let mut grads = Vec::with_capacity(inputs.len());
                let mut offset = 0;
                for (inp, &need) in inputs.iter().zip(needs) {
                    let len = inp.shape()[*axis];
                    grads.push(need.then(|| ops::slice(&grad, *axis, offset, offset + len)));
                    offset += len;
                }
                Grads::Many(grads)
            }
            Op::Slice { axis, start } => {
                Grads::One(ops::slice_grad(&grad, inputs[0].shape(), *axis, *start))
            }
            Op::IndexSelect { axis, indices } => Grads::One(ops::index_select_grad(
                &grad,
                inputs[0].shape(),
                *axis,
                indices,
            )),
            Op::PadAxis { axis, before, .. } => Grads::One(ops::pad_axis_grad(
                &grad,
                *axis,
                *before,
                inputs[0].shape()[*axis],
            )),
            Op::SumAxis { axis, .. } => Grads::One(ops::sum_axis_grad(
                &squeeze_keepdim(grad, inputs[0].shape(), *axis),
                inputs[0].shape(),
                *axis,
            )),
            Op::MeanAxis { axis, .. } => Grads::One(ops::mean_axis_grad(
                &squeeze_keepdim(grad, inputs[0].shape(), *axis),
                inputs[0].shape(),
                *axis,
            )),
            Op::SumAll => Grads::One(ops::sum_all_grad(&grad, inputs[0].shape())),
            Op::MeanAll => Grads::One(ops::mean_all_grad(&grad, inputs[0].shape())),
            Op::TemporalConv { dilation } => Grads::Two(
                needs[0].then(|| {
                    ops::temporal_conv_grad_x(&grad, inputs[1], inputs[0].shape(), *dilation)
                }),
                needs[1].then(|| {
                    ops::temporal_conv_grad_w(&grad, inputs[0], inputs[1].shape(), *dilation)
                }),
            ),
        }
    }
}

/// `sum_axis_grad` expects the reduced (no-keepdim) layout; flatten a kept
/// axis of length 1 if present. The buffer is identical either way, so
/// the gradient is reshaped in place, not copied.
fn squeeze_keepdim(grad: Tensor, input_shape: &[usize], axis: usize) -> Tensor {
    if grad.rank() == input_shape.len() {
        let mut s: Shape = grad
            .shape()
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (i != axis).then_some(d))
            .collect();
        if s.is_empty() {
            s.push(1);
        }
        grad.reshaped(s)
    } else {
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(shape: &[usize], salt: usize) -> Tensor {
        let n: usize = shape.iter().product();
        // Values in [0.5, 2.2): no zero divisors, no exact ties.
        let data = (0..n)
            .map(|i| 0.5 + ((i * 37 + salt * 11) % 17) as f32 * 0.1)
            .collect::<Vec<_>>();
        Tensor::from_vec(shape.to_vec(), data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every multi-input op under every needs mask: a needed slot holds
    /// the bits of the all-`true` call, a skipped slot holds nothing.
    #[test]
    fn backward_computes_exactly_the_needed_gradients() {
        let cases: Vec<(Op, Vec<Vec<usize>>, Vec<usize>)> = vec![
            (Op::Add, vec![vec![2, 3, 4], vec![4]], vec![2, 3, 4]),
            (Op::Add, vec![vec![3, 1], vec![2, 3, 4]], vec![2, 3, 4]),
            (Op::Add, vec![vec![2, 3, 4], vec![2, 3, 4]], vec![2, 3, 4]),
            (Op::Sub, vec![vec![2, 3, 4], vec![2, 3, 1]], vec![2, 3, 4]),
            (Op::Sub, vec![vec![2, 3, 4], vec![2, 3, 4]], vec![2, 3, 4]),
            (Op::Mul, vec![vec![2, 3, 4], vec![1]], vec![2, 3, 4]),
            (Op::Div, vec![vec![2, 3, 4], vec![3, 4]], vec![2, 3, 4]),
            (Op::MatMul, vec![vec![2, 3, 4], vec![4, 5]], vec![2, 3, 5]),
            (
                Op::TemporalConv { dilation: 2 },
                vec![vec![1, 2, 6, 3], vec![2, 3, 4]],
                vec![1, 2, 6, 4],
            ),
            (
                Op::Concat { axis: 1 },
                vec![vec![2, 1, 4], vec![2, 2, 4], vec![2, 3, 4]],
                vec![2, 6, 4],
            ),
        ];
        for (op, in_shapes, out_shape) in cases {
            let inputs: Vec<Tensor> = in_shapes
                .iter()
                .enumerate()
                .map(|(i, s)| pattern(s, i))
                .collect();
            let views: Vec<&Tensor> = inputs.iter().collect();
            let output = pattern(&out_shape, 7);
            let grad = pattern(&out_shape, 9);
            let k = inputs.len();
            let full: Vec<Option<Tensor>> = op
                .backward(grad.clone(), &output, &views, &vec![true; k])
                .into_iter()
                .collect();
            for mask in 0..1usize << k {
                let needs: Vec<bool> = (0..k).map(|i| mask >> i & 1 == 1).collect();
                let got = op.backward(grad.clone(), &output, &views, &needs);
                assert_eq!(got.len(), k, "{op:?}");
                for (i, slot) in got.into_iter().enumerate() {
                    match (needs[i], slot, &full[i]) {
                        (true, Some(g), Some(f)) => {
                            assert_eq!(g.shape(), inputs[i].shape(), "{op:?} input {i}");
                            assert_eq!(bits(&g), bits(f), "{op:?} input {i} under {needs:?}");
                        }
                        (false, None, _) => {}
                        (need, slot, _) => {
                            panic!("{op:?} input {i}: need {need}, computed {}", slot.is_some())
                        }
                    }
                }
            }
        }
    }
}

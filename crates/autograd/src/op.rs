//! The primitive operation set and its backward dispatch.

use cts_tensor::{arena, ops, Shape, Tensor};

/// Gradients of one node's inputs, held inline for the 0–3-input ops
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
    /// Ternary op (LayerNorm: x, γ, β).
    Three([Option<Tensor>; 3]),
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
            Grads::Three(_) => 3,
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
    inline: [Option<Tensor>; 3],
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
            Grads::None => ([None, None, None], 0, Vec::new()),
            Grads::One(a) => ([Some(a), None, None], 1, Vec::new()),
            Grads::Two(a, b) => ([a, b, None], 2, Vec::new()),
            Grads::Three(abc) => (abc, 3, Vec::new()),
            Grads::Many(v) => ([None, None, None], 0, v),
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
    /// Batched `a · bᵀ` over the trailing two dims.
    MatMulNt,
    /// Layer normalisation over the last axis (inputs: x, γ, β), one
    /// fused node for the chain `mean → sub → square → mean → + eps → √ →
    /// div → ·γ → +β`. Its backward gives the chain's bits
    /// (`ops::layer_norm_grad`) as long as nothing recorded after it reads
    /// its input `x`: the chain's sweep would add such a consumer's
    /// gradient into `x` before its own two paths, the fused node after.
    LayerNorm {
        /// Variance offset under the square root.
        eps: f32,
    },
    /// The supernet's softmax-weighted sum (`ops::mixed_edge`; Eq. 4's
    /// edge, a node's `β` sum, Eq. 18's `γ` sum): one node for the chain
    /// per term `slice` of the row → `reshape` → `mul`, the `add`s, and an
    /// edge's bypass `slice` and `concat`. Inputs: the `k` terms, the row,
    /// and an edge input `h` with bypass channels. Its backward gives the
    /// chain's bits when the node is recorded after every term (after
    /// `h`'s operator-channel slice) and no other reader of a term `y_o`
    /// is recorded between the chain's first use of `y_o` and this node.
    MixedEdge {
        /// The row's columns that weigh the terms, ascending.
        cols: Shape,
    },
    /// ProbSparse's row placement (`ops::place_rows`; inputs: the
    /// selected rows' attention output and `v_mean`), one node for the
    /// chain `ones` → `mul` → `concat` → inverse `index_select`.
    PlaceRows {
        /// The selected rows, ascending.
        sel: Vec<usize>,
    },
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
            Op::MatMulNt => Grads::Two(
                needs[0]
                    .then(|| ops::reduce_owned(ops::matmul(&grad, inputs[1]), inputs[0].shape())),
                needs[1].then(|| {
                    ops::reduce_owned(ops::matmul_tn(&grad, inputs[0]), inputs[1].shape())
                }),
            ),
            Op::LayerNorm { eps } => Grads::Three(ops::layer_norm_grad(
                &grad,
                inputs[0],
                inputs[1],
                *eps,
                [needs[0], needs[1], needs[2]],
            )),
            Op::MixedEdge { cols } => {
                let (ys, rest) = inputs.split_at(cols.len());
                let h = rest.get(1).map(|h| h.shape());
                Grads::Many(ops::mixed_edge_grad(&grad, ys, rest[0], cols, h, needs))
            }
            Op::PlaceRows { sel } => {
                let [ga, gm] = ops::place_rows_grad(&grad, sel, [needs[0], needs[1]]);
                Grads::Two(ga, gm)
            }
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

    /// `a · bᵀ` as one node gives the output and gradients of the
    /// `matmul(a, permute(b))` pair it replaced, at `f32::to_bits`: its
    /// backward's `matmul(grad, b)` and `matmul_tn(grad, a)` keep the
    /// ascending chains of that pair's `matmul_nt` and transposed
    /// `matmul_tn`.
    #[test]
    fn matmul_nt_matches_matmul_of_the_permuted_operand() {
        use crate::{Parameter, Tape};
        for (sa, sb) in [([3, 5, 7], [3, 6, 7]), ([2, 9, 16], [2, 11, 16])] {
            let a = Parameter::new("a", pattern(&sa, 1));
            let b = Parameter::new("b", pattern(&sb, 2));
            let w = pattern(&[sa[0], sa[1], sb[1]], 3);
            let run = |fused: bool| {
                a.grad_mut().fill(0.0);
                b.grad_mut().fill(0.0);
                let tape = Tape::new();
                let (va, vb) = (tape.param(&a), tape.param(&b));
                let y = if fused {
                    va.matmul_nt(&vb)
                } else {
                    va.matmul(&vb.permute(&[0, 2, 1]))
                };
                tape.backward(&y.mul(&tape.constant(w.clone())).sum_all());
                (bits(&y.value()), bits(&a.grad()), bits(&b.grad()))
            };
            assert_eq!(run(true), run(false), "{sa:?} x {sb:?}");
        }
    }

    /// `t` with signed zeros planted along it, and a NaN when `nan`.
    fn special(mut t: Tensor, nan: bool) -> Tensor {
        let n = t.len();
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 11 {
                3 => *v = -0.0,
                7 => *v = 0.0,
                _ if nan && i == n / 2 => *v = f32::NAN,
                _ => {}
            }
        }
        t
    }

    /// The mixed edge as one node reading the softmax row gives the
    /// output and every gradient of the composed chain it replaced — per
    /// operator a `slice` of the row, a `reshape` to `[1]` and a `mul`,
    /// then the `add`s, the bypass `slice` and the `concat` — at
    /// `f32::to_bits`, under a full sweep and under `backward_for` of the
    /// weights alone and of the architecture alone. Partial channels of
    /// 1/4, 1/2 and 1 (no bypass input), 1–5 operators after a zero
    /// operator whose column no term reads, the first an identity that
    /// hands back its input (the fused edge gives it a node of its own,
    /// as `MicroCell` does), and signed zeros in the operator outputs and
    /// the upstream gradient, with and without NaNs (a NaN there turns
    /// every weight's gradient into NaN).
    #[test]
    fn mixed_edge_matches_the_composed_chain() {
        use crate::{Parameter, Tape, Var};
        let d = 8;
        for (d_op, nan) in [2, 4, 8].into_iter().flat_map(|d| [(d, false), (d, true)]) {
            for k in 1..=5 {
                let y_shape = [2, 3, 5, d_op];
                let factors: Vec<Parameter> = (0..k)
                    .map(|o| Parameter::new(format!("f{o}"), special(pattern(&y_shape, o), nan)))
                    .collect();
                let alpha = Parameter::new("alpha", pattern(&[1, k + 1], 20));
                let h = Parameter::new("h", special(pattern(&[2, 3, 5, d], 21), nan));
                let g = special(pattern(&[2, 3, 5, d], 22), nan);
                let mut weights = factors.clone();
                weights.push(h.clone());
                let arch = [alpha.clone()];
                let run = |fused: bool, wanted: Option<&[Parameter]>| {
                    for p in weights.iter().chain(&arch) {
                        p.grad_mut().fill(0.0);
                    }
                    let tape = Tape::new();
                    // Operator 0 of `|O| = k + 1` is the zero operator.
                    let probs = tape.param(&alpha).softmax_last();
                    let hv = tape.param(&h);
                    let x_op = (d_op < d).then(|| hv.slice(3, 0, d_op));
                    let bypass = x_op
                        .as_ref()
                        .filter(|_| !fused)
                        .map(|_| hv.slice(3, d_op, d));
                    let input = x_op.as_ref().unwrap_or(&hv);
                    let mut ys = Vec::new();
                    let mut mix: Option<Var> = None;
                    for (o, f) in factors.iter().enumerate() {
                        let y = match (o, fused) {
                            (0, true) => input.reshape(&y_shape),
                            (0, false) => input.clone(),
                            _ => input.mul(&tape.param(f)),
                        };
                        if fused {
                            ys.push(y);
                        } else {
                            let w = probs.slice(1, o + 1, o + 2).reshape(&[1]);
                            let term = y.mul(&w);
                            mix = Some(match mix {
                                Some(m) => m.add(&term),
                                None => term,
                            });
                        }
                    }
                    let out = if fused {
                        Var::mixed_edge(&ys, &probs, 1..=k, x_op.is_some().then_some(&hv))
                    } else {
                        let mix = mix.unwrap();
                        match bypass {
                            Some(b) => Var::concat(&[b, mix], 3),
                            None => mix,
                        }
                    };
                    let loss = out.mul(&tape.constant(g.clone())).sum_all();
                    match wanted {
                        Some(ps) => tape.backward_for(&loss, ps),
                        None => tape.backward(&loss),
                    }
                    let mut got = vec![bits(&out.value())];
                    got.extend(weights.iter().chain(&arch).map(|p| bits(&p.grad())));
                    got
                };
                for wanted in [None, Some(&weights[..]), Some(&arch[..])] {
                    assert_eq!(
                        run(true, wanted),
                        run(false, wanted),
                        "d_op {d_op}, k {k}, NaN {nan}, {} wanted",
                        wanted.map_or(0, |w| w.len())
                    );
                }
            }
        }
    }

    /// The bypass-free mixture of the β and γ sums — every column of the
    /// row used — as one node gives the bits of the composed chain (per
    /// term `slice` → `reshape` → `mul`, then the `add`s), under a full
    /// sweep and under `backward_for` of the weights alone and of the
    /// architecture alone. As with γ's embedding, which feeds block 1 and
    /// its residual before any block input mixes it, the first term is
    /// also read by a node recorded before the mixture and by one
    /// recorded after it; 1–5 terms, with signed zeros in the terms and
    /// the upstream gradients, with and without NaNs.
    #[test]
    fn mixed_sum_matches_the_composed_chain() {
        use crate::{Parameter, Tape, Var};
        let shape = [2, 3, 5, 4];
        for (k, nan) in (1..=5).flat_map(|k| [(k, false), (k, true)]) {
            let z = Parameter::new("z", special(pattern(&shape, 30), nan));
            let factors: Vec<Parameter> = (1..k)
                .map(|o| Parameter::new(format!("f{o}"), special(pattern(&shape, o), nan)))
                .collect();
            let gamma = Parameter::new("gamma", pattern(&[k], 31));
            let gs: Vec<Tensor> = (0..3)
                .map(|i| special(pattern(&shape, 32 + i), nan))
                .collect();
            let mut weights = factors.clone();
            weights.push(z.clone());
            let arch = [gamma.clone()];
            let run = |fused: bool, wanted: Option<&[Parameter]>| {
                for p in weights.iter().chain(&arch) {
                    p.grad_mut().fill(0.0);
                }
                let tape = Tape::new();
                let zv = tape.param(&z).tanh();
                // A reader of the first term recorded before the mixture
                // (block 1 and its residual), and the later terms.
                let residual = zv.add(&zv.square());
                let mut terms = vec![zv.clone()];
                terms.extend(factors.iter().map(|f| residual.mul(&tape.param(f))));
                let row = tape.param(&gamma).reshape(&[1, k]).softmax_last();
                let out = if fused {
                    Var::mixed_edge(&terms, &row, 0..k, None)
                } else {
                    let mut acc: Option<Var> = None;
                    for (i, t) in terms.iter().enumerate() {
                        let term = t.mul(&row.slice(1, i, i + 1).reshape(&[1]));
                        acc = Some(match acc {
                            Some(a) => a.add(&term),
                            None => term,
                        });
                    }
                    acc.unwrap()
                };
                // A reader recorded after the mixture (a later block input).
                let later = zv.mul(&tape.constant(gs[2].clone()));
                let loss = out
                    .mul(&tape.constant(gs[0].clone()))
                    .add(&residual.mul(&tape.constant(gs[1].clone())))
                    .add(&later)
                    .sum_all();
                match wanted {
                    Some(ps) => tape.backward_for(&loss, ps),
                    None => tape.backward(&loss),
                }
                let mut got = vec![bits(&out.value())];
                got.extend(weights.iter().chain(&arch).map(|p| bits(&p.grad())));
                got
            };
            for wanted in [None, Some(&weights[..]), Some(&arch[..])] {
                assert_eq!(
                    run(true, wanted),
                    run(false, wanted),
                    "k {k}, NaN {nan}, {} wanted",
                    wanted.map_or(0, |w| w.len())
                );
            }
        }
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
                Op::MatMulNt,
                vec![vec![2, 3, 4], vec![2, 5, 4]],
                vec![2, 3, 5],
            ),
            (
                Op::LayerNorm { eps: 1e-5 },
                vec![vec![2, 3, 4], vec![4], vec![4]],
                vec![2, 3, 4],
            ),
            (
                Op::TemporalConv { dilation: 2 },
                vec![vec![1, 2, 6, 3], vec![2, 3, 4]],
                vec![1, 2, 6, 4],
            ),
            (
                Op::MixedEdge {
                    cols: [1, 3].into(),
                },
                vec![vec![2, 3, 2], vec![2, 3, 2], vec![1, 4], vec![2, 3, 5]],
                vec![2, 3, 5],
            ),
            (
                Op::MixedEdge {
                    cols: [0, 1].into(),
                },
                vec![vec![2, 3, 4], vec![2, 3, 4], vec![1, 2]],
                vec![2, 3, 4],
            ),
            (
                Op::PlaceRows { sel: vec![1, 3] },
                vec![vec![2, 2, 4], vec![2, 1, 4]],
                vec![2, 5, 4],
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

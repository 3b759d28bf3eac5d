//! `Var`: a handle to one node of a [`Tape`], with the full op surface.

use crate::{Op, Tape};
use cts_tensor::{ops, Shape, Tensor};

/// A differentiable value on a [`Tape`].
///
/// Cloning is cheap (an index plus an `Rc`). All arithmetic records a new
/// node on the same tape; mixing variables from different tapes panics.
#[derive(Clone)]
pub struct Var {
    pub(crate) id: usize,
    pub(crate) tape: Tape,
}

impl Var {
    /// Copy of this node's forward value.
    pub fn value(&self) -> Tensor {
        self.tape.inner.borrow().nodes[self.id].value.clone()
    }

    /// Shape of the forward value without cloning the buffer.
    pub fn shape(&self) -> Shape {
        self.tape.inner.borrow().nodes[self.id].value.shape().into()
    }

    /// The tape this variable lives on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Stop gradients: a constant leaf holding this node's current value.
    pub fn detach(&self) -> Var {
        self.tape.constant(self.value())
    }

    fn unary(&self, op: Op, value: Tensor) -> Var {
        self.tape.push_op(op, &[self.id], value)
    }

    fn binary(&self, other: &Var, op: Op, value: Tensor) -> Var {
        assert!(
            std::rc::Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "vars from different tapes"
        );
        self.tape.push_op(op, &[self.id, other.id], value)
    }

    /// Apply `f` to the raw forward values of `self` and `other`.
    fn with_values2<R>(&self, other: &Var, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
        let inner = self.tape.inner.borrow();
        f(&inner.nodes[self.id].value, &inner.nodes[other.id].value)
    }

    /// Apply `f` to this node's forward value in place (no copy, no
    /// gradient).
    ///
    /// `f` runs while the tape is borrowed: it must not record on, or
    /// otherwise touch, the tape (any `Var` op inside `f` panics with a
    /// `BorrowMutError`). Use only raw `cts_tensor::ops` on the borrowed
    /// tensor.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        let inner = self.tape.inner.borrow();
        f(&inner.nodes[self.id].value)
    }

    // -- elementwise binary ------------------------------------------------

    /// `self + other` (broadcasting).
    pub fn add(&self, other: &Var) -> Var {
        let v = self.with_values2(other, ops::add);
        self.binary(other, Op::Add, v)
    }

    /// `self - other` (broadcasting).
    pub fn sub(&self, other: &Var) -> Var {
        let v = self.with_values2(other, ops::sub);
        self.binary(other, Op::Sub, v)
    }

    /// `self * other` (broadcasting).
    pub fn mul(&self, other: &Var) -> Var {
        let v = self.with_values2(other, ops::mul);
        self.binary(other, Op::Mul, v)
    }

    /// `self / other` (broadcasting).
    pub fn div(&self, other: &Var) -> Var {
        let v = self.with_values2(other, ops::div);
        self.binary(other, Op::Div, v)
    }

    // -- elementwise unary -------------------------------------------------

    /// Negation.
    pub fn neg(&self) -> Var {
        let v = self.with_value(ops::neg);
        self.unary(Op::Neg, v)
    }

    /// Multiply by scalar `c`.
    pub fn scale(&self, c: f32) -> Var {
        let v = self.with_value(|a| ops::scale(a, c));
        self.unary(Op::Scale(c), v)
    }

    /// Add scalar `c`.
    pub fn add_scalar(&self, c: f32) -> Var {
        let v = self.with_value(|a| ops::add_scalar(a, c));
        self.unary(Op::AddScalar(c), v)
    }

    /// ReLU.
    pub fn relu(&self) -> Var {
        let v = self.with_value(ops::relu);
        self.unary(Op::Relu, v)
    }

    /// Sigmoid.
    pub fn sigmoid(&self) -> Var {
        let v = self.with_value(ops::sigmoid);
        self.unary(Op::Sigmoid, v)
    }

    /// Tanh.
    pub fn tanh(&self) -> Var {
        let v = self.with_value(ops::tanh);
        self.unary(Op::Tanh, v)
    }

    /// Exponential.
    pub fn exp(&self) -> Var {
        let v = self.with_value(ops::exp);
        self.unary(Op::Exp, v)
    }

    /// Natural log (caller guarantees positivity; see [`Var::clamp`]).
    pub fn ln(&self) -> Var {
        let v = self.with_value(ops::ln);
        self.unary(Op::Ln, v)
    }

    /// Square root.
    pub fn sqrt(&self) -> Var {
        let v = self.with_value(ops::sqrt);
        self.unary(Op::Sqrt, v)
    }

    /// Absolute value.
    pub fn abs(&self) -> Var {
        let v = self.with_value(ops::abs);
        self.unary(Op::Abs, v)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let v = self.with_value(ops::square);
        self.unary(Op::Square, v)
    }

    /// GELU activation.
    pub fn gelu(&self) -> Var {
        let v = self.with_value(ops::gelu);
        self.unary(Op::Gelu, v)
    }

    /// Clamp into `[lo, hi]` (gradient zero outside).
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        let v = self.with_value(|a| ops::clamp(a, lo, hi));
        self.unary(Op::Clamp(lo, hi), v)
    }

    // -- softmax / matmul ----------------------------------------------------

    /// Softmax over the last axis.
    pub fn softmax_last(&self) -> Var {
        let v = self.with_value(ops::softmax_last);
        self.unary(Op::SoftmaxLast, v)
    }

    /// Temperature softmax over the last axis: `softmax(x / tau)`.
    pub fn softmax_last_with_temperature(&self, tau: f32) -> Var {
        self.scale(1.0 / tau).softmax_last()
    }

    /// Batched matrix multiplication over the trailing two dims.
    pub fn matmul(&self, other: &Var) -> Var {
        let v = self.with_values2(other, ops::matmul);
        self.binary(other, Op::MatMul, v)
    }

    // -- shape ---------------------------------------------------------------

    /// Permute dimensions.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let v = self.with_value(|a| ops::permute(a, perm));
        self.unary(Op::Permute(perm.into()), v)
    }

    /// Reshape to `shape` (same element count).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let v = self.with_value(|a| a.clone().reshaped(shape));
        self.unary(Op::Reshape, v)
    }

    /// Concatenate along `axis` (parts given as `Var`s or `&Var`s). All
    /// vars must share a tape.
    pub fn concat<P: std::borrow::Borrow<Var>>(parts: &[P], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let ids: Vec<usize> = parts.iter().map(|p| p.borrow().id).collect();
        let tape = parts[0].borrow().tape.clone();
        let value = {
            let inner = tape.inner.borrow();
            let tensors: Vec<&Tensor> = ids.iter().map(|&id| &inner.nodes[id].value).collect();
            ops::concat(&tensors, axis)
        };
        tape.push_op(Op::Concat { axis }, &ids, value)
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Var {
        let v = self.with_value(|a| ops::slice(a, axis, start, end));
        self.unary(Op::Slice { axis, start }, v)
    }

    /// Gather `indices` along `axis`.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Var {
        let v = self.with_value(|a| ops::index_select(a, axis, indices));
        self.unary(
            Op::IndexSelect {
                axis,
                indices: indices.to_vec(),
            },
            v,
        )
    }

    /// Zero-pad along `axis`.
    pub fn pad_axis(&self, axis: usize, before: usize, after: usize) -> Var {
        let v = self.with_value(|a| ops::pad_axis(a, axis, before, after));
        self.unary(
            Op::PadAxis {
                axis,
                before,
                after,
            },
            v,
        )
    }

    // -- reductions ------------------------------------------------------------

    /// Sum over `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Var {
        let v = self.with_value(|a| ops::sum_axis(a, axis, keepdim));
        self.unary(Op::SumAxis { axis, keepdim }, v)
    }

    /// Mean over `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Var {
        let v = self.with_value(|a| ops::mean_axis(a, axis, keepdim));
        self.unary(Op::MeanAxis { axis, keepdim }, v)
    }

    /// Sum of all elements (shape `[1]`).
    pub fn sum_all(&self) -> Var {
        let v = self.with_value(ops::sum_all);
        self.unary(Op::SumAll, v)
    }

    /// Mean of all elements (shape `[1]`).
    pub fn mean_all(&self) -> Var {
        let v = self.with_value(ops::mean_all);
        self.unary(Op::MeanAll, v)
    }

    // -- convolution ----------------------------------------------------------

    /// Dilated causal temporal convolution; `self` is `[B,N,T,Din]`, the
    /// kernel is `[K,Din,Dout]`.
    pub fn temporal_conv(&self, kernel: &Var, dilation: usize) -> Var {
        let v = self.with_values2(kernel, |x, w| ops::temporal_conv(x, w, dilation));
        self.binary(kernel, Op::TemporalConv { dilation }, v)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $fn:ident, $method:ident) => {
        impl std::ops::$trait for &Var {
            type Output = Var;
            fn $fn(self, rhs: &Var) -> Var {
                self.$method(rhs)
            }
        }
        impl std::ops::$trait for Var {
            type Output = Var;
            fn $fn(self, rhs: Var) -> Var {
                Var::$method(&self, &rhs)
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mul);
impl_binop!(Div, div, div);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Parameter;

    #[test]
    fn operator_overloads() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::scalar(4.0));
        let b = tape.constant(Tensor::scalar(2.0));
        assert_eq!((&a + &b).value().item(), 6.0);
        assert_eq!((&a - &b).value().item(), 2.0);
        assert_eq!((&a * &b).value().item(), 8.0);
        assert_eq!((&a / &b).value().item(), 2.0);
    }

    #[test]
    fn chained_shape_ops_grad() {
        // sum(permute(reshape(x))) == sum(x); gradient should be all ones.
        let p = Parameter::new(
            "x",
            Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect::<Vec<_>>()),
        );
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.reshape(&[3, 2]).permute(&[1, 0]).sum_all();
        tape.backward(&y);
        assert_eq!(p.grad().data(), &[1.0; 6]);
        assert_eq!(y.value().item(), 15.0);
    }

    #[test]
    fn concat_routes_gradients() {
        let p = Parameter::new("a", Tensor::from_vec([1, 2], vec![1.0, 2.0]));
        let q = Parameter::new("b", Tensor::from_vec([1, 3], vec![3.0, 4.0, 5.0]));
        let tape = Tape::new();
        let a = tape.param(&p);
        let b = tape.param(&q);
        let c = Var::concat(&[a, b], 1);
        // weight the concat so the two parts get distinct grads
        let w = tape.constant(Tensor::from_vec([1, 5], vec![1.0, 1.0, 2.0, 2.0, 2.0]));
        let y = c.mul(&w).sum_all();
        tape.backward(&y);
        assert_eq!(p.grad().data(), &[1.0, 1.0]);
        assert_eq!(q.grad().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let p = Parameter::new("x", Tensor::scalar(3.0));
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.detach().mul(&x); // d/dx = detached value = 3
        tape.backward(&y);
        assert_eq!(p.grad().item(), 3.0);
    }

    #[test]
    fn temperature_softmax_sharpens() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]));
        let soft = x.softmax_last_with_temperature(5.0).value();
        let sharp = x.softmax_last_with_temperature(0.1).value();
        assert!(sharp.data()[2] > soft.data()[2]);
        assert!(sharp.data()[2] > 0.99);
    }

    #[test]
    fn softmax_temperature_gradients_flow() {
        let p = Parameter::new("alpha", Tensor::from_vec([1, 3], vec![0.1, 0.2, 0.3]));
        let tape = Tape::new();
        let a = tape.param(&p);
        let w = tape.constant(Tensor::from_vec([1, 3], vec![1.0, 0.0, 0.0]));
        let y = a.softmax_last_with_temperature(0.5).mul(&w).sum_all();
        tape.backward(&y);
        let g = p.grad();
        assert!(g.data()[0] > 0.0); // raising alpha_0 raises its prob
        assert!(g.data()[1] < 0.0 && g.data()[2] < 0.0);
    }
}

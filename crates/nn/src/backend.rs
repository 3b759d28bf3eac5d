//! One forward, three executions: the [`Backend`] trait.
//!
//! Every layer in this crate (and every operator in `cts-ops`) writes its
//! forward once, as `forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V`.
//! Run on a [`Tape`], each op records a node for the backward pass; run on
//! [`Eval`], each op calls the `cts_tensor::ops` kernel directly; run on
//! [`crate::Price`], each op adds that kernel's metered cost to a running
//! total. The tape and `Eval` invoke the same kernel for every op, so a
//! compiled inference plan and the tape forward are bit-identical by
//! construction, and the price of a forward is the forward itself rather
//! than a hand-written replay of it.

use crate::attention::top_queries;
use cts_autograd::{Parameter, Tape, Var};
use cts_tensor::{ops, Shape, Tensor};
use std::cell::Ref;
use std::cmp::Ordering;
use std::ops::Deref;

/// An execution strategy for a generic forward: the value type it flows
/// and one method per kernel the layers use.
///
/// Methods take operands by reference and return a fresh value, except
/// [`Backend::reshape`], which consumes its operand so the tape-free path
/// reinterprets the buffer in place (the tape records a copy either way).
pub trait Backend {
    /// An activation: a tape [`Var`] or a plain [`Tensor`].
    type V: Clone;
    /// A weight as the backend reads it: copied onto the tape, or borrowed
    /// in place so weight updates flow through without a copy.
    type Param<'a>: Deref<Target = Self::V>;
    /// A fixed tensor (e.g. a graph support) as the backend reads it.
    type Const<'a>: Deref<Target = Self::V>;

    /// Read a trainable weight.
    fn param<'a>(&self, p: &'a Parameter) -> Self::Param<'a>;
    /// Read a fixed tensor without taking ownership.
    fn lend<'a>(&self, t: &'a Tensor) -> Self::Const<'a>;
    /// A fixed tensor known only by its shape, as a backend that never
    /// reads values ([`crate::Price`]) can lend one; `None` on backends
    /// that compute.
    fn lend_shape<'a>(&self, _shape: &[usize]) -> Option<Self::Const<'a>> {
        None
    }
    /// Take ownership of a fixed tensor built by the caller.
    fn constant(&self, t: Tensor) -> Self::V;
    /// Shape of a value.
    fn shape(&self, x: &Self::V) -> Shape;
    /// Pick the `u` most active queries of ProbSparse attention into `sel`
    /// (sorted ascending; `idx` is scratch), by the max-mean measurement of
    /// `q·kᵀ` on the raw values: nothing is recorded and no gradient flows.
    fn top_queries(
        &self,
        q: &Self::V,
        k: &Self::V,
        u: usize,
        idx: &mut Vec<usize>,
        sel: &mut Vec<usize>,
    );

    /// `a + b` (broadcasting).
    fn add(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `a - b` (broadcasting).
    fn sub(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `a * b` (broadcasting).
    fn mul(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `a / b` (broadcasting).
    fn div(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Batched matrix multiplication over the trailing two dims.
    fn matmul(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Batched `a · bᵀ` over the trailing two dims.
    fn matmul_nt(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Layer normalisation over the last axis with affine `gamma`, `beta`
    /// (both `[d]`), as one kernel (`cts_tensor::ops::layer_norm`).
    fn layer_norm(&self, x: &Self::V, gamma: &Self::V, beta: &Self::V, eps: f32) -> Self::V;
    /// Negation.
    fn neg(&self, x: &Self::V) -> Self::V;
    /// ReLU.
    fn relu(&self, x: &Self::V) -> Self::V;
    /// Sigmoid.
    fn sigmoid(&self, x: &Self::V) -> Self::V;
    /// Tanh.
    fn tanh(&self, x: &Self::V) -> Self::V;
    /// Square root.
    fn sqrt(&self, x: &Self::V) -> Self::V;
    /// Elementwise square.
    fn square(&self, x: &Self::V) -> Self::V;
    /// Softmax over the last axis.
    fn softmax_last(&self, x: &Self::V) -> Self::V;
    /// Multiply by scalar `c`.
    fn scale(&self, x: &Self::V, c: f32) -> Self::V;
    /// Add scalar `c`.
    fn add_scalar(&self, x: &Self::V, c: f32) -> Self::V;
    /// Mean over `axis`.
    fn mean_axis(&self, x: &Self::V, axis: usize, keepdim: bool) -> Self::V;
    /// Dilated causal temporal convolution of `[B,N,T,Din]` by `[K,Din,Dout]`.
    fn temporal_conv(&self, x: &Self::V, w: &Self::V, dilation: usize) -> Self::V;
    /// Permute dimensions.
    fn permute(&self, x: &Self::V, perm: &[usize]) -> Self::V;
    /// Reshape to `shape` (same element count).
    fn reshape(&self, x: Self::V, shape: &[usize]) -> Self::V;
    /// Slice `[start, end)` along `axis`.
    fn slice(&self, x: &Self::V, axis: usize, start: usize, end: usize) -> Self::V;
    /// Gather `indices` along `axis`.
    fn index_select(&self, x: &Self::V, axis: usize, indices: &[usize]) -> Self::V;
    /// Concatenate along `axis`.
    fn concat(&self, parts: &[&Self::V], axis: usize) -> Self::V;
    /// ProbSparse's output rows (`cts_tensor::ops::place_rows`): `attn`
    /// (`[B', u, D]`) at the ascending rows `sel` of `0..len`, and `mean`
    /// (`[B', 1, D]`) times one on every other row.
    fn place_rows(&self, attn: &Self::V, mean: &Self::V, sel: &[usize], len: usize) -> Self::V;
}

/// The two ops ProbSparse's query measurement needs beyond [`Backend`]'s,
/// on the backends whose values are raw ([`Eval`], which the tape also
/// uses on its raw values, and [`crate::Price`]'s shapes), so that the
/// measurement is written once for both.
pub(crate) trait Kernels: Backend {
    /// Maximum over `axis`, which is dropped.
    fn max_axis(&self, x: &Self::V, axis: usize) -> Self::V;
    /// The `u` indices of the largest entries of the 1-D `score` into
    /// `sel`, sorted ascending (`idx` is scratch).
    fn top_u(&self, score: &Self::V, u: usize, idx: &mut Vec<usize>, sel: &mut Vec<usize>);
}

/// The order [`Kernels::top_u`] ranks scores in: descending, NaN last. A
/// total order, so the sort cannot panic on a NaN score; among non-NaN
/// scores it is the `partial_cmp` order (equal zeros tie, and ties keep
/// their index order in the stable sort).
fn score_order(a: f32, b: f32) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then(if a > b {
        Ordering::Less
    } else if a < b {
        Ordering::Greater
    } else {
        Ordering::Equal
    })
}

/// The tape-free backend: every op is the `cts_tensor::ops` kernel itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct Eval;

/// A value a backend made for a weight or fixed tensor: a tape leaf, or a
/// priced shape ([`Backend::Param`] / [`Backend::Const`]).
pub struct Leaf<V>(pub(crate) V);

impl<V> Deref for Leaf<V> {
    type Target = V;
    fn deref(&self) -> &V {
        &self.0
    }
}

/// Forward each listed op to the same-named `Var` method.
macro_rules! tape_ops {
    (unary: $($u:ident)*; binary: $($b:ident)*) => {
        $(fn $u(&self, x: &Var) -> Var { x.$u() })*
        $(fn $b(&self, a: &Var, b: &Var) -> Var { a.$b(b) })*
    };
}

/// Forward each listed op to the same-named `cts_tensor::ops` kernel.
macro_rules! eval_ops {
    (unary: $($u:ident)*; binary: $($b:ident)*) => {
        $(fn $u(&self, x: &Tensor) -> Tensor { ops::$u(x) })*
        $(fn $b(&self, a: &Tensor, b: &Tensor) -> Tensor { ops::$b(a, b) })*
    };
}

impl Backend for Tape {
    type V = Var;
    type Param<'a> = Leaf<Var>;
    type Const<'a> = Leaf<Var>;

    fn param(&self, p: &Parameter) -> Leaf<Var> {
        Leaf(Tape::param(self, p))
    }

    fn lend(&self, t: &Tensor) -> Leaf<Var> {
        Leaf(Tape::constant(self, t.clone()))
    }

    fn constant(&self, t: Tensor) -> Var {
        Tape::constant(self, t)
    }

    fn shape(&self, x: &Var) -> Shape {
        x.shape()
    }

    fn top_queries(&self, q: &Var, k: &Var, u: usize, idx: &mut Vec<usize>, sel: &mut Vec<usize>) {
        q.with_value(|q| k.with_value(|k| top_queries(&Eval, q, k, u, idx, sel)));
    }

    tape_ops! {
        unary: neg relu sigmoid tanh sqrt square softmax_last;
        binary: add sub mul div matmul matmul_nt
    }

    fn layer_norm(&self, x: &Var, gamma: &Var, beta: &Var, eps: f32) -> Var {
        x.layer_norm(gamma, beta, eps)
    }

    fn scale(&self, x: &Var, c: f32) -> Var {
        x.scale(c)
    }

    fn add_scalar(&self, x: &Var, c: f32) -> Var {
        x.add_scalar(c)
    }

    fn mean_axis(&self, x: &Var, axis: usize, keepdim: bool) -> Var {
        x.mean_axis(axis, keepdim)
    }

    fn temporal_conv(&self, x: &Var, w: &Var, dilation: usize) -> Var {
        x.temporal_conv(w, dilation)
    }

    fn permute(&self, x: &Var, perm: &[usize]) -> Var {
        x.permute(perm)
    }

    fn reshape(&self, x: Var, shape: &[usize]) -> Var {
        x.reshape(shape)
    }

    fn slice(&self, x: &Var, axis: usize, start: usize, end: usize) -> Var {
        x.slice(axis, start, end)
    }

    fn index_select(&self, x: &Var, axis: usize, indices: &[usize]) -> Var {
        x.index_select(axis, indices)
    }

    fn concat(&self, parts: &[&Var], axis: usize) -> Var {
        Var::concat(parts, axis)
    }

    fn place_rows(&self, attn: &Var, mean: &Var, sel: &[usize], len: usize) -> Var {
        attn.place_rows(mean, sel, len)
    }
}

impl Backend for Eval {
    type V = Tensor;
    type Param<'a> = Ref<'a, Tensor>;
    type Const<'a> = &'a Tensor;

    fn param<'a>(&self, p: &'a Parameter) -> Ref<'a, Tensor> {
        p.value()
    }

    fn lend<'a>(&self, t: &'a Tensor) -> &'a Tensor {
        t
    }

    fn constant(&self, t: Tensor) -> Tensor {
        t
    }

    fn shape(&self, x: &Tensor) -> Shape {
        Shape::from_slice(x.shape())
    }

    fn top_queries(
        &self,
        q: &Tensor,
        k: &Tensor,
        u: usize,
        idx: &mut Vec<usize>,
        sel: &mut Vec<usize>,
    ) {
        top_queries(self, q, k, u, idx, sel);
    }

    eval_ops! {
        unary: neg relu sigmoid tanh sqrt square softmax_last;
        binary: add sub mul div matmul matmul_nt
    }

    fn layer_norm(&self, x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        ops::layer_norm(x, gamma, beta, eps)
    }

    fn scale(&self, x: &Tensor, c: f32) -> Tensor {
        ops::scale(x, c)
    }

    fn add_scalar(&self, x: &Tensor, c: f32) -> Tensor {
        ops::add_scalar(x, c)
    }

    fn mean_axis(&self, x: &Tensor, axis: usize, keepdim: bool) -> Tensor {
        ops::mean_axis(x, axis, keepdim)
    }

    fn temporal_conv(&self, x: &Tensor, w: &Tensor, dilation: usize) -> Tensor {
        ops::temporal_conv(x, w, dilation)
    }

    fn permute(&self, x: &Tensor, perm: &[usize]) -> Tensor {
        ops::permute(x, perm)
    }

    fn reshape(&self, x: Tensor, shape: &[usize]) -> Tensor {
        x.reshaped(shape)
    }

    fn slice(&self, x: &Tensor, axis: usize, start: usize, end: usize) -> Tensor {
        ops::slice(x, axis, start, end)
    }

    fn index_select(&self, x: &Tensor, axis: usize, indices: &[usize]) -> Tensor {
        ops::index_select(x, axis, indices)
    }

    fn concat(&self, parts: &[&Tensor], axis: usize) -> Tensor {
        ops::concat(parts, axis)
    }

    fn place_rows(&self, attn: &Tensor, mean: &Tensor, sel: &[usize], len: usize) -> Tensor {
        ops::place_rows(attn, mean, sel, len)
    }
}

impl Kernels for Eval {
    fn max_axis(&self, x: &Tensor, axis: usize) -> Tensor {
        ops::max_axis(x, axis, false)
    }

    fn top_u(&self, score: &Tensor, u: usize, idx: &mut Vec<usize>, sel: &mut Vec<usize>) {
        let s = score.data();
        idx.clear();
        idx.extend(0..s.len());
        idx.sort_by(|&a, &b| score_order(s[a], s[b]));
        sel.clear();
        sel.extend_from_slice(&idx[..u]);
        sel.sort_unstable();
    }
}

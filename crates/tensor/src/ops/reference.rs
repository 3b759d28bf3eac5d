//! Naive serial reference kernels — the oracle the optimized, parallel
//! kernels are tested (and benchmarked) against.
//!
//! Everything here is deliberately the simplest correct implementation:
//! plain loops, per-element broadcast index math, no blocking, no threads.
//! These closely match the seed repository's original serial kernels (minus
//! the `a == 0.0` skip that masked NaN/∞ — see `ops::matmul`), so they also
//! serve as the "serial baseline" side of the serial-vs-parallel benches.

use crate::shape::{broadcast_shapes, numel, ravel_broadcast, strides_for, unravel};
use crate::simd::exp_pinned;
use crate::Tensor;

/// Naive batched matmul: `[..., m, k] × [..., k, n]` with batch broadcasting.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(a.rank() >= 2 && b.rank() >= 2, "matmul needs rank >= 2");
    let (m, k) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
    let (kb, n) = (b.shape()[b.rank() - 2], b.shape()[b.rank() - 1]);
    assert_eq!(
        k,
        kb,
        "matmul inner dims: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let a_batch = &a.shape()[..a.rank() - 2];
    let b_batch = &b.shape()[..b.rank() - 2];
    let batch_shape = broadcast_shapes(a_batch, b_batch)
        .unwrap_or_else(|| panic!("matmul batch broadcast {:?} x {:?}", a.shape(), b.shape()));
    let batch = numel(&batch_shape);
    let mut out_shape = batch_shape.clone();
    out_shape.push(m);
    out_shape.push(n);
    let mut out = vec![0.0f32; batch * m * n];
    let (ad, bd) = (a.data(), b.data());
    for bi in 0..batch {
        let coords = unravel(bi, &batch_shape);
        let a_off = ravel_broadcast(&coords, a_batch) * m * k;
        let b_off = ravel_broadcast(&coords, b_batch) * k * n;
        let o_off = bi * m * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += ad[a_off + i * k + kk] * bd[b_off + kk * n + j];
                }
                out[o_off + i * n + j] = acc;
            }
        }
    }
    Tensor::from_vec(out_shape, out)
}

/// Naive elementwise binary op with NumPy broadcasting.
pub fn zip_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out_shape = broadcast_shapes(a.shape(), b.shape())
        .unwrap_or_else(|| panic!("broadcast mismatch {:?} vs {:?}", a.shape(), b.shape()));
    let n = numel(&out_shape);
    let mut data = Vec::with_capacity(n);
    for flat in 0..n {
        let coords = unravel(flat, &out_shape);
        let x = a.data()[ravel_broadcast(&coords, a.shape())];
        let y = b.data()[ravel_broadcast(&coords, b.shape())];
        data.push(f(x, y));
    }
    Tensor::from_vec(out_shape, data)
}

/// Naive `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x + y)
}

/// Naive `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x * y)
}

/// Naive softmax over the last axis, on the crate's pinned `exp`.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let n = a.shape()[a.rank() - 1];
    let rows = a.len() / n.max(1);
    let mut out = vec![0.0f32; a.len()];
    for row in 0..rows {
        let s = &a.data()[row * n..(row + 1) * n];
        let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &x) in out[row * n..(row + 1) * n].iter_mut().zip(s.iter()) {
            let e = exp_pinned(x - m);
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in &mut out[row * n..(row + 1) * n] {
            *o *= inv;
        }
    }
    Tensor::from_vec(a.shape().to_vec(), out)
}

/// Naive sum over one axis.
pub fn sum_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    let outer: usize = a.shape()[..axis].iter().product();
    let len = a.shape()[axis];
    let inner: usize = a.shape()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for l in 0..len {
            for i in 0..inner {
                out[o * inner + i] += a.data()[(o * len + l) * inner + i];
            }
        }
    }
    let mut shape = a.shape().to_vec();
    if keepdim {
        shape[axis] = 1;
    } else {
        shape.remove(axis);
    }
    if shape.is_empty() {
        shape.push(1);
    }
    Tensor::from_vec(shape, out)
}

/// Naive reduce of a broadcast-output-shaped gradient back to
/// `target_shape`: the seed's serial scatter-add, one pass over `grad` in
/// flat order. Oracle for the parallel gather in
/// `ops::elementwise::reduce_to_shape`, which must match it bit-for-bit.
pub fn reduce_to_shape(grad: &Tensor, target_shape: &[usize]) -> Tensor {
    if grad.shape() == target_shape {
        return grad.clone();
    }
    let mut out = Tensor::zeros(target_shape.to_vec());
    let gshape = grad.shape().to_vec();
    // Strides of the target viewed in grad space (0 on broadcast axes).
    let mut t_str = vec![0usize; gshape.len()];
    let offset = gshape.len() - target_shape.len();
    let real = strides_for(target_shape);
    for (i, (&dim, &stride)) in target_shape.iter().zip(real.iter()).enumerate() {
        t_str[offset + i] = if dim == 1 { 0 } else { stride };
    }
    let mut coords = vec![0usize; gshape.len()];
    let mut idx = 0usize;
    for flat in 0..grad.len() {
        out.data_mut()[idx] += grad.data()[flat];
        if flat + 1 == grad.len() {
            break;
        }
        for d in (0..gshape.len()).rev() {
            coords[d] += 1;
            idx += t_str[d];
            if coords[d] < gshape[d] {
                break;
            }
            coords[d] = 0;
            idx -= t_str[d] * gshape[d];
        }
    }
    out
}

/// Naive transpose of the last two dims.
pub fn transpose_last2(a: &Tensor) -> Tensor {
    let r = a.rank();
    let (m, n) = (a.shape()[r - 2], a.shape()[r - 1]);
    let batch: usize = a.shape()[..r - 2].iter().product();
    let mut out_shape = a.shape().to_vec();
    out_shape[r - 2] = n;
    out_shape[r - 1] = m;
    let mut out = vec![0.0f32; a.len()];
    for b in 0..batch {
        let off = b * m * n;
        for i in 0..m {
            for j in 0..n {
                out[off + j * m + i] = a.data()[off + i * n + j];
            }
        }
    }
    Tensor::from_vec(out_shape, out)
}

/// Naive dilated causal temporal conv, `x: [B, N, T, Din]` with
/// `w: [K, Din, Dout]` (tap `K-1` reads the current step). Each output
/// element sums taps in ascending order, input channels ascending within
/// a tap, from a zero start.
pub fn temporal_conv(x: &Tensor, w: &Tensor, dilation: usize) -> Tensor {
    let (xs, ws) = (x.shape(), w.shape());
    let (series, t, din) = (xs[0] * xs[1], xs[2], xs[3]);
    let (k, dout) = (ws[0], ws[2]);
    assert_eq!(ws[1], din, "temporal_conv channel mismatch");
    let (xd, wd) = (x.data(), w.data());
    let mut out = vec![0.0f32; series * t * dout];
    for s in 0..series {
        for ti in 0..t {
            for j in 0..dout {
                let mut acc = 0.0f32;
                for ki in 0..k {
                    let lag = (k - 1 - ki) * dilation;
                    if lag > ti {
                        continue;
                    }
                    for i in 0..din {
                        acc += xd[(s * t + ti - lag) * din + i] * wd[(ki * din + i) * dout + j];
                    }
                }
                out[(s * t + ti) * dout + j] = acc;
            }
        }
    }
    Tensor::from_vec([xs[0], xs[1], t, dout], out)
}

/// Naive ∂temporal_conv/∂x: per series, steps `t` ascending, then taps
/// ascending, each tap adds one fresh ascending-`Dout` dot product (from
/// `+0.0`) into the input row it read, on a zeroed gradient. So each
/// input element sums its taps in descending tap order.
pub fn temporal_conv_grad_x(
    grad: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    dilation: usize,
) -> Tensor {
    let (series, t, din) = (x_shape[0] * x_shape[1], x_shape[2], x_shape[3]);
    let (k, dout) = (w.shape()[0], w.shape()[2]);
    let (gd, wd) = (grad.data(), w.data());
    let mut gx = vec![0.0f32; series * t * din];
    for s in 0..series {
        let xser = &mut gx[s * t * din..(s + 1) * t * din];
        let g_off = s * t * dout;
        for ti in 0..t {
            let grow = &gd[g_off + ti * dout..g_off + (ti + 1) * dout];
            for ki in 0..k {
                let lag = (k - 1 - ki) * dilation;
                if lag > ti {
                    continue;
                }
                let src = ti - lag;
                let xrow = &mut xser[src * din..(src + 1) * din];
                let wmat = &wd[ki * din * dout..(ki + 1) * din * dout];
                for (i, xg) in xrow.iter_mut().enumerate() {
                    let wrow = &wmat[i * dout..(i + 1) * dout];
                    let mut acc = 0.0f32;
                    for (gv, wv) in grow.iter().zip(wrow.iter()) {
                        acc += gv * wv;
                    }
                    *xg += acc;
                }
            }
        }
    }
    Tensor::from_vec(x_shape, gx)
}

/// Naive ∂temporal_conv/∂w: each weight element sums over series
/// ascending, then steps `t ≥ lag` ascending, from a zero start — the
/// order of the optimized kernel on one worker.
pub fn temporal_conv_grad_w(
    grad: &Tensor,
    x: &Tensor,
    w_shape: &[usize],
    dilation: usize,
) -> Tensor {
    let xs = x.shape();
    let (series, t, din) = (xs[0] * xs[1], xs[2], xs[3]);
    let (k, dout) = (w_shape[0], w_shape[2]);
    let (gd, xd) = (grad.data(), x.data());
    let mut gw = vec![0.0f32; k * din * dout];
    for ki in 0..k {
        let lag = (k - 1 - ki) * dilation;
        for i in 0..din {
            for j in 0..dout {
                let mut acc = 0.0f32;
                for s in 0..series {
                    for ti in lag..t {
                        acc += xd[(s * t + ti - lag) * din + i] * gd[(s * t + ti) * dout + j];
                    }
                }
                gw[(ki * din + i) * dout + j] = acc;
            }
        }
    }
    Tensor::from_vec(w_shape, gw)
}

/// Naive permute: every output coordinate unravelled, mapped through
/// `perm` and ravelled into the input (`perm[i]` is the source axis of
/// output axis `i`).
pub fn permute(a: &Tensor, perm: &[usize]) -> Tensor {
    assert_eq!(perm.len(), a.rank(), "permute rank mismatch");
    let out_shape: Vec<usize> = perm.iter().map(|&p| a.shape()[p]).collect();
    let in_strides = strides_for(a.shape());
    let out: Vec<f32> = (0..a.len())
        .map(|flat| {
            let coords = unravel(flat, &out_shape);
            let src: usize = coords
                .iter()
                .zip(perm)
                .map(|(&c, &p)| c * in_strides[p])
                .sum();
            a.data()[src]
        })
        .collect();
    Tensor::from_vec(out_shape, out)
}

/// Naive max over one axis: each output folds its `len` inputs in
/// ascending order from `-∞`, keeping a value only when `v > acc` (so NaN
/// never enters, and the first of two equal zeros wins).
pub fn max_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    let outer: usize = a.shape()[..axis].iter().product();
    let len = a.shape()[axis];
    let inner: usize = a.shape()[axis + 1..].iter().product();
    let mut out = vec![f32::NEG_INFINITY; outer * inner];
    for o in 0..outer {
        for l in 0..len {
            for i in 0..inner {
                let v = a.data()[(o * len + l) * inner + i];
                if v > out[o * inner + i] {
                    out[o * inner + i] = v;
                }
            }
        }
    }
    let mut shape = a.shape().to_vec();
    if keepdim {
        shape[axis] = 1;
    } else {
        shape.remove(axis);
    }
    if shape.is_empty() {
        shape.push(1);
    }
    Tensor::from_vec(shape, out)
}

/// Naive ∂sum_axis/∂a: every input element takes the gradient of the
/// output it was summed into.
pub fn sum_axis_grad(grad: &Tensor, a_shape: &[usize], axis: usize) -> Tensor {
    let outer: usize = a_shape[..axis].iter().product();
    let len = a_shape[axis];
    let inner: usize = a_shape[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * len * inner];
    for o in 0..outer {
        for l in 0..len {
            for i in 0..inner {
                out[(o * len + l) * inner + i] = grad.data()[o * inner + i];
            }
        }
    }
    Tensor::from_vec(a_shape.to_vec(), out)
}

/// Naive concatenation along `axis`: every output coordinate finds the
/// part whose slab of `axis` holds it.
pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
    let mut out_shape = parts[0].shape().to_vec();
    out_shape[axis] = parts.iter().map(|p| p.shape()[axis]).sum();
    let out: Vec<f32> = (0..numel(&out_shape))
        .map(|flat| {
            let mut coords = unravel(flat, &out_shape);
            let mut part = 0;
            while coords[axis] >= parts[part].shape()[axis] {
                coords[axis] -= parts[part].shape()[axis];
                part += 1;
            }
            parts[part].data()[ravel_broadcast(&coords, parts[part].shape())]
        })
        .collect();
    Tensor::from_vec(out_shape, out)
}

/// Naive slice `[start, end)` along `axis`.
pub fn slice(a: &Tensor, axis: usize, start: usize, end: usize) -> Tensor {
    index_select(a, axis, &(start..end).collect::<Vec<_>>())
}

/// Naive gather of `indices` along `axis`.
pub fn index_select(a: &Tensor, axis: usize, indices: &[usize]) -> Tensor {
    let mut out_shape = a.shape().to_vec();
    out_shape[axis] = indices.len();
    let out: Vec<f32> = (0..numel(&out_shape))
        .map(|flat| {
            let mut coords = unravel(flat, &out_shape);
            coords[axis] = indices[coords[axis]];
            a.data()[ravel_broadcast(&coords, a.shape())]
        })
        .collect();
    Tensor::from_vec(out_shape, out)
}

/// Naive stack along a new leading axis.
pub fn stack(parts: &[&Tensor]) -> Tensor {
    let mut out_shape = vec![parts.len()];
    out_shape.extend_from_slice(parts[0].shape());
    let out: Vec<f32> = parts
        .iter()
        .flat_map(|p| p.data().iter().copied())
        .collect();
    Tensor::from_vec(out_shape, out)
}

/// LayerNorm over the last axis as the chain of kernels the fused
/// `ops::layer_norm` replaced: `mean_axis → sub → square → mean_axis →
/// add_scalar → sqrt → div → mul(γ) → add(β)`. The oracle whose bits the
/// fused forward must give.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let (c, sd) = layer_norm_centred(x, eps);
    super::add(&super::mul(&super::div(&c, &sd), gamma), beta)
}

/// `x − mean` and `√(var + eps)` of [`layer_norm`]'s chain.
fn layer_norm_centred(x: &Tensor, eps: f32) -> (Tensor, Tensor) {
    let axis = x.rank() - 1;
    let c = super::sub(x, &super::mean_axis(x, axis, true));
    let var = super::mean_axis(&super::square(&c), axis, true);
    (c, super::sqrt(&super::add_scalar(&var, eps)))
}

/// `[∂x, ∂γ, ∂β]` of [`layer_norm`]'s chain as a tape sweep computes them:
/// node by node from the output back, each with the gradient kernels of
/// `Op::backward`, and two paths into one value summed with `axpy` in the
/// sweep's order (the division's gradient into `c` first, then the
/// square's; the subtraction's into `x` first, then the mean's). Each
/// slot only where `needs` (`[x, γ, β]`) asks, as the tape skips the rest.
pub fn layer_norm_grad(
    grad: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    needs: [bool; 3],
) -> [Option<Tensor>; 3] {
    let axis = x.rank() - 1;
    let (c, sd) = layer_norm_centred(x, eps);
    let n = super::div(&c, &sd);
    let gbeta = needs[2].then(|| super::reduce_to_shape(grad, gamma.shape()));
    let ggamma = needs[1].then(|| super::mul_grad(grad, &n, gamma.shape()));
    if !needs[0] {
        return [None, ggamma, gbeta];
    }
    let gn = super::mul_grad(grad, gamma, x.shape());
    let mut gc = super::div_grad_a(&gn, &sd, c.shape());
    let gsd = super::div_grad_b(&gn, &c, &sd);
    // `mean_axis_grad` reads the kept-axis gradient's buffer as is.
    let gvar = super::sqrt_grad(&gsd, &sd);
    gc.axpy(
        1.0,
        &super::square_grad(&super::mean_axis_grad(&gvar, c.shape(), axis), &c),
    );
    let gmean = super::reduce_owned(super::neg(&gc), sd.shape());
    let mut gx = gc;
    gx.axpy(1.0, &super::mean_axis_grad(&gmean, x.shape(), axis));
    [Some(gx), ggamma, gbeta]
}

/// The weights the chain reads: each column `cols[o]` of the `[1, K]`
/// softmax row `slice`d out and reshaped to `[1]`.
fn row_weights(row: &Tensor, cols: &[usize]) -> Vec<Tensor> {
    let w = |c| super::slice(row, 1, c, c + 1).reshaped(&[1][..]);
    cols.iter().map(|&c| w(c)).collect()
}

/// The mixture as the chain of kernels the fused `ops::mixed_edge`
/// replaced: each term `mul`'d by its weight sliced out of `row`, the
/// products `add`ed in term order, and with a bypass input `h` its
/// channels `h[.., d_op..d]` `slice`d off and `concat`ed in front.
pub fn mixed_edge(ys: &[&Tensor], row: &Tensor, cols: &[usize], h: Option<&Tensor>) -> Tensor {
    let ws = row_weights(row, cols);
    let mut mix = super::mul(ys[0], &ws[0]);
    for (y, w) in ys[1..].iter().zip(&ws[1..]) {
        mix = super::add(&mix, &super::mul(y, w));
    }
    match h {
        Some(h) => {
            let axis = h.rank() - 1;
            let d_op = ys[0].shape()[axis];
            let bypass = super::slice(h, axis, d_op, h.shape()[axis]);
            super::concat(&[&bypass, &mix], axis)
        }
        None => mix,
    }
}

/// `[∂y_1..∂y_k, ∂row, ∂h]` of [`mixed_edge`]'s chain as a tape sweep
/// computes them: the `concat` re-slices the gradient, the `add`s pass it
/// on, each `mul` gives `mul_grad` to both sides, each weight's `slice`
/// scatters it into a zero row, summed last term first, and so does the
/// bypass `slice`. Each slot only where `needs` asks; `∂h` only with a
/// bypass input of shape `h_shape`.
pub fn mixed_edge_grad(
    grad: &Tensor,
    ys: &[&Tensor],
    row: &Tensor,
    cols: &[usize],
    h_shape: Option<&[usize]>,
    needs: &[bool],
) -> Vec<Option<Tensor>> {
    let k = ys.len();
    let axis = grad.rank() - 1;
    let d_op = ys[0].shape()[axis];
    let nb = grad.shape()[axis] - d_op;
    let g_mix = super::slice(grad, axis, nb, nb + d_op);
    let mut out: Vec<Option<Tensor>> = Vec::with_capacity(needs.len());
    for (o, (y, w)) in ys.iter().zip(row_weights(row, cols)).enumerate() {
        out.push(needs[o].then(|| super::mul_grad(&g_mix, &w, y.shape())));
    }
    out.push(needs[k].then(|| {
        let mut rows = ys.iter().zip(cols).rev().map(|(y, &c)| {
            let gw = super::mul_grad(&g_mix, y, &[1]).reshaped(&[1, 1][..]);
            super::slice_grad(&gw, row.shape(), 1, c)
        });
        // invariant: a mixture has at least one term.
        let mut sum = rows.next().expect("k >= 1");
        rows.for_each(|g| sum.axpy(1.0, &g));
        sum
    }));
    if let Some(h) = h_shape {
        out.push(needs[k + 1].then(|| {
            let bypass = super::slice(grad, axis, 0, nb);
            super::slice_grad(&bypass, h, axis, d_op)
        }));
    }
    out
}

/// The lazy rows of a ProbSparse placement and the inverse gather that
/// puts `[selected; lazy]` rows back in order.
fn placement(sel: &[usize], l: usize) -> (Vec<usize>, Vec<usize>) {
    let lazy: Vec<usize> = (0..l).filter(|r| !sel.contains(r)).collect();
    let mut inv = vec![0; l];
    for (pos, &orig) in sel.iter().chain(&lazy).enumerate() {
        inv[orig] = pos;
    }
    (lazy, inv)
}

/// ProbSparse's row placement as the chain the fused `ops::place_rows`
/// replaced: `v_rep = mean · ones([1, L − u, 1])`, `concat([attn; v_rep])`
/// along the rows, then an inverse `index_select` into original order.
pub fn place_rows(attn: &Tensor, mean: &Tensor, sel: &[usize], l: usize) -> Tensor {
    let (lazy, inv) = placement(sel, l);
    let v_rep = super::mul(mean, &Tensor::ones([1, lazy.len(), 1]));
    super::index_select(&super::concat(&[attn, &v_rep], 1), 1, &inv)
}

/// `[∂attn, ∂mean]` of [`place_rows`]' chain as a tape sweep computes
/// them: the inverse gather's scatter into zeros, the `concat`'s
/// re-slices, and the `mul`'s `mul_grad` into `mean`. Each slot only
/// where `needs` asks.
pub fn place_rows_grad(grad: &Tensor, sel: &[usize], needs: [bool; 2]) -> [Option<Tensor>; 2] {
    let (b, l, d) = (grad.shape()[0], grad.shape()[1], grad.shape()[2]);
    let (lazy, inv) = placement(sel, l);
    let stacked = super::index_select_grad(grad, &[b, l, d], 1, &inv);
    let u = sel.len();
    [
        needs[0].then(|| super::slice(&stacked, 1, 0, u)),
        needs[1].then(|| {
            let ones = Tensor::ones([1, lazy.len(), 1]);
            super::mul_grad(&super::slice(&stacked, 1, u, l), &ones, &[b, 1, d])
        }),
    ]
}

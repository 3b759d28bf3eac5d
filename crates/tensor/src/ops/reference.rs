//! Naive serial reference kernels — the oracle the optimized, parallel
//! kernels are tested (and benchmarked) against.
//!
//! Everything here is deliberately the simplest correct implementation:
//! plain loops, per-element broadcast index math, no blocking, no threads.
//! These closely match the seed repository's original serial kernels (minus
//! the `a == 0.0` skip that masked NaN/∞ — see `ops::matmul`), so they also
//! serve as the "serial baseline" side of the serial-vs-parallel benches.

use crate::shape::{broadcast_shapes, numel, ravel_broadcast, strides_for, unravel};
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

/// Naive softmax over the last axis.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let n = a.shape()[a.rank() - 1];
    let rows = a.len() / n.max(1);
    let mut out = vec![0.0f32; a.len()];
    for row in 0..rows {
        let s = &a.data()[row * n..(row + 1) * n];
        let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &x) in out[row * n..(row + 1) * n].iter_mut().zip(s.iter()) {
            let e = (x - m).exp();
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

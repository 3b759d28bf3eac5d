//! Elementwise binary (broadcasting) and unary operations.
//!
//! All three shapes of elementwise work — same-shape zips, broadcasting
//! zips, and unary maps — run through [`crate::parallel`]: the flat output
//! is split into contiguous ranges and each worker fills its own range.
//! A broadcasting zip merges the trailing axes over which each operand is
//! contiguous or constant into one run, and walks the remaining outer axes
//! with an odometer. The innermost walked axis times the run is one block,
//! mapped in one [`simd::zip_rows`] dispatch in which each operand is a
//! slice or a splat per row, so broadcasts run at the same vector speed as
//! same-shape zips.
//!
//! Every output element is written exactly once, so outputs come from
//! [`arena::take_dirty`] and are never zero-filled first.

use crate::arena;
use crate::meter;
use crate::parallel;
use crate::shape::{broadcast_shapes, numel, strides_for, unravel, Shape};
use crate::simd::{self, BinOp, Rows, UnOp};
use crate::Tensor;

use super::reduce::sum_rows;

/// Per-axis strides of `shape` viewed in the broadcast space `out_shape`
/// (right-aligned; broadcast axes get stride 0).
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Shape {
    let mut out = Shape::zeros(out_shape.len());
    let offset = out_shape.len() - shape.len();
    let real = strides_for(shape);
    for (i, (&dim, &stride)) in shape.iter().zip(real.iter()).enumerate() {
        out[offset + i] = if dim == 1 { 0 } else { stride };
    }
    out
}

/// Split the broadcast space into `(k, run, contiguous)`: the axes from `k`
/// on merge into runs of `run` elements, over which each operand is
/// either contiguous (`contiguous[s]`, stride = the run length so far) or
/// constant (stride 0). Axes `..k` are walked once per run.
fn split_runs(out_shape: &[usize], strides: [&[usize]; 2]) -> (usize, usize, [bool; 2]) {
    let mut run = 1;
    let mut mode: [Option<bool>; 2] = [None; 2];
    let mut k = out_shape.len();
    'axes: while k > 0 {
        let d = k - 1;
        if out_shape[d] != 1 {
            let mut next = mode;
            for (m, st) in next.iter_mut().zip(strides) {
                let contiguous = match st[d] {
                    0 => false,
                    s if s == run => true,
                    _ => break 'axes,
                };
                if m.is_some_and(|prev| prev != contiguous) {
                    break 'axes;
                }
                *m = Some(contiguous);
            }
            mode = next;
            run *= out_shape[d];
        }
        k -= 1;
    }
    (k, run, mode.map(|m| m.unwrap_or(false)))
}

/// The walked (outer) axes with length-1 axes dropped and neighbours that
/// step both operands uniformly merged: axis `p` folds into the next kept
/// axis `d` when `stride[p] == stride[d] · len[d]` for both operands.
/// Returns `(lens, a strides, b strides)`; the walk visits the same
/// elements in the same order, in fewer and longer blocks.
fn merge_outer(lens: &[usize], a_str: &[usize], b_str: &[usize]) -> (Shape, Shape, Shape) {
    let (mut l, mut sa, mut sb) = (Shape::default(), Shape::default(), Shape::default());
    for ((&len, &a), &b) in lens.iter().zip(a_str).zip(b_str) {
        if len == 1 {
            continue;
        }
        match l.len() {
            p @ 1.. if sa[p - 1] == a * len && sb[p - 1] == b * len => {
                l[p - 1] *= len;
                sa[p - 1] = a;
                sb[p - 1] = b;
            }
            _ => {
                l.push(len);
                sa.push(a);
                sb.push(b);
            }
        }
    }
    (l, sa, sb)
}

/// Arithmetic binary op with NumPy broadcasting, dispatched by [`BinOp`]
/// descriptor: every block goes through [`simd::zip_rows`].
fn zip_arith(a: &Tensor, b: &Tensor, op: BinOp) -> Tensor {
    let out = zip_broadcast(a, b, |x, y, run, out| simd::zip_rows(op, x, y, run, out));
    if simd::active() {
        zip_spec(a, b).stats.record_simd();
    }
    out
}

/// Elementwise binary closure with NumPy broadcasting, on the same block
/// walk as [`zip_arith`].
fn zip_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    zip_broadcast(a, b, |x, y, run, out| {
        simd::zip_rows_with(x, y, run, out, &f)
    })
}

/// The kernel a zip is accounted to: same-shape zips are one flat run.
fn zip_spec(a: &Tensor, b: &Tensor) -> &'static parallel::KernelSpec {
    if a.shape() == b.shape() {
        &parallel::kernels::EW_ZIP
    } else {
        &parallel::kernels::EW_ZIP_BROADCAST
    }
}

/// Broadcasting zip: `block(x, y, run, out)` fills `out`, rows of `run`
/// output floats, from the two operands' [`Rows`]. A block is the rest of
/// the innermost walked axis times the run; a worker's range may start or
/// end inside a run, and that partial run is passed as a block of one
/// shorter row. The odometer over the walked axes starts once per range
/// and then advances a whole block at a time.
fn zip_broadcast(
    a: &Tensor,
    b: &Tensor,
    block: impl Fn(Rows, Rows, usize, &mut [f32]) + Sync,
) -> Tensor {
    meter::add_reads(a.len() + b.len());
    let out_shape = broadcast_shapes(a.shape(), b.shape())
        .unwrap_or_else(|| panic!("broadcast mismatch {:?} vs {:?}", a.shape(), b.shape()));
    let n = numel(&out_shape);
    let a_str = broadcast_strides(a.shape(), &out_shape);
    let b_str = broadcast_strides(b.shape(), &out_shape);
    let (k, len, [a_run, b_run]) = split_runs(&out_shape, [&a_str, &b_str]);
    let (outer, a_str, b_str) = merge_outer(&out_shape[..k], &a_str[..k], &b_str[..k]);
    // The innermost walked axis: its length and the operands' row strides
    // (a single row when there is no walked axis).
    let last = outer.len().checked_sub(1);
    let (block_rows, a_row, b_row) = last.map_or((1, 0, 0), |d| (outer[d], a_str[d], b_str[d]));
    let (ad, bd) = (a.data(), b.data());
    let mut data = arena::take_dirty(n);
    parallel::for_units(zip_spec(a, b), &mut data, 1, n, |start, chunk| {
        // Odometer over the walked axes, carrying both source bases; `r`
        // is the offset into the current run.
        let mut coords_buf = unravel(start / len, &outer);
        let coords: &mut [usize] = &mut coords_buf;
        let mut ia: usize = coords.iter().zip(a_str.iter()).map(|(c, s)| c * s).sum();
        let mut ib: usize = coords.iter().zip(b_str.iter()).map(|(c, s)| c * s).sum();
        let mut r = start % len;
        let mut rest = chunk;
        loop {
            // Whole rows to the end of the block, or one partial row.
            let row = last.map_or(0, |d| coords[d]);
            let whole = if r == 0 {
                (block_rows - row).min(rest.len() / len)
            } else {
                0
            };
            let (rows, run) = if whole > 0 {
                (whole, len)
            } else {
                (1, (len - r).min(rest.len()))
            };
            let (head, tail) = rest.split_at_mut(rows * run);
            let x = Rows {
                data: ad,
                base: if a_run { ia + r } else { ia },
                stride: a_row,
                splat: !a_run,
            };
            let y = Rows {
                data: bd,
                base: if b_run { ib + r } else { ib },
                stride: b_row,
                splat: !b_run,
            };
            block(x, y, run, head);
            rest = tail;
            // Without a walked axis the output is one run, which the first
            // block finishes.
            let Some(d) = last.filter(|_| !rest.is_empty()) else {
                break;
            };
            r = 0;
            coords[d] += rows;
            ia += rows * a_str[d];
            ib += rows * b_str[d];
            if coords[d] < outer[d] {
                continue;
            }
            coords[d] = 0;
            ia -= a_str[d] * outer[d];
            ib -= b_str[d] * outer[d];
            for e in (0..d).rev() {
                coords[e] += 1;
                ia += a_str[e];
                ib += b_str[e];
                if coords[e] < outer[e] {
                    break;
                }
                coords[e] = 0;
                ia -= a_str[e] * outer[e];
                ib -= b_str[e] * outer[e];
            }
        }
    });
    Tensor::from_vec(out_shape, data)
}

/// Arithmetic unary map dispatched by [`UnOp`] descriptor through the SIMD
/// lanes of [`simd::unary_map`]. Transcendental maps (exp, tanh, …) stay on
/// the closure-based [`unary`]: their libm scalar calls have no bit-exact
/// vector equivalent.
fn unary_arith(a: &Tensor, op: UnOp) -> Tensor {
    meter::add_reads(a.len());
    let ad = a.data();
    let mut data = arena::take_dirty(ad.len());
    parallel::for_units(
        &parallel::kernels::EW_UNARY,
        &mut data,
        1,
        ad.len(),
        |start, chunk| {
            simd::unary_map(op, &ad[start..start + chunk.len()], chunk);
        },
    );
    if simd::active() {
        parallel::kernels::EW_UNARY.stats.record_simd();
    }
    Tensor::from_vec(a.shape(), data)
}

/// Elementwise unary map, parallel over flat ranges.
fn unary(a: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    meter::add_reads(a.len());
    let ad = a.data();
    let mut data = arena::take_dirty(ad.len());
    parallel::for_units(
        &parallel::kernels::EW_UNARY,
        &mut data,
        1,
        ad.len(),
        |start, chunk| {
            for (o, &x) in chunk.iter_mut().zip(ad[start..].iter()) {
                *o = f(x);
            }
        },
    );
    Tensor::from_vec(a.shape(), data)
}

/// Exact-shape zip of two buffers (used by saved-value gradient kernels).
fn zip_exact(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    debug_assert_eq!(a.len(), b.len(), "zip_exact length mismatch");
    meter::add_reads(a.len() + b.len());
    let (ad, bd) = (a.data(), b.data());
    let mut data = arena::take_dirty(ad.len());
    parallel::for_units(
        &parallel::kernels::EW_ZIP_EXACT,
        &mut data,
        1,
        ad.len(),
        |start, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(ad[start + i], bd[start + i]);
            }
        },
    );
    Tensor::from_vec(b.shape(), data)
}

/// Reduce `grad` (in broadcast-output shape) back to `target_shape` by
/// summing over the dimensions that were broadcast.
///
/// Parallel in *gather* form: one unit of work is one target element, which
/// sums its grad preimage in ascending grad-flat order (row-major odometer
/// over the reduced axes). That is exactly the per-element addition chain
/// of the seed's serial scatter-add (`ops::reference::reduce_to_shape`), so
/// results are bit-identical to it at every thread count — while workers
/// write disjoint target ranges, so no scatter races.
///
/// When every reduced axis comes after every kept axis longer than 1, a
/// target element's preimage is the contiguous block
/// `grad[t·total .. (t+1)·total]`, summed as one ascending chain — the
/// same chain the odometer builds.
pub fn reduce_to_shape(grad: &Tensor, target_shape: &[usize]) -> Tensor {
    if grad.shape() == target_shape {
        return grad.clone();
    }
    meter::add_reads(grad.len());
    let gshape = grad.shape();
    let g_str = strides_for(gshape);
    let offset = gshape.len() - target_shape.len();
    // Axes to sum over: grad axes where the (right-aligned) target dim is
    // absent or 1 while grad's is larger. Stored as (len, grad stride) in
    // axis order, so the odometer below walks them row-major — i.e. in
    // ascending grad-flat order for a fixed target element.
    let mut reduce_dims: Vec<(usize, usize)> = Vec::with_capacity(gshape.len());
    let mut trailing = true;
    for (d, (&gdim, &gstride)) in gshape.iter().zip(g_str.iter()).enumerate() {
        let tdim = if d < offset {
            1
        } else {
            target_shape[d - offset]
        };
        if tdim != gdim {
            reduce_dims.push((gdim, gstride));
        } else if gdim > 1 && !reduce_dims.is_empty() {
            trailing = false;
        }
    }
    let total: usize = reduce_dims.iter().map(|&(len, _)| len).product();
    let n_out = numel(target_shape);
    let gd = grad.data();
    let mut out = arena::take_zeroed(n_out);
    if trailing {
        parallel::for_units(
            &parallel::kernels::REDUCE_TO_SHAPE,
            &mut out,
            1,
            grad.len(),
            |start, chunk| {
                sum_rows(
                    &gd[start * total..(start + chunk.len()) * total],
                    total,
                    chunk,
                );
            },
        );
        return Tensor::from_vec(target_shape, out);
    }
    // Vector groups apply when the grad's last axis is preserved in the
    // target: then [`simd::LANES`] consecutive target elements have grad
    // bases `base..base+LANES` (last stride is 1) and share one preimage
    // walk, so each lane keeps the exact per-element ascending chain.
    let tr = target_shape.len();
    let lanes_ok = tr > 0
        && gshape[gshape.len() - 1] == target_shape[tr - 1]
        && target_shape[tr - 1] >= simd::LANES
        && total > 0
        && reduce_dims.len() <= simd::MAX_RDIMS;
    parallel::for_units(
        &parallel::kernels::REDUCE_TO_SHAPE,
        &mut out,
        1,
        grad.len(),
        |start, chunk| {
            if chunk.is_empty() {
                return;
            }
            // Target-coordinate odometer carries the grad base offset along.
            let mut tcoords = unravel(start, target_shape);
            let mut base: usize = tcoords
                .iter()
                .enumerate()
                .map(|(i, &c)| c * g_str[offset + i])
                .sum();
            // Advance the odometer by `step` target elements; `step` never
            // exceeds what remains in the current last-axis row, so the carry
            // fires on exact `== dim` boundaries like the single-step walk.
            let advance = |tcoords: &mut Shape, base: &mut usize, step: usize| {
                tcoords[tr - 1] += step;
                *base += step * g_str[offset + tr - 1];
                let mut d = tr - 1;
                loop {
                    if tcoords[d] < target_shape[d] {
                        break;
                    }
                    tcoords[d] = 0;
                    *base -= g_str[offset + d] * target_shape[d];
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                    tcoords[d] += 1;
                    *base += g_str[offset + d];
                }
            };
            let n = chunk.len();
            let mut i = 0;
            while i < n {
                let step = if lanes_ok
                    && n - i >= simd::LANES
                    && target_shape[tr - 1] - tcoords[tr - 1] >= simd::LANES
                    && simd::reduce_lanes8(
                        gd,
                        base,
                        &reduce_dims,
                        total,
                        &mut chunk[i..i + simd::LANES],
                    ) {
                    simd::LANES
                } else {
                    let mut acc = 0.0f32;
                    let mut roff = 0usize;
                    let mut r = Shape::zeros(reduce_dims.len());
                    for _ in 0..total {
                        acc += gd[base + roff];
                        for j in (0..reduce_dims.len()).rev() {
                            let (len, stride) = reduce_dims[j];
                            r[j] += 1;
                            roff += stride;
                            if r[j] < len {
                                break;
                            }
                            r[j] = 0;
                            roff -= len * stride;
                        }
                    }
                    chunk[i] = acc;
                    1
                };
                i += step;
                if i < n {
                    advance(&mut tcoords, &mut base, step);
                }
            }
        },
    );
    if lanes_ok && simd::active() {
        parallel::kernels::REDUCE_TO_SHAPE.stats.record_simd();
    }
    Tensor::from_vec(target_shape, out)
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip_arith(a, b, BinOp::Add)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip_arith(a, b, BinOp::Sub)
}

/// `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip_arith(a, b, BinOp::Mul)
}

/// `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    zip_arith(a, b, BinOp::Div)
}

/// [`reduce_to_shape`] of a tensor the caller owns: `t` itself when it
/// already has `target_shape` (no copy), else its reduction.
pub fn reduce_owned(t: Tensor, target_shape: &[usize]) -> Tensor {
    if t.shape() == target_shape {
        t
    } else {
        reduce_to_shape(&t, target_shape)
    }
}

/// ∂(a*b)/∂a = grad * b, reduced to a's shape.
pub fn mul_grad(grad: &Tensor, other: &Tensor, input_shape: &[usize]) -> Tensor {
    reduce_owned(mul(grad, other), input_shape)
}

/// ∂(a/b)/∂a = grad / b, reduced to a's shape.
pub fn div_grad_a(grad: &Tensor, b: &Tensor, a_shape: &[usize]) -> Tensor {
    reduce_owned(div(grad, b), a_shape)
}

/// ∂(a/b)/∂b = -grad * a / b², reduced to b's shape.
pub fn div_grad_b(grad: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    reduce_owned(
        zip_map(&mul(grad, a), b, |num, den| -num / (den * den)),
        b.shape(),
    )
}

// ---------------------------------------------------------------------------
// Unary ops
// ---------------------------------------------------------------------------

/// Elementwise negation.
pub fn neg(a: &Tensor) -> Tensor {
    unary_arith(a, UnOp::Neg)
}

/// `a * c` for scalar `c`.
pub fn scale(a: &Tensor, c: f32) -> Tensor {
    unary_arith(a, UnOp::Scale(c))
}

/// `a + c` for scalar `c`.
pub fn add_scalar(a: &Tensor, c: f32) -> Tensor {
    unary_arith(a, UnOp::AddScalar(c))
}

/// Rectified linear unit (`maxps(x, 0)`: NaN and −0 both map to +0).
pub fn relu(a: &Tensor) -> Tensor {
    unary_arith(a, UnOp::Relu)
}

/// ∂relu/∂a = grad ⊙ `1[a>0]`.
pub fn relu_grad(grad: &Tensor, a: &Tensor) -> Tensor {
    zip_exact(grad, a, |g, x| if x > 0.0 { g } else { 0.0 })
}

/// Logistic sigmoid, numerically stable for large |x|.
pub fn sigmoid(a: &Tensor) -> Tensor {
    unary(a, |x| {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    })
}

/// ∂sigmoid/∂a given the saved output `y`: grad ⊙ y(1-y).
pub fn sigmoid_grad(grad: &Tensor, y: &Tensor) -> Tensor {
    zip_exact(grad, y, |g, s| g * s * (1.0 - s))
}

/// Hyperbolic tangent.
pub fn tanh(a: &Tensor) -> Tensor {
    unary(a, f32::tanh)
}

/// ∂tanh/∂a given the saved output `y`: grad ⊙ (1-y²).
pub fn tanh_grad(grad: &Tensor, y: &Tensor) -> Tensor {
    zip_exact(grad, y, |g, t| g * (1.0 - t * t))
}

/// Elementwise exp.
pub fn exp(a: &Tensor) -> Tensor {
    unary(a, f32::exp)
}

/// Natural log (inputs must be positive; callers clamp).
pub fn ln(a: &Tensor) -> Tensor {
    unary(a, f32::ln)
}

/// ∂ln/∂a = grad / a.
pub fn ln_grad(grad: &Tensor, a: &Tensor) -> Tensor {
    zip_exact(grad, a, |g, x| g / x)
}

/// Elementwise square root.
pub fn sqrt(a: &Tensor) -> Tensor {
    unary(a, f32::sqrt)
}

/// ∂sqrt/∂a given the saved output `y`: grad / (2y).
pub fn sqrt_grad(grad: &Tensor, y: &Tensor) -> Tensor {
    zip_exact(grad, y, |g, s| g / (2.0 * s))
}

/// Elementwise absolute value.
pub fn abs(a: &Tensor) -> Tensor {
    unary_arith(a, UnOp::Abs)
}

/// ∂|a|/∂a = grad ⊙ sign(a) (sub-gradient 0 at 0).
pub fn abs_grad(grad: &Tensor, a: &Tensor) -> Tensor {
    zip_exact(grad, a, |g, x| {
        if x > 0.0 {
            g
        } else if x < 0.0 {
            -g
        } else {
            0.0
        }
    })
}

/// Elementwise square.
pub fn square(a: &Tensor) -> Tensor {
    unary_arith(a, UnOp::Square)
}

/// ∂a²/∂a = 2·grad⊙a.
pub fn square_grad(grad: &Tensor, a: &Tensor) -> Tensor {
    zip_exact(grad, a, |g, x| 2.0 * g * x)
}

/// Gaussian error linear unit (tanh approximation).
pub fn gelu(a: &Tensor) -> Tensor {
    unary(a, gelu_scalar)
}

fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// ∂gelu/∂a via the tanh approximation derivative.
pub fn gelu_grad(grad: &Tensor, a: &Tensor) -> Tensor {
    const C: f32 = 0.797_884_6;
    zip_exact(grad, a, |g, x| {
        let x3 = x * x * x;
        let u = C * (x + 0.044715 * x3);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    })
}

/// Clamp every element into `[lo, hi]` (NaN passes through unchanged).
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Tensor {
    unary_arith(a, UnOp::Clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn add_same_shape() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(add(&a, &b).data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3], &[10.0, 20.0, 30.0]);
        assert_eq!(add(&a, &b).data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn mul_broadcast_col() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 1], &[10.0, 100.0]);
        assert_eq!(mul(&a, &b).data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn broadcast_matches_reference_on_mixed_ranks() {
        let a = t(&[2, 1, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[4, 1], &[0.5, 1.0, 2.0, 4.0]);
        let fast = mul(&a, &b);
        let slow = super::super::reference::mul(&a, &b);
        assert_eq!(fast.shape(), slow.shape());
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = t(&[2, 3], &[1.0; 6]);
        let r = reduce_to_shape(&g, &[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = reduce_to_shape(&g, &[2, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn reduce_to_shape_matches_serial_scatter_bit_exact() {
        // Irregular values so any reassociation of the per-element addition
        // chain would show up in the low bits.
        let g = t(
            &[3, 2, 4],
            &(0..24)
                .map(|i| ((i * 31) % 17) as f32 * 0.1 - 0.7)
                .collect::<Vec<_>>(),
        );
        for target in [
            vec![4usize],
            vec![2, 4],
            vec![1, 4],
            vec![2, 1],
            vec![3, 1, 1],
            vec![3, 2, 4],
            vec![1],
        ] {
            let fast = reduce_to_shape(&g, &target);
            let slow = super::super::reference::reduce_to_shape(&g, &target);
            assert_eq!(fast.shape(), slow.shape(), "target {target:?}");
            assert_eq!(fast.data(), slow.data(), "target {target:?}");
        }
    }

    #[test]
    fn div_grads() {
        let a = t(&[2], &[4.0, 9.0]);
        let b = t(&[2], &[2.0, 3.0]);
        let g = t(&[2], &[1.0, 1.0]);
        assert_eq!(div_grad_a(&g, &b, a.shape()).data(), &[0.5, 1.0 / 3.0]);
        let gb = div_grad_b(&g, &a, &b);
        assert_eq!(gb.data(), &[-1.0, -1.0]);
    }

    #[test]
    fn sigmoid_matches_definition() {
        let a = t(&[3], &[0.0, 50.0, -50.0]);
        let s = sigmoid(&a);
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        assert!((s.data()[1] - 1.0).abs() < 1e-6);
        assert!(s.data()[2] < 1e-6);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn relu_and_grad() {
        let a = t(&[4], &[-1.0, 0.0, 0.5, 2.0]);
        assert_eq!(relu(&a).data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = t(&[4], &[1.0; 4]);
        assert_eq!(relu_grad(&g, &a).data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn abs_grad_signs() {
        let a = t(&[3], &[-2.0, 0.0, 3.0]);
        let g = t(&[3], &[1.0; 3]);
        assert_eq!(abs_grad(&g, &a).data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn gelu_values() {
        let a = t(&[2], &[0.0, 100.0]);
        let y = gelu(&a);
        assert!(y.data()[0].abs() < 1e-6);
        assert!((y.data()[1] - 100.0).abs() < 1e-3);
    }
}

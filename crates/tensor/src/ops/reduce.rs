//! Reductions (sum/mean over an axis or all elements) and broadcasting back.
//!
//! Axis reductions partition their output over the *outer* index through
//! [`crate::parallel::for_units`]: each outer slot owns a disjoint
//! `inner`-length slice of the output, so workers never share an
//! accumulator and the per-slot ascending-`l` accumulation order is
//! identical to the serial kernel (bit-exact at any thread count).
//!
//! `sum_axis_grad` and `broadcast_to` write every output element, so they
//! take their output from [`arena::take_dirty`]; the accumulating
//! reductions start from zeros (or `-∞` for `max_axis`).

use crate::arena;
use crate::meter;
use crate::parallel;
use crate::shape::Shape;
use crate::Tensor;

/// Shape with `axis` removed (`keepdim=false`) or set to 1 (`keepdim=true`).
fn reduced_shape(shape: &[usize], axis: usize, keepdim: bool) -> Shape {
    let mut s: Shape = if keepdim {
        shape
            .iter()
            .enumerate()
            .map(|(i, &d)| if i == axis { 1 } else { d })
            .collect()
    } else {
        shape
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (i != axis).then_some(d))
            .collect()
    };
    if s.is_empty() {
        s.push(1);
    }
    s
}

/// Decompose a shape around `axis` into (outer, axis_len, inner).
fn split_at_axis(shape: &[usize], axis: usize) -> (usize, usize, usize) {
    let outer: usize = shape[..axis].iter().product();
    let len = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    (outer, len, inner)
}

/// `out[i] = Σ rows[i·len .. (i+1)·len]`, each sum one ascending scalar
/// chain starting from 0.0 — the chain that accumulating each row into a
/// zeroed output builds, so contiguous reductions stay bit-identical to
/// it. A zero `len` leaves `out` as it is.
pub(crate) fn sum_rows(rows: &[f32], len: usize, out: &mut [f32]) {
    if len == 0 {
        return;
    }
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(len)) {
        *o = row.iter().fold(0.0f32, |acc, &v| acc + v);
    }
}

/// Sum over one axis. On the last axis (`inner == 1`) each output is one
/// contiguous row summed by `sum_rows`; otherwise rows of `inner`
/// outputs accumulate on the SIMD lanes.
pub fn sum_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    meter::add_reads(a.len());
    let (outer, len, inner) = split_at_axis(a.shape(), axis);
    let mut out = arena::take_zeroed(outer * inner);
    let data = a.data();
    parallel::for_units(
        &parallel::kernels::REDUCE_SUM_AXIS,
        &mut out,
        inner.max(1),
        outer * len * inner,
        |o0, chunk| {
            if inner == 0 {
                return;
            }
            if inner == 1 {
                sum_rows(&data[o0 * len..(o0 + chunk.len()) * len], len, chunk);
                return;
            }
            for (oi, oslice) in chunk.chunks_mut(inner).enumerate() {
                let o = o0 + oi;
                for l in 0..len {
                    let base = (o * len + l) * inner;
                    crate::simd::accum(oslice, &data[base..base + inner]);
                }
            }
        },
    );
    if inner > 1 && crate::simd::active() {
        parallel::kernels::REDUCE_SUM_AXIS.stats.record_simd();
    }
    Tensor::from_vec(reduced_shape(a.shape(), axis, keepdim), out)
}

/// Mean over one axis.
pub fn mean_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    let len = a.shape()[axis] as f32;
    let mut s = sum_axis(a, axis, keepdim);
    s.scale_inplace(1.0 / len);
    s
}

/// ∂sum_axis/∂a: upstream grad broadcast back along `axis`. On the last
/// axis (`inner == 1`) each output fills its whole `len`-row at once.
pub fn sum_axis_grad(grad: &Tensor, a_shape: &[usize], axis: usize) -> Tensor {
    meter::add_reads(grad.len());
    let (outer, len, inner) = split_at_axis(a_shape, axis);
    let mut out = arena::take_dirty(outer * len * inner);
    let g = grad.data();
    debug_assert_eq!(g.len(), outer * inner);
    parallel::for_units(
        &parallel::kernels::REDUCE_SUM_AXIS_GRAD,
        &mut out,
        (len * inner).max(1),
        outer * len * inner,
        |u0, chunk| {
            if inner == 0 || len == 0 {
                return;
            }
            if inner == 1 {
                for (row, &gv) in chunk.chunks_mut(len).zip(&g[u0..]) {
                    row.fill(gv);
                }
                return;
            }
            for (oi, oslice) in chunk.chunks_mut(len * inner).enumerate() {
                let o = u0 + oi;
                let gbase = o * inner;
                for row in oslice.chunks_mut(inner) {
                    row.copy_from_slice(&g[gbase..gbase + inner]);
                }
            }
        },
    );
    Tensor::from_vec(a_shape, out)
}

/// ∂mean_axis/∂a: broadcast divided by axis length.
pub fn mean_axis_grad(grad: &Tensor, a_shape: &[usize], axis: usize) -> Tensor {
    let mut g = sum_axis_grad(grad, a_shape, axis);
    g.scale_inplace(1.0 / a_shape[axis] as f32);
    g
}

/// Sum of all elements as a `[1]` tensor.
pub fn sum_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.sum())
}

/// Mean of all elements as a `[1]` tensor.
pub fn mean_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.mean())
}

/// ∂sum_all/∂a: the scalar upstream grad splattered everywhere.
pub fn sum_all_grad(grad: &Tensor, a_shape: &[usize]) -> Tensor {
    Tensor::full(a_shape, grad.item())
}

/// ∂mean_all/∂a.
pub fn mean_all_grad(grad: &Tensor, a_shape: &[usize]) -> Tensor {
    let n: usize = a_shape.iter().product();
    Tensor::full(a_shape, grad.item() / n as f32)
}

/// Maximum over one axis (non-differentiable helper for e.g. Informer's
/// sparsity measurement; used on detached values only).
///
/// Every output folds its inputs in ascending order from `-∞` with the
/// `v > acc` test, so NaN never enters and of equal zeros the first wins.
/// On the last axis (`inner == 1`) that fold runs along one contiguous
/// row; otherwise rows of `inner` outputs fold on the SIMD lanes
/// (`maxps` applies the same test per lane).
pub fn max_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    meter::add_reads(a.len());
    let (outer, len, inner) = split_at_axis(a.shape(), axis);
    let mut out = arena::take_filled(outer * inner, f32::NEG_INFINITY);
    let data = a.data();
    parallel::for_units(
        &parallel::kernels::REDUCE_MAX_AXIS,
        &mut out,
        inner.max(1),
        outer * len * inner,
        |o0, chunk| {
            if inner == 0 || len == 0 {
                return;
            }
            if inner == 1 {
                let rows = &data[o0 * len..(o0 + chunk.len()) * len];
                for (o, row) in chunk.iter_mut().zip(rows.chunks_exact(len)) {
                    *o = crate::simd::fold_max(f32::NEG_INFINITY, row);
                }
                return;
            }
            for (oi, oslice) in chunk.chunks_mut(inner).enumerate() {
                let o = o0 + oi;
                for l in 0..len {
                    let base = (o * len + l) * inner;
                    crate::simd::max_accum(oslice, &data[base..base + inner]);
                }
            }
        },
    );
    if inner > 1 && crate::simd::active() {
        parallel::kernels::REDUCE_MAX_AXIS.stats.record_simd();
    }
    Tensor::from_vec(reduced_shape(a.shape(), axis, keepdim), out)
}

/// Materialize `a` broadcast to `target` shape.
pub fn broadcast_to(a: &Tensor, target: &[usize]) -> Tensor {
    use crate::shape::{numel, strides_for, unravel};
    if a.shape() == target {
        return a.clone();
    }
    meter::add_reads(a.len());
    let n = numel(target);
    let mut out = arena::take_dirty(n);
    let data = a.data();
    let shape = a.shape();
    // Right-aligned broadcast strides into `a`: 0 where a dim broadcasts.
    let rank = target.len();
    let astr = strides_for(shape);
    let mut bstr = Shape::zeros(rank);
    let offset = rank - shape.len();
    for (i, (&d, &s)) in shape.iter().zip(astr.iter()).enumerate() {
        bstr[offset + i] = if d == 1 { 0 } else { s };
    }
    parallel::for_units(
        &parallel::kernels::BROADCAST_TO,
        &mut out,
        1,
        n,
        |start, chunk| {
            // One coordinate vector per chunk, then an odometer walk carrying
            // the source offset — no per-element unravel allocation.
            let mut coords = unravel(start, target);
            let mut src: usize = coords.iter().zip(bstr.iter()).map(|(c, s)| c * s).sum();
            for o in chunk.iter_mut() {
                *o = data[src];
                for ax in (0..rank).rev() {
                    coords[ax] += 1;
                    src += bstr[ax];
                    if coords[ax] < target[ax] {
                        break;
                    }
                    src -= target[ax] * bstr[ax];
                    coords[ax] = 0;
                }
            }
        },
    );
    Tensor::from_vec(target, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn sum_axis_middle() {
        let a = t(&[2, 3, 2], &(1..=12).map(|x| x as f32).collect::<Vec<_>>());
        let s = sum_axis(&a, 1, false);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[9.0, 12.0, 27.0, 30.0]);
        let sk = sum_axis(&a, 1, true);
        assert_eq!(sk.shape(), &[2, 1, 2]);
        assert_eq!(sk.data(), s.data());
    }

    #[test]
    fn mean_axis_last() {
        let a = t(&[2, 2], &[1.0, 3.0, 5.0, 7.0]);
        let m = mean_axis(&a, 1, false);
        assert_eq!(m.data(), &[2.0, 6.0]);
    }

    #[test]
    fn sum_axis_grad_broadcasts() {
        let g = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let back = sum_axis_grad(&g, &[2, 3, 2], 1);
        assert_eq!(back.shape(), &[2, 3, 2]);
        assert_eq!(back.at(&[0, 0, 1]), 2.0);
        assert_eq!(back.at(&[0, 2, 1]), 2.0);
        assert_eq!(back.at(&[1, 1, 0]), 3.0);
    }

    #[test]
    fn all_reductions() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum_all(&a).item(), 10.0);
        assert_eq!(mean_all(&a).item(), 2.5);
        let g = Tensor::scalar(2.0);
        assert_eq!(sum_all_grad(&g, a.shape()).data(), &[2.0; 4]);
        assert_eq!(mean_all_grad(&g, a.shape()).data(), &[0.5; 4]);
    }

    #[test]
    fn max_axis_works() {
        let a = t(&[2, 3], &[1.0, 5.0, 3.0, 7.0, 2.0, 6.0]);
        let m = max_axis(&a, 1, false);
        assert_eq!(m.data(), &[5.0, 7.0]);
        let m0 = max_axis(&a, 0, true);
        assert_eq!(m0.shape(), &[1, 3]);
        assert_eq!(m0.data(), &[7.0, 5.0, 6.0]);
    }

    #[test]
    fn sum_axis_matches_reference_above_threshold() {
        // Big enough to cross PAR_THRESHOLD so the parallel branch runs.
        let a = Tensor::from_vec(
            vec![8, 16, 96],
            (0..8 * 16 * 96)
                .map(|i| (i % 97) as f32 * 0.25 - 12.0)
                .collect(),
        );
        for axis in 0..3 {
            let fast = sum_axis(&a, axis, false);
            let slow = super::super::reference::sum_axis(&a, axis, false);
            assert_eq!(fast.shape(), slow.shape());
            assert_eq!(fast.data(), slow.data());
        }
    }

    #[test]
    fn broadcast_to_materializes() {
        let a = t(&[1, 3], &[1.0, 2.0, 3.0]);
        let b = broadcast_to(&a, &[2, 3]);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}

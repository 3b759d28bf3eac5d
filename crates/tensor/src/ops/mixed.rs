//! The supernet's softmax-weighted sum as one kernel, and its gradients:
//! Eq. 4's mixed edge, a latent node's `β` sum and Eq. 18's `γ` sum.
//!
//! The `k` terms `y_o` (`[.., d_op]`) are weighted by the ascending
//! columns `cols` of a softmax row (`[1, K]`); an edge skips the zero
//! operator's column. On an edge with partial channels (`d_op < d`) the
//! input `h` (`[.., d]`) sends its other `d − d_op` channels around the
//! operators. [`mixed_edge`] writes the bypass channels `h[.., d_op..d]`,
//! then `((y₁·w₁ + y₂·w₂) + y₃·w₃) + …` in term order, each product and
//! sum one IEEE operation ([`simd::mix_rows`]).
//!
//! [`mixed_edge_grad`] is one pass over the upstream gradient
//! ([`simd::mix_grad_rows`]): `∂y_o = g·w_o`, `∂row` an ascending fold
//! from `+0.0` of `g·y_o` in column `cols[o]` and `+0.0` elsewhere, and
//! `∂h` the bypass gradient with `+0.0` on the operator channels: the bits
//! of the chain the op replaced (per term a row `slice`, a `reshape` and
//! a `mul`, the `add`s, the bypass `slice` and the `concat`), the oracle
//! [`super::reference::mixed_edge`]. A fold from `+0.0` is never `−0.0`,
//! so the chain's sum of one-hot row gradients only added exact zeros.
//!
//! Both passes run on the calling thread ([`parallel::serial`]): each
//! weight's fold is serial over every element whatever the split, and on
//! the search shapes a split of the forward cost more than it saved.
//!
//! There is no mixed-edge kernel spec. The forward is accounted to
//! `elementwise.zip_broadcast` (the chain's broadcast products); the
//! backward to `elementwise.reduce_to_shape` when it folds the weight
//! gradients, else to `elementwise.zip_broadcast`. Both meter the flops of
//! the chain they replaced: `(2k − 1)·n` forward over `n = |y_o|`, and per
//! term `n` for `∂y_o` and `2n` for its weight's fold backward.

use crate::arena;
use crate::meter;
use crate::parallel::{self, kernels};
use crate::simd::{self, Mix, MixGrads};
use crate::Tensor;

/// Flops metered by a [`mixed_edge`] forward of `k` operators over `n`
/// elements each: the chain's `k` products and `k − 1` sums per element.
pub fn mixed_edge_flops(k: usize, n: usize) -> usize {
    k.saturating_mul(2).saturating_sub(1).saturating_mul(n)
}

/// The operator width `d_op`, the output row width `d`, the row count and
/// the terms' weights of a mixture, checking its operands.
fn operands(
    ys: &[&Tensor],
    row: &Tensor,
    cols: &[usize],
    h_shape: Option<&[usize]>,
) -> (usize, usize, usize, Vec<f32>) {
    assert!(
        !ys.is_empty()
            && ys.iter().all(|y| y.shape() == ys[0].shape())
            && ys.len() == cols.len()
            && cols.windows(2).all(|c| c[0] < c[1])
            && cols[cols.len() - 1] < row.len()
            && row.shape() == [1, row.len()],
        "mixed_edge: {} terms of one shape need as many ascending columns of a [1, K] row, \
         got {cols:?} of {:?}",
        ys.len(),
        row.shape()
    );
    let shape = ys[0].shape();
    // invariant: every tensor has rank >= 1 (a scalar is `[1]`).
    let d_op = *shape.last().expect("rank >= 1");
    let d = h_shape.map_or(d_op, |h| {
        let (lead, last) = h.split_at(h.len() - 1);
        assert!(
            lead == &shape[..shape.len() - 1] && last[0] > d_op,
            "mixed_edge: bypass input {h:?} does not widen the operator outputs {shape:?}"
        );
        last[0]
    });
    let w = cols.iter().map(|&c| row.data()[c]).collect();
    (d_op, d, ys[0].len().checked_div(d_op).unwrap_or(0), w)
}

/// The softmax mixture: `concat(h[.., d_op..d], Σ_o y_o·row[cols[o]])`
/// along the last axis, or the mixture alone when `h` is `None`. `ys`
/// hold the `k ≥ 1` terms (one shape, `[.., d_op]`), `row` the softmax
/// row, `cols` the `k` ascending columns of it that weigh them, and `h`
/// an edge's `[.., d]` input with `d > d_op`.
pub fn mixed_edge(ys: &[&Tensor], row: &Tensor, cols: &[usize], h: Option<&Tensor>) -> Tensor {
    let (d_op, d, rows, w) = operands(ys, row, cols, h.map(Tensor::shape));
    let n = ys[0].len();
    let bypass = d - d_op;
    meter::add_reads(
        n.saturating_mul(ys.len())
            .saturating_add(cols.len())
            .saturating_add(rows.saturating_mul(bypass)),
    );
    let slices: Vec<&[f32]> = ys.iter().map(|y| y.data()).collect();
    let mut out = arena::take_dirty(rows * d);
    let spec = &kernels::EW_ZIP_BROADCAST;
    parallel::serial(spec, mixed_edge_flops(ys.len(), n), out.len(), || {
        // Without a bypass the rows are contiguous: one run.
        let (width, ld) = match h {
            Some(h) => {
                for (o, hr) in out.chunks_exact_mut(d).zip(h.data().chunks_exact(d)) {
                    o[..bypass].copy_from_slice(&hr[d_op..]);
                }
                (d_op, d)
            }
            None => (n, n),
        };
        let m = Mix {
            ys: &slices,
            ws: &w,
            width,
        };
        simd::mix_rows(m, ld, &mut out);
    });
    if simd::active() {
        spec.stats.record_simd();
    }
    let mut shape = crate::Shape::from_slice(ys[0].shape());
    let last = shape.len() - 1;
    shape[last] = d;
    Tensor::from_vec(shape, out)
}

/// The gradients of [`mixed_edge`] given the upstream `grad`, each only
/// where `needs` asks, in input order: `[∂y_1..∂y_k, ∂row, ∂h]` (`∂h`
/// only with a bypass input, whose shape `h_shape` is).
pub fn mixed_edge_grad(
    grad: &Tensor,
    ys: &[&Tensor],
    row: &Tensor,
    cols: &[usize],
    h_shape: Option<&[usize]>,
    needs: &[bool],
) -> Vec<Option<Tensor>> {
    let k = ys.len();
    let (d_op, d, rows, w) = operands(ys, row, cols, h_shape);
    assert_eq!(
        needs.len(),
        k + 1 + usize::from(h_shape.is_some()),
        "mixed_edge_grad: one need per input"
    );
    assert_eq!(grad.len(), rows * d, "mixed_edge_grad: grad shape");
    let n = ys[0].len();
    let (need_y, need_row) = (&needs[..k], needs[k]);
    let need_h = needs.get(k + 1).copied().unwrap_or(false);
    let y_count = need_y.iter().filter(|&&b| b).count();
    meter::add_reads(
        n.saturating_add(if need_h { rows * (d - d_op) } else { 0 })
            .saturating_add(if need_row { n.saturating_mul(k) } else { 0 })
            .saturating_add(k),
    );
    let slices: Vec<&[f32]> = ys.iter().map(|y| y.data()).collect();
    let mut gy: Vec<Option<Vec<f32>>> = need_y
        .iter()
        .map(|&b| b.then(|| arena::take_dirty(n)))
        .collect();
    let mut gh = need_h.then(|| arena::take_dirty(grad.len()));
    let mut sums = arena::take_zeroed(k);
    let spec = if need_row {
        &kernels::REDUCE_TO_SHAPE
    } else {
        &kernels::EW_ZIP_BROADCAST
    };
    // The row's other columns come zeroed from the arena.
    let folds = if need_row { k } else { 0 };
    let work = n.saturating_mul(y_count.saturating_add(2 * folds));
    let writes = n
        .saturating_mul(y_count)
        .saturating_add(gh.as_ref().map_or(0, Vec::len))
        .saturating_add(folds);
    // One pass on the calling thread: each weight's fold is serial over
    // all `n` elements, so a split over terms cannot shorten it.
    parallel::serial(spec, work, writes, || {
        // Without a bypass the gradient is one row of `n` floats.
        let (width, ld) = if h_shape.is_some() { (d_op, d) } else { (n, n) };
        let m = Mix {
            ys: &slices,
            ws: &w,
            width,
        };
        let mut dy: Vec<Option<&mut [f32]>> = gy.iter_mut().map(|b| b.as_deref_mut()).collect();
        let out = MixGrads {
            dy: &mut dy,
            dw: need_row.then_some(&mut sums[..]),
            dh: gh.as_deref_mut(),
        };
        simd::mix_grad_rows(grad.data(), ld, m, out);
    });
    if simd::active() {
        spec.stats.record_simd();
    }
    let mut grads: Vec<Option<Tensor>> = Vec::with_capacity(needs.len());
    grads.extend(
        gy.into_iter()
            .map(|b| b.map(|b| Tensor::from_vec(ys[0].shape(), b))),
    );
    grads.push(need_row.then(|| {
        let mut g = arena::take_zeroed(row.len());
        cols.iter().zip(&sums).for_each(|(&c, &s)| g[c] = s);
        Tensor::from_vec(row.shape(), g)
    }));
    arena::recycle(sums);
    if let Some(h) = h_shape {
        grads.push(gh.map(|b| Tensor::from_vec(h, b)));
    }
    grads
}

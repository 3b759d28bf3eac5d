//! Eq. 4's mixed edge over PC-DARTS partial channels as one kernel, and
//! its gradients.
//!
//! An edge of the supernet mixes the outputs `y_o` (`[.., d_op]`) of its
//! `k` non-zero candidate operators with their softmax weights `w_o`
//! (`[1]` each). With partial channels (`d_op < d`) the input `h`
//! (`[.., d]`) sends its first `d_op` channels through the operators and
//! its other `d − d_op` channels around them. [`mixed_edge`] writes the
//! `[.., d]` output once: the bypass channels `h[.., d_op..d]` first, then
//! `((y₁·w₁ + y₂·w₂) + y₃·w₃) + …` in operator order, each product and
//! each sum one IEEE operation ([`simd::mix_rows`]). Without partial
//! channels the output is the mixture alone and `h` is no operand.
//!
//! [`mixed_edge_grad`] is one pass over the upstream gradient
//! ([`simd::mix_grad_rows`]): `∂y_o = g·w_o`, `∂w_o` an ascending fold
//! from `+0.0` of `g·y_o`, and `∂h` the bypass gradient with `+0.0` on
//! the operator channels. These are the bits of the composed chain the op
//! replaced — the bypass `slice`, `k` broadcast `mul`s, `k − 1` `add`s and
//! the `concat`, and the tape's sweep of them — which survives as the test
//! oracle [`super::reference::mixed_edge`].
//!
//! Both passes run on the calling thread ([`parallel::serial`]): each
//! `∂w_o` chain is serial over every element whatever the split, and on
//! the search shapes a split of the forward cost more than it saved.
//!
//! There is no mixed-edge kernel spec. The forward is accounted to
//! `elementwise.zip_broadcast` (the chain's broadcast products); the
//! backward to `elementwise.reduce_to_shape` when it folds a weight
//! gradient, else to `elementwise.zip_broadcast`. Both meter the flops of
//! the chain they replaced: `(2k − 1)·n` forward over `n = |y_o|`, and per
//! operator `n` for `∂y_o` and `2n` for `∂w_o` (product and sum) backward.

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

/// The operator width `d_op`, the output row width `d` and the row count
/// of a mixed edge, checking its operands.
fn geometry(ys: &[&Tensor], ws: &[&Tensor], h_shape: Option<&[usize]>) -> (usize, usize, usize) {
    assert!(
        !ys.is_empty() && ys.len() == ws.len(),
        "mixed_edge: {} operator outputs with {} weights",
        ys.len(),
        ws.len()
    );
    let shape = ys[0].shape();
    assert!(
        ys.iter().all(|y| y.shape() == shape) && ws.iter().all(|w| w.shape() == [1]),
        "mixed_edge: operator outputs must share a shape, weights must be [1]"
    );
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
    (d_op, d, ys[0].len().checked_div(d_op).unwrap_or(0))
}

/// The weights as plain floats.
fn weights(ws: &[&Tensor]) -> Vec<f32> {
    ws.iter().map(|w| w.data()[0]).collect()
}

/// The mixed edge: `concat(h[.., d_op..d], Σ_o y_o·w_o)` along the last
/// axis, or the mixture alone when `h` is `None` (no partial channels).
/// `ys` hold the `k ≥ 1` operator outputs (one shape, `[.., d_op]`), `ws`
/// their `[1]` weights, `h` the `[.., d]` edge input with `d > d_op`.
pub fn mixed_edge(ys: &[&Tensor], ws: &[&Tensor], h: Option<&Tensor>) -> Tensor {
    let (d_op, d, rows) = geometry(ys, ws, h.map(Tensor::shape));
    let n = ys[0].len();
    let bypass = d - d_op;
    meter::add_reads(
        n.saturating_mul(ys.len())
            .saturating_add(ws.len())
            .saturating_add(rows.saturating_mul(bypass)),
    );
    let (w, slices) = (weights(ws), ys.iter().map(|y| y.data()).collect::<Vec<_>>());
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
/// where `needs` asks, in input order: `[∂y_1..∂y_k, ∂w_1..∂w_k, ∂h]`
/// (`∂h` only with a bypass input, whose shape `h_shape` is).
pub fn mixed_edge_grad(
    grad: &Tensor,
    ys: &[&Tensor],
    ws: &[&Tensor],
    h_shape: Option<&[usize]>,
    needs: &[bool],
) -> Vec<Option<Tensor>> {
    let k = ys.len();
    let (d_op, d, rows) = geometry(ys, ws, h_shape);
    assert_eq!(
        needs.len(),
        2 * k + usize::from(h_shape.is_some()),
        "mixed_edge_grad: one need per input"
    );
    assert_eq!(grad.len(), rows * d, "mixed_edge_grad: grad shape");
    let n = ys[0].len();
    let (need_y, need_w) = (&needs[..k], &needs[k..2 * k]);
    let need_h = needs.get(2 * k).copied().unwrap_or(false);
    let fold_w = need_w.iter().any(|&b| b);
    let y_count = need_y.iter().filter(|&&b| b).count();
    let w_count = need_w.iter().filter(|&&b| b).count();
    meter::add_reads(
        n.saturating_add(if need_h { rows * (d - d_op) } else { 0 })
            .saturating_add(if fold_w { n.saturating_mul(k) } else { 0 })
            .saturating_add(k),
    );
    let (w, slices) = (weights(ws), ys.iter().map(|y| y.data()).collect::<Vec<_>>());
    let mut gy: Vec<Option<Vec<f32>>> = need_y
        .iter()
        .map(|&b| b.then(|| arena::take_dirty(n)))
        .collect();
    let mut gh = need_h.then(|| arena::take_dirty(grad.len()));
    let mut sums = arena::take_zeroed(k);
    let spec = if fold_w {
        &kernels::REDUCE_TO_SHAPE
    } else {
        &kernels::EW_ZIP_BROADCAST
    };
    let work = n.saturating_mul(y_count.saturating_add(w_count.saturating_mul(2)));
    let writes = n
        .saturating_mul(y_count)
        .saturating_add(gh.as_ref().map_or(0, Vec::len))
        .saturating_add(w_count);
    // One pass on the calling thread: each ∂w_o chain is serial over all
    // `n` elements, so a split over operators cannot shorten it.
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
            dw: fold_w.then_some(&mut sums[..]),
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
    grads.extend(
        need_w
            .iter()
            .zip(&sums)
            .map(|(&b, &s)| b.then(|| Tensor::scalar(s))),
    );
    arena::recycle(sums);
    if let Some(h) = h_shape {
        grads.push(gh.map(|b| Tensor::from_vec(h, b)));
    }
    grads
}

//! Layer normalisation over the last axis as one fused kernel, and its
//! gradients.
//!
//! [`layer_norm`] repeats, per row, every IEEE operation of the composed
//! chain `mean_axis → sub → square → mean_axis → add_scalar → sqrt → div →
//! mul(γ) → add(β)` in its order, and [`layer_norm_grad`] every operation
//! the tape's sweep of that chain runs, in the sweep's order
//! ([`crate::simd::layer_norm_rows`] and its siblings spell them out). So
//! the fused op gives the bits of the chain it replaced, which survives as
//! the test oracle [`super::reference::layer_norm`].
//!
//! There is no LayerNorm kernel spec: the row passes are accounted to
//! `reduce.sum_axis` (forward) and `reduce.sum_axis_grad` (∂x), and the
//! per-channel sums of ∂γ and ∂β to `elementwise.reduce_to_shape`.
//! Every pass writes each output element once, so outputs come from
//! [`arena::take_dirty`].

use crate::arena;
use crate::meter;
use crate::parallel::{self, kernels};
use crate::simd;
use crate::Tensor;

/// Flops metered by a [`layer_norm`] forward over `n` elements in `rows`
/// rows: the composed chain's seven element passes and its two per-row
/// ops (`+ eps`, `√`); like `mean_axis`, the two `1/d` scalings are free.
pub fn layer_norm_flops(n: usize, rows: usize) -> usize {
    n.saturating_mul(7).saturating_add(rows.saturating_mul(2))
}

/// The channel width `d` and row count of `x`, checking `γ` and `β`.
fn geometry(x: &Tensor, gamma: &Tensor) -> (usize, usize) {
    // invariant: every tensor has rank >= 1 (a scalar is `[1]`).
    let d = *x.shape().last().expect("layer_norm of a rank-0 tensor");
    assert_eq!(gamma.shape(), [d], "layer_norm: γ must be [{d}]");
    (d, x.len().checked_div(d).unwrap_or(0))
}

/// `y = (x − mean) / √(var + eps) · γ + β` over the last axis of `x`, with
/// `γ` and `β` of shape `[d]`.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let (d, rows) = geometry(x, gamma);
    assert_eq!(beta.shape(), [d], "layer_norm: β must be [{d}]");
    meter::add_reads(x.len() + 2 * d);
    let (xd, gd, bd) = (x.data(), gamma.data(), beta.data());
    let mut out = arena::take_dirty(x.len());
    parallel::for_units(
        &kernels::REDUCE_SUM_AXIS,
        &mut out,
        d.max(1),
        layer_norm_flops(x.len(), rows),
        |r0, chunk| {
            let start = r0 * d;
            simd::layer_norm_rows(&xd[start..start + chunk.len()], gd, bd, eps, chunk);
        },
    );
    if simd::active() && d <= simd::LN_MAX_D {
        kernels::REDUCE_SUM_AXIS.stats.record_simd();
    }
    Tensor::from_vec(x.shape(), out)
}

/// The gradients of [`layer_norm`] given the upstream `grad`, each only
/// where `needs` (`[x, γ, β]`) asks: `[∂x, ∂γ, ∂β]`.
///
/// The statistics are recomputed from `x` (the same bits as the forward's),
/// so the op saves nothing but its inputs.
///
/// * ∂x is the tape's sum of the chain's two paths into `x` in its
///   sweep order, `∂x_sub + ∂x_mean`: valid as long as nothing recorded
///   after the LayerNorm reads its input, whose gradient the sweep would
///   otherwise add first.
/// * ∂γ is `Σ_r grad·n` and ∂β is `Σ_r grad` per channel, ascending over
///   rows from `+0.0`, as `reduce_to_shape` sums them (∂β *is* that
///   kernel). A rank-1 `x` is one row, which that kernel returns as is.
pub fn layer_norm_grad(
    grad: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    needs: [bool; 3],
) -> [Option<Tensor>; 3] {
    let (d, rows) = geometry(x, gamma);
    assert_eq!(grad.shape(), x.shape(), "layer_norm_grad: grad shape");
    let (n, gd, xd) = (x.len(), grad.data(), x.data());
    let gx = needs[0].then(|| {
        meter::add_reads(2 * n + d);
        let mut out = arena::take_dirty(n);
        // Per element the statistics' 4 ops, ∂sd's 5, ∂c's and ∂m's 5 and
        // the last add; per row 10 scalar ops.
        let work = n.saturating_mul(15).saturating_add(rows.saturating_mul(10));
        parallel::for_units(
            &kernels::REDUCE_SUM_AXIS_GRAD,
            &mut out,
            d.max(1),
            work,
            |r0, chunk| {
                let s = r0 * d..r0 * d + chunk.len();
                simd::layer_norm_grad_rows(&gd[s.clone()], &xd[s], gamma.data(), eps, chunk);
            },
        );
        if simd::active() && d <= simd::LN_MAX_D {
            kernels::REDUCE_SUM_AXIS_GRAD.stats.record_simd();
        }
        Tensor::from_vec(x.shape(), out)
    });
    let ggamma = needs[1].then(|| {
        meter::add_reads(2 * n);
        let mut out = arena::take_dirty(d);
        let init = if x.rank() > 1 { 0.0 } else { -0.0 };
        // Per element the statistics' 4 ops and `g·(x − m)/sd` summed; per
        // row 4 scalar ops.
        let work = n.saturating_mul(8).saturating_add(rows.saturating_mul(4));
        parallel::for_units(&kernels::REDUCE_TO_SHAPE, &mut out, 1, work, |c0, chunk| {
            simd::layer_norm_grad_gamma(gd, xd, d, eps, c0, init, chunk);
        });
        if simd::active() && d <= simd::LN_MAX_D {
            kernels::REDUCE_TO_SHAPE.stats.record_simd();
        }
        Tensor::from_vec(gamma.shape(), out)
    });
    let gbeta = needs[2].then(|| super::reduce_to_shape(grad, gamma.shape()));
    [gx, ggamma, gbeta]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn pattern(shape: &[usize], salt: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 997) as f32 * 0.01 - 5.0)
            .collect::<Vec<f32>>();
        Tensor::from_vec(shape.to_vec(), data)
    }

    #[test]
    fn fused_matches_the_composed_chain() {
        for shape in [
            vec![5usize],
            vec![1, 1],
            vec![3, 1],
            vec![2, 9, 3],
            vec![17, 16],
        ] {
            let d = *shape.last().unwrap();
            let (x, g) = (pattern(&shape, 1), pattern(&shape, 2));
            let (gamma, beta) = (pattern(&[d], 3), pattern(&[d], 4));
            let y = layer_norm(&x, &gamma, &beta, 1e-5);
            let want = reference::layer_norm(&x, &gamma, &beta, 1e-5);
            assert_eq!(bits(&y), bits(&want), "y {shape:?}");
            let got = layer_norm_grad(&g, &x, &gamma, 1e-5, [true; 3]);
            let want = reference::layer_norm_grad(&g, &x, &gamma, 1e-5, [true; 3]);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.shape(), b.shape(), "grad {i} {shape:?}");
                assert_eq!(bits(a), bits(b), "grad {i} {shape:?}");
            }
        }
    }

    #[test]
    fn grad_computes_only_what_is_needed() {
        let (x, g) = (pattern(&[4, 6], 5), pattern(&[4, 6], 6));
        let gamma = pattern(&[6], 7);
        let full = layer_norm_grad(&g, &x, &gamma, 1e-5, [true; 3]);
        for mask in 0..8usize {
            let needs = [mask & 1 == 1, mask & 2 == 2, mask & 4 == 4];
            let got = layer_norm_grad(&g, &x, &gamma, 1e-5, needs);
            for i in 0..3 {
                match (&got[i], &full[i]) {
                    (Some(a), Some(b)) if needs[i] => assert_eq!(bits(a), bits(b)),
                    (None, _) if !needs[i] => {}
                    _ => panic!("slot {i} under {needs:?}"),
                }
            }
        }
    }
}

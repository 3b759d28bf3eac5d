//! Softmax over the last axis (with optional temperature via pre-scaling).
//!
//! Rows are independent, so all three kernels partition the row range
//! across the scoped-thread pool in [`crate::parallel`]; per-row math is
//! unchanged from the serial version, keeping results bit-exact at any
//! thread count.
//!
//! SIMD coverage is per pass: the max scan ([`crate::simd::row_max`], a
//! pinned horizontal-reduce tree whose one reorder artifact — the sign of
//! an equal-zero maximum — is erased by the `exp(x − m)` that consumes it)
//! and the `1/z` normalization ([`crate::simd::scale_in_place`]) vectorize;
//! the exp pass and the running `z` sum stay scalar because a vector unit
//! would have to reassociate that single sequential addition chain.
//!
//! Each row writes every one of its outputs, so all three kernels take
//! their output from [`arena::take_dirty`].

use crate::arena;
use crate::meter;
use crate::parallel;
use crate::Tensor;

/// Numerically stable softmax over the last axis.
pub fn softmax_last(a: &Tensor) -> Tensor {
    meter::add_reads(a.len());
    let r = a.rank();
    let n = a.shape()[r - 1];
    let mut out = arena::take_dirty(a.len());
    let data = a.data();
    // ~4 flops per element (max scan, exp, sum, scale).
    parallel::for_units(
        &parallel::kernels::SOFTMAX,
        &mut out,
        n.max(1),
        4 * a.len(),
        |start, chunk| {
            if n == 0 {
                return;
            }
            for (ri, o) in chunk.chunks_mut(n).enumerate() {
                let base = (start + ri) * n;
                let s = &data[base..base + n];
                let m = crate::simd::row_max(s);
                let mut z = 0.0f32;
                for (oi, &x) in o.iter_mut().zip(s.iter()) {
                    let e = (x - m).exp();
                    *oi = e;
                    z += e;
                }
                crate::simd::scale_in_place(o, 1.0 / z);
            }
        },
    );
    if crate::simd::active() {
        parallel::kernels::SOFTMAX.stats.record_simd();
    }
    Tensor::from_vec(a.shape(), out)
}

/// ∂softmax/∂a given the saved output `y`: `y ⊙ (g − Σ g⊙y)` per row.
pub fn softmax_last_grad(grad: &Tensor, y: &Tensor) -> Tensor {
    meter::add_reads(grad.len() + y.len());
    let r = y.rank();
    let n = y.shape()[r - 1];
    let mut out = arena::take_dirty(y.len());
    let g = grad.data();
    let yv = y.data();
    parallel::for_units(
        &parallel::kernels::SOFTMAX_GRAD,
        &mut out,
        n.max(1),
        4 * y.len(),
        |start, chunk| {
            if n == 0 {
                return;
            }
            for (ri, o) in chunk.chunks_mut(n).enumerate() {
                let base = (start + ri) * n;
                let dot: f32 = (0..n).map(|i| g[base + i] * yv[base + i]).sum();
                crate::simd::softmax_grad_row(o, &yv[base..base + n], &g[base..base + n], dot);
            }
        },
    );
    if crate::simd::active() {
        parallel::kernels::SOFTMAX_GRAD.stats.record_simd();
    }
    Tensor::from_vec(y.shape(), out)
}

/// Log-sum-exp over the last axis (stable), used by some losses.
pub fn logsumexp_last(a: &Tensor) -> Tensor {
    meter::add_reads(a.len());
    let r = a.rank();
    let n = a.shape()[r - 1];
    let rows = a.len() / n.max(1);
    let mut out = arena::take_dirty(rows);
    let data = a.data();
    parallel::for_units(
        &parallel::kernels::LOGSUMEXP,
        &mut out,
        1,
        3 * a.len(),
        |start, chunk| {
            for (ri, o) in chunk.iter_mut().enumerate() {
                let base = (start + ri) * n;
                let s = &data[base..base + n];
                let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let z: f32 = s.iter().map(|&x| (x - m).exp()).sum();
                *o = m + z.ln();
            }
        },
    );
    let mut shape = crate::shape::Shape::from_slice(&a.shape()[..r - 1]);
    if shape.is_empty() {
        shape.push(1);
    }
    Tensor::from_vec(shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = softmax_last(&a);
        let row0: f32 = y.data()[..3].iter().sum();
        let row1: f32 = y.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
        // monotone within rows
        assert!(y.data()[0] < y.data()[1] && y.data()[1] < y.data()[2]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let a = Tensor::from_vec([1, 2], vec![1000.0, 1001.0]);
        let y = softmax_last(&a);
        assert!(!y.has_non_finite());
        assert!((y.data()[0] + y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_grad_zero_for_uniform_upstream() {
        // If upstream grad is constant, softmax grad must be ~0 (probability
        // simplex is invariant to common shifts).
        let a = Tensor::from_vec([1, 4], vec![0.3, -1.0, 2.0, 0.0]);
        let y = softmax_last(&a);
        let g = Tensor::ones([1, 4]);
        let dx = softmax_last_grad(&g, &y);
        for v in dx.data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_matches_reference_above_threshold() {
        let a = Tensor::from_vec(
            vec![64, 24, 32],
            (0..64 * 24 * 32)
                .map(|i| ((i * 31 % 113) as f32) * 0.1 - 5.0)
                .collect(),
        );
        let fast = softmax_last(&a);
        let slow = super::super::reference::softmax_last(&a);
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn logsumexp_matches_naive() {
        let a = Tensor::from_vec([1, 3], vec![0.0, 1.0, 2.0]);
        let l = logsumexp_last(&a);
        let naive = (0f32.exp() + 1f32.exp() + 2f32.exp()).ln();
        assert!((l.item() - naive).abs() < 1e-5);
    }
}

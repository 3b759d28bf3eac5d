//! Dilated causal temporal convolution over `[B, N, T, D]` activations.
//!
//! The convolution is *causal*: output step `t` only sees inputs at
//! `t, t-d, t-2d, …` (implicit left zero-padding keeps the sequence length
//! unchanged), matching the gated dilated causal convolutions of
//! Graph WaveNet / WaveNet-style ST models.
//!
//! All three kernels run on the GEMM microkernel
//! ([`super::matmul::gemm_rows`]). Per series, the forward adds
//! `x[0..T-lag] · w_tap` into output rows `lag..T` tap by tap, and the
//! weight gradient adds `x[0..T-lag]ᵀ · g[lag..T]` into the tap's
//! `[Din, Dout]` slice, with `xᵀ` packed once per series. The input
//! gradient computes `g · wᵀ` for all taps in one product (`wᵀ` packed once
//! per call) and adds its rows into the gradient tap by tap. Every element
//! keeps the per-element order of the naive loops in `ops::reference` and
//! is bit-identical to them.
//!
//! Series (the `B*N` leading dims) are independent, so the forward and the
//! input gradient split series across the worker pool in
//! [`crate::parallel`]. The weight gradient sums over series, so it splits
//! its `[K, Din, Dout]` output rows instead: every worker walks all series
//! for its own rows, and each element keeps the serial chain at any
//! thread count.
//!
//! Note: the original kernels skipped `x == 0.0` terms as a "sparsity"
//! shortcut. That silently masked NaN/∞ (`0 × NaN` must be NaN, but the
//! skip produced 0), hiding numerical blow-ups from `has_non_finite`
//! checks downstream — same bug class as the old matmul kernel. The skip
//! is gone; see `zero_times_nan_propagates` below.

use super::matmul::gemm_rows;
use crate::arena;
use crate::meter;
use crate::parallel;
use crate::simd;
use crate::Tensor;
use std::cell::RefCell;

thread_local! {
    /// Per-thread `xᵀ` of one series (`[Din, T]`) for
    /// [`temporal_conv_grad_w`].
    static XT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread `g · wᵀ` of one series (`[T, K·Din]`) for
    /// [`temporal_conv_grad_x`].
    static DX: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Forward dilated causal conv.
///
/// * `x`: `[B, N, T, D_in]`
/// * `w`: `[K, D_in, D_out]` (tap `K-1` reads the current step)
///
/// Returns `[B, N, T, D_out]`.
pub fn temporal_conv(x: &Tensor, w: &Tensor, dilation: usize) -> Tensor {
    meter::add_reads(x.len() + w.len());
    let (b, n, t, din) = dims4(x);
    let (k, wdin, dout) = dims3(w);
    assert_eq!(din, wdin, "temporal_conv channel mismatch");
    assert!(dilation >= 1);
    let mut out = arena::take_zeroed(b * n * t * dout);
    let xd = x.data();
    let wd = w.data();
    let series = b * n;
    let unit = t * dout;
    let work = 2 * series * t * k * din * dout;
    parallel::for_units(
        &parallel::kernels::TEMPORAL_CONV,
        &mut out,
        unit.max(1),
        work,
        |u0, chunk| {
            if unit == 0 {
                return;
            }
            for (si, oser) in chunk.chunks_mut(unit).enumerate() {
                let xser = &xd[(u0 + si) * t * din..(u0 + si + 1) * t * din];
                for ki in 0..k {
                    let lag = (k - 1 - ki) * dilation;
                    if lag >= t {
                        continue;
                    }
                    let wmat = &wd[ki * din * dout..(ki + 1) * din * dout];
                    gemm_rows(
                        &xser[..(t - lag) * din],
                        din,
                        wmat,
                        &mut oser[lag * dout..],
                        din,
                        dout,
                        false,
                    );
                }
            }
        },
    );
    if crate::simd::active() {
        parallel::kernels::TEMPORAL_CONV.stats.record_simd();
    }
    Tensor::from_vec([b, n, t, dout], out)
}

/// ∂temporal_conv/∂x.
///
/// `wᵀ` is packed once per call as `[Dout, K·Din]`. Per series, one
/// first-pass GEMM gives `D[t, (k, i)] = Σ_co g[t, co] · w[k, i, co]`, each
/// element a fresh ascending-`co` chain from `+0.0`. `D`'s rows are then
/// added into the zeroed gradient in step-then-tap order, so every element
/// matches `ops::reference::temporal_conv_grad_x` bit for bit.
pub fn temporal_conv_grad_x(
    grad: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    dilation: usize,
) -> Tensor {
    meter::add_reads(grad.len() + w.len());
    let (b, n, t, din) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let (k, _, dout) = dims3(w);
    let kd = k * din;
    let wd = w.data();
    let mut wt = arena::take_dirty(dout * kd);
    for (r, wrow) in wd.chunks_exact(dout.max(1)).enumerate() {
        for (co, &v) in wrow.iter().enumerate() {
            wt[co * kd + r] = v;
        }
    }
    let mut gx = arena::take_zeroed(b * n * t * din);
    let gd = grad.data();
    let series = b * n;
    let unit = t * din;
    let work = 2 * series * t * k * din * dout;
    parallel::for_units(
        &parallel::kernels::TEMPORAL_CONV_GRAD_X,
        &mut gx,
        unit.max(1),
        work,
        |u0, chunk| {
            if unit == 0 {
                return;
            }
            DX.with(|p| {
                let mut d = p.borrow_mut();
                if d.len() < t * kd {
                    d.resize(t * kd, 0.0);
                }
                let d = &mut d[..t * kd];
                for (si, xser) in chunk.chunks_mut(unit).enumerate() {
                    let s = u0 + si;
                    let gser = &gd[s * t * dout..(s + 1) * t * dout];
                    gemm_rows(gser, dout, &wt, d, dout, kd, true);
                    for (ti, drow) in d.chunks_exact(kd).enumerate() {
                        for (ki, dtap) in drow.chunks_exact(din).enumerate() {
                            let lag = (k - 1 - ki) * dilation;
                            if lag > ti {
                                continue;
                            }
                            let src = ti - lag;
                            simd::accum(&mut xser[src * din..(src + 1) * din], dtap);
                        }
                    }
                }
            });
        },
    );
    arena::recycle(wt);
    if simd::active() {
        parallel::kernels::TEMPORAL_CONV_GRAD_X.stats.record_simd();
    }
    Tensor::from_vec(x_shape, gx)
}

/// ∂temporal_conv/∂w.
///
/// One unit is one `Dout`-wide row of the `[K, Din, Dout]` gradient (tap
/// `ki`, input channel `i`). Each worker walks every series in ascending
/// order over its own rows, so every element keeps the serial chain —
/// series, then `t` — at any thread count.
pub fn temporal_conv_grad_w(
    grad: &Tensor,
    x: &Tensor,
    w_shape: &[usize],
    dilation: usize,
) -> Tensor {
    meter::add_reads(grad.len() + x.len());
    let (b, n, t, din) = dims4(x);
    let (k, _, dout) = (w_shape[0], w_shape[1], w_shape[2]);
    let mut gw = arena::take_zeroed(k * din * dout);
    let gd = grad.data();
    let xd = x.data();
    let series = b * n;
    let work = 2 * series * t * k * din * dout;
    parallel::for_units(
        &parallel::kernels::TEMPORAL_CONV_GRAD_W,
        &mut gw,
        dout.max(1),
        work,
        |r0, chunk| {
            if dout == 0 {
                return;
            }
            let r1 = r0 + chunk.len() / dout;
            XT.with(|p| {
                let mut xt = p.borrow_mut();
                if xt.len() < din * t {
                    xt.resize(din * t, 0.0);
                }
                for s in 0..series {
                    let xser = &xd[s * t * din..(s + 1) * t * din];
                    let gser = &gd[s * t * dout..(s + 1) * t * dout];
                    for (ti, xrow) in xser.chunks_exact(din).enumerate() {
                        for (i, &v) in xrow.iter().enumerate() {
                            xt[i * t + ti] = v;
                        }
                    }
                    for ki in r0 / din..=(r1 - 1) / din {
                        let lag = (k - 1 - ki) * dilation;
                        if lag >= t {
                            continue;
                        }
                        // This worker's rows of tap `ki`, as input channels.
                        let lo = r0.max(ki * din);
                        let hi = r1.min((ki + 1) * din);
                        let rows = &mut chunk[(lo - r0) * dout..(hi - r0) * dout];
                        gemm_rows(
                            &xt[(lo - ki * din) * t..din * t],
                            t,
                            &gser[lag * dout..],
                            rows,
                            t - lag,
                            dout,
                            false,
                        );
                    }
                }
            });
        },
    );
    if crate::simd::active() {
        parallel::kernels::TEMPORAL_CONV_GRAD_W.stats.record_simd();
    }
    Tensor::from_vec(w_shape, gw)
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(x.rank(), 4, "expected [B,N,T,D], got {:?}", x.shape());
    (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3])
}

fn dims3(w: &Tensor) -> (usize, usize, usize) {
    assert_eq!(w.rank(), 3, "expected [K,Din,Dout], got {:?}", w.shape());
    (w.shape()[0], w.shape()[1], w.shape()[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        // K=1, Din=Dout=1, w=[[1]] => output == input
        let x = Tensor::from_vec([1, 1, 4, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec([1, 1, 1], vec![1.0]);
        let y = temporal_conv(&x, &w, 1);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn causal_difference_kernel() {
        // K=2, w = [-1 (prev), +1 (cur)] computes x[t]-x[t-1] with x[-1]=0.
        let x = Tensor::from_vec([1, 1, 4, 1], vec![1.0, 3.0, 6.0, 10.0]);
        let w = Tensor::from_vec([2, 1, 1], vec![-1.0, 1.0]);
        let y = temporal_conv(&x, &w, 1);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dilation_skips_steps() {
        // K=2, dilation=2: y[t] = x[t] - x[t-2]
        let x = Tensor::from_vec([1, 1, 5, 1], vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        let w = Tensor::from_vec([2, 1, 1], vec![-1.0, 1.0]);
        let y = temporal_conv(&x, &w, 2);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 6.0, 12.0]);
    }

    #[test]
    fn causality_no_future_leak() {
        // Changing x[t0] must not affect outputs before t0.
        let mut x = Tensor::zeros([1, 1, 6, 2]);
        let w = Tensor::from_vec([3, 2, 1], vec![0.5; 6]);
        let y0 = temporal_conv(&x, &w, 1);
        x.data_mut()[3 * 2] = 7.0; // bump t=3, channel 0
        let y1 = temporal_conv(&x, &w, 1);
        for t in 0..3 {
            assert_eq!(y0.at(&[0, 0, t, 0]), y1.at(&[0, 0, t, 0]));
        }
        assert_ne!(y0.at(&[0, 0, 3, 0]), y1.at(&[0, 0, 3, 0]));
    }

    #[test]
    fn zero_times_nan_propagates() {
        // A NaN weight must poison the output even where x is exactly 0 —
        // the old `xv == 0.0 { continue }` shortcut hid it.
        let x = Tensor::zeros([1, 1, 3, 2]);
        let w = Tensor::from_vec([1, 2, 1], vec![f32::NAN, 1.0]);
        let y = temporal_conv(&x, &w, 1);
        assert!(
            y.data().iter().all(|v| v.is_nan()),
            "NaN masked: {:?}",
            y.data()
        );
        // Same for the weight gradient with a NaN upstream and zero input.
        let g = Tensor::full(vec![1, 1, 3, 1], f32::NAN);
        let gw = temporal_conv_grad_w(&g, &x, w.shape(), 1);
        assert!(
            gw.data().iter().all(|v| v.is_nan()),
            "gw masked: {:?}",
            gw.data()
        );
    }

    #[test]
    fn grads_match_finite_difference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let x = Tensor::from_vec(
            [2, 2, 5, 3],
            (0..60)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<f32>>(),
        );
        let w = Tensor::from_vec(
            [2, 3, 2],
            (0..12)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<f32>>(),
        );
        let dil = 2;
        let y = temporal_conv(&x, &w, dil);
        let g = Tensor::ones(y.shape().to_vec());
        let gx = temporal_conv_grad_x(&g, &w, x.shape(), dil);
        let gw = temporal_conv_grad_w(&g, &x, w.shape(), dil);
        let f = |x: &Tensor, w: &Tensor| temporal_conv(x, w, dil).sum();
        let eps = 1e-2;
        for idx in [0usize, 7, 30, 59] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 1e-2,
                "gx[{idx}]: num {num} vs {}",
                gx.data()[idx]
            );
        }
        for idx in [0usize, 5, 11] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 1e-1,
                "gw[{idx}]: num {num} vs {}",
                gw.data()[idx]
            );
        }
    }
}

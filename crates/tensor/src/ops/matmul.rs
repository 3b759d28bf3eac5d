//! Batched matrix multiplication with broadcasting over batch dimensions.
//!
//! The inner kernel is cache-blocked with a packed-B panel: `B` tiles of at
//! most `KC × NC` elements are copied into a dense thread-local panel that
//! stays resident in L1/L2 while all rows of the block consume it. Batched
//! work is partitioned across the persistent worker pool by output row (see
//! [`crate::parallel`]); each worker owns a disjoint slice of the output,
//! and the packing panel is thread-local scratch that survives across
//! kernel calls (pool workers persist), so steady-state matmuls allocate
//! nothing.
//!
//! The innermost loops are the SIMD row-block microkernel
//! ([`crate::simd::gemm_rowblock`]): a strip of output columns for up to
//! four output rows is held in vector accumulators while a block of `k` is
//! streamed through, each `b` row load shared by the rows. Crucially the
//! first block of `k` starts its accumulators at `+0.0` in registers and
//! every later block loads them from the output, so each output element
//! still sees one strictly ascending-`k` addition chain — results are
//! bit-identical to the naive serial triple loop (`ops::reference::matmul`)
//! for every block size, thread count, and SIMD level. That first pass
//! writes every output element, so the products' outputs come from
//! [`arena::take_dirty`] and are never zero-filled first.
//!
//! The backward products do not materialise full transposes: [`matmul_nt`]
//! (`A·Bᵀ`, for ∂/∂a) transpose-packs B into per-worker scratch, and
//! [`matmul_tn`] (`Aᵀ·G`, for ∂/∂b) transpose-packs the rows of Aᵀ a worker
//! needs; both then run the same [`gemm_rows`] as the forward product. The
//! temporal convolution (`ops::conv`) runs its forward and weight gradient
//! through [`gemm_rows`] too. Every path reproduces the exact accumulation
//! order of the transpose-then-matmul composition it replaced, so it is
//! bit-identical to it (asserted in tests and the parallel-consistency
//! proptests).
//!
//! Non-finite values propagate: `0 × NaN = NaN` contributions are *not*
//! skipped, so a NaN/∞ in either operand always reaches the output (the
//! seed kernel's `a == 0.0` fast-out silently masked them).

use crate::arena;
use crate::meter;
use crate::parallel;
use crate::shape::{broadcast_shapes, numel, ravel_broadcast, unravel};
use crate::simd::{gemm_rowblock, Gemm};
use crate::Tensor;
use std::cell::RefCell;

/// K-dimension block size of the packed kernel.
const KC: usize = 128;
/// N-dimension block size of the packed kernel (panel is `KC × NC` floats).
const NC: usize = 64;

thread_local! {
    /// Per-thread packed-B panel, reused across gemm calls. Pool workers
    /// persist between kernels, so this is allocated once per thread for
    /// the life of the process instead of once per gemm call.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread full `bᵀ` buffer for [`matmul_nt`]'s small-B fast path.
    static NT_BT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed rows of `aᵀ` for [`matmul_tn`].
    static TN_AT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Largest transposed operand (in floats) that [`matmul_nt`] and
/// [`matmul_tn`] pack per worker. Below this [`matmul_nt`] transposes once
/// per *distinct* B matrix (typically once, for shared weights); above it,
/// B is transpose-packed tile by tile per batch element instead of held
/// resident. [`matmul_tn`] packs at most this many floats of `aᵀ` (and at
/// least one row) at a time.
const NT_FULL_CAP: usize = 1 << 20;

/// Matrix product over the last two dims: `a: [..., m, k] × b: [..., k, n]`.
///
/// Leading (batch) dimensions broadcast against each other, so a shared
/// weight `[k, n]` multiplies a batch `[B, T, m, k]` directly.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(a.rank() >= 2 && b.rank() >= 2, "matmul needs rank >= 2");
    meter::add_reads(a.len() + b.len());
    let (m, ka) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
    let (kb, n) = (b.shape()[b.rank() - 2], b.shape()[b.rank() - 1]);
    assert_eq!(
        ka,
        kb,
        "matmul inner dims: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let k = ka;

    let a_batch = &a.shape()[..a.rank() - 2];
    let b_batch = &b.shape()[..b.rank() - 2];
    let batch_shape = broadcast_shapes(a_batch, b_batch)
        .unwrap_or_else(|| panic!("matmul batch broadcast {:?} x {:?}", a.shape(), b.shape()));
    let batch = numel(&batch_shape);

    let mut out_shape = batch_shape.clone();
    out_shape.push(m);
    out_shape.push(n);
    let mut out = arena::take_dirty(batch * m * n);

    let a_data = a.data();
    let b_data = b.data();
    let work = 2usize
        .saturating_mul(batch)
        .saturating_mul(m)
        .saturating_mul(n)
        .saturating_mul(k);
    // One unit = one output row; contiguous runs of rows go to each worker,
    // grouped by batch below so B panels are packed once per row block.
    parallel::for_units(
        &parallel::kernels::MATMUL,
        &mut out,
        n.max(1),
        work,
        |row0, chunk| {
            if n == 0 || m == 0 {
                return;
            }
            let rows = chunk.len() / n;
            let mut done = 0;
            while done < rows {
                let row = row0 + done;
                let bi = row / m;
                let i0 = row % m;
                let take = (m - i0).min(rows - done);
                let coords = unravel(bi, &batch_shape);
                let a_off = ravel_broadcast(&coords, a_batch) * m * k;
                let b_off = ravel_broadcast(&coords, b_batch) * k * n;
                gemm_rows(
                    &a_data[a_off + i0 * k..a_off + (i0 + take) * k],
                    k,
                    &b_data[b_off..b_off + k * n],
                    &mut chunk[done * n..(done + take) * n],
                    k,
                    n,
                    true,
                );
                done += take;
            }
        },
    );
    if crate::simd::active() {
        parallel::kernels::MATMUL.stats.record_simd();
    }
    Tensor::from_vec(out_shape, out)
}

/// `out[rows × n] += a[rows × k] · b[k × n]` for one batch element, where
/// row `i` of `a` starts at `a[i·lda]`; with `first`, `out[..] =` instead,
/// whatever `out` held (the bits of summing into zeros).
///
/// Small `b` matrices are streamed directly (they already fit in cache);
/// larger ones go through the packed-panel path ([`packed_rows`]).
pub(crate) fn gemm_rows(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    first: bool,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    // `k == 0` always takes this branch, so a first pass writes zeros.
    if k * n <= KC * NC {
        gemm_rowblock(
            a,
            b,
            out,
            Gemm {
                rows,
                k,
                nc: n,
                lda,
                ldo: n,
                first,
            },
        );
        return;
    }
    packed_rows(a, lda, out, k, n, first, |panel, k0, j0, nc| {
        for (kk, dst) in panel.chunks_exact_mut(nc).enumerate() {
            let src = (k0 + kk) * n + j0;
            dst.copy_from_slice(&b[src..src + nc]);
        }
    });
}

/// `out[rows × n] += a[rows × k] · B` through a packed panel: each
/// `KC × NC` tile of `B` is copied by `pack(panel, k0, j0, nc)` into the
/// dense thread-local panel (`kc × nc`, row-major), which stays resident
/// in L1/L2 while every row of the block consumes it. Tiles advance `k0`
/// outermost, so each output element's chain stays strictly ascending in
/// `k`; with `first`, the `k0 = 0` tiles are first passes.
fn packed_rows(
    a: &[f32],
    lda: usize,
    out: &mut [f32],
    k: usize,
    n: usize,
    first: bool,
    pack: impl Fn(&mut [f32], usize, usize, usize),
) {
    let rows = out.len() / n;
    PANEL.with(|p| {
        let mut panel = p.borrow_mut();
        let need = KC * NC.min(n);
        if panel.len() < need {
            panel.resize(need, 0.0);
        }
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let mut j0 = 0;
            while j0 < n {
                let nc = NC.min(n - j0);
                let tile = &mut panel[..kc * nc];
                pack(tile, k0, j0, nc);
                let first = first && k0 == 0;
                gemm_rowblock(
                    &a[k0..],
                    tile,
                    &mut out[j0..],
                    Gemm {
                        rows,
                        k: kc,
                        nc,
                        lda,
                        ldo: n,
                        first,
                    },
                );
                j0 += nc;
            }
            k0 += kc;
        }
    });
}

/// Transpose the last two dimensions.
///
/// Tiled (cache-oblivious enough for the sizes used here) and partitioned
/// across threads by batch element.
pub fn transpose_last2(a: &Tensor) -> Tensor {
    assert!(a.rank() >= 2);
    let r = a.rank();
    let (m, n) = (a.shape()[r - 2], a.shape()[r - 1]);
    let mut out_shape = crate::shape::Shape::from_slice(a.shape());
    out_shape[r - 2] = n;
    out_shape[r - 1] = m;
    let mut out = arena::take_dirty(a.len());
    let data = a.data();
    let mat = m * n;
    if mat == 0 {
        return Tensor::from_vec(out_shape, out);
    }
    meter::add_reads(a.len());
    parallel::for_units(
        &parallel::kernels::TRANSPOSE,
        &mut out,
        mat,
        a.len(),
        |b0, chunk| {
            for (bb, dst) in chunk.chunks_mut(mat).enumerate() {
                let src = &data[(b0 + bb) * mat..(b0 + bb + 1) * mat];
                transpose_tile(src, dst, m, n);
            }
        },
    );
    Tensor::from_vec(out_shape, out)
}

/// `dst[n × m] = src[m × n]ᵀ`, in 32×32 tiles.
pub(crate) fn transpose_tile(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    const TB: usize = 32;
    let mut i0 = 0;
    while i0 < m {
        let iend = (i0 + TB).min(m);
        let mut j0 = 0;
        while j0 < n {
            let jend = (j0 + TB).min(n);
            for i in i0..iend {
                for j in j0..jend {
                    dst[j * m + i] = src[i * n + j];
                }
            }
            j0 = jend;
        }
        i0 = iend;
    }
}

/// Fused `A · Bᵀ`: `a: [..., m, k] × b: [..., n, k] → [..., m, n]` with
/// `out[i, j] = Σ_k a[i, k] · b[j, k]` (batch dims broadcast).
///
/// Small B matrices (`n·k ≤ NT_FULL_CAP`) are transposed whole into a
/// per-worker buffer — once per *distinct* B, so a shared weight broadcast
/// over a big batch transposes exactly once per worker — and then multiply
/// through the identical `gemm_rows` path as the forward product. Larger
/// B is transpose-packed tile by tile into the panel instead. Both orders
/// accumulate each output element in strictly ascending `k`, so the result
/// is bit-identical to `matmul(a, transpose_last2(b))`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(a.rank() >= 2 && b.rank() >= 2, "matmul_nt needs rank >= 2");
    meter::add_reads(a.len() + b.len());
    let (m, ka) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
    let (n, kb) = (b.shape()[b.rank() - 2], b.shape()[b.rank() - 1]);
    assert_eq!(
        ka,
        kb,
        "matmul_nt inner dims: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let k = ka;

    let a_batch = &a.shape()[..a.rank() - 2];
    let b_batch = &b.shape()[..b.rank() - 2];
    let batch_shape = broadcast_shapes(a_batch, b_batch).unwrap_or_else(|| {
        panic!(
            "matmul_nt batch broadcast {:?} x {:?}",
            a.shape(),
            b.shape()
        )
    });
    let batch = numel(&batch_shape);

    let mut out_shape = batch_shape.clone();
    out_shape.push(m);
    out_shape.push(n);
    let mut out = arena::take_dirty(batch * m * n);

    let a_data = a.data();
    let b_data = b.data();
    let work = 2usize
        .saturating_mul(batch)
        .saturating_mul(m)
        .saturating_mul(n)
        .saturating_mul(k);
    parallel::for_units(
        &parallel::kernels::MATMUL_NT,
        &mut out,
        n.max(1),
        work,
        |row0, chunk| {
            if n == 0 || m == 0 {
                return;
            }
            let rows = chunk.len() / n;
            let full = n * k <= NT_FULL_CAP;
            NT_BT.with(|p| {
                let mut bt = p.borrow_mut();
                if full && bt.len() < k * n {
                    bt.resize(k * n, 0.0);
                }
                // `usize::MAX` can never be a valid element offset.
                let mut packed_off = usize::MAX;
                let mut done = 0;
                while done < rows {
                    let row = row0 + done;
                    let bi = row / m;
                    let i0 = row % m;
                    let take = (m - i0).min(rows - done);
                    let coords = unravel(bi, &batch_shape);
                    let a_off = ravel_broadcast(&coords, a_batch) * m * k;
                    let b_off = ravel_broadcast(&coords, b_batch) * n * k;
                    let a_rows = &a_data[a_off + i0 * k..a_off + (i0 + take) * k];
                    let out_rows = &mut chunk[done * n..(done + take) * n];
                    if full {
                        if b_off != packed_off {
                            transpose_tile(&b_data[b_off..b_off + n * k], &mut bt[..k * n], n, k);
                            packed_off = b_off;
                        }
                        gemm_rows(a_rows, k, &bt[..k * n], out_rows, k, n, true);
                    } else {
                        let b = &b_data[b_off..b_off + n * k];
                        packed_rows(a_rows, k, out_rows, k, n, true, |panel, k0, j0, nc| {
                            let kc = panel.len() / nc;
                            for jj in 0..nc {
                                let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                                for (kk, &v) in src.iter().enumerate() {
                                    panel[kk * nc + jj] = v;
                                }
                            }
                        });
                    }
                    done += take;
                }
            });
        },
    );
    if crate::simd::active() {
        parallel::kernels::MATMUL_NT.stats.record_simd();
    }
    Tensor::from_vec(out_shape, out)
}

/// Fused `Aᵀ · G`: `a: [..., m, k] × g: [..., m, n] → [..., k, n]` with
/// `out[r, j] = Σ_i a[i, r] · g[i, j]` (batch dims broadcast).
///
/// Each worker transpose-packs the rows of `aᵀ` its output rows need into
/// per-worker scratch — once per *distinct* A and row range, so a shared
/// adjacency broadcast over a big batch is packed once per worker — and
/// then runs the same `gemm_rows` as the forward product, with the
/// reduction over `i`. Each output element accumulates in ascending `i`,
/// the exact order of `matmul(transpose_last2(a), g)`, so the result is
/// bit-identical to it.
pub fn matmul_tn(a: &Tensor, g: &Tensor) -> Tensor {
    assert!(a.rank() >= 2 && g.rank() >= 2, "matmul_tn needs rank >= 2");
    meter::add_reads(a.len() + g.len());
    let (ma, kd) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
    let (mg, n) = (g.shape()[g.rank() - 2], g.shape()[g.rank() - 1]);
    assert_eq!(
        ma,
        mg,
        "matmul_tn outer dims: {:?} x {:?}",
        a.shape(),
        g.shape()
    );
    let m = ma;

    let a_batch = &a.shape()[..a.rank() - 2];
    let g_batch = &g.shape()[..g.rank() - 2];
    let batch_shape = broadcast_shapes(a_batch, g_batch).unwrap_or_else(|| {
        panic!(
            "matmul_tn batch broadcast {:?} x {:?}",
            a.shape(),
            g.shape()
        )
    });
    let batch = numel(&batch_shape);

    let mut out_shape = batch_shape.clone();
    out_shape.push(kd);
    out_shape.push(n);
    let mut out = arena::take_dirty(batch * kd * n);

    let a_data = a.data();
    let g_data = g.data();
    let work = 2usize
        .saturating_mul(batch)
        .saturating_mul(m)
        .saturating_mul(kd)
        .saturating_mul(n);
    // Rows of aᵀ packed at a time: NT_FULL_CAP floats, or one row when a
    // row alone is longer.
    let max_take = (NT_FULL_CAP / m.max(1)).max(1);
    parallel::for_units(
        &parallel::kernels::MATMUL_TN,
        &mut out,
        n.max(1),
        work,
        |row0, chunk| {
            if n == 0 || kd == 0 {
                return;
            }
            let rows = chunk.len() / n;
            TN_AT.with(|p| {
                let mut at = p.borrow_mut();
                // (a offset, first row, rows) of the packed block; `usize::MAX`
                // can never be a valid element offset.
                let mut packed = (usize::MAX, 0, 0);
                let mut done = 0;
                while done < rows {
                    let row = row0 + done;
                    let bi = row / kd;
                    let r0 = row % kd;
                    let take = (kd - r0).min(rows - done).min(max_take);
                    let coords = unravel(bi, &batch_shape);
                    let a_off = ravel_broadcast(&coords, a_batch) * m * kd;
                    let g_off = ravel_broadcast(&coords, g_batch) * m * n;
                    if packed != (a_off, r0, take) {
                        if at.len() < take * m {
                            at.resize(take * m, 0.0);
                        }
                        pack_transposed_rows(
                            &a_data[a_off..a_off + m * kd],
                            &mut at[..take * m],
                            kd,
                            r0,
                        );
                        packed = (a_off, r0, take);
                    }
                    gemm_rows(
                        &at[..take * m],
                        m,
                        &g_data[g_off..g_off + m * n],
                        &mut chunk[done * n..(done + take) * n],
                        m,
                        n,
                        true,
                    );
                    done += take;
                }
            });
        },
    );
    if crate::simd::active() {
        parallel::kernels::MATMUL_TN.stats.record_simd();
    }
    Tensor::from_vec(out_shape, out)
}

/// `dst[rr·m + i] = a[i·kd + r0 + rr]`: rows `r0..r0 + dst.len()/m` of
/// `aᵀ`, where `a` is `[m × kd]`.
fn pack_transposed_rows(a: &[f32], dst: &mut [f32], kd: usize, r0: usize) {
    let m = a.len() / kd;
    if m == 0 {
        return;
    }
    let take = dst.len() / m;
    for (i, src) in a.chunks_exact(kd).enumerate() {
        for (rr, &v) in src[r0..r0 + take].iter().enumerate() {
            dst[rr * m + i] = v;
        }
    }
}

/// ∂(a·b)/∂a = grad · bᵀ, reduced over broadcast batch dims to a's shape.
/// The transpose is fused into the gemm ([`matmul_nt`]) — bit-identical to
/// the old `matmul(grad, transpose_last2(b))` composition.
pub fn matmul_grad_a(grad: &Tensor, b: &Tensor, a_shape: &[usize]) -> Tensor {
    super::reduce_owned(matmul_nt(grad, b), a_shape)
}

/// ∂(a·b)/∂b = aᵀ · grad, reduced over broadcast batch dims to b's shape.
/// The transpose is fused into the gemm ([`matmul_tn`]) — bit-identical to
/// the old `matmul(transpose_last2(a), grad)` composition.
pub fn matmul_grad_b(grad: &Tensor, a: &Tensor, b_shape: &[usize]) -> Tensor {
    super::reduce_owned(matmul_tn(a, grad), b_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1, 3], &[1.0, 2.0, 3.0]);
        let b = t(&[3, 2], &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(matmul(&a, &b).data(), &[4.0, 5.0]);
    }

    #[test]
    fn matmul_batched_broadcast_weight() {
        // [2,1,2,2] batch times shared [2,2] weight
        let a = t(&[2, 2, 2], &[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0]);
        let w = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let y = matmul(&a, &w);
        assert_eq!(y.shape(), &[2, 2, 2]);
        assert_eq!(&y.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&y.data()[4..], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_broadcast_matrix_times_batch() {
        // A [3,3] times X [2,3,1]
        let a = Tensor::eye(3);
        let x = t(&[2, 3, 1], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = matmul(&a, &x);
        assert_eq!(y.shape(), &[2, 3, 1]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn matmul_exceeding_block_sizes_matches_reference() {
        // k and n beyond one KC × NC panel exercise the packed path edges.
        let (m, k, n) = (3, KC + 5, NC * 2 + 3);
        let a = t(
            &[m, k],
            &(0..m * k)
                .map(|i| (i % 13) as f32 - 6.0)
                .collect::<Vec<_>>(),
        );
        let b = t(
            &[k, n],
            &(0..k * n).map(|i| (i % 7) as f32 - 3.0).collect::<Vec<_>>(),
        );
        let fast = matmul(&a, &b);
        let slow = super::super::reference::matmul(&a, &b);
        assert_eq!(
            fast.data(),
            slow.data(),
            "packed kernel diverged from reference"
        );
    }

    #[test]
    fn matmul_propagates_nan_from_either_operand() {
        // Regression: the seed kernel skipped a == 0.0 rows, so 0 × NaN was
        // silently dropped instead of poisoning the output.
        let mut a = Tensor::zeros([2, 2]);
        a.data_mut()[0] = 0.0; // explicit: the masking bug needs a zero here
        let mut b = Tensor::ones([2, 2]);
        b.data_mut()[0] = f32::NAN;
        let y = matmul(&a, &b);
        assert!(
            y.data()[0].is_nan(),
            "NaN in b masked by zero in a: {:?}",
            y
        );

        let mut a2 = Tensor::ones([2, 2]);
        a2.data_mut()[3] = f32::NAN;
        let b2 = Tensor::zeros([2, 2]);
        let y2 = matmul(&a2, &b2);
        assert!(
            y2.data()[2].is_nan() && y2.data()[3].is_nan(),
            "NaN in a lost: {:?}",
            y2
        );

        // Infinity likewise: 0 × ∞ = NaN must reach the output.
        let mut b3 = Tensor::ones([2, 2]);
        b3.data_mut()[0] = f32::INFINITY;
        let y3 = matmul(&Tensor::zeros([2, 2]), &b3);
        assert!(y3.data()[0].is_nan(), "0 × ∞ must be NaN: {:?}", y3);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = transpose_last2(&a);
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose_last2(&at).data(), a.data());
    }

    #[test]
    fn transpose_beyond_tile_size() {
        let (m, n) = (37, 41); // not multiples of the 32-wide tile
        let a = t(&[m, n], &(0..m * n).map(|i| i as f32).collect::<Vec<_>>());
        let at = transpose_last2(&a);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(at.at(&[j, i]), a.at(&[i, j]));
            }
        }
    }

    #[test]
    fn nt_matches_transpose_composition_bit_exact() {
        // Sizes straddle the MR/unroll widths and the block edges.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 17, 9), (5, KC + 3, 13)] {
            let a = t(
                &[m, k],
                &(0..m * k)
                    .map(|i| ((i * 37) % 19) as f32 - 9.0)
                    .collect::<Vec<_>>(),
            );
            let b = t(
                &[n, k],
                &(0..n * k)
                    .map(|i| ((i * 23) % 17) as f32 - 8.0)
                    .collect::<Vec<_>>(),
            );
            let fused = matmul_nt(&a, &b);
            let composed = matmul(&a, &transpose_last2(&b));
            assert_eq!(fused.shape(), composed.shape());
            assert_eq!(fused.data(), composed.data(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn nt_large_b_tile_fallback_bit_exact() {
        // n·k just over NT_FULL_CAP forces the per-tile transpose-pack
        // path instead of the whole-bᵀ fast path.
        let (m, k, n) = (3usize, 1020usize, 1030usize);
        assert!(n * k > NT_FULL_CAP);
        let a = t(
            &[m, k],
            &(0..m * k)
                .map(|i| ((i * 37) % 19) as f32 - 9.0)
                .collect::<Vec<_>>(),
        );
        let b = t(
            &[n, k],
            &(0..n * k)
                .map(|i| ((i * 23) % 17) as f32 - 8.0)
                .collect::<Vec<_>>(),
        );
        let fused = matmul_nt(&a, &b);
        let composed = matmul(&a, &transpose_last2(&b));
        assert_eq!(fused.shape(), composed.shape());
        assert_eq!(fused.data(), composed.data());
    }

    #[test]
    fn tn_matches_transpose_composition_bit_exact() {
        for (m, kd, n) in [(1, 1, 1), (5, 3, 7), (17, 4, 9), (KC + 3, 5, 13)] {
            let a = t(
                &[m, kd],
                &(0..m * kd)
                    .map(|i| ((i * 31) % 19) as f32 - 9.0)
                    .collect::<Vec<_>>(),
            );
            let g = t(
                &[m, n],
                &(0..m * n)
                    .map(|i| ((i * 29) % 17) as f32 - 8.0)
                    .collect::<Vec<_>>(),
            );
            let fused = matmul_tn(&a, &g);
            let composed = matmul(&transpose_last2(&a), &g);
            assert_eq!(fused.shape(), composed.shape());
            assert_eq!(fused.data(), composed.data(), "m={m} kd={kd} n={n}");
        }
    }

    #[test]
    fn nt_tn_broadcast_batches_match_composition() {
        // Batched left operand against shared right operand, and vice versa.
        let a = t(
            &[2, 3, 4],
            &(0..24).map(|i| (i % 11) as f32 - 5.0).collect::<Vec<_>>(),
        );
        let b = t(
            &[5, 4],
            &(0..20).map(|i| (i % 7) as f32 - 3.0).collect::<Vec<_>>(),
        );
        let fused = matmul_nt(&a, &b);
        let composed = matmul(&a, &transpose_last2(&b));
        assert_eq!(fused.data(), composed.data());

        let g = t(
            &[2, 3, 5],
            &(0..30).map(|i| (i % 13) as f32 - 6.0).collect::<Vec<_>>(),
        );
        let a2 = t(
            &[3, 4],
            &(0..12).map(|i| (i % 5) as f32 - 2.0).collect::<Vec<_>>(),
        );
        let fused2 = matmul_tn(&a2, &g);
        let composed2 = matmul(&transpose_last2(&a2), &g);
        assert_eq!(fused2.data(), composed2.data());
    }

    #[test]
    fn nt_propagates_nan() {
        // 0 · NaN must reach the output through the fused path too.
        let a = Tensor::zeros([2, 3]);
        let mut b = Tensor::ones([4, 3]);
        b.data_mut()[0] = f32::NAN;
        let y = matmul_nt(&a, &b);
        assert!(y.data()[0].is_nan(), "NaN masked in matmul_nt: {:?}", y);
    }

    #[test]
    fn grads_match_manual() {
        // f = sum(a@b); df/da = ones @ b^T, df/db = a^T @ ones.
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = Tensor::ones([2, 2]);
        let ga = matmul_grad_a(&g, &b, a.shape());
        assert_eq!(ga.data(), &[3.0, 7.0, 11.0, 3.0, 7.0, 11.0]);
        let gb = matmul_grad_b(&g, &a, b.shape());
        assert_eq!(gb.data(), &[5.0, 5.0, 7.0, 7.0, 9.0, 9.0]);
    }

    #[test]
    fn grad_reduces_broadcast_batch() {
        // shared weight [2,2] used across batch of 3
        let a = t(&[3, 1, 2], &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let w = Tensor::eye(2);
        let g = Tensor::ones([3, 1, 2]);
        let gw = matmul_grad_b(&g, &a, w.shape());
        assert_eq!(gw.shape(), &[2, 2]);
        // each batch contributes a^T@ones = [[a0],[a1]] broadcast over cols
        assert_eq!(gw.data(), &[6.0, 6.0, 6.0, 6.0]);
    }
}

//! ProbSparse attention's row placement as one kernel, and its gradients.
//!
//! ProbSparse attention (Informer) attends only from the `u` selected
//! queries of each `[L, D]` sequence; every other ("lazy") query outputs
//! the mean of `V`. [`place_rows`] writes the `[B', L, D]` output once:
//! each selected row's attention output at its original position, and
//! `v_mean·1.0` on every lazy row. The multiply by one stays, so a `−0.0`
//! or NaN in `v_mean` comes out as the composed chain gave it. That chain —
//! a ones constant, the `mul`, the `concat` of `[attn; v_rep]` and an
//! inverse `index_select` — survives as the test oracle
//! [`super::reference::place_rows`].
//!
//! [`place_rows_grad`] gathers the selected rows of the upstream gradient
//! as `0.0 + g` (the chain's scatter into zeros turned a `−0.0` into
//! `+0.0`), and sums `g·1.0` over the lazy rows into `∂v_mean`, per
//! element in ascending row order from `+0.0`, as the `mul`'s reduction
//! over the row axis does.
//!
//! There is no placement kernel spec. The forward is accounted to
//! `elementwise.zip_broadcast` with the flops of the `mul` by ones (one
//! per lazy element), split over rows like that `mul`. `∂v_mean` is
//! accounted to `elementwise.reduce_to_shape` with the flops of that
//! `mul`'s gradient product and its reduction (two per lazy element), on
//! the calling thread ([`parallel::serial`]): the two kernels it replaces
//! each stayed below the parallel threshold at the search shapes, where
//! their sum would cross it into a split that costs more than it saves.
//! The gather, like the `index_select` it replaces, moves data and is not
//! metered.

use crate::arena;
use crate::meter;
use crate::parallel::{self, kernels};
use crate::simd::{self, BinOp, Rows};
use crate::Tensor;

/// Flops metered by a [`place_rows`] forward: one `·1.0` per element of
/// the `l − u` lazy rows of each of `b` sequences of width `d`.
pub fn place_rows_flops(b: usize, l: usize, u: usize, d: usize) -> usize {
    b.saturating_mul(l.saturating_sub(u)).saturating_mul(d)
}

/// `(b, d)` of the placement, checking the operands.
fn geometry(attn: &Tensor, mean: &Tensor, sel: &[usize], l: usize) -> (usize, usize) {
    let s = attn.shape();
    assert!(
        s.len() == 3 && s[1] == sel.len() && mean.shape() == [s[0], 1, s[2]],
        "place_rows: attention rows {s:?} and mean {:?} for {} selected rows",
        mean.shape(),
        sel.len()
    );
    assert!(
        sel.windows(2).all(|p| p[0] < p[1]) && sel.last().is_none_or(|&r| r < l),
        "place_rows: selected rows must ascend inside 0..{l}"
    );
    (s[0], s[2])
}

/// The rows `r0..r0 + n` of one sequence, as runs: `f(first_row, rows,
/// Some(pos))` for the selected row `sel[pos]`, `f(first_row, rows, None)`
/// for each maximal run of lazy rows.
fn runs(sel: &[usize], r0: usize, n: usize, mut f: impl FnMut(usize, usize, Option<usize>)) {
    let end = r0 + n;
    let mut pos = sel.partition_point(|&s| s < r0);
    let mut r = r0;
    while r < end {
        if sel.get(pos) == Some(&r) {
            f(r, 1, Some(pos));
            pos += 1;
            r += 1;
        } else {
            let next = sel.get(pos).map_or(end, |&s| s.min(end));
            f(r, next - r, None);
            r = next;
        }
    }
}

/// ProbSparse output rows: `out[b, sel[p], :] = attn[b, p, :]` for each
/// selected row, and `out[b, r, :] = mean[b, 0, :]·1.0` for every other
/// row `r < l`. `attn` is `[B', u, D]`, `mean` is `[B', 1, D]`, and `sel`
/// holds `u` ascending rows of `0..l`.
pub fn place_rows(attn: &Tensor, mean: &Tensor, sel: &[usize], l: usize) -> Tensor {
    let (b, d) = geometry(attn, mean, sel, l);
    meter::add_reads(attn.len() + mean.len());
    let (ad, md) = (attn.data(), mean.data());
    let one = [std::hint::black_box(1.0f32)];
    let mut out = arena::take_dirty(b * l * d);
    parallel::for_units(
        &kernels::EW_ZIP_BROADCAST,
        &mut out,
        d.max(1),
        place_rows_flops(b, l, sel.len(), d),
        |q0, chunk| {
            let mut rest = chunk;
            let mut q = q0;
            while !rest.is_empty() {
                let (bi, r0) = (q / l, q % l);
                let n = (l - r0).min(rest.len() / d.max(1));
                let (seq, tail) = rest.split_at_mut(n * d);
                runs(sel, r0, n, |r, rows, pos| {
                    let o = &mut seq[(r - r0) * d..(r - r0 + rows) * d];
                    match pos {
                        Some(p) => {
                            let src = (bi * sel.len() + p) * d;
                            o.copy_from_slice(&ad[src..src + d]);
                        }
                        None => {
                            let m = Rows {
                                data: md,
                                base: bi * d,
                                stride: 0,
                                splat: false,
                            };
                            let ones = Rows {
                                data: &one,
                                base: 0,
                                stride: 0,
                                splat: true,
                            };
                            simd::zip_rows(BinOp::Mul, m, ones, d, o);
                        }
                    }
                });
                rest = tail;
                q += n;
            }
        },
    );
    if simd::active() {
        kernels::EW_ZIP_BROADCAST.stats.record_simd();
    }
    Tensor::from_vec([b, l, d], out)
}

/// The gradients of [`place_rows`] given the upstream `grad` (`[B', L,
/// D]`), each only where `needs` (`[attn, mean]`) asks: `∂attn` (`[B', u,
/// D]`) the selected rows of `0.0 + grad`, and `∂mean` (`[B', 1, D]`) the
/// sum of `grad·1.0` over the lazy rows, ascending from `+0.0`.
pub fn place_rows_grad(grad: &Tensor, sel: &[usize], needs: [bool; 2]) -> [Option<Tensor>; 2] {
    let s = grad.shape();
    assert_eq!(s.len(), 3, "place_rows_grad: grad must be [B', L, D]");
    let (b, l, d) = (s[0], s[1], s[2]);
    let u = sel.len();
    let gd = grad.data();
    let gattn = needs[0].then(|| {
        let mut out = arena::take_dirty(b * u * d);
        for (bi, o) in out.chunks_exact_mut((u * d).max(1)).enumerate() {
            for (p, o) in o.chunks_exact_mut(d.max(1)).enumerate() {
                let src = (bi * l + sel[p]) * d;
                for (o, &g) in o.iter_mut().zip(&gd[src..src + d]) {
                    *o = 0.0 + g;
                }
            }
        }
        Tensor::from_vec([b, u, d], out)
    });
    let gmean = needs[1].then(|| {
        let lazy = place_rows_flops(b, l, u, d);
        meter::add_reads(lazy);
        let one = std::hint::black_box(1.0f32);
        let mut out = arena::take_dirty(b * d);
        let writes = out.len();
        parallel::serial(
            &kernels::REDUCE_TO_SHAPE,
            lazy.saturating_mul(2),
            writes,
            || {
                for (bi, acc) in out.chunks_exact_mut(d.max(1)).enumerate() {
                    acc.fill(0.0);
                    runs(sel, 0, l, |r, rows, pos| {
                        if pos.is_some() {
                            return;
                        }
                        for r in r..r + rows {
                            let src = (bi * l + r) * d;
                            simd::axpy(acc, one, &gd[src..src + d]);
                        }
                    });
                }
            },
        );
        if simd::active() {
            kernels::REDUCE_TO_SHAPE.stats.record_simd();
        }
        Tensor::from_vec([b, 1, d], out)
    });
    [gattn, gmean]
}

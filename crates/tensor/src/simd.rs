//! Explicit SIMD microkernels with bit-exact scalar fallbacks.
//!
//! Every hot kernel in [`crate::ops`] dispatches its innermost loops
//! through this module: AVX2 when the host has it, and a plain scalar
//! path everywhere else or when `CTS_SIMD=off` is set. Dispatch is per
//! kernel call, so the branch is amortized over the whole inner loop, and
//! the selected level is process-wide ([`level`] / [`set_level`]).
//!
//! # Determinism contract
//!
//! Every vector kernel here vectorizes **across independent output
//! elements** (vertical lanes): lane `t` computes output element `j + t`
//! with the same strictly ascending scalar addition chain the scalar
//! kernel uses. Multiplies and adds stay separate instructions — never
//! FMA, which rounds once where mul+add rounds twice — division is IEEE
//! correctly rounded, and neg/abs are sign-bit operations. No single
//! element's chain is ever reassociated, so AVX2 and scalar results are
//! bit-identical by construction, not merely close.
//!
//! Where x86 min/max semantics leak (`maxps(a, b)` returns `b` when
//! either operand is NaN or both compare equal), the scalar forms in
//! [`UnOp::apply`] and the max kernels are pinned to the *same*
//! operand order (`if x > acc { x } else { acc }`), so NaN handling and
//! ±0 ties agree at every level.
//!
//! The one cross-lane combine, [`row_max`], reduces per-lane running
//! maxima through a fixed pairwise tree. Max is order-insensitive except
//! for the sign of equal zeros (and NaNs are ignored identically at
//! every level), and its only consumer — the softmax max-shift — feeds
//! the result into `exp(x - m)`, which cannot observe the sign of a zero
//! `m`. Sequential sums whose order a vector unit would have to change
//! (softmax's `z`, dot products, `logsumexp`) stay scalar in the ops
//! layer; they are not offered here.
//!
//! # Why `unsafe` lives here (and why only here)
//!
//! `core::arch` loads/stores take raw pointers, and calling a
//! `#[target_feature]` function requires asserting the feature is
//! present. Both obligations are discharged locally: every kernel
//! asserts its slice bounds before touching a pointer, and the AVX2
//! entry points are only reachable through [`level`], which has verified
//! the host feature. The crate is `deny(unsafe_code)`; this module and
//! the worker pool (`pool.rs`) are the only opt-outs, enforced by
//! `scripts/lint_forbidden.sh` rule 8.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Canonical vector width (f32 lanes) declared by vectorized kernels.
pub const LANES: usize = 8;

/// Max reduced-axes rank [`reduce_lanes8`] can walk with its fixed-size
/// odometer (callers fall back to their scalar loop above this).
pub const MAX_RDIMS: usize = 8;

/// Instruction-set level the kernels dispatch on. Ordered: `Scalar <
/// Avx2`, so requested levels clamp to the host with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pure scalar loops (always available; the reference behaviour).
    Scalar,
    /// 256-bit AVX2 (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name used in bench/report columns.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Atomic encoding: 0 = unset, else `enc(level)`.
const UNSET: u8 = 0;

fn enc(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
    }
}

fn dec(v: u8) -> Option<SimdLevel> {
    match v {
        1 => Some(SimdLevel::Scalar),
        2 => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// Best level the host supports, independent of `CTS_SIMD` and overrides:
/// AVX2 when detected, else scalar.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

fn env_level() -> SimdLevel {
    let host = detected();
    match std::env::var("CTS_SIMD").as_deref().map(str::trim) {
        Ok("off") | Ok("scalar") | Ok("0") => SimdLevel::Scalar,
        Ok("avx2") => SimdLevel::Avx2.min(host),
        _ => host,
    }
}

static DEFAULT_LEVEL: AtomicU8 = AtomicU8::new(UNSET);
static OVERRIDE_LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// The level kernels currently dispatch on: [`set_level`] override if
/// set, else the `CTS_SIMD` env knob (`off`/`scalar`, `avx2`;
/// read once), else the detected host maximum.
#[inline]
pub fn level() -> SimdLevel {
    if let Some(l) = dec(OVERRIDE_LEVEL.load(Ordering::Relaxed)) {
        return l;
    }
    match dec(DEFAULT_LEVEL.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => {
            let l = env_level();
            DEFAULT_LEVEL.store(enc(l), Ordering::Relaxed);
            l
        }
    }
}

/// Force a dispatch level process-wide, clamped to what the host
/// supports; `None` restores the `CTS_SIMD`/auto default. For tests and
/// benches that compare levels in one process — results are bit-identical
/// across levels, so flipping this mid-run is always safe.
pub fn set_level(l: Option<SimdLevel>) {
    OVERRIDE_LEVEL.store(
        l.map_or(UNSET, |l| enc(l.min(detected()))),
        Ordering::Relaxed,
    );
}

/// True when a vector (non-scalar) path is active.
#[inline]
pub fn active() -> bool {
    level() != SimdLevel::Scalar
}

/// Name of the active dispatch level (`"avx2"` / `"scalar"`).
pub fn level_name() -> &'static str {
    level().name()
}

/// Name of the detected host maximum, ignoring knobs and overrides.
pub fn detected_name() -> &'static str {
    detected().name()
}

// ---------------------------------------------------------------------------
// Op descriptors
// ---------------------------------------------------------------------------

/// Elementwise binary ops with a vector path.
#[derive(Clone, Copy, Debug)]
pub enum BinOp {
    /// `x + y`
    Add,
    /// `x - y`
    Sub,
    /// `x * y`
    Mul,
    /// `x / y` (IEEE correctly rounded in both scalar and vector form)
    Div,
}

impl BinOp {
    /// The pinned scalar form (identical to the vector lanes).
    #[inline(always)]
    pub fn apply(self, x: f32, y: f32) -> f32 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }
}

/// Elementwise unary ops with a vector path.
#[derive(Clone, Copy, Debug)]
pub enum UnOp {
    /// `-x` (sign-bit flip; bitwise identical in scalar and vector form)
    Neg,
    /// `|x|` (sign-bit clear)
    Abs,
    /// `x * x`
    Square,
    /// `maxps(x, 0)`: NaN and −0 both map to +0
    Relu,
    /// `x * c`
    Scale(f32),
    /// `x + c`
    AddScalar(f32),
    /// `minps(hi, maxps(lo, x))`; equal to `f32::clamp` for `lo <= hi`
    /// non-NaN bounds, NaN `x` passes through
    Clamp(f32, f32),
}

impl UnOp {
    /// The pinned scalar form, written in the exact operand order the
    /// x86 `maxps`/`minps` instructions evaluate (both return the
    /// *second* operand on NaN or equality).
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Square => x * x,
            UnOp::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            UnOp::Scale(c) => x * c,
            UnOp::AddScalar(c) => x + c,
            UnOp::Clamp(lo, hi) => {
                let t = if lo > x { lo } else { x };
                if hi < t {
                    hi
                } else {
                    t
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared loop scaffolding
// ---------------------------------------------------------------------------

/// Row-major odometer over reduced axes `(len, stride)`: runs `$body`
/// once per preimage step with `$roff` bound to the current flat offset,
/// visiting offsets in ascending order — the exact per-element walk of
/// `ops::reduce_to_shape`'s scalar loop.
macro_rules! preimage_walk {
    ($dims:expr, $total:expr, $roff:ident, $body:block) => {{
        let mut r = [0usize; MAX_RDIMS];
        let mut $roff = 0usize;
        for _ in 0..$total {
            $body
            for j in (0..$dims.len()).rev() {
                let (len, stride) = $dims[j];
                r[j] += 1;
                $roff += stride;
                if r[j] < len {
                    break;
                }
                r[j] = 0;
                $roff -= len * stride;
            }
        }
    }};
}

// ---------------------------------------------------------------------------
// GEMM row-block microkernel
// ---------------------------------------------------------------------------

/// Output rows the GEMM microkernel holds in registers at once.
pub const MR: usize = 4;

/// Geometry of one [`gemm_rowblock`] call: `rows` rows of `a`, each `k`
/// long at stride `lda`, times a dense row-major `b: [k × nc]`, summed
/// into `rows` rows of `out`, each `nc` wide at stride `ldo` — or, on a
/// `first` pass, written over them.
#[derive(Clone, Copy, Debug)]
pub struct Gemm {
    /// Output rows (any count; the bodies take [`MR`] at a time).
    pub rows: usize,
    /// Reduction length: elements per `a` row, rows of `b`.
    pub k: usize,
    /// Output columns per row, and the row length of `b`.
    pub nc: usize,
    /// Row stride of `a` (`≥ k`).
    pub lda: usize,
    /// Row stride of `out` (`≥ nc`).
    pub ldo: usize,
    /// First pass over `out`: the accumulators start at `+0.0` in
    /// registers instead of loading `out`, so `out` may hold anything.
    /// The same bits as summing into a zeroed `out`.
    pub first: bool,
}

/// `out[r·ldo + j] += Σ_kk a[r·lda + kk] · b[kk·nc + j]` for every row `r`
/// and column `j` (`=` instead of `+=` on a [`Gemm::first`] pass).
///
/// Rows go through the body [`MR`] at a time (the last block takes the
/// remainder), so each `b` row load feeds `MR` rows and `MR` independent
/// accumulator chains hide the add latency. The accumulators are loaded
/// from `out`, or start at `+0.0` on a first pass, so each output element
/// keeps one strictly ascending-`kk` addition chain across calls — the
/// bit-exactness invariant `ops::matmul` and `ops::conv` rely on. Every
/// level and every row-block size keeps that chain, so results are
/// bit-identical to the naive serial loop.
#[inline]
pub fn gemm_rowblock(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
    if g.rows == 0 || g.nc == 0 {
        return;
    }
    assert!(
        g.k <= g.lda && g.nc <= g.ldo,
        "gemm_rowblock strides: {g:?}"
    );
    assert!(
        a.len() >= (g.rows - 1) * g.lda + g.k
            && b.len() >= g.k * g.nc
            && out.len() >= (g.rows - 1) * g.ldo + g.nc,
        "gemm_rowblock operands too short for {g:?}"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // the operand lengths were asserted above.
        SimdLevel::Avx2 => unsafe { x86::gemm_avx2(a, b, out, g) },
        _ => gemm_scalar(a, b, out, g),
    }
}

/// Scalar body: per block of up to [`MR`] rows, [`LANES`] output columns
/// accumulated per pass in fixed-width arrays (independent lanes for the
/// autovectorizer), then [`gemm_tail`] — per-element chains identical to
/// the vector paths.
fn gemm_scalar(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
    let mut i = 0;
    while i < g.rows {
        let (a, out) = (&a[i * g.lda..], &mut out[i * g.ldo..]);
        match g.rows - i {
            1 => gemm_scalar_block::<1>(a, b, out, g),
            2 => gemm_scalar_block::<2>(a, b, out, g),
            3 => gemm_scalar_block::<3>(a, b, out, g),
            _ => gemm_scalar_block::<MR>(a, b, out, g),
        }
        i += MR;
    }
}

fn gemm_scalar_block<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
    let Gemm {
        k, nc, lda, ldo, ..
    } = g;
    let mut j = 0;
    while j + LANES <= nc {
        let mut acc = [[0.0f32; LANES]; R];
        if !g.first {
            for (r, acc) in acc.iter_mut().enumerate() {
                acc.copy_from_slice(&out[r * ldo + j..r * ldo + j + LANES]);
            }
        }
        for kk in 0..k {
            let b_row = &b[kk * nc + j..kk * nc + j + LANES];
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = a[r * lda + kk];
                for (t, &bv) in b_row.iter().enumerate() {
                    acc[t] += av * bv;
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[r * ldo + j..r * ldo + j + LANES].copy_from_slice(acc);
        }
        j += LANES;
    }
    gemm_tail(a, b, out, g, R, j);
}

/// Tail columns `j0..nc` of `rows` rows, one scalar chain per element —
/// the same chain the lanes keep.
fn gemm_tail(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm, rows: usize, j0: usize) {
    for r in 0..rows {
        for j in j0..g.nc {
            let mut acc = if g.first { 0.0 } else { out[r * g.ldo + j] };
            for kk in 0..g.k {
                acc += a[r * g.lda + kk] * b[kk * g.nc + j];
            }
            out[r * g.ldo + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

/// One operand of [`zip_rows`]: row `i` reads the `run` floats at
/// `data[base + i·stride..]`, or, as a splat, the one value
/// `data[base + i·stride]` repeated across the row.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    /// The operand's buffer.
    pub data: &'a [f32],
    /// Offset of row 0.
    pub base: usize,
    /// Offset between consecutive rows (0 repeats one row or value).
    pub stride: usize,
    /// True when each row is one value broadcast over the run.
    pub splat: bool,
}

impl Rows<'_> {
    /// Panics unless every row of `rows × run` lies inside `data`.
    fn check(&self, rows: usize, run: usize) {
        let width = if self.splat { 1 } else { run };
        let last = (rows - 1)
            .checked_mul(self.stride)
            .and_then(|o| o.checked_add(self.base + width));
        assert!(
            last.is_some_and(|end| end <= self.data.len()),
            "zip_rows operand out of bounds"
        );
    }

    /// Row `i`: its `run` floats, or its one value as a splat.
    fn row(&self, i: usize, run: usize) -> &[f32] {
        let start = self.base + i * self.stride;
        &self.data[start..start + if self.splat { 1 } else { run }]
    }
}

/// `out[i·run + j] = op(x_i[j], y_i[j])` for `rows = out.len() / run`
/// rows, where `x_i` and `y_i` are row `i` of each operand (a slice or a
/// splat, [`Rows`]): a broadcasting zip's whole block in one dispatch.
/// Every element is [`BinOp::apply`] of its two operands at every level,
/// and a splat keeps its side, so `c − x` and `c / x` round as written.
pub fn zip_rows(op: BinOp, x: Rows, y: Rows, run: usize, out: &mut [f32]) {
    if run == 0 || out.is_empty() {
        return;
    }
    assert!(
        out.len().is_multiple_of(run),
        "zip_rows: {} floats are not rows of {run}",
        out.len()
    );
    let rows = out.len() / run;
    x.check(rows, run);
    y.check(rows, run);
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // both operands' rows were bounds-checked above.
        SimdLevel::Avx2 => unsafe { x86::zip_rows_avx2(op, x, y, run, out) },
        _ => zip_rows_with(x, y, run, out, |a, b| op.apply(a, b)),
    }
}

/// [`zip_rows`] for any elementwise `f`, in scalar loops: the scalar
/// level's body, and the walk of closures that have no vector form.
pub(crate) fn zip_rows_with(
    x: Rows,
    y: Rows,
    run: usize,
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) {
    if run == 0 {
        return;
    }
    for (i, o) in out.chunks_exact_mut(run).enumerate() {
        let (xs, ys) = (x.row(i, run), y.row(i, run));
        match (x.splat, y.splat) {
            (false, false) => {
                for ((o, &a), &b) in o.iter_mut().zip(xs).zip(ys) {
                    *o = f(a, b);
                }
            }
            (false, true) => {
                for (o, &a) in o.iter_mut().zip(xs) {
                    *o = f(a, ys[0]);
                }
            }
            (true, false) => {
                for (o, &b) in o.iter_mut().zip(ys) {
                    *o = f(xs[0], b);
                }
            }
            (true, true) => o.fill(f(xs[0], ys[0])),
        }
    }
}

/// `out[i] = op(a[i])` over equal-length slices.
#[inline]
pub fn unary_map(op: UnOp, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::unary_map_avx2(op, a, out) },
        _ => {
            for (o, &x) in out.iter_mut().zip(a.iter()) {
                *o = op.apply(x);
            }
        }
    }
}

/// `data[i] *= c` in place (softmax normalization, `scale_inplace`).
#[inline]
pub fn scale_in_place(data: &mut [f32], c: f32) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::scale_in_place_avx2(data, c) },
        _ => {
            for x in data.iter_mut() {
                *x *= c;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Accumulating updates
// ---------------------------------------------------------------------------

/// `dst[i] += s * x[i]` (separate mul + add; never fused).
#[inline]
pub fn axpy(dst: &mut [f32], s: f32, x: &[f32]) {
    debug_assert_eq!(dst.len(), x.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(dst, s, x) },
        _ => {
            for (d, &v) in dst.iter_mut().zip(x.iter()) {
                *d += s * v;
            }
        }
    }
}

/// `dst[i] += x[i]`.
#[inline]
pub fn accum(dst: &mut [f32], x: &[f32]) {
    debug_assert_eq!(dst.len(), x.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::accum_avx2(dst, x) },
        _ => {
            for (d, &v) in dst.iter_mut().zip(x.iter()) {
                *d += v;
            }
        }
    }
}

/// `dst[i] = maxps(x[i], dst[i])` — i.e. `if x > dst { x } else { dst }`,
/// so a NaN in `x` is ignored and `dst` can never become NaN from one.
#[inline]
pub fn max_accum(dst: &mut [f32], x: &[f32]) {
    debug_assert_eq!(dst.len(), x.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::max_accum_avx2(dst, x) },
        _ => {
            for (d, &v) in dst.iter_mut().zip(x.iter()) {
                if v > *d {
                    *d = v;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row kernels (softmax)
// ---------------------------------------------------------------------------

/// Maximum of a row, ignoring NaN, starting from `-∞`.
///
/// The vector paths keep [`LANES`] running maxima and combine them
/// through a fixed low/high pairwise tree; the scalar path folds
/// sequentially. Max is order-insensitive up to the sign of equal zeros,
/// which the sole consumer (`exp(x - m)` in softmax) cannot observe — so
/// all levels are interchangeable bit-for-bit *downstream*.
#[inline]
pub fn row_max(x: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::row_max_avx2(x) },
        _ => fold_max(f32::NEG_INFINITY, x),
    }
}

/// Pinned sequential max fold: `if v > m { v } else { m }` per element.
#[inline]
pub(crate) fn fold_max(init: f32, x: &[f32]) -> f32 {
    let mut m = init;
    for &v in x {
        if v > m {
            m = v;
        }
    }
    m
}

/// `out[i] = y[i] * (g[i] - dot)` — the elementwise half of the softmax
/// backward (the dot product itself stays scalar in the ops layer).
#[inline]
pub fn softmax_grad_row(out: &mut [f32], y: &[f32], g: &[f32], dot: f32) {
    debug_assert!(y.len() == out.len() && g.len() == out.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2").
        SimdLevel::Avx2 => unsafe { x86::softmax_grad_row_avx2(out, y, g, dot) },
        _ => {
            for ((o, &yv), &gv) in out.iter_mut().zip(y.iter()).zip(g.iter()) {
                *o = yv * (gv - dot);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Broadcast-reduce groups
// ---------------------------------------------------------------------------

/// Sum the broadcast preimages of [`LANES`] *consecutive* target elements
/// at once: lane `t` accumulates `gd[base + t + roff]` over every reduced
/// offset `roff`, in the same ascending order as the scalar loop in
/// `ops::reduce_to_shape` — valid when the grad's last axis is preserved
/// (stride 1 across the lanes) and all lanes share one preimage walk.
///
/// Returns `false` (computing nothing) when the reduced rank exceeds the
/// fixed odometer capacity; the caller falls back to its scalar loop.
pub fn reduce_lanes8(
    gd: &[f32],
    base: usize,
    dims: &[(usize, usize)],
    total: usize,
    out: &mut [f32],
) -> bool {
    if dims.len() > MAX_RDIMS {
        return false;
    }
    assert_eq!(out.len(), LANES);
    // Bound every load: the largest preimage offset plus the lane width
    // must stay inside the grad buffer.
    let span: usize = dims.iter().map(|&(len, stride)| (len - 1) * stride).sum();
    assert!(
        base + span + LANES <= gd.len(),
        "reduce_lanes8 out of bounds"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // bounds for every load were asserted above.
        SimdLevel::Avx2 => unsafe { x86::reduce8_avx2(gd, base, dims, total, out) },
        _ => {
            let mut acc = [0.0f32; LANES];
            preimage_walk!(dims, total, roff, {
                let src = &gd[base + roff..base + roff + LANES];
                for (a, &v) in acc.iter_mut().zip(src.iter()) {
                    *a += v;
                }
            });
            out.copy_from_slice(&acc);
        }
    }
    true
}

// ---------------------------------------------------------------------------
// x86_64 vector implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 bodies. Callers (the dispatchers above) guarantee the
    //! target feature is present; each body asserts its slice bounds
    //! before the pointer loop (`zip_rows_avx2` relies on its
    //! dispatcher's row check), so every load/store below is in bounds.
    use super::{fold_max, gemm_tail, BinOp, Gemm, Rows, UnOp, LANES, MAX_RDIMS, MR};
    use std::arch::x86_64::*;

    // -- gemm ---------------------------------------------------------------

    // SAFETY: to call, AVX2 must be available on the host and the operands
    // must cover `g` (asserted by the `gemm_rowblock` dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_avx2(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
        let mut i = 0;
        while i < g.rows {
            let (a, out) = (&a[i * g.lda..], &mut out[i * g.ldo..]);
            match g.rows - i {
                1 => gemm_avx2_block::<1>(a, b, out, g),
                2 => gemm_avx2_block::<2>(a, b, out, g),
                3 => gemm_avx2_block::<3>(a, b, out, g),
                _ => gemm_avx2_block::<MR>(a, b, out, g),
            }
            i += MR;
        }
    }

    /// `R` rows: 16- then 8-column strips held in `R` (×2) accumulators
    /// while `k` streams through, one `b` load shared by all `R` rows.
    // SAFETY: to call, AVX2 must be available on the host and the operands
    // must cover `R` rows of `g`.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_avx2_block<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
        let Gemm {
            k, nc, lda, ldo, ..
        } = g;
        assert!(
            a.len() >= (R - 1) * lda + k && b.len() >= k * nc && out.len() >= (R - 1) * ldo + nc
        );
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 16 <= nc {
            let mut acc0 = [_mm256_setzero_ps(); R];
            let mut acc1 = [_mm256_setzero_ps(); R];
            if !g.first {
                for r in 0..R {
                    acc0[r] = _mm256_loadu_ps(op.add(r * ldo + j));
                    acc1[r] = _mm256_loadu_ps(op.add(r * ldo + j + 8));
                }
            }
            for kk in 0..k {
                let row = bp.add(kk * nc + j);
                let (b0, b1) = (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)));
                for r in 0..R {
                    let va = _mm256_set1_ps(*ap.add(r * lda + kk));
                    acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, b0));
                    acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, b1));
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(op.add(r * ldo + j), acc0[r]);
                _mm256_storeu_ps(op.add(r * ldo + j + 8), acc1[r]);
            }
            j += 16;
        }
        if j + 8 <= nc {
            let mut acc = [_mm256_setzero_ps(); R];
            if !g.first {
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_loadu_ps(op.add(r * ldo + j));
                }
            }
            for kk in 0..k {
                let vb = _mm256_loadu_ps(bp.add(kk * nc + j));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let va = _mm256_set1_ps(*ap.add(r * lda + kk));
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * ldo + j), *acc);
            }
            j += 8;
        }
        gemm_tail(a, b, out, g, R, j);
    }

    // -- elementwise maps ---------------------------------------------------

    /// One row loop per op and operand pairing: each row is 8-lane strips
    /// and a scalar tail of the same [`BinOp::apply`].
    // SAFETY: to call, AVX2 must be available and every row of `x` and `y`
    // must lie inside its buffer (`zip_rows` checks both).
    #[target_feature(enable = "avx2")]
    pub unsafe fn zip_rows_avx2(op: BinOp, x: Rows, y: Rows, run: usize, out: &mut [f32]) {
        let rows = out.len() / run;
        let (xp, yp, op_) = (x.data.as_ptr(), y.data.as_ptr(), out.as_mut_ptr());
        // `$lane(xr, yr, j)` is the vector at offset `j` of the row and
        // `$one(xr, yr, j)` the scalar, where `xr`/`yr` start the row.
        macro_rules! each_row {
            (|$xr:ident, $yr:ident, $j:ident| $lane:expr, $one:expr) => {
                for i in 0..rows {
                    let ($xr, $yr) = (xp.add(x.base + i * x.stride), yp.add(y.base + i * y.stride));
                    let o = op_.add(i * run);
                    let mut $j = 0;
                    while $j + 8 <= run {
                        _mm256_storeu_ps(o.add($j), $lane);
                        $j += 8;
                    }
                    while $j < run {
                        *o.add($j) = $one;
                        $j += 1;
                    }
                }
            };
        }
        macro_rules! pairings {
            ($vop:ident) => {
                match (x.splat, y.splat) {
                    (false, false) => each_row!(
                        |xr, yr, j| $vop(_mm256_loadu_ps(xr.add(j)), _mm256_loadu_ps(yr.add(j))),
                        op.apply(*xr.add(j), *yr.add(j))
                    ),
                    (false, true) => each_row!(
                        |xr, yr, j| $vop(_mm256_loadu_ps(xr.add(j)), _mm256_set1_ps(*yr)),
                        op.apply(*xr.add(j), *yr)
                    ),
                    (true, false) => each_row!(
                        |xr, yr, j| $vop(_mm256_set1_ps(*xr), _mm256_loadu_ps(yr.add(j))),
                        op.apply(*xr, *yr.add(j))
                    ),
                    (true, true) => each_row!(
                        |xr, yr, j| _mm256_set1_ps(op.apply(*xr, *yr)),
                        op.apply(*xr, *yr)
                    ),
                }
            };
        }
        match op {
            BinOp::Add => pairings!(_mm256_add_ps),
            BinOp::Sub => pairings!(_mm256_sub_ps),
            BinOp::Mul => pairings!(_mm256_mul_ps),
            BinOp::Div => pairings!(_mm256_div_ps),
        }
    }

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn unary_map_avx2(op: UnOp, a: &[f32], out: &mut [f32]) {
        let n = out.len();
        assert!(a.len() >= n);
        let (ap, op_) = (a.as_ptr(), out.as_mut_ptr());
        macro_rules! lanes8 {
            ($f:expr) => {{
                let mut j = 0;
                while j + 8 <= n {
                    _mm256_storeu_ps(op_.add(j), $f(_mm256_loadu_ps(ap.add(j))));
                    j += 8;
                }
                while j < n {
                    out[j] = op.apply(a[j]);
                    j += 1;
                }
            }};
        }
        match op {
            UnOp::Neg => {
                let sign = _mm256_set1_ps(-0.0);
                lanes8!(|v| _mm256_xor_ps(v, sign))
            }
            UnOp::Abs => {
                let sign = _mm256_set1_ps(-0.0);
                lanes8!(|v| _mm256_andnot_ps(sign, v))
            }
            UnOp::Square => lanes8!(|v| _mm256_mul_ps(v, v)),
            UnOp::Relu => {
                let zero = _mm256_setzero_ps();
                lanes8!(|v| _mm256_max_ps(v, zero))
            }
            UnOp::Scale(c) => {
                let vc = _mm256_set1_ps(c);
                lanes8!(|v| _mm256_mul_ps(v, vc))
            }
            UnOp::AddScalar(c) => {
                let vc = _mm256_set1_ps(c);
                lanes8!(|v| _mm256_add_ps(v, vc))
            }
            UnOp::Clamp(lo, hi) => {
                let (vl, vh) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
                lanes8!(|v| _mm256_min_ps(vh, _mm256_max_ps(vl, v)))
            }
        }
    }

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_in_place_avx2(data: &mut [f32], c: f32) {
        let n = data.len();
        let dp = data.as_mut_ptr();
        let vc = _mm256_set1_ps(c);
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(dp.add(j), _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), vc));
            j += 8;
        }
        while j < n {
            data[j] *= c;
            j += 1;
        }
    }

    // -- accumulating updates -----------------------------------------------

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], s: f32, x: &[f32]) {
        let n = dst.len();
        assert!(x.len() >= n);
        let (dp, xp) = (dst.as_mut_ptr(), x.as_ptr());
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(j));
            let v = _mm256_mul_ps(vs, _mm256_loadu_ps(xp.add(j)));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, v));
            j += 8;
        }
        while j < n {
            dst[j] += s * x[j];
            j += 1;
        }
    }

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accum_avx2(dst: &mut [f32], x: &[f32]) {
        let n = dst.len();
        assert!(x.len() >= n);
        let (dp, xp) = (dst.as_mut_ptr(), x.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), _mm256_loadu_ps(xp.add(j)));
            _mm256_storeu_ps(dp.add(j), v);
            j += 8;
        }
        while j < n {
            dst[j] += x[j];
            j += 1;
        }
    }

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_accum_avx2(dst: &mut [f32], x: &[f32]) {
        let n = dst.len();
        assert!(x.len() >= n);
        let (dp, xp) = (dst.as_mut_ptr(), x.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            // maxps(x, dst): x > dst ? x : dst (dst on NaN/equal).
            let v = _mm256_max_ps(_mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(dp.add(j)));
            _mm256_storeu_ps(dp.add(j), v);
            j += 8;
        }
        while j < n {
            if x[j] > dst[j] {
                dst[j] = x[j];
            }
            j += 1;
        }
    }

    // -- row max ------------------------------------------------------------

    /// Fixed 4-lane horizontal max tree: pairs `(0,2)/(1,3)`, then the
    /// winners.
    fn hmax4(v: __m128) -> f32 {
        // SAFETY: SSE shuffles/max on values only; no memory access.
        unsafe {
            let hi = _mm_movehl_ps(v, v);
            let p = _mm_max_ps(v, hi);
            let q = _mm_max_ss(p, _mm_shuffle_ps::<0x55>(p, p));
            _mm_cvtss_f32(q)
        }
    }

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_max_avx2(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        // Lanes start at -inf so NaN never enters an accumulator
        // (maxps(x, acc) keeps acc when x is NaN).
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0;
        while j + 8 <= n {
            acc = _mm256_max_ps(_mm256_loadu_ps(xp.add(j)), acc);
            j += 8;
        }
        // Low/high halves pair lanes (i, i+4), then the 4-lane tree.
        let m4 = _mm_max_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        fold_max(hmax4(m4), &x[j..])
    }

    // -- softmax backward row ----------------------------------------------

    // SAFETY: to call, AVX2 must be available on the host.
    #[target_feature(enable = "avx2")]
    pub unsafe fn softmax_grad_row_avx2(out: &mut [f32], y: &[f32], g: &[f32], dot: f32) {
        let n = out.len();
        assert!(y.len() >= n && g.len() >= n);
        let (op, yp, gp) = (out.as_mut_ptr(), y.as_ptr(), g.as_ptr());
        let vd = _mm256_set1_ps(dot);
        let mut j = 0;
        while j + 8 <= n {
            let gv = _mm256_sub_ps(_mm256_loadu_ps(gp.add(j)), vd);
            _mm256_storeu_ps(op.add(j), _mm256_mul_ps(_mm256_loadu_ps(yp.add(j)), gv));
            j += 8;
        }
        while j < n {
            out[j] = y[j] * (g[j] - dot);
            j += 1;
        }
    }

    // -- broadcast-reduce groups ---------------------------------------------

    // SAFETY: to call, AVX2 must be available, and every reachable
    // `base + roff + LANES` must be `<= gd.len()` (dispatcher asserts).
    #[target_feature(enable = "avx2")]
    pub unsafe fn reduce8_avx2(
        gd: &[f32],
        base: usize,
        dims: &[(usize, usize)],
        total: usize,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), LANES);
        let gp = gd.as_ptr();
        let mut acc = _mm256_setzero_ps();
        preimage_walk!(dims, total, roff, {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(gp.add(base + roff)));
        });
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` once per level the host supports and assert all results
    /// are bit-identical; returns the scalar result.
    fn across_levels(f: impl Fn() -> Vec<f32>) -> Vec<f32> {
        set_level(Some(SimdLevel::Scalar));
        let base = f();
        if detected() == SimdLevel::Avx2 {
            set_level(Some(SimdLevel::Avx2));
            let got = f();
            let eq = base.len() == got.len()
                && base
                    .iter()
                    .zip(got.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(eq, "Avx2 diverged from scalar: {base:?} vs {got:?}");
        }
        set_level(None);
        base
    }

    fn pattern(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 * 0.013 - 6.5
            })
            .collect()
    }

    #[test]
    fn level_override_clamps_to_host() {
        set_level(Some(SimdLevel::Avx2));
        assert!(level() <= detected());
        set_level(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        set_level(None);
    }

    #[test]
    fn gemm_rowblock_levels_agree_all_widths() {
        // Row counts cover full MR blocks and every remainder; columns the
        // 16- and 8-wide strips and every tail; strided rows leave their
        // padding untouched; a first pass ignores what `out` held.
        for rows in 1..=9 {
            for n in 1..=19 {
                for (k, first) in [0usize, 1, 3, 8]
                    .into_iter()
                    .flat_map(|k| [(k, false), (k, true)])
                {
                    let g = Gemm {
                        rows,
                        k,
                        nc: n,
                        lda: k + 1,
                        ldo: n + 3,
                        first,
                    };
                    let a = pattern(rows * g.lda, 7);
                    let b = pattern(k * n, 11);
                    let init = pattern(rows * g.ldo, 13);
                    let res = across_levels(|| {
                        let mut out = init.clone();
                        gemm_rowblock(&a, &b, &mut out, g);
                        out
                    });
                    for r in 0..rows {
                        for j in 0..g.ldo {
                            let mut want = init[r * g.ldo + j];
                            if j < n {
                                if first {
                                    want = 0.0;
                                }
                                for kk in 0..k {
                                    want += a[r * g.lda + kk] * b[kk * n + j];
                                }
                            }
                            assert_eq!(
                                res[r * g.ldo + j].to_bits(),
                                want.to_bits(),
                                "rows={rows} n={n} k={k} first={first}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zip_rows_levels_agree_all_widths_pairings_and_specials() {
        // Runs straddle the 8-lane width; two rows, the second strided;
        // NaN and -0 in `x`; every op and slice/splat pairing (a splat
        // keeps its side).
        for run in 0..=18 {
            let mut xd = pattern(2 * run + 2, 3);
            let yd = pattern(2 * run + 2, 5);
            if run > 2 {
                xd[1] = f32::NAN;
                xd[run + 3] = -0.0;
            }
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                for (x_splat, y_splat) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let x = Rows {
                        data: &xd,
                        base: 1,
                        stride: run + 1,
                        splat: x_splat,
                    };
                    let y = Rows {
                        data: &yd,
                        base: 0,
                        stride: run,
                        splat: y_splat,
                    };
                    let got = across_levels(|| {
                        let mut out = vec![0.0; 2 * run];
                        zip_rows(op, x, y, run, &mut out);
                        out
                    });
                    for (e, g) in got.iter().enumerate() {
                        let (i, j) = (e / run, e % run);
                        let (xv, yv) = (x.row(i, run), y.row(i, run));
                        let want = op.apply(
                            xv[if x_splat { 0 } else { j }],
                            yv[if y_splat { 0 } else { j }],
                        );
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "{op:?} ({x_splat},{y_splat}) run={run}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unary_maps_levels_agree_all_widths_and_specials() {
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let mut a = pattern(n, 9);
            if n > 4 {
                a[0] = f32::NAN;
                a[1] = -0.0;
                a[2] = 0.0;
                a[3] = f32::INFINITY;
                a[4] = f32::NEG_INFINITY;
            }
            for op in [
                UnOp::Neg,
                UnOp::Abs,
                UnOp::Square,
                UnOp::Relu,
                UnOp::Scale(0.37),
                UnOp::AddScalar(-1.25),
                UnOp::Clamp(-2.0, 3.0),
            ] {
                across_levels(|| {
                    let mut out = vec![0.0; n];
                    unary_map(op, &a, &mut out);
                    out
                });
            }
        }
    }

    #[test]
    fn relu_and_clamp_pin_nan_and_zero_sign() {
        // The documented maxps/minps semantics, checked at every level.
        let a = [f32::NAN, -0.0, 0.0, -5.0, 5.0];
        across_levels(|| {
            let mut out = vec![0.0; a.len()];
            unary_map(UnOp::Relu, &a, &mut out);
            assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "relu(NaN) must be +0");
            assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "relu(-0) must be +0");
            out
        });
        across_levels(|| {
            let mut out = vec![0.0; a.len()];
            unary_map(UnOp::Clamp(-1.0, 1.0), &a, &mut out);
            assert!(out[0].is_nan(), "clamp must propagate NaN");
            assert_eq!(out[3], -1.0);
            assert_eq!(out[4], 1.0);
            out
        });
    }

    #[test]
    fn accum_axpy_scale_levels_agree() {
        for n in 0..=18 {
            let x = pattern(n, 21);
            across_levels(|| {
                let mut d = pattern(n, 23);
                accum(&mut d, &x);
                d
            });
            across_levels(|| {
                let mut d = pattern(n, 25);
                axpy(&mut d, -0.731, &x);
                d
            });
            across_levels(|| {
                let mut d = pattern(n, 27);
                scale_in_place(&mut d, 1.0 / 3.0);
                d
            });
            across_levels(|| {
                let mut d = vec![f32::NEG_INFINITY; n];
                max_accum(&mut d, &x);
                d
            });
        }
    }

    #[test]
    fn max_accum_ignores_nan_in_source() {
        let x = [f32::NAN, 2.0, f32::NAN, -1.0];
        across_levels(|| {
            let mut d = vec![f32::NEG_INFINITY; 4];
            max_accum(&mut d, &x);
            assert_eq!(
                d[0],
                f32::NEG_INFINITY,
                "NaN must not enter the accumulator"
            );
            assert_eq!(d[1], 2.0);
            d
        });
    }

    #[test]
    fn row_max_matches_fold_for_all_lengths() {
        for n in 0..=25 {
            let mut x = pattern(n, 31);
            if n > 3 {
                x[3] = f32::NAN; // ignored at every level
            }
            let want = x
                .iter()
                .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
            across_levels(|| vec![row_max(&x)]);
            set_level(Some(SimdLevel::Scalar));
            assert_eq!(row_max(&x).to_bits(), want.to_bits());
            set_level(None);
        }
    }

    #[test]
    fn softmax_grad_row_levels_agree() {
        for n in 0..=18 {
            let y = pattern(n, 41);
            let g = pattern(n, 43);
            across_levels(|| {
                let mut out = vec![0.0; n];
                softmax_grad_row(&mut out, &y, &g, 0.173);
                out
            });
        }
    }

    #[test]
    fn reduce_lanes8_matches_scalar_walk() {
        // grad laid out as [4, 3, 16]: reduce the two leading axes, keep
        // the last; lanes are 8 consecutive last-axis elements.
        let gd = pattern(4 * 3 * 16, 51);
        let dims = [(4usize, 48usize), (3usize, 16usize)];
        let total = 12;
        for base in [0usize, 8] {
            let want: Vec<f32> = (0..LANES)
                .map(|t| {
                    let mut acc = 0.0f32;
                    for d0 in 0..4 {
                        for d1 in 0..3 {
                            acc += gd[base + t + d0 * 48 + d1 * 16];
                        }
                    }
                    acc
                })
                .collect();
            let got = across_levels(|| {
                let mut out = vec![0.0; LANES];
                assert!(reduce_lanes8(&gd, base, &dims, total, &mut out));
                out
            });
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reduce_lanes8_rejects_deep_rank() {
        let gd = vec![0.0f32; 1 << 12];
        let dims = vec![(2usize, 1usize); MAX_RDIMS + 1];
        let mut out = vec![0.0; LANES];
        assert!(!reduce_lanes8(&gd, 0, &dims, 1 << 9, &mut out));
    }
}

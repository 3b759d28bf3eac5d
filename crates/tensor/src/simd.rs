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
//! The transcendentals follow the same rule. `exp`, `sigmoid` and `tanh`
//! ([`UnOp::Exp`], [`UnOp::Sigmoid`], [`UnOp::Tanh`]) are pinned
//! polynomials, not libm calls: [`exp_pinned`] is a clamp, a
//! round-ties-even range reduction, a degree-5 polynomial and an
//! exponent-bit scale, each step one IEEE operation that the AVX2 lanes
//! repeat in the same order, and `sigmoid`/`tanh` are built on it. They
//! stay within 3 ulp of the exact values (at worst 2.02, for `sigmoid`,
//! over the tests' sweep), and the softmax exponent and `gelu` use the
//! same forms, so the crate has one `exp` and one `tanh`.
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
//! layer; they are not offered here. The LayerNorm bodies sum along rows
//! without reordering: an 8×8 transpose puts eight rows on the lanes, one
//! row per lane, so each row's sum is still one ascending scalar chain.
//! The mixed edge's weight gradients ([`mix_grad_rows`]) are one scalar
//! chain per operator, interleaved across operators, never across lanes.
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

/// Vector width (f32 lanes) the SIMD kernels are written for.
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
    /// `eˣ` as the pinned polynomial of [`exp_pinned`]
    Exp,
    /// `1/(1+e⁻ˣ)` for `x ≥ 0` and `eˣ/(1+eˣ)` below, both on the pinned
    /// `e^(−|x|)`
    Sigmoid,
    /// `tanh x`: an odd polynomial for `|x| < 0.625`, else
    /// `1 − 2/(e^(2|x|)+1)`; the sign of `x` is copied back
    Tanh,
    /// `√x` (IEEE correctly rounded at every level)
    Sqrt,
}

/// Constants of the pinned transcendentals, shared by the scalar forms and
/// the AVX2 bodies. The polynomials are Cephes `expf` and `tanhf`.
mod pinned {
    /// `exp` clamps its input to `[EXP_LO, EXP_HI]`: `e^EXP_LO` rounds to
    /// `+0` and `e^EXP_HI` overflows to `+∞`, so the clamp only keeps the
    /// `2ⁿ` exponent bits in range.
    pub const EXP_LO: f32 = -104.0;
    pub const EXP_HI: f32 = 89.0;
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `ln 2` in two parts: `LN2_HI` = 355/512 has 9 significant bits, so
    /// `n·LN2_HI` is exact for every `n` the clamp allows.
    pub const LN2_HI: f32 = 0.693_359_4;
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ln2/2`, highest power first.
    pub const EXP_P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_6e-1,
        0.5,
    ];
    /// `tanh` switches from the polynomial to the `exp` form here.
    pub const TANH_SMALL: f32 = 0.625;
    /// `tanh x ≈ x + x·x²·Q(x²)` on `|x| < TANH_SMALL`, highest power first.
    pub const TANH_Q: [f32; 5] = [
        -5.704_988_7e-3,
        2.063_908_8e-2,
        -5.373_971_5e-2,
        1.333_144_2e-1,
        -3.333_328e-1,
    ];
    /// The f32 sign bit.
    pub const SIGN: u32 = 0x8000_0000;
}

/// `2ⁿ` built from exponent bits, for `−126 ≤ n ≤ 127`.
#[inline(always)]
fn pow2i(n: i32) -> f32 {
    f32::from_bits(((n + 127) as u32) << 23)
}

/// `v.round_ties_even()` for `|v| < 2²²`, in two adds instead of a libm
/// `rintf` call: `v + 1.5·2²³` lands in `[2²³, 2²⁴)`, where the f32 spacing
/// is 1, so the add rounds `v` to the nearest integer, ties to even (the
/// constant is even), and the subtract is exact. It differs from
/// `round_ties_even` only in the sign of a zero result (`−0.3` gives `+0`).
#[inline(always)]
fn round_ties_even_small(v: f32) -> f32 {
    const SHIFT: f32 = 12_582_912.0;
    (v + SHIFT) - SHIFT
}

/// The one `exp` of the crate, written as the operation sequence the AVX2
/// body repeats lane for lane: clamp (the [`UnOp::Clamp`] operand order),
/// `n = round_ties_even(x·log₂e)`, `r = x − n·ln2` in two exact-then-small
/// steps, `e^r = (r²·P(r) + r) + 1` by Horner with separate multiplies and
/// adds, then `·2ⁿ` as two exponent-bit scales `2^⌊n/2⌋ · 2^(n−⌊n/2⌋)`.
/// The first scale is exact, so the result rounds once more at most,
/// which gives IEEE overflow to `+∞` and gradual underflow to `+0`. NaN
/// passes through. Within 3 ulp of the exact value (pinned by the
/// `transcendentals_*` tests).
#[inline(always)]
pub fn exp_pinned(x: f32) -> f32 {
    use pinned::*;
    let x = UnOp::Clamp(EXP_LO, EXP_HI).apply(x);
    // |x·log₂e| ≤ 151 after the clamp. A zero `n` may carry either sign;
    // it only reaches `r` as `x ∓ 0`, which differs for `x = −0` alone,
    // and then `e^r` is exactly 1 either way.
    let n = round_ties_even_small(x * LOG2E);
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_P[0];
    for &c in &EXP_P[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    // NaN has no exponent to scale by; `as` maps it to 0 and `y` is NaN.
    let n = n as i32;
    let half = n >> 1;
    y * pow2i(half) * pow2i(n - half)
}

/// Pinned `tanh` on `|x|` (see [`UnOp::Tanh`]); the caller copies the sign.
#[inline(always)]
fn tanh_abs(ax: f32) -> f32 {
    use pinned::*;
    if ax < TANH_SMALL {
        let z = ax * ax;
        let mut q = TANH_Q[0];
        for &c in &TANH_Q[1..] {
            q = q * z + c;
        }
        q * z * ax + ax
    } else {
        1.0 - 2.0 / (exp_pinned(ax + ax) + 1.0)
    }
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
            UnOp::Exp => exp_pinned(x),
            UnOp::Sigmoid => {
                let e = exp_pinned(-x.abs());
                let d = 1.0 + e;
                if x >= 0.0 {
                    1.0 / d
                } else {
                    e / d
                }
            }
            UnOp::Tanh => {
                let t = tanh_abs(x.abs());
                f32::from_bits(t.to_bits() | (x.to_bits() & pinned::SIGN))
            }
            UnOp::Sqrt => x.sqrt(),
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

/// Output rows the GEMM microkernel holds in registers at once. The AVX2
/// body takes twice as many for outputs narrower than 16 columns, which
/// keep one 8-column strip per row.
pub const MR: usize = 4;

/// Rows per AVX2 block while at least this many remain of an output
/// narrower than 16 columns: one strip per row leaves [`MR`] rows only
/// four add chains in flight, so the block would wait on add latency.
const MR_NARROW: usize = 2 * MR;

/// Geometry of one [`gemm_rowblock`] call: `rows` rows of `a`, each `k`
/// long at stride `lda`, times a dense row-major `b: [k × nc]`, summed
/// into `rows` rows of `out`, each `nc` wide at stride `ldo` — or, on a
/// `first` pass, written over them.
#[derive(Clone, Copy, Debug)]
pub struct Gemm {
    /// Output rows (any count; the bodies take [`MR`] at a time, or
    /// `2·MR` on AVX2 when `nc < 16`).
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
/// accumulator chains hide the add latency; on AVX2 an output narrower
/// than 16 columns takes `2·MR` rows per block while that many remain.
/// The AVX2 body runs the `nc % 8` tail columns as one masked 8-lane strip
/// that loads and stores only columns below `nc`; the scalar body runs
/// them one element at a time. The accumulators are loaded
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
// LayerNorm rows
// ---------------------------------------------------------------------------

/// Widest row the AVX2 LayerNorm bodies hold in their stack tile; wider
/// rows take the scalar body (the same bits).
pub const LN_MAX_D: usize = 64;

/// `init + t0 + t1 + …`, one ascending chain. An `init` of `+0.0` is the
/// chain a zeroed accumulator builds; `-0.0` is the additive identity,
/// so it gives the terms' own sum (a lone term unchanged), as a reduction
/// that a same-shape fast path skips does.
#[inline(always)]
fn chain(init: f32, terms: impl Iterator<Item = f32>) -> f32 {
    terms.fold(init, |acc, t| acc + t)
}

/// The start of a fold over `len` terms that a reduction to a shape
/// builds: `+0.0`, or the identity `-0.0` when there is one term and the
/// reduction's same-shape fast path returns it as it is.
#[inline(always)]
fn fold_init(len: usize) -> f32 {
    if len > 1 {
        0.0
    } else {
        -0.0
    }
}

/// One row's mean and `√(var + eps)`: each sum one ascending chain from
/// `+0.0`, scaled by `1/d`, as `mean_axis` computes it.
#[inline(always)]
fn ln_stats(row: &[f32], inv_d: f32, eps: f32) -> (f32, f32) {
    let m = chain(0.0, row.iter().copied()) * inv_d;
    let var = chain(0.0, row.iter().map(|&v| (v - m) * (v - m))) * inv_d;
    (m, (var + eps).sqrt())
}

/// `out = (x − m) / √(var + eps) · γ + β` for every row of `d = γ.len()`
/// floats in `out`: the LayerNorm forward, with every IEEE operation of
/// the composed `mean_axis → sub → square → mean_axis → add_scalar → sqrt
/// → div → mul → add` chain in its order. The AVX2 body runs eight rows
/// at once on the lanes of an 8×8 transpose, so each lane keeps its row's
/// ascending sums; the remaining rows take the scalar body.
pub fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    if d == 0 || out.is_empty() {
        return;
    }
    assert!(
        beta.len() == d && out.len().is_multiple_of(d) && x.len() >= out.len(),
        "layer_norm_rows operands"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // operand lengths were asserted above.
        SimdLevel::Avx2 if d <= LN_MAX_D => unsafe {
            x86::layer_norm_avx2(x, gamma, beta, eps, out)
        },
        _ => layer_norm_scalar(x, gamma, beta, eps, out),
    }
}

fn layer_norm_scalar(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    let inv_d = 1.0 / d as f32;
    for (o, row) in out.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
        let (m, sd) = ln_stats(row, inv_d, eps);
        for (((o, &v), &g), &b) in o.iter_mut().zip(row).zip(gamma).zip(beta) {
            *o = (v - m) / sd * g + b;
        }
    }
}

/// ∂x of [`layer_norm_rows`] for every row of `out`, given the upstream
/// `g`, as the tape sweep of the composed chain builds it: with
/// `c = x − m`, `gn = g·γ` and `sd = √(var + eps)`,
///
/// * `∂sd = Σ −(gn·c)/(sd·sd)`, `∂var = ∂sd/(2·sd)·(1/d)`;
/// * `∂c = gn/sd + (2·∂var)·c` (the division's gradient first, then the
///   square's);
/// * `∂m = Σ −∂c`, and `∂x = ∂c + ∂m·(1/d)`.
///
/// Each sum is one ascending chain from `+0.0` (from `-0.0`, the additive
/// identity, when `d = 1`: the chain skips that reduction). The AVX2 body
/// runs eight rows per transposed tile, as [`layer_norm_rows`] does.
pub fn layer_norm_grad_rows(g: &[f32], x: &[f32], gamma: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    if d == 0 || out.is_empty() {
        return;
    }
    assert!(
        out.len().is_multiple_of(d) && x.len() >= out.len() && g.len() >= out.len(),
        "layer_norm_grad_rows operands"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // operand lengths were asserted above.
        SimdLevel::Avx2 if d <= LN_MAX_D => unsafe {
            x86::layer_norm_grad_avx2(g, x, gamma, eps, out)
        },
        _ => layer_norm_grad_scalar(g, x, gamma, eps, out),
    }
}

fn layer_norm_grad_scalar(g: &[f32], x: &[f32], gamma: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    let (inv_d, init) = (1.0 / d as f32, fold_init(d));
    for ((o, row), gr) in out
        .chunks_exact_mut(d)
        .zip(x.chunks_exact(d))
        .zip(g.chunks_exact(d))
    {
        let (m, sd) = ln_stats(row, inv_d, eps);
        let sd2 = sd * sd;
        let terms = row.iter().zip(gr).zip(gamma);
        let gsd = chain(
            init,
            terms.map(|((&v, &gv), &ga)| -(gv * ga * (v - m)) / sd2),
        );
        let tg = 2.0 * (gsd / (2.0 * sd) * inv_d);
        for (((o, &v), &gv), &ga) in o.iter_mut().zip(row).zip(gr).zip(gamma) {
            *o = gv * ga / sd + tg * (v - m);
        }
        let gmi = chain(init, o.iter().map(|&gc| -gc)) * inv_d;
        for o in o.iter_mut() {
            *o += gmi;
        }
    }
}

/// ∂γ of [`layer_norm_rows`] for the channels `c0..c0 + out.len()`:
/// `out[j] = init + Σ_r g[r, c0+j] · n[r, c0+j]` over all rows `r` in
/// ascending order, where `n = (x − m)/sd` is the row's normalised value.
/// `init` is `+0.0`, or the identity `-0.0` for a rank-1 input, whose one
/// row the chain's reduction returns as is. The AVX2 body finds eight
/// rows' statistics per transposed tile and keeps each channel's sum on
/// its own lane.
pub fn layer_norm_grad_gamma(
    g: &[f32],
    x: &[f32],
    d: usize,
    eps: f32,
    c0: usize,
    init: f32,
    out: &mut [f32],
) {
    if d == 0 || out.is_empty() {
        return;
    }
    assert!(
        c0 + out.len() <= d && x.len().is_multiple_of(d) && g.len() == x.len(),
        "layer_norm_grad_gamma operands"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // operand lengths were asserted above.
        SimdLevel::Avx2 if d <= LN_MAX_D => unsafe {
            x86::layer_norm_grad_gamma_avx2(g, x, d, eps, c0, init, out)
        },
        _ => layer_norm_grad_gamma_scalar(g, x, d, eps, c0, init, out),
    }
}

fn layer_norm_grad_gamma_scalar(
    g: &[f32],
    x: &[f32],
    d: usize,
    eps: f32,
    c0: usize,
    init: f32,
    out: &mut [f32],
) {
    let inv_d = 1.0 / d as f32;
    out.fill(init);
    for (row, gr) in x.chunks_exact(d).zip(g.chunks_exact(d)) {
        let (m, sd) = ln_stats(row, inv_d, eps);
        let cols = row[c0..].iter().zip(&gr[c0..]);
        for (o, (&v, &gv)) in out.iter_mut().zip(cols) {
            *o += gv * ((v - m) / sd);
        }
    }
}

// ---------------------------------------------------------------------------
// Mixed-edge rows
// ---------------------------------------------------------------------------

/// The operands of one mixed edge (Eq. 4 over partial channels), as
/// [`mix_rows`] and [`mix_grad_rows`] read them: the operator outputs
/// `ys[o]`, rows of `width` floats, and their softmax weights `ws[o]`.
#[derive(Clone, Copy, Debug)]
pub struct Mix<'a> {
    /// Each operator's output buffer.
    pub ys: &'a [&'a [f32]],
    /// Each operator's weight.
    pub ws: &'a [f32],
    /// Operator channels per row.
    pub width: usize,
}

impl Mix<'_> {
    /// Panics unless the operands cover `rows` rows.
    fn check(&self, rows: usize) {
        let end = rows * self.width;
        assert!(
            self.ys.len() == self.ws.len() && self.ys.iter().all(|y| y.len() >= end),
            "mixed-edge operands out of bounds"
        );
    }
}

/// The operator channels of `out.len() / ld` output rows of `ld` floats:
/// `out[r·ld + ld − width + j] = ((y₀·w₀ + y₁·w₁) + y₂·w₂) + …` over
/// row `r` of each operand of `m`. Each product and each sum is one IEEE
/// operation in operator order (no FMA) at every level; the lanes run
/// across `j`. The first `ld − width` floats of each row are left alone.
pub fn mix_rows(m: Mix, ld: usize, out: &mut [f32]) {
    if m.width == 0 || out.is_empty() {
        return;
    }
    assert!(
        !m.ys.is_empty() && m.width <= ld && out.len().is_multiple_of(ld),
        "mix_rows: rows of {ld} with {} operator channels",
        m.width
    );
    m.check(out.len() / ld);
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // every operand row was bounds-checked above.
        SimdLevel::Avx2 => unsafe { x86::mix_rows_avx2(m, ld, out) },
        _ => {
            // Operator by operator over a row, so each loop maps along the
            // row; every element still sees its products and sums in
            // operator order.
            for (r, row) in out.chunks_exact_mut(ld).enumerate() {
                let base = r * m.width;
                let o = &mut row[ld - m.width..];
                let first = &m.ys[0][base..base + m.width];
                for (o, &y) in o.iter_mut().zip(first) {
                    *o = y * m.ws[0];
                }
                for (y, &w) in m.ys[1..].iter().zip(&m.ws[1..]) {
                    for (o, &y) in o.iter_mut().zip(&y[base..base + m.width]) {
                        *o += y * w;
                    }
                }
            }
        }
    }
}

/// Element `i` of the mixture: `y₀[i]·w₀`, then `+ y_o[i]·w_o` per operator.
#[inline(always)]
fn mix_one(m: Mix, i: usize) -> f32 {
    let mut acc = m.ys[0][i] * m.ws[0];
    for (y, &w) in m.ys[1..].iter().zip(&m.ws[1..]) {
        acc += y[i] * w;
    }
    acc
}

/// The outputs of one [`mix_grad_rows`] pass, each only where asked.
#[derive(Debug)]
pub struct MixGrads<'a, 'b> {
    /// Per operator, its `∂y_o = g·w_o` (rows of `width`).
    pub dy: &'b mut [Option<&'a mut [f32]>],
    /// Per operator, the running `∂w_o` chain: `+= g·y_o` element by
    /// element in ascending order.
    pub dw: Option<&'b mut [f32]>,
    /// The bypass input's gradient, rows of `ld`: `+0.0` on the `width`
    /// operator channels, then the gradient's first `ld − width` floats.
    pub dh: Option<&'b mut [f32]>,
}

/// The backward of [`mix_rows`] over the gradient `g` (rows of `ld`, the
/// mixture in each row's last `width` floats), in one pass over `g`.
/// `∂y_o` is `g·w_o`, and `∂w_o` goes on each `out.dw[o]` chain as
/// `acc + g·y_o`, in ascending element order — the order a reduction to
/// `[1]` sums a materialized `g·y_o` in. The chains of all operators run
/// interleaved in blocks of eight elements, and each keeps its own order,
/// so every level gives the scalar bits.
pub fn mix_grad_rows(g: &[f32], ld: usize, m: Mix, out: MixGrads) {
    if m.width == 0 || g.is_empty() {
        return;
    }
    assert!(
        m.width <= ld && g.len().is_multiple_of(ld),
        "mix_grad_rows: rows of {ld} with {} operator channels",
        m.width
    );
    let rows = g.len() / ld;
    m.check(rows);
    let span = rows * m.width;
    assert!(
        out.dy.len() == m.ys.len()
            && out.dy.iter().flatten().all(|gy| gy.len() >= span)
            && out.dw.as_ref().is_none_or(|s| s.len() == m.ys.len())
            && out.dh.as_ref().is_none_or(|h| h.len() == g.len()),
        "mix_grad_rows outputs"
    );
    let MixGrads {
        dy: gys,
        mut dw,
        dh,
    } = out;
    if let Some(h) = dh {
        let nb = ld - m.width;
        for (hr, gr) in h.chunks_exact_mut(ld).zip(g.chunks_exact(ld)) {
            hr[..m.width].fill(0.0);
            hr[m.width..].copy_from_slice(&gr[..nb]);
        }
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() == Avx2 only after is_x86_feature_detected!("avx2");
        // every operand and output row was bounds-checked above.
        SimdLevel::Avx2 => unsafe { x86::mix_grad_avx2(g, ld, m, gys, dw.as_deref_mut()) },
        _ => {
            for (r, gr) in g.chunks_exact(ld).enumerate() {
                let base = r * m.width;
                let gm = &gr[ld - m.width..];
                for j0 in (0..m.width).step_by(LANES) {
                    let block = &gm[j0..(j0 + LANES).min(m.width)];
                    mix_grad_block(block, base + j0, m, gys, dw.as_deref_mut());
                }
            }
        }
    }
}

/// One block of [`mix_grad_rows`]' scalar body: `gm` holds the gradient
/// of the operand elements `i0..i0 + gm.len()`.
#[inline(always)]
fn mix_grad_block(
    gm: &[f32],
    i0: usize,
    m: Mix,
    gys: &mut [Option<&mut [f32]>],
    mut sums: Option<&mut [f32]>,
) {
    for (o, (y, &w)) in m.ys.iter().zip(m.ws).enumerate() {
        if let Some(gy) = gys[o].as_deref_mut() {
            for (d, &gv) in gy[i0..i0 + gm.len()].iter_mut().zip(gm) {
                *d = gv * w;
            }
        }
        if let Some(s) = sums.as_deref_mut() {
            let terms = gm.iter().zip(&y[i0..i0 + gm.len()]);
            s[o] = terms.fold(s[o], |acc, (&gv, &yv)| acc + gv * yv);
        }
    }
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
    use super::{
        fold_max, ln_stats, mix_grad_block, mix_one, pinned, BinOp, Gemm, Mix, Rows, UnOp, LANES,
        LN_MAX_D, MAX_RDIMS, MR, MR_NARROW,
    };
    use std::arch::x86_64::*;

    // -- gemm ---------------------------------------------------------------

    // SAFETY: to call, AVX2 must be available on the host and the operands
    // must cover `g` (asserted by the `gemm_rowblock` dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_avx2(a: &[f32], b: &[f32], out: &mut [f32], g: Gemm) {
        let narrow = g.nc < 16;
        let mut i = 0;
        while i < g.rows {
            let (a, out) = (&a[i * g.lda..], &mut out[i * g.ldo..]);
            i += match g.rows - i {
                left if narrow && left >= MR_NARROW => gemm_avx2_block::<MR_NARROW>(a, b, out, g),
                1 => gemm_avx2_block::<1>(a, b, out, g),
                2 => gemm_avx2_block::<2>(a, b, out, g),
                3 => gemm_avx2_block::<3>(a, b, out, g),
                _ => gemm_avx2_block::<MR>(a, b, out, g),
            };
        }
    }

    /// `R` rows: 16- then 8-column strips, then one masked strip for the
    /// last `nc % 8` columns, held in `R` (×2) accumulators while `k`
    /// streams through, one `b` load shared by all `R` rows. Returns `R`.
    // SAFETY: to call, AVX2 must be available on the host and the operands
    // must cover `R` rows of `g`.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_avx2_block<const R: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        g: Gemm,
    ) -> usize {
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
        if j < nc {
            // Lane t is live iff t < nc - j (1..=7 live lanes).
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32((nc - j) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let mut acc = [_mm256_setzero_ps(); R];
            if !g.first {
                for (r, acc) in acc.iter_mut().enumerate() {
                    // SAFETY: the live lanes are columns j..nc of row r,
                    // inside `out` by the assert above; masked-off lanes
                    // are neither read nor faulted on.
                    *acc = _mm256_maskload_ps(op.add(r * ldo + j), mask);
                }
            }
            for kk in 0..k {
                // SAFETY: the live lanes are columns j..nc of `b` row kk,
                // inside `b` by the assert above.
                let vb = _mm256_maskload_ps(bp.add(kk * nc + j), mask);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let va = _mm256_set1_ps(*ap.add(r * lda + kk));
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                // SAFETY: as for the load: only columns j..nc of row r are
                // written, so the `ldo` padding past `nc` stays untouched.
                _mm256_maskstore_ps(op.add(r * ldo + j), mask, *acc);
            }
        }
        R
    }

    // -- pinned transcendentals ----------------------------------------------

    /// `2ⁿ` per lane from exponent bits ([`super::pow2i`]).
    #[target_feature(enable = "avx2")]
    fn pow2i8(n: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )))
    }

    /// [`super::exp_pinned`] on eight lanes, operation for operation.
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        use pinned::*;
        let x = _mm256_min_ps(
            _mm256_set1_ps(EXP_HI),
            _mm256_max_ps(_mm256_set1_ps(EXP_LO), x),
        );
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let n = _mm256_cvtps_epi32(n);
        let half = _mm256_srai_epi32::<1>(n);
        let y = _mm256_mul_ps(y, pow2i8(half));
        _mm256_mul_ps(y, pow2i8(_mm256_sub_epi32(n, half)))
    }

    /// [`UnOp::Sigmoid`] on eight lanes: both branches, blended on `x ≥ 0`.
    #[target_feature(enable = "avx2")]
    fn sigmoid8(x: __m256) -> __m256 {
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(pinned::SIGN as i32));
        let one = _mm256_set1_ps(1.0);
        let e = exp8(_mm256_or_ps(x, sign));
        let d = _mm256_add_ps(one, e);
        let nonneg = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_setzero_ps());
        _mm256_blendv_ps(_mm256_div_ps(e, d), _mm256_div_ps(one, d), nonneg)
    }

    /// [`UnOp::Tanh`] on eight lanes: both branches on `|x|`, blended on
    /// `|x| < 0.625`, then the sign of `x` copied back.
    #[target_feature(enable = "avx2")]
    fn tanh8(x: __m256) -> __m256 {
        use pinned::*;
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32));
        let one = _mm256_set1_ps(1.0);
        let ax = _mm256_andnot_ps(sign, x);
        let z = _mm256_mul_ps(ax, ax);
        let mut q = _mm256_set1_ps(TANH_Q[0]);
        for &c in &TANH_Q[1..] {
            q = _mm256_add_ps(_mm256_mul_ps(q, z), _mm256_set1_ps(c));
        }
        let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, z), ax), ax);
        let e = exp8(_mm256_add_ps(ax, ax));
        let big = _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)),
        );
        let is_small = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(TANH_SMALL));
        let t = _mm256_blendv_ps(big, small, is_small);
        _mm256_or_ps(t, _mm256_and_ps(x, sign))
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
            UnOp::Exp => lanes8!(|v| exp8(v)),
            UnOp::Sigmoid => lanes8!(|v| sigmoid8(v)),
            UnOp::Tanh => lanes8!(|v| tanh8(v)),
            UnOp::Sqrt => lanes8!(|v| _mm256_sqrt_ps(v)),
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

    // -- LayerNorm rows -----------------------------------------------------

    /// 8×8 transpose: lane `t` of output `j` is lane `j` of input `t`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// Lanes `0..w` live.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(w: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(w as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// The `d` columns of the eight `d`-float rows at `p` into
    /// `tile[..d]`, lane `t` holding row `t`: 8×8 transposes of row
    /// strips, the last one masked to the columns below `d`.
    #[inline]
    // SAFETY: to call, AVX2 must be available and `p` must start eight
    // rows of `d` floats; `tile.len() >= d`.
    #[target_feature(enable = "avx2")]
    unsafe fn load_cols(p: *const f32, d: usize, tile: &mut [__m256]) {
        let mut j0 = 0;
        while j0 < d {
            let w = (d - j0).min(LANES);
            let mask = lane_mask(w);
            let mut rows = [_mm256_setzero_ps(); LANES];
            for (t, row) in rows.iter_mut().enumerate() {
                let src = p.add(t * d + j0);
                // SAFETY: columns j0..j0 + w of row t lie inside the rows;
                // masked-off lanes are neither read nor faulted on.
                *row = if w == LANES {
                    _mm256_loadu_ps(src)
                } else {
                    _mm256_maskload_ps(src, mask)
                };
            }
            let cols = transpose8(rows);
            if w == LANES {
                // A fixed-width copy: the compiler keeps it in registers.
                let dst: &mut [__m256; LANES] = (&mut tile[j0..j0 + LANES])
                    .try_into()
                    .unwrap_or_else(|_| unreachable!());
                *dst = cols;
            } else {
                tile[j0..j0 + w].copy_from_slice(&cols[..w]);
            }
            j0 += LANES;
        }
    }

    /// The 8-channel strips of `w` consecutive floats, the last one
    /// masked to the floats below `w`.
    #[derive(Clone, Copy)]
    struct Strips {
        count: usize,
        w: usize,
        masks: [__m256i; LN_MAX_D / LANES],
    }

    impl Strips {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(w: usize) -> Self {
            let mut masks = [_mm256_setzero_si256(); LN_MAX_D / LANES];
            let count = w.div_ceil(LANES);
            for (s, m) in masks.iter_mut().enumerate().take(count) {
                *m = lane_mask(w - s * LANES);
            }
            Strips { count, w, masks }
        }

        /// Strip `s` of the floats at `p`.
        #[inline]
        // SAFETY: to call, AVX2 must be available and `p` must start `w`
        // readable floats; masked-off lanes are neither read nor faulted on.
        #[target_feature(enable = "avx2")]
        unsafe fn load(&self, p: *const f32, s: usize) -> __m256 {
            let p = p.add(s * LANES);
            if (s + 1) * LANES <= self.w {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, self.masks[s])
            }
        }

        /// Write `v` over strip `s` of the floats at `p`.
        #[inline]
        // SAFETY: to call, AVX2 must be available and `p` must start `w`
        // writable floats; masked-off lanes are not written.
        #[target_feature(enable = "avx2")]
        unsafe fn store(&self, p: *mut f32, s: usize, v: __m256) {
            let p = p.add(s * LANES);
            if (s + 1) * LANES <= self.w {
                _mm256_storeu_ps(p, v)
            } else {
                _mm256_maskstore_ps(p, self.masks[s], v)
            }
        }
    }

    /// Eight rows' mean and `√(var + eps)` from their columns (each lane
    /// one row's ascending chains, as [`ln_stats`]); `tile[..d]` becomes
    /// the centred `x − m`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn stats8(tile: &mut [__m256], inv_d: __m256, eps: __m256) -> (__m256, __m256) {
        let mut s = _mm256_setzero_ps();
        for &v in tile.iter() {
            s = _mm256_add_ps(s, v);
        }
        let m = _mm256_mul_ps(s, inv_d);
        let mut q = _mm256_setzero_ps();
        for v in tile.iter_mut() {
            *v = _mm256_sub_ps(*v, m);
            q = _mm256_add_ps(q, _mm256_mul_ps(*v, *v));
        }
        let var = _mm256_mul_ps(q, inv_d);
        (m, _mm256_sqrt_ps(_mm256_add_ps(var, eps)))
    }

    // SAFETY: to call, AVX2 must be available; the operand lengths are
    // asserted below (and by the `layer_norm_rows` dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn layer_norm_avx2(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        let d = gamma.len();
        assert!(d <= LN_MAX_D && beta.len() == d && x.len() >= out.len());
        let rows = out.len() / d;
        let (inv_d, veps) = (_mm256_set1_ps(1.0 / d as f32), _mm256_set1_ps(eps));
        let st = Strips::new(d);
        let (mut gs, mut bs) = (
            [_mm256_setzero_ps(); LN_MAX_D / LANES],
            [_mm256_setzero_ps(); LN_MAX_D / LANES],
        );
        for s in 0..st.count {
            (gs[s], bs[s]) = (st.load(gamma.as_ptr(), s), st.load(beta.as_ptr(), s));
        }
        let mut tile = [_mm256_setzero_ps(); LN_MAX_D];
        let tile = &mut tile[..d];
        let (mut ms, mut sds) = ([0.0f32; LANES], [0.0f32; LANES]);
        let mut r = 0;
        while r + LANES <= rows {
            load_cols(x.as_ptr().add(r * d), d, tile);
            let (m, sd) = stats8(tile, inv_d, veps);
            _mm256_storeu_ps(ms.as_mut_ptr(), m);
            _mm256_storeu_ps(sds.as_mut_ptr(), sd);
            // The output row by row, on channel strips.
            for t in 0..LANES {
                let (vm, vsd) = (_mm256_set1_ps(ms[t]), _mm256_set1_ps(sds[t]));
                let off = (r + t) * d;
                for s in 0..st.count {
                    let xv = st.load(x.as_ptr().add(off), s);
                    let n = _mm256_div_ps(_mm256_sub_ps(xv, vm), vsd);
                    let y = _mm256_add_ps(_mm256_mul_ps(n, gs[s]), bs[s]);
                    st.store(out.as_mut_ptr().add(off), s, y);
                }
            }
            r += LANES;
        }
        super::layer_norm_scalar(&x[r * d..], gamma, beta, eps, &mut out[r * d..]);
    }

    // SAFETY: to call, AVX2 must be available; the operand lengths are
    // asserted below (and by the `layer_norm_grad_rows` dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn layer_norm_grad_avx2(
        g: &[f32],
        x: &[f32],
        gamma: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        let d = gamma.len();
        assert!(d <= LN_MAX_D && x.len() >= out.len() && g.len() >= out.len());
        let rows = out.len() / d;
        let (inv_d, veps) = (_mm256_set1_ps(1.0 / d as f32), _mm256_set1_ps(eps));
        let (two, sign) = (_mm256_set1_ps(2.0), _mm256_set1_ps(-0.0));
        let init = _mm256_set1_ps(super::fold_init(d));
        let st = Strips::new(d);
        let mut gs = [_mm256_setzero_ps(); LN_MAX_D / LANES];
        for (s, v) in gs.iter_mut().enumerate().take(st.count) {
            *v = st.load(gamma.as_ptr(), s);
        }
        let mut xt = [_mm256_setzero_ps(); LN_MAX_D];
        let mut gt = [_mm256_setzero_ps(); LN_MAX_D];
        let (xt, gt) = (&mut xt[..d], &mut gt[..d]);
        let mut stats = [[0.0f32; LANES]; 4];
        let mut r = 0;
        while r + LANES <= rows {
            load_cols(x.as_ptr().add(r * d), d, xt);
            load_cols(g.as_ptr().add(r * d), d, gt);
            let (m, sd) = stats8(xt, inv_d, veps);
            let sd2 = _mm256_mul_ps(sd, sd);
            // gt becomes gn = g·γ.
            let mut gsd = init;
            for ((gv, &c), &ga) in gt.iter_mut().zip(xt.iter()).zip(gamma) {
                *gv = _mm256_mul_ps(*gv, _mm256_set1_ps(ga));
                let t = _mm256_xor_ps(_mm256_mul_ps(*gv, c), sign);
                gsd = _mm256_add_ps(gsd, _mm256_div_ps(t, sd2));
            }
            let gvar = _mm256_mul_ps(_mm256_div_ps(gsd, _mm256_mul_ps(two, sd)), inv_d);
            let tg = _mm256_mul_ps(two, gvar);
            let mut gm = init;
            for (&gn, &c) in gt.iter().zip(xt.iter()) {
                let gc = _mm256_add_ps(_mm256_div_ps(gn, sd), _mm256_mul_ps(tg, c));
                gm = _mm256_add_ps(gm, _mm256_xor_ps(gc, sign));
            }
            let gmi = _mm256_mul_ps(gm, inv_d);
            for (dst, v) in stats.iter_mut().zip([m, sd, tg, gmi]) {
                _mm256_storeu_ps(dst.as_mut_ptr(), v);
            }
            // ∂x row by row, on channel strips: ∂c (as above) + ∂m/d.
            let [ms, sds, tgs, gmis] = &stats;
            for t in 0..LANES {
                let (vm, vsd) = (_mm256_set1_ps(ms[t]), _mm256_set1_ps(sds[t]));
                let (vtg, vgmi) = (_mm256_set1_ps(tgs[t]), _mm256_set1_ps(gmis[t]));
                let off = (r + t) * d;
                for (s, &ga) in gs.iter().enumerate().take(st.count) {
                    let c = _mm256_sub_ps(st.load(x.as_ptr().add(off), s), vm);
                    let gn = _mm256_mul_ps(st.load(g.as_ptr().add(off), s), ga);
                    let gc = _mm256_add_ps(_mm256_div_ps(gn, vsd), _mm256_mul_ps(vtg, c));
                    st.store(out.as_mut_ptr().add(off), s, _mm256_add_ps(gc, vgmi));
                }
            }
            r += LANES;
        }
        super::layer_norm_grad_scalar(&g[r * d..], &x[r * d..], gamma, eps, &mut out[r * d..]);
    }

    // SAFETY: to call, AVX2 must be available; the operand lengths are
    // asserted below (and by the `layer_norm_grad_gamma` dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn layer_norm_grad_gamma_avx2(
        g: &[f32],
        x: &[f32],
        d: usize,
        eps: f32,
        c0: usize,
        init: f32,
        out: &mut [f32],
    ) {
        let w = out.len();
        assert!(d <= LN_MAX_D && c0 + w <= d && g.len() == x.len());
        let rows = x.len() / d;
        let inv_d = 1.0 / d as f32;
        let (vinv_d, veps) = (_mm256_set1_ps(inv_d), _mm256_set1_ps(eps));
        let st = Strips::new(w);
        let mut acc = [_mm256_set1_ps(init); LN_MAX_D / LANES];
        let acc = &mut acc[..st.count];
        let (xp, gp) = (x.as_ptr(), g.as_ptr());
        // One row's contribution to every strip of channels c0..c0 + w.
        let row = |acc: &mut [__m256], r: usize, m: f32, sd: f32| {
            let (vm, vsd) = (_mm256_set1_ps(m), _mm256_set1_ps(sd));
            let off = r * d + c0;
            for (s, a) in acc.iter_mut().enumerate() {
                let (xv, gv) = (st.load(xp.add(off), s), st.load(gp.add(off), s));
                let n = _mm256_div_ps(_mm256_sub_ps(xv, vm), vsd);
                *a = _mm256_add_ps(*a, _mm256_mul_ps(gv, n));
            }
        };
        let mut tile = [_mm256_setzero_ps(); LN_MAX_D];
        let tile = &mut tile[..d];
        let (mut ms, mut sds) = ([0.0f32; LANES], [0.0f32; LANES]);
        let mut r = 0;
        while r + LANES <= rows {
            load_cols(xp.add(r * d), d, tile);
            let (m, sd) = stats8(tile, vinv_d, veps);
            _mm256_storeu_ps(ms.as_mut_ptr(), m);
            _mm256_storeu_ps(sds.as_mut_ptr(), sd);
            for t in 0..LANES {
                row(acc, r + t, ms[t], sds[t]);
            }
            r += LANES;
        }
        while r < rows {
            let (m, sd) = ln_stats(&x[r * d..(r + 1) * d], inv_d, eps);
            row(acc, r, m, sd);
            r += 1;
        }
        for (s, &a) in acc.iter().enumerate() {
            st.store(out.as_mut_ptr(), s, a);
        }
    }

    // -- mixed edge -----------------------------------------------------------

    // SAFETY: to call, AVX2 must be available and every operand row must
    // lie inside its buffer (`mix_rows` checks them).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mix_rows_avx2(m: Mix, ld: usize, out: &mut [f32]) {
        let w = m.width;
        for (r, row) in out.chunks_exact_mut(ld).enumerate() {
            let base = r * w;
            let o = row[ld - w..].as_mut_ptr();
            let mut j = 0;
            while j + 8 <= w {
                let y0 = _mm256_loadu_ps(m.ys[0].as_ptr().add(base + j));
                let mut acc = _mm256_mul_ps(y0, _mm256_set1_ps(m.ws[0]));
                for (y, &wo) in m.ys[1..].iter().zip(&m.ws[1..]) {
                    let yv = _mm256_loadu_ps(y.as_ptr().add(base + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(yv, _mm256_set1_ps(wo)));
                }
                _mm256_storeu_ps(o.add(j), acc);
                j += 8;
            }
            while j < w {
                *o.add(j) = mix_one(m, base + j);
                j += 1;
            }
        }
    }

    // SAFETY: to call, AVX2 must be available and every operand and output
    // row must lie inside its buffer (`mix_grad_rows` checks them).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mix_grad_avx2(
        g: &[f32],
        ld: usize,
        m: Mix,
        gys: &mut [Option<&mut [f32]>],
        mut sums: Option<&mut [f32]>,
    ) {
        let w = m.width;
        let mut tmp = [0.0f32; LANES];
        for (r, gr) in g.chunks_exact(ld).enumerate() {
            let base = r * w;
            let gm = &gr[ld - w..];
            let mut j = 0;
            while j + 8 <= w {
                let gv = _mm256_loadu_ps(gm.as_ptr().add(j));
                for (o, (y, &wo)) in m.ys.iter().zip(m.ws).enumerate() {
                    if let Some(gy) = gys[o].as_deref_mut() {
                        let dy = _mm256_mul_ps(gv, _mm256_set1_ps(wo));
                        _mm256_storeu_ps(gy.as_mut_ptr().add(base + j), dy);
                    }
                    if let Some(s) = sums.as_deref_mut() {
                        let yv = _mm256_loadu_ps(y.as_ptr().add(base + j));
                        _mm256_storeu_ps(tmp.as_mut_ptr(), _mm256_mul_ps(gv, yv));
                        s[o] = tmp.iter().fold(s[o], |acc, &t| acc + t);
                    }
                }
                j += 8;
            }
            if j < w {
                mix_grad_block(&gm[j..], base + j, m, gys, sums.as_deref_mut());
            }
        }
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
        // Row counts cover two 8-row narrow blocks, full MR blocks and
        // every remainder; columns the 16- and 8-wide strips and every
        // (masked) tail; strided rows leave their padding untouched; a
        // first pass ignores what `out` held.
        for rows in 1..=17 {
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
                UnOp::Exp,
                UnOp::Sigmoid,
                UnOp::Tanh,
                UnOp::Sqrt,
            ] {
                across_levels(|| {
                    let mut out = vec![0.0; n];
                    unary_map(op, &a, &mut out);
                    out
                });
            }
        }
    }

    /// Every 9973rd f32 bit pattern, then the specials: ±0, ±∞, NaN, the
    /// `exp` clamp edges, the `tanh` branch point and the overflow and
    /// underflow edges, each with its neighbours.
    fn transcendental_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u32::MAX / 9973)
            .map(|i| f32::from_bits(i * 9973))
            .collect();
        for edge in [
            0.0,
            pinned::EXP_LO,
            pinned::EXP_HI,
            pinned::TANH_SMALL,
            88.72284,   // ln f32::MAX
            -87.33655,  // ln f32::MIN_POSITIVE
            -103.27893, // ln of the least subnormal
            pinned::EXP_HI / 2.0,
            1e-20,
        ] {
            for v in [edge, -edge] {
                xs.extend([v.next_down(), v, v.next_up()]);
            }
        }
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        xs
    }

    /// Distance of `got` from the exact `want` in units of the f32 ulp at
    /// `want` (subnormal spacing below the normal range), with `±∞` read
    /// as `±2¹²⁸`, one ulp past `f32::MAX`.
    fn ulp_error(got: f32, want: f64) -> f64 {
        if got.is_nan() || want.is_nan() {
            return if got.is_nan() && want.is_nan() {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let big = 2f64.powi(128);
        let g = if got.is_infinite() {
            big.copysign(got as f64)
        } else {
            got as f64
        };
        let w = want.clamp(-big, big);
        let e = if w == 0.0 {
            -126
        } else {
            (w.abs().log2().floor() as i32).max(-126)
        };
        (g - w).abs() / 2f64.powi(e - 23)
    }

    #[test]
    fn transcendentals_match_across_levels_and_stay_within_3_ulp() {
        let xs = transcendental_inputs();
        for op in [UnOp::Exp, UnOp::Sigmoid, UnOp::Tanh] {
            let f = |x: f64| match op {
                UnOp::Exp => x.exp(),
                UnOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
                _ => x.tanh(),
            };
            let got = across_levels(|| {
                let mut out = vec![0.0; xs.len()];
                unary_map(op, &xs, &mut out);
                out
            });
            let (worst, at) = xs
                .iter()
                .zip(&got)
                .map(|(&x, &y)| (ulp_error(y, f(x as f64)), x))
                .fold((0.0, 0.0), |m, e| if e.0 > m.0 { e } else { m });
            assert!(worst <= 3.0, "{op:?}: {worst} ulp at x = {at:e}");
        }
    }

    #[test]
    fn transcendentals_pin_specials() {
        let one = |op: UnOp, x: f32| {
            across_levels(|| {
                let mut out = [0.0];
                unary_map(op, &[x], &mut out);
                out.to_vec()
            })[0]
        };
        assert_eq!(one(UnOp::Exp, f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(one(UnOp::Exp, f32::INFINITY), f32::INFINITY);
        assert_eq!(one(UnOp::Exp, 89.0), f32::INFINITY);
        assert_eq!(one(UnOp::Exp, 0.0), 1.0);
        assert_eq!(one(UnOp::Exp, -0.0), 1.0);
        assert_eq!(one(UnOp::Tanh, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(one(UnOp::Tanh, f32::INFINITY), 1.0);
        assert_eq!(one(UnOp::Tanh, f32::NEG_INFINITY), -1.0);
        assert_eq!(one(UnOp::Sigmoid, -0.0), 0.5);
        assert_eq!(one(UnOp::Sigmoid, f32::INFINITY), 1.0);
        assert_eq!(one(UnOp::Sigmoid, f32::NEG_INFINITY).to_bits(), 0);
        for op in [UnOp::Exp, UnOp::Sigmoid, UnOp::Tanh, UnOp::Sqrt] {
            assert!(one(op, f32::NAN).is_nan(), "{op:?}(NaN)");
        }
    }

    #[test]
    fn round_ties_even_small_matches_libm_over_the_exp_range() {
        // `exp_pinned` rounds `x·log₂e` with `x` clamped to
        // `[EXP_LO, EXP_HI]`: every tie `k + 0.5` with its neighbours, then
        // every 997th f32 of that range. `==` reads ±0 as equal, the one
        // documented difference.
        let lo = pinned::EXP_LO * pinned::LOG2E;
        let hi = pinned::EXP_HI * pinned::LOG2E;
        let mut vs: Vec<f32> = Vec::new();
        for k in lo.floor() as i32 - 1..=hi.ceil() as i32 {
            let t = k as f32 + 0.5;
            vs.extend([t.next_down(), t, t.next_up()]);
        }
        vs.extend((0..=hi.to_bits()).step_by(997).map(f32::from_bits));
        vs.extend(
            ((-0.0f32).to_bits()..=lo.to_bits())
                .step_by(997)
                .map(f32::from_bits),
        );
        for v in vs {
            assert_eq!(round_ties_even_small(v), v.round_ties_even(), "v = {v:e}");
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

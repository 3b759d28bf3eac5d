//! Machine-readable benchmark emitter: writes `BENCH_ops.json` and
//! `BENCH_search_step.json` at the repo root (or `$BENCH_OUT_DIR`).
//!
//! This binary installs a counting global allocator, so every row
//! carries allocations/step next to ns/iter — the two axes the
//! worker-pool + arena work optimises. Rows cover the worker pool at
//! 1/2/4 workers — only the counts the host can run in
//! parallel, since wider rows would time oversubscription, not the
//! kernels — and the arena on/off pair at `min(4, available_parallelism)`
//! workers.
//!
//! Every row also carries a `simd` column (`"avx2"` / `"scalar"`); `BENCH_ops.json` additionally runs each per-kernel case
//! at threads=1 once more, in the same timing rounds as its vector run,
//! with `cts_tensor::simd` forced to the scalar path, so the vector speedup is
//! a recorded scalar-vs-simd row pair; a per-kernel row's `ns_per_iter`
//! is the fastest of ten timing windows spread over the whole pass, with
//! the windows' median and slowest beside it, and the two levels take
//! turns at being timed first in each round. Both
//! files open with a `host` header (available parallelism + detected
//! SIMD).
//! Six regressions are *asserted* in-process, not just recorded:
//! `matmul_nt` must stay within 1.3× of `matmul` (the packed-B fix), the
//! graph conv's adjacency `matmul_tn` within 1.3× of its forward twin (the
//! packed-aᵀ fix), the last-axis `max_axis` within 1.5× of the same-shape
//! `sum_axis` (the row fold), and on hosts where AVX2 is detected the
//! vectorized `matmul` and `matmul_tn` must beat the forced-scalar path by
//! ≥ 1.5× and the search's `×[1]` broadcast must stay within 1.5× of a
//! same-shape add (the run-length broadcast).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cts_autograd::Tape;
use cts_bench::{prepare, ExpContext};
use cts_data::{batches_from_windows, DatasetSpec};
use cts_nn::{Adam, Forecaster, LossKind, Optimizer};
use cts_tensor::ops::{self, reference};
use cts_tensor::parallel::set_num_threads;
use cts_tensor::simd::{self, SimdLevel};
use cts_tensor::{arena, init, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

/// Pass-through system allocator that counts calls and bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the atomic counters
// only observe calls and never change layouts or pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: verbatim delegation to the system allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

struct Measure {
    ns_per_iter: u64,
    allocs_per_iter: u64,
    bytes_per_iter: u64,
    /// The `cts_tensor::simd` level the calls ran at.
    simd: &'static str,
}

/// One timing window of `iters` calls of `f`, with the allocation counters
/// read around it.
fn window(iters: usize, mut f: impl FnMut()) -> Measure {
    let (a0, b0) = counters();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let dt = t0.elapsed();
    let (a1, b1) = counters();
    let n = iters.max(1) as u64;
    Measure {
        ns_per_iter: (dt.as_nanos() as u64) / n,
        allocs_per_iter: (a1 - a0) / n,
        bytes_per_iter: (b1 - b0) / n,
        simd: simd::level_name(),
    }
}

fn row_json(op: &str, shape: &str, threads: usize, arena_on: bool, m: &Measure) -> String {
    format!(
        "    {{\"op\": \"{op}\", \"shape\": \"{shape}\", \"threads\": {threads}, \
         \"arena\": {arena_on}, \"simd\": \"{}\", \
         \"ns_per_iter\": {}, \"allocs_per_iter\": {}, \"bytes_per_iter\": {}}}",
        m.simd, m.ns_per_iter, m.allocs_per_iter, m.bytes_per_iter
    )
}

/// `row` with the median and slowest of its sorted timing `windows`
/// (ns/iter) beside the fastest, which the row already carries.
fn with_spread(row: String, windows: &[u64]) -> String {
    let (median, worst) = (windows[windows.len() / 2], windows[windows.len() - 1]);
    format!(
        "{}, \"ns_median\": {median}, \"ns_worst\": {worst}}}",
        row.trim_end_matches('}')
    )
}

/// The `host` header object shared by every `BENCH_*.json` this binary
/// writes: how many hardware threads the box offers and which SIMD level
/// `cts_tensor::simd` detected, so numbers from different machines are
/// never compared blind.
fn host_json() -> String {
    let par = available_parallelism();
    format!(
        "  \"host\": {{\"available_parallelism\": {par}, \"simd_detected\": \"{}\", \
         \"simd_active\": \"{}\"}}",
        simd::detected_name(),
        simd::level_name()
    )
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker counts the rows cover: 1/2/4, keeping only those the host can
/// run in parallel.
fn thread_counts() -> Vec<usize> {
    let par = available_parallelism();
    [1, 2, 4].into_iter().filter(|&t| t <= par).collect()
}

/// Per-kernel rows: the projection/attention shapes the supernet is built
/// from, the search step's own elementwise shapes at `[8,32,12,8]` (the
/// GDCC gate's `tanh` and `sigmoid` included), its own GEMMs (graph conv,
/// linear weight gradient, temporal conv and its input and weight
/// gradients) and a node-major `permute`, attention's key transpose,
/// LayerNorm's per-row
/// and bias broadcasts at d_model 16, ProbSparse's last-axis `max_axis`
/// and LayerNorm's last-axis `sum_axis_grad`, the shared-weight products
/// `[8,32,12,16]×[16,16]` and `[8,32,12,8]×[8,8]ᵀ` and the 12-wide
/// attention score product, and the fused LayerNorm, mixed edge and
/// ProbSparse row placement, forward and backward, each beside the
/// composed chain it replaced (`ops::reference`), at every worker count of
/// [`thread_counts`], plus a forced-scalar run of each case in the same
/// rounds as its threads=1 run, so each kernel has a scalar-vs-simd row
/// pair.
///
/// Asserts (rather than merely records) the perf contracts of the SIMD
/// work: `matmul_nt` within 1.3× of `matmul`, the adjacency `matmul_tn`
/// within 1.3× of its forward twin, the last-axis `max_axis` within 1.5×
/// of the same-shape `sum_axis`, and, when AVX2 is available, vectorized
/// `matmul` and `matmul_tn` ≥ 1.5× over forced-scalar and the `×[1]`
/// broadcast within 1.5× of the same-shape add.
fn bench_ops() -> (Vec<String>, String) {
    let mut rng = SmallRng::seed_from_u64(0);
    let a = init::uniform(&mut rng, [8, 16, 48, 64], -1.0, 1.0);
    let w = init::uniform(&mut rng, [64, 64], -1.0, 1.0);
    let b_same = init::uniform(&mut rng, [8, 16, 48, 64], -1.0, 1.0);
    let scores = init::uniform(&mut rng, [8, 16, 48, 48], -1.0, 1.0);
    // The search step's activation shape and its broadcast partners: Eq. 4's
    // mixture weight, a bias row, and LayerNorm's per-row statistic.
    let h = init::uniform(&mut rng, [8, 32, 12, 8], -1.0, 1.0);
    let h_same = init::uniform(&mut rng, [8, 32, 12, 8], -1.0, 1.0);
    let weight = init::uniform(&mut rng, [1], -1.0, 1.0);
    let bias = init::uniform(&mut rng, [8], -1.0, 1.0);
    let stat = init::uniform(&mut rng, [8, 32, 12, 1], -1.0, 1.0);
    // The search step's own GEMMs: the graph conv's shared adjacency
    // against the node axis, the linear weight gradient, and the temporal
    // conv at d_model 16 with two taps.
    let adj = init::uniform(&mut rng, [32, 32], -1.0, 1.0);
    let hn = init::uniform(&mut rng, [8, 12, 32, 8], -1.0, 1.0);
    let hs = init::uniform(&mut rng, [8, 32, 12, 8], -1.0, 1.0);
    let xc = init::uniform(&mut rng, [8, 32, 12, 16], -1.0, 1.0);
    let wc = init::uniform(&mut rng, [2, 16, 16], -1.0, 1.0);
    // ProbSparse's sparsity measurement reduces `[B·N, T, T]` scores over
    // the last axis; LayerNorm's mean backward broadcasts `[8,32,12]` back
    // over d_model 16.
    let qk = init::uniform(&mut rng, [256, 12, 12], -1.0, 1.0);
    let mean_grad = init::uniform(&mut rng, [8, 32, 12], -1.0, 1.0);
    // Attention's keys `[B·N, T, d]`, transposed for `Q·Kᵀ`, and the
    // d_model-16 bias row.
    let keys = init::uniform(&mut rng, [256, 12, 16], -1.0, 1.0);
    let bias16 = init::uniform(&mut rng, [16], -1.0, 1.0);
    // The model's shared-weight products at d_model 16 and 8, and
    // attention's `Q·Kᵀ` at d_model 16 with the keys already transposed.
    let w16 = init::uniform(&mut rng, [16, 16], -1.0, 1.0);
    let w8 = init::uniform(&mut rng, [8, 8], -1.0, 1.0);
    let keys_t = init::uniform(&mut rng, [256, 16, 12], -1.0, 1.0);
    // LayerNorm at d_model 8 and 16: the fused kernel and the composed
    // chain it replaced, forward and backward (every gradient asked for).
    let gamma8 = init::uniform(&mut rng, [8], 0.5, 1.5);
    let gamma16 = init::uniform(&mut rng, [16], 0.5, 1.5);
    let g16 = init::uniform(&mut rng, [8, 32, 12, 16], -1.0, 1.0);
    let ln = |x: &Tensor, gamma: &Tensor, beta: &Tensor, fused: bool| {
        if fused {
            ops::layer_norm(x, gamma, beta, 1e-5)
        } else {
            reference::layer_norm(x, gamma, beta, 1e-5)
        }
    };
    let ln_grad = |g: &Tensor, x: &Tensor, gamma: &Tensor, fused: bool| {
        let [gx, ..] = if fused {
            ops::layer_norm_grad(g, x, gamma, 1e-5, [true; 3])
        } else {
            reference::layer_norm_grad(g, x, gamma, 1e-5, [true; 3])
        };
        // invariant: ∂x was asked for.
        gx.expect("∂x")
    };
    // Eq. 4's mixed edge at the search shape: five operator outputs of
    // eight channels into d_model 16, weighted by columns 1..6 of a
    // softmax row of six (column 0 is the zero operator's), fused and as
    // the composed chain it replaced, forward and backward (every gradient
    // asked for).
    let edge_ys: Vec<Tensor> = (0..5)
        .map(|_| init::uniform(&mut rng, [8, 32, 12, 8], -1.0, 1.0))
        .collect();
    let edge_row = init::uniform(&mut rng, [1, 6], 0.0, 0.4);
    let edge_h = init::uniform(&mut rng, [8, 32, 12, 16], -1.0, 1.0);
    let edge_g = init::uniform(&mut rng, [8, 32, 12, 16], -1.0, 1.0);
    let edge_yr: Vec<&Tensor> = edge_ys.iter().collect();
    let edge_cols = [1, 2, 3, 4, 5];
    let edge = |fused: bool| {
        if fused {
            ops::mixed_edge(&edge_yr, &edge_row, &edge_cols, Some(&edge_h))
        } else {
            reference::mixed_edge(&edge_yr, &edge_row, &edge_cols, Some(&edge_h))
        }
    };
    let edge_grad = |fused: bool| {
        let (h, needs) = (Some(edge_h.shape()), [true; 7]);
        let mut grads = if fused {
            ops::mixed_edge_grad(&edge_g, &edge_yr, &edge_row, &edge_cols, h, &needs)
        } else {
            reference::mixed_edge_grad(&edge_g, &edge_yr, &edge_row, &edge_cols, h, &needs)
        };
        // invariant: every gradient was asked for.
        grads.swap_remove(0).expect("∂y_1")
    };
    // ProbSparse's row placement at the temporal (`[B·N, T, d]`, u = 3) and
    // spatial (`[B·T, N, d]`, u = 4) attention shapes, fused and as the
    // composed chain, forward and backward.
    let (sel_t, sel_s) = ([2usize, 5, 9], [3usize, 10, 17, 29]);
    let attn_t = init::uniform(&mut rng, [256, 3, 8], -1.0, 1.0);
    let mean_t = init::uniform(&mut rng, [256, 1, 8], -1.0, 1.0);
    let g_t = init::uniform(&mut rng, [256, 12, 8], -1.0, 1.0);
    let attn_s = init::uniform(&mut rng, [96, 4, 8], -1.0, 1.0);
    let mean_s = init::uniform(&mut rng, [96, 1, 8], -1.0, 1.0);
    let g_s = init::uniform(&mut rng, [96, 32, 8], -1.0, 1.0);
    let place = |attn: &Tensor, mean: &Tensor, sel: &[usize], l: usize, fused: bool| {
        if fused {
            ops::place_rows(attn, mean, sel, l)
        } else {
            reference::place_rows(attn, mean, sel, l)
        }
    };
    let place_grad = |g: &Tensor, sel: &[usize], fused: bool| {
        let [ga, _] = if fused {
            ops::place_rows_grad(g, sel, [true; 2])
        } else {
            reference::place_rows_grad(g, sel, [true; 2])
        };
        // invariant: ∂attn was asked for.
        ga.expect("∂attn")
    };

    // (op, shape, timed iterations, kernel call); the search shapes are
    // ~10 µs calls, so they time more iterations.
    type Case<'c> = (&'c str, &'c str, usize, Box<dyn Fn() -> Tensor + 'c>);
    let cases: Vec<Case> = vec![
        (
            "matmul",
            "[8,16,48,64]x[64,64]",
            20,
            Box::new(|| ops::matmul(&a, &w)),
        ),
        (
            "matmul.nt",
            "[8,16,48,64]x[64,64]T",
            20,
            Box::new(|| ops::matmul_nt(&a, &w)),
        ),
        (
            "matmul.tn",
            "[8,16,48,64]Tx[8,16,48,48]",
            20,
            Box::new(|| ops::matmul_tn(&a, &scores)),
        ),
        (
            "softmax.last",
            "[8,16,48,48]",
            20,
            Box::new(|| ops::softmax_last(&scores)),
        ),
        (
            "elementwise.add",
            "[8,16,48,64]+[8,16,48,64]",
            20,
            Box::new(|| ops::add(&a, &b_same)),
        ),
        (
            "elementwise.reduce_to_shape",
            "[8,16,48,64]->[48,64]",
            20,
            Box::new(|| ops::reduce_to_shape(&a, &[48, 64])),
        ),
        (
            "elementwise.add",
            "[8,32,12,8]+[8,32,12,8]",
            400,
            Box::new(|| ops::add(&h, &h_same)),
        ),
        (
            "elementwise.mul",
            "[8,32,12,8]x[1]",
            400,
            Box::new(|| ops::mul(&h, &weight)),
        ),
        (
            "elementwise.add",
            "[8,32,12,8]+[8]",
            400,
            Box::new(|| ops::add(&h, &bias)),
        ),
        (
            "elementwise.sub",
            "[8,32,12,8]-[8,32,12,1]",
            400,
            Box::new(|| ops::sub(&h, &stat)),
        ),
        (
            "elementwise.tanh",
            "[8,32,12,8]",
            400,
            Box::new(|| ops::tanh(&h)),
        ),
        (
            "elementwise.sigmoid",
            "[8,32,12,8]",
            400,
            Box::new(|| ops::sigmoid(&h)),
        ),
        (
            "elementwise.reduce_to_shape",
            "[8,32,12,8]->[8,32,12,1]",
            400,
            Box::new(|| ops::reduce_to_shape(&h, &[8, 32, 12, 1])),
        ),
        (
            "elementwise.reduce_to_shape",
            "[8,32,12,8]->[1]",
            400,
            Box::new(|| ops::reduce_to_shape(&h, &[1])),
        ),
        (
            "reduce.sum_axis",
            "[8,32,12,8] axis 3",
            400,
            Box::new(|| ops::sum_axis(&h, 3, true)),
        ),
        (
            "reduce.sum_axis",
            "[256,12,12] axis 2",
            400,
            Box::new(|| ops::sum_axis(&qk, 2, false)),
        ),
        (
            "reduce.max_axis",
            "[256,12,12] axis 2",
            400,
            Box::new(|| ops::max_axis(&qk, 2, false)),
        ),
        (
            "reduce.sum_axis_grad",
            "[8,32,12,16] axis 3",
            400,
            Box::new(|| ops::sum_axis_grad(&mean_grad, &[8, 32, 12, 16], 3)),
        ),
        (
            "permute",
            "[8,32,12,8] 0213",
            400,
            Box::new(|| ops::permute(&h, &[0, 2, 1, 3])),
        ),
        (
            "permute",
            "[256,12,16] 021",
            400,
            Box::new(|| ops::permute(&keys, &[0, 2, 1])),
        ),
        (
            "elementwise.sub",
            "[8,32,12,16]-[8,32,12,1]",
            400,
            Box::new(|| ops::sub(&xc, &stat)),
        ),
        (
            "elementwise.add",
            "[8,32,12,16]+[16]",
            400,
            Box::new(|| ops::add(&xc, &bias16)),
        ),
        (
            "matmul",
            "[32,32]x[8,12,32,8]",
            1000,
            Box::new(|| ops::matmul(&adj, &hn)),
        ),
        (
            "matmul.tn",
            "[32,32]Tx[8,12,32,8]",
            1000,
            Box::new(|| ops::matmul_tn(&adj, &hn)),
        ),
        (
            "matmul.tn",
            "[8,32,12,8]Tx[8,32,12,8]",
            200,
            Box::new(|| ops::matmul_tn(&hs, &h)),
        ),
        (
            "conv.temporal",
            "[8,32,12,16] taps 2",
            100,
            Box::new(|| ops::temporal_conv(&xc, &wc, 1)),
        ),
        (
            "conv.temporal_grad_x",
            "[8,32,12,16] taps 2",
            100,
            Box::new(|| ops::temporal_conv_grad_x(&xc, &wc, xc.shape(), 1)),
        ),
        (
            "conv.temporal_grad_w",
            "[8,32,12,16] taps 2",
            100,
            Box::new(|| ops::temporal_conv_grad_w(&xc, &xc, wc.shape(), 1)),
        ),
        (
            "matmul",
            "[8,32,12,16]x[16,16]",
            200,
            Box::new(|| ops::matmul(&xc, &w16)),
        ),
        (
            "matmul.nt",
            "[8,32,12,8]x[8,8]T",
            400,
            Box::new(|| ops::matmul_nt(&h, &w8)),
        ),
        (
            "matmul",
            "[256,12,16]x[256,16,12]",
            200,
            Box::new(|| ops::matmul(&keys, &keys_t)),
        ),
        (
            "layer_norm",
            "[8,32,12,8]",
            400,
            Box::new(|| ln(&h, &gamma8, &bias, true)),
        ),
        (
            "layer_norm.reference",
            "[8,32,12,8]",
            200,
            Box::new(|| ln(&h, &gamma8, &bias, false)),
        ),
        (
            "layer_norm",
            "[8,32,12,16]",
            200,
            Box::new(|| ln(&xc, &gamma16, &bias16, true)),
        ),
        (
            "layer_norm.reference",
            "[8,32,12,16]",
            100,
            Box::new(|| ln(&xc, &gamma16, &bias16, false)),
        ),
        (
            "layer_norm_grad",
            "[8,32,12,8]",
            200,
            Box::new(|| ln_grad(&h_same, &h, &gamma8, true)),
        ),
        (
            "layer_norm_grad.reference",
            "[8,32,12,8]",
            100,
            Box::new(|| ln_grad(&h_same, &h, &gamma8, false)),
        ),
        (
            "layer_norm_grad",
            "[8,32,12,16]",
            100,
            Box::new(|| ln_grad(&g16, &xc, &gamma16, true)),
        ),
        (
            "layer_norm_grad.reference",
            "[8,32,12,16]",
            50,
            Box::new(|| ln_grad(&g16, &xc, &gamma16, false)),
        ),
        (
            "mixed_edge",
            "[8,32,12,8]x5 into 16",
            200,
            Box::new(|| edge(true)),
        ),
        (
            "mixed_edge.reference",
            "[8,32,12,8]x5 into 16",
            100,
            Box::new(|| edge(false)),
        ),
        (
            "mixed_edge_grad",
            "[8,32,12,8]x5 into 16",
            100,
            Box::new(|| edge_grad(true)),
        ),
        (
            "mixed_edge_grad.reference",
            "[8,32,12,8]x5 into 16",
            50,
            Box::new(|| edge_grad(false)),
        ),
        (
            "place_rows",
            "[256,12,8] u 3",
            400,
            Box::new(|| place(&attn_t, &mean_t, &sel_t, 12, true)),
        ),
        (
            "place_rows.reference",
            "[256,12,8] u 3",
            200,
            Box::new(|| place(&attn_t, &mean_t, &sel_t, 12, false)),
        ),
        (
            "place_rows",
            "[96,32,8] u 4",
            400,
            Box::new(|| place(&attn_s, &mean_s, &sel_s, 32, true)),
        ),
        (
            "place_rows.reference",
            "[96,32,8] u 4",
            200,
            Box::new(|| place(&attn_s, &mean_s, &sel_s, 32, false)),
        ),
        (
            "place_rows_grad",
            "[256,12,8] u 3",
            400,
            Box::new(|| place_grad(&g_t, &sel_t, true)),
        ),
        (
            "place_rows_grad.reference",
            "[256,12,8] u 3",
            200,
            Box::new(|| place_grad(&g_t, &sel_t, false)),
        ),
        (
            "place_rows_grad",
            "[96,32,8] u 4",
            400,
            Box::new(|| place_grad(&g_s, &sel_s, true)),
        ),
        (
            "place_rows_grad.reference",
            "[96,32,8] u 4",
            200,
            Box::new(|| place_grad(&g_s, &sel_s, false)),
        ),
    ];

    let mut rows = Vec::new();
    // ns/iter at threads=1, keyed by (op, shape, simd level name) — the
    // config the speedup assertions below read from.
    let mut t1: HashMap<(&str, &str, &'static str), u64> = HashMap::new();
    let active = simd::level_name();
    // At threads=1 each case also runs on the forced-scalar path. Safe to
    // flip mid-process: every kernel is bit-identical across levels, so
    // only timing changes.
    let t1_levels: &[Option<SimdLevel>] = if simd::active() {
        &[None, Some(SimdLevel::Scalar)]
    } else {
        &[None]
    };
    for threads in thread_counts() {
        set_num_threads(threads);
        let levels = if threads == 1 { t1_levels } else { &[None] };
        for (_, _, _, f) in &cases {
            for _ in 0..5 {
                std::hint::black_box(f());
            }
        }
        // Ten rounds over every (case, level), each taking a tenth of the
        // case's iterations; a row keeps its fastest window. The host's
        // speed drifts in phases of seconds, and spreading every row's
        // windows over the whole pass lets a slow phase hit all rows alike
        // instead of deciding one asserted ratio. Odd rounds time the
        // levels in reverse, so neither level always runs right after the
        // other (a warm cache or a clock ramp would favour one side).
        let mut best: Vec<Option<Measure>> =
            (0..cases.len() * levels.len()).map(|_| None).collect();
        let mut windows: Vec<Vec<u64>> = vec![Vec::new(); cases.len() * levels.len()];
        for round in 0..10 {
            for (ci, (_, _, iters, f)) in cases.iter().enumerate() {
                for k in 0..levels.len() {
                    let li = if round % 2 == 0 {
                        k
                    } else {
                        levels.len() - 1 - k
                    };
                    simd::set_level(levels[li]);
                    let m = window(iters.div_ceil(10), || {
                        std::hint::black_box(f());
                    });
                    windows[ci * levels.len() + li].push(m.ns_per_iter);
                    let slot = &mut best[ci * levels.len() + li];
                    if slot.as_ref().is_none_or(|b| m.ns_per_iter < b.ns_per_iter) {
                        *slot = Some(m);
                    }
                }
            }
        }
        simd::set_level(None);
        let rows_of = cases.iter().zip(
            best.chunks(levels.len())
                .zip(windows.chunks_mut(levels.len())),
        );
        for ((op, shape, _, _), (row_best, row_windows)) in rows_of {
            for (m, ws) in row_best.iter().zip(row_windows) {
                let Some(m) = m else { continue };
                if threads == 1 {
                    t1.insert((op, shape, m.simd), m.ns_per_iter);
                }
                ws.sort_unstable();
                rows.push(with_spread(
                    row_json(op, shape, threads, arena::enabled(), m),
                    ws,
                ));
            }
        }
    }
    set_num_threads(0);

    let ns = |op: &str, shape: &str, lvl: &'static str| -> f64 {
        t1.get(&(op, shape, lvl)).copied().unwrap_or(0).max(1) as f64
    };
    let speedup = |op: &str, shape: &str| ns(op, shape, "scalar") / ns(op, shape, active);
    let nt_ratio = ns("matmul.nt", "[8,16,48,64]x[64,64]T", active)
        / ns("matmul", "[8,16,48,64]x[64,64]", active);
    let tn_ratio = ns("matmul.tn", "[32,32]Tx[8,12,32,8]", active)
        / ns("matmul", "[32,32]x[8,12,32,8]", active);
    let splat_ratio = ns("elementwise.mul", "[8,32,12,8]x[1]", active)
        / ns("elementwise.add", "[8,32,12,8]+[8,32,12,8]", active);
    let max_ratio = ns("reduce.max_axis", "[256,12,12] axis 2", active)
        / ns("reduce.sum_axis", "[256,12,12] axis 2", active);
    let (mm, tn, ew, sm, rd) = (
        speedup("matmul", "[8,16,48,64]x[64,64]"),
        speedup("matmul.tn", "[8,16,48,64]Tx[8,16,48,48]"),
        speedup("elementwise.add", "[8,16,48,64]+[8,16,48,64]"),
        speedup("softmax.last", "[8,16,48,48]"),
        speedup("elementwise.reduce_to_shape", "[8,16,48,64]->[48,64]"),
    );
    let (th, sg, gx) = (
        speedup("elementwise.tanh", "[8,32,12,8]"),
        speedup("elementwise.sigmoid", "[8,32,12,8]"),
        speedup("conv.temporal_grad_x", "[8,32,12,16] taps 2"),
    );
    // The fused LayerNorm over the composed chain it replaced, forward and
    // backward, at d_model 8 and 16.
    let fused = |op: &str, shape: &str| {
        ns(&format!("{op}.reference"), shape, active) / ns(op, shape, active)
    };
    let (lf8, lf16, lb8, lb16) = (
        fused("layer_norm", "[8,32,12,8]"),
        fused("layer_norm", "[8,32,12,16]"),
        fused("layer_norm_grad", "[8,32,12,8]"),
        fused("layer_norm_grad", "[8,32,12,16]"),
    );
    // The fused mixed edge and ProbSparse row placement over the composed
    // chains they replaced, forward and backward.
    let edge_shape = "[8,32,12,8]x5 into 16";
    let (ef, eb) = (
        fused("mixed_edge", edge_shape),
        fused("mixed_edge_grad", edge_shape),
    );
    let (pft, pfs, pbt, pbs) = (
        fused("place_rows", "[256,12,8] u 3"),
        fused("place_rows", "[96,32,8] u 4"),
        fused("place_rows_grad", "[256,12,8] u 3"),
        fused("place_rows_grad", "[96,32,8] u 4"),
    );
    let summary = format!(
        "  \"summary\": {{\"simd_active\": \"{active}\", \
         \"ratio_matmul_nt_vs_matmul_t1\": {nt_ratio:.3}, \
         \"ratio_adjacency_matmul_tn_vs_matmul_t1\": {tn_ratio:.3}, \
         \"ratio_mul_splat_vs_add_t1\": {splat_ratio:.3}, \
         \"ratio_last_axis_max_vs_sum_t1\": {max_ratio:.3}, \
         \"speedup_simd_vs_scalar_t1\": {{\"matmul\": {mm:.3}, \"matmul.tn\": {tn:.3}, \
         \"elementwise.add\": {ew:.3}, \"softmax.last\": {sm:.3}, \
         \"elementwise.reduce_to_shape\": {rd:.3}, \"elementwise.tanh\": {th:.3}, \
         \"elementwise.sigmoid\": {sg:.3}, \"conv.temporal_grad_x\": {gx:.3}}}, \
         \"speedup_layer_norm_fused_vs_reference_t1\": {{\"forward [8,32,12,8]\": {lf8:.3}, \
         \"forward [8,32,12,16]\": {lf16:.3}, \"backward [8,32,12,8]\": {lb8:.3}, \
         \"backward [8,32,12,16]\": {lb16:.3}}}, \
         \"speedup_mixed_edge_fused_vs_reference_t1\": {{\"forward {edge_shape}\": {ef:.3}, \
         \"backward {edge_shape}\": {eb:.3}}}, \
         \"speedup_place_rows_fused_vs_reference_t1\": {{\"forward [256,12,8] u 3\": {pft:.3}, \
         \"forward [96,32,8] u 4\": {pfs:.3}, \"backward [256,12,8] u 3\": {pbt:.3}, \
         \"backward [96,32,8] u 4\": {pbs:.3}}}}}"
    );

    // The packed-B fix for matmul_nt: the pre-fix ratio was ~2.1×; hold the
    // line at 1.3× so the regression cannot silently return.
    assert!(
        nt_ratio <= 1.3,
        "matmul_nt regressed: {nt_ratio:.3}x matmul at threads=1 (budget 1.3x)"
    );
    // The packed-aᵀ matmul_tn: the axpy walk over a's columns took 5.7x
    // its forward twin's time on the graph conv's adjacency shape.
    assert!(
        tn_ratio <= 1.3,
        "adjacency matmul_tn regressed: {tn_ratio:.3}x its forward twin at threads=1 (budget 1.3x)"
    );
    // The last-axis max folds each contiguous row as sum_axis does; one
    // `max_accum` dispatch per element took 28x the sum.
    assert!(
        max_ratio <= 1.5,
        "last-axis max_axis regressed: {max_ratio:.3}x the same-shape sum_axis at threads=1 (budget 1.5x)"
    );
    if simd::detected() == SimdLevel::Avx2 && simd::active() {
        assert!(
            mm >= 1.5,
            "vectorized matmul only {mm:.3}x over forced-scalar on an AVX2 host (need 1.5x)"
        );
        assert!(
            tn >= 1.5,
            "vectorized matmul_tn only {tn:.3}x over forced-scalar on an AVX2 host (need 1.5x)"
        );
        // A `×[1]` broadcast is one constant run over the whole tensor, so
        // it costs what a same-shape add does; a per-element odometer walk
        // is several times slower.
        assert!(
            splat_ratio <= 1.5,
            "[8,32,12,8]x[1] broadcast regressed: {splat_ratio:.3}x the same-shape add at threads=1 (budget 1.5x)"
        );
    }
    (rows, summary)
}

/// Timed one-step windows per search-step config.
const SEARCH_STEP_WINDOWS: usize = 11;

/// One bi-level search step (Θ update + w update) on the default-scale
/// supernet — the unit cost behind the paper's search times. Each pass
/// asks for the gradients its optimizer steps, as `joint_search` does.
/// Each row is the fastest of [`SEARCH_STEP_WINDOWS`] one-step windows,
/// interleaved across the configs, with their median and slowest.
///
/// Uses [`ExpContext::from_env`] (the documented `NODES`/`BATCH`/`D_MODEL`
/// knobs), not the smoke context: at smoke scale nearly every kernel sits
/// below `PAR_THRESHOLD` and runs serial at any worker count, so the step
/// would measure compute, not the dispatch overhead this file tracks.
fn bench_search_step() -> (Vec<String>, String) {
    let ctx = ExpContext::from_env();
    let p = prepare(&ctx, &DatasetSpec::metr_la());
    let cfg = ctx.search_config();
    let mut rng = SmallRng::seed_from_u64(0);
    let model =
        autocts::SupernetModel::new(&mut rng, &cfg, &p.spec, &p.data.graph, &p.windows.scaler);
    let batches = batches_from_windows(&p.windows.train, ctx.batch);
    let (x, y) = batches[0].clone();
    let mut arch_opt = Adam::for_architecture(model.arch_parameters(), cfg.arch_lr, cfg.arch_wd);
    let mut weight_opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
    let loss_kind = LossKind::MaskedMae {
        null_value: Some(0.0),
    };

    let mut step = || {
        // Θ step
        let tape = Tape::new();
        let pred = model.forward(&tape, &tape.constant(x.clone()));
        let loss = loss_kind.compute(&tape, &pred, &y);
        tape.backward_for(&loss, arch_opt.params());
        arch_opt.step();
        // w step
        let tape = Tape::new();
        let pred = model.forward(&tape, &tape.constant(x.clone()));
        let loss = loss_kind.compute(&tape, &pred, &y);
        tape.backward_for(&loss, weight_opt.params());
        weight_opt.step();
    };

    // (threads, arena): the pool at every worker count, then the arena
    // on/off pair at `min(4, available_parallelism)` workers.
    let pair_threads = available_parallelism().min(4);
    let mut configs: Vec<(usize, bool)> = thread_counts().into_iter().map(|t| (t, true)).collect();
    if !configs.contains(&(pair_threads, true)) {
        configs.push((pair_threads, true));
    }
    configs.push((pair_threads, false));
    // Rounds of one timed step per config, the configs taking turns, so a
    // slow phase of the host hits every config alike; each config's row
    // keeps its fastest window, with the median and slowest beside it.
    // One untimed step before each window brings the pool and the arena
    // to that config's steady state after the switch.
    let mut best: Vec<Option<Measure>> = configs.iter().map(|_| None).collect();
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); configs.len()];
    for _ in 0..SEARCH_STEP_WINDOWS {
        for (ci, &(threads, on)) in configs.iter().enumerate() {
            set_num_threads(threads);
            arena::set_enabled(Some(on));
            if !on {
                arena::clear(); // free lists must not serve this config
            }
            step();
            let m = window(1, &mut step);
            windows[ci].push(m.ns_per_iter);
            if best[ci]
                .as_ref()
                .is_none_or(|b| m.ns_per_iter < b.ns_per_iter)
            {
                best[ci] = Some(m);
            }
        }
    }
    let mut rows = Vec::new();
    let mut arena_on = (1, 1);
    let mut arena_off = (1, 1);
    for ((&(threads, on), m), ws) in configs.iter().zip(&best).zip(&mut windows) {
        let Some(m) = m else { continue };
        ws.sort_unstable();
        rows.push(with_spread(
            row_json(
                "search_step.bilevel",
                "metr-la default-scale supernet",
                threads,
                on,
                m,
            ),
            ws,
        ));
        if threads == pair_threads {
            let counts = (m.allocs_per_iter, m.bytes_per_iter);
            if on {
                arena_on = counts;
            } else {
                arena_off = counts;
            }
        }
    }
    arena::set_enabled(None);
    set_num_threads(0);

    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let summary = format!(
        "  \"summary\": {{\"alloc_count_reduction_arena\": {:.3}, \
         \"alloc_bytes_reduction_arena\": {:.3}}}",
        ratio(arena_off.0, arena_on.0),
        ratio(arena_off.1, arena_on.1)
    );
    (rows, summary)
}

fn write_json(path: &std::path::Path, rows: &[String], summary: Option<&str>) {
    let mut body = String::from("{\n");
    body.push_str(&host_json());
    body.push_str(",\n  \"rows\": [\n");
    body.push_str(&rows.join(",\n"));
    body.push_str("\n  ]");
    if let Some(s) = summary {
        body.push_str(",\n");
        body.push_str(s);
    }
    body.push_str("\n}\n");
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("bench_json: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

fn main() {
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());
    let out = std::path::Path::new(&out_dir);

    let (ops_rows, ops_summary) = bench_ops();
    write_json(&out.join("BENCH_ops.json"), &ops_rows, Some(&ops_summary));
    println!("{ops_summary}");

    let (step_rows, summary) = bench_search_step();
    write_json(
        &out.join("BENCH_search_step.json"),
        &step_rows,
        Some(&summary),
    );
    println!("{summary}");
}

//! Machine-readable benchmark emitter: writes `BENCH_ops.json` and
//! `BENCH_search_step.json` at the repo root (or `$BENCH_OUT_DIR`).
//!
//! Unlike the criterion benches this binary installs a counting global
//! allocator, so every row carries allocations/step next to ns/iter —
//! the two axes the worker-pool + arena work optimises. Rows cover the
//! worker pool at 1/2/4 workers — only the counts the host can run in
//! parallel, since wider rows would time oversubscription, not the
//! kernels — and the arena on/off pair at `min(4, available_parallelism)`
//! workers.
//!
//! Every row also carries a `simd` column (`"avx2"` / `"scalar"`); `BENCH_ops.json` additionally runs each per-kernel case
//! at threads=1 once more, in the same timing rounds as its vector run,
//! with `cts_tensor::simd` forced to the scalar path, so the vector speedup is
//! a recorded scalar-vs-simd row pair; a per-kernel row's `ns_per_iter`
//! is the fastest of ten timing windows spread over the whole pass. Both
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
use cts_tensor::parallel::set_num_threads;
use cts_tensor::simd::{self, SimdLevel};
use cts_tensor::{arena, init, ops, Tensor};
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
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

struct Measure {
    ns_per_iter: u64,
    allocs_per_iter: u64,
    bytes_per_iter: u64,
    /// The `cts_tensor::simd` level the calls ran at.
    simd: &'static str,
}

/// Time `iters` calls of `f` after `warmup` discarded ones.
fn measure(warmup: usize, iters: usize, mut f: impl FnMut()) -> Measure {
    for _ in 0..warmup {
        f();
    }
    window(iters, f)
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
        m.simd,
        m.ns_per_iter,
        m.allocs_per_iter,
        m.bytes_per_iter
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
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Worker counts the rows cover: 1/2/4, keeping only those the host can
/// run in parallel.
fn thread_counts() -> Vec<usize> {
    let par = available_parallelism();
    [1, 2, 4].into_iter().filter(|&t| t <= par).collect()
}

/// Per-kernel rows: the projection/attention shapes the supernet is built
/// from, the search step's own elementwise shapes at `[8,32,12,8]`, its
/// own GEMMs (graph conv, linear weight gradient, temporal conv) and its
/// node-major `permute`, attention's key transpose, LayerNorm's per-row
/// and bias broadcasts at d_model 16, ProbSparse's last-axis `max_axis`
/// and LayerNorm's last-axis `sum_axis_grad`, at every worker count of
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

    // (op, shape, timed iterations, kernel call); the search shapes are
    // ~10 µs calls, so they time more iterations.
    type Case<'c> = (&'c str, &'c str, usize, Box<dyn Fn() -> Tensor + 'c>);
    let cases: Vec<Case> = vec![
        ("matmul", "[8,16,48,64]x[64,64]", 20, Box::new(|| ops::matmul(&a, &w))),
        ("matmul.nt", "[8,16,48,64]x[64,64]T", 20, Box::new(|| ops::matmul_nt(&a, &w))),
        ("matmul.tn", "[8,16,48,64]Tx[8,16,48,48]", 20, Box::new(|| ops::matmul_tn(&a, &scores))),
        ("softmax.last", "[8,16,48,48]", 20, Box::new(|| ops::softmax_last(&scores))),
        ("elementwise.add", "[8,16,48,64]+[8,16,48,64]", 20, Box::new(|| ops::add(&a, &b_same))),
        (
            "elementwise.reduce_to_shape",
            "[8,16,48,64]->[48,64]",
            20,
            Box::new(|| ops::reduce_to_shape(&a, &[48, 64])),
        ),
        ("elementwise.add", "[8,32,12,8]+[8,32,12,8]", 400, Box::new(|| ops::add(&h, &h_same))),
        ("elementwise.mul", "[8,32,12,8]x[1]", 400, Box::new(|| ops::mul(&h, &weight))),
        ("elementwise.add", "[8,32,12,8]+[8]", 400, Box::new(|| ops::add(&h, &bias))),
        ("elementwise.sub", "[8,32,12,8]-[8,32,12,1]", 400, Box::new(|| ops::sub(&h, &stat))),
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
        ("reduce.sum_axis", "[8,32,12,8] axis 3", 400, Box::new(|| ops::sum_axis(&h, 3, true))),
        ("reduce.sum_axis", "[256,12,12] axis 2", 400, Box::new(|| ops::sum_axis(&qk, 2, false))),
        ("reduce.max_axis", "[256,12,12] axis 2", 400, Box::new(|| ops::max_axis(&qk, 2, false))),
        (
            "reduce.sum_axis_grad",
            "[8,32,12,16] axis 3",
            400,
            Box::new(|| ops::sum_axis_grad(&mean_grad, &[8, 32, 12, 16], 3)),
        ),
        ("permute", "[8,32,12,8] 0213", 400, Box::new(|| ops::permute(&h, &[0, 2, 1, 3]))),
        ("permute", "[256,12,16] 021", 400, Box::new(|| ops::permute(&keys, &[0, 2, 1]))),
        ("elementwise.sub", "[8,32,12,16]-[8,32,12,1]", 400, Box::new(|| ops::sub(&xc, &stat))),
        ("elementwise.add", "[8,32,12,16]+[16]", 400, Box::new(|| ops::add(&xc, &bias16))),
        ("matmul", "[32,32]x[8,12,32,8]", 1000, Box::new(|| ops::matmul(&adj, &hn))),
        ("matmul.tn", "[32,32]Tx[8,12,32,8]", 1000, Box::new(|| ops::matmul_tn(&adj, &hn))),
        ("matmul.tn", "[8,32,12,8]Tx[8,32,12,8]", 200, Box::new(|| ops::matmul_tn(&hs, &h))),
        ("conv.temporal", "[8,32,12,16] taps 2", 100, Box::new(|| ops::temporal_conv(&xc, &wc, 1))),
        (
            "conv.temporal_grad_w",
            "[8,32,12,16] taps 2",
            100,
            Box::new(|| ops::temporal_conv_grad_w(&xc, &xc, wc.shape(), 1)),
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
    let t1_levels: &[Option<SimdLevel>] = if simd::active() { &[None, Some(SimdLevel::Scalar)] } else { &[None] };
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
        // instead of deciding one asserted ratio.
        let mut best: Vec<Option<Measure>> = (0..cases.len() * levels.len()).map(|_| None).collect();
        for _ in 0..10 {
            for (ci, (_, _, iters, f)) in cases.iter().enumerate() {
                for (li, &level) in levels.iter().enumerate() {
                    simd::set_level(level);
                    let m = window(iters.div_ceil(10), || {
                        std::hint::black_box(f());
                    });
                    let slot = &mut best[ci * levels.len() + li];
                    if slot.as_ref().is_none_or(|b| m.ns_per_iter < b.ns_per_iter) {
                        *slot = Some(m);
                    }
                }
            }
        }
        simd::set_level(None);
        for ((op, shape, _, _), row_best) in cases.iter().zip(best.chunks(levels.len())) {
            for m in row_best.iter().flatten() {
                if threads == 1 {
                    t1.insert((op, shape, m.simd), m.ns_per_iter);
                }
                rows.push(row_json(op, shape, threads, arena::enabled(), m));
            }
        }
    }
    set_num_threads(0);

    let ns = |op: &str, shape: &str, lvl: &'static str| -> f64 {
        t1.get(&(op, shape, lvl)).copied().unwrap_or(0).max(1) as f64
    };
    let speedup = |op: &str, shape: &str| ns(op, shape, "scalar") / ns(op, shape, active);
    let nt_ratio = ns("matmul.nt", "[8,16,48,64]x[64,64]T", active) / ns("matmul", "[8,16,48,64]x[64,64]", active);
    let tn_ratio = ns("matmul.tn", "[32,32]Tx[8,12,32,8]", active) / ns("matmul", "[32,32]x[8,12,32,8]", active);
    let splat_ratio = ns("elementwise.mul", "[8,32,12,8]x[1]", active)
        / ns("elementwise.add", "[8,32,12,8]+[8,32,12,8]", active);
    let max_ratio = ns("reduce.max_axis", "[256,12,12] axis 2", active) / ns("reduce.sum_axis", "[256,12,12] axis 2", active);
    let (mm, tn, ew, sm, rd) = (
        speedup("matmul", "[8,16,48,64]x[64,64]"),
        speedup("matmul.tn", "[8,16,48,64]Tx[8,16,48,48]"),
        speedup("elementwise.add", "[8,16,48,64]+[8,16,48,64]"),
        speedup("softmax.last", "[8,16,48,48]"),
        speedup("elementwise.reduce_to_shape", "[8,16,48,64]->[48,64]"),
    );
    let summary = format!(
        "  \"summary\": {{\"simd_active\": \"{active}\", \
         \"ratio_matmul_nt_vs_matmul_t1\": {nt_ratio:.3}, \
         \"ratio_adjacency_matmul_tn_vs_matmul_t1\": {tn_ratio:.3}, \
         \"ratio_mul_splat_vs_add_t1\": {splat_ratio:.3}, \
         \"ratio_last_axis_max_vs_sum_t1\": {max_ratio:.3}, \
         \"speedup_simd_vs_scalar_t1\": {{\"matmul\": {mm:.3}, \"matmul.tn\": {tn:.3}, \
         \"elementwise.add\": {ew:.3}, \"softmax.last\": {sm:.3}, \
         \"elementwise.reduce_to_shape\": {rd:.3}}}}}"
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

/// One bi-level search step (Θ update + w update) on the default-scale
/// supernet — the unit cost behind the paper's search times. Each pass
/// asks for the gradients its optimizer steps, as `joint_search` does.
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
    let loss_kind = LossKind::MaskedMae { null_value: Some(0.0) };

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
    let mut rows = Vec::new();
    let mut arena_on = (1, 1);
    let mut arena_off = (1, 1);
    for &(threads, on) in &configs {
        set_num_threads(threads);
        arena::set_enabled(Some(on));
        if !on {
            arena::clear(); // free lists must not serve this config
        }
        let m = measure(2, 5, &mut step);
        rows.push(row_json("search_step.bilevel", "metr-la default-scale supernet", threads, on, &m));
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
    write_json(&out.join("BENCH_search_step.json"), &step_rows, Some(&summary));
    println!("{summary}");
}

//! Property tests pinning the parallel/blocked kernels to the naive serial
//! oracles in `cts_tensor::ops::reference`, across randomized broadcast
//! shapes and thread counts.
//!
//! Two guarantees are checked:
//!
//! 1. **Accuracy**: optimized kernels match the reference to 1e-5 on every
//!    randomized shape (in practice they are bit-exact, because every path
//!    accumulates in the same ascending-`k` order — asserted where true).
//! 2. **Determinism**: a forced single worker (`set_num_threads(1)`, the
//!    programmatic equivalent of `CTS_NUM_THREADS=1`) produces bit-identical
//!    results to multi-worker runs.
//!
//! Tests mutate the process-wide thread override, so they serialize on a
//! mutex.

use cts_tensor::ops::{self, reference};
use cts_tensor::parallel::{reset_pool, set_num_threads};
use cts_tensor::simd::{self, SimdLevel};
use cts_tensor::{arena, Tensor};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn rand_tensor(rng: &mut SmallRng, shape: Vec<usize>) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect::<Vec<f32>>(),
    )
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Run `f` under `threads` workers, restoring the default afterwards.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    set_num_threads(threads);
    let out = f();
    set_num_threads(0);
    out
}

/// Run `f` at the forced SIMD `level`, restoring env-driven selection
/// afterwards. Forcing `Scalar` is the programmatic `CTS_SIMD=off`.
fn with_simd<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    simd::set_level(Some(level));
    let out = f();
    simd::set_level(None);
    out
}

/// Every SIMD level the host can actually run (always includes `Scalar`).
fn host_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= simd::detected())
        .collect()
}

/// Raw IEEE bits — the equality the SIMD determinism contract promises.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shared-weight matmul `[B, T, m, k] × [k, n]` — the projection shape
    /// used all over the model zoo — plus determinism across thread counts.
    fn matmul_shared_weight_matches_reference(
        bsz in 1usize..4,
        t in 1usize..5,
        m in 1usize..32,
        k in 1usize..32,
        n in 1usize..32,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, vec![bsz, t, m, k]);
        let b = rand_tensor(&mut rng, vec![k, n]);
        let serial = with_threads(1, || ops::matmul(&a, &b));
        let threaded = with_threads(4, || ops::matmul(&a, &b));
        let oracle = reference::matmul(&a, &b);
        prop_assert!(max_abs_diff(&serial, &oracle) <= 1e-5);
        // Ascending-k accumulation makes every path bit-exact.
        prop_assert_eq!(serial.data(), oracle.data());
        prop_assert_eq!(serial.data(), threaded.data());
    }

    /// Batched matmul with broadcast batch dims on either operand.
    fn matmul_broadcast_batches_match_reference(
        bsz in 1usize..5,
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        broadcast_a in proptest::bool::ANY,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a_batch, b_batch) = if broadcast_a { (1, bsz) } else { (bsz, 1) };
        let a = rand_tensor(&mut rng, vec![a_batch, m, k]);
        let b = rand_tensor(&mut rng, vec![b_batch, k, n]);
        let serial = with_threads(1, || ops::matmul(&a, &b));
        let threaded = with_threads(3, || ops::matmul(&a, &b));
        let oracle = reference::matmul(&a, &b);
        prop_assert_eq!(serial.shape(), oracle.shape());
        prop_assert!(max_abs_diff(&serial, &oracle) <= 1e-5);
        prop_assert_eq!(serial.data(), threaded.data());
    }

    /// A shared `[k, n]` weight against a rank-3 or rank-4 `a`: `matmul`
    /// and `matmul_nt` run each worker's whole row range as one GEMM. Both
    /// must give the oracle's bits at 1–3 threads and every host SIMD
    /// level. `m` is ragged against the 8-row blocks, `n` straddles the
    /// 8-lane width, and the sizes mostly pass the parallel threshold, so
    /// worker ranges start and end inside batch elements.
    fn shared_weight_fold_matches_reference(
        b0 in 2usize..6,
        b1 in 1usize..4,
        rank4 in proptest::bool::ANY,
        m in 1usize..14,
        k in 12usize..32,
        n in 1usize..24,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let a_shape = if rank4 { vec![b0, b1, m, k] } else { vec![b0 * b1, m, k] };
        let a = rand_tensor(&mut rng, a_shape);
        let b = rand_tensor(&mut rng, vec![k, n]);
        let bt = rand_tensor(&mut rng, vec![n, k]);
        let oracle = reference::matmul(&a, &b);
        let nt_oracle = reference::matmul(&a, &reference::transpose_last2(&bt));
        for level in host_levels() {
            for threads in [1usize, 2, 3] {
                let (mm, nt) = with_threads(threads, || {
                    with_simd(level, || (ops::matmul(&a, &b), ops::matmul_nt(&a, &bt)))
                });
                prop_assert_eq!(bits(&mm), bits(&oracle), "matmul at {:?}, {} threads", level, threads);
                prop_assert_eq!(bits(&nt), bits(&nt_oracle), "matmul_nt at {:?}, {} threads", level, threads);
            }
        }
    }

    /// Every elementwise broadcast op across randomized broadcast shapes:
    /// ranks 1–4 with each dim independently squashed to 1 on either side
    /// (`[1]`, `[…, 1]`, row and middle broadcasts), the four arithmetic
    /// ops, `div_grad_b`'s closure form, and thread counts 1–3 on sizes
    /// above the parallel threshold, so chunk starts fall mid-run.
    fn elementwise_broadcast_matches_reference(
        rank in 1usize..5,
        dims in proptest::collection::vec(1usize..7, 4),
        squash_a in 0usize..16,
        squash_b in 0usize..16,
        drop_a in 0usize..4,
        drop_b in 0usize..4,
        big in 0usize..4,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        // `big == 0` swaps in a rank-4 shape past the parallel threshold.
        let full: Vec<usize> = if big == 0 {
            vec![dims[0] % 3 + 2, 3, 5, 1111]
        } else {
            dims[4 - rank..].to_vec()
        };
        let r = full.len();
        // Each squash bit sets one right-aligned dim to 1; a dim squashed
        // on both sides is squashed on neither, so the broadcast output
        // keeps the full shape. Dropped leading dims lower the rank.
        let both = squash_a & squash_b;
        let side = |squash: usize, drop: usize| -> Vec<usize> {
            let s: Vec<usize> = full
                .iter()
                .enumerate()
                .map(|(i, &d)| if (squash & !both) >> (r - 1 - i) & 1 != 0 { 1 } else { d })
                .collect();
            s[drop.min(r - 1)..].to_vec()
        };
        let a = rand_tensor(&mut rng, side(squash_a, drop_a));
        let b = rand_tensor(&mut rng, side(squash_b, drop_b));
        let g = rand_tensor(&mut rng, full.clone());
        let grad_b = |num: f32, den: f32| -num / (den * den);
        let oracle = [
            reference::add(&a, &b),
            reference::zip_broadcast(&a, &b, |x, y| x - y),
            reference::mul(&a, &b),
            reference::zip_broadcast(&a, &b, |x, y| x / y),
            reference::zip_broadcast(&b, &a, |x, y| x - y),
            reference::zip_broadcast(&b, &a, |x, y| x / y),
            reference::reduce_to_shape(
                &reference::zip_broadcast(&reference::mul(&g, &a), &b, grad_b),
                b.shape(),
            ),
        ];
        for threads in [1usize, 2, 3] {
            let fast = with_threads(threads, || {
                [
                    ops::add(&a, &b),
                    ops::sub(&a, &b),
                    ops::mul(&a, &b),
                    ops::div(&a, &b),
                    ops::sub(&b, &a),
                    ops::div(&b, &a),
                    ops::div_grad_b(&g, &a, &b),
                ]
            });
            for (i, (fast, slow)) in fast.iter().zip(oracle.iter()).enumerate() {
                prop_assert_eq!(fast.shape(), slow.shape(), "op {} at {} threads", i, threads);
                // Same per-element expression => bit-exact.
                prop_assert_eq!(bits(fast), bits(slow), "op {} at {} threads", i, threads);
            }
        }
    }

    /// Softmax over the last axis, rows partitioned across workers.
    fn softmax_matches_reference(
        rows0 in 1usize..24,
        rows1 in 1usize..24,
        n in 1usize..64,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, vec![rows0, rows1, n]);
        let serial = with_threads(1, || ops::softmax_last(&a));
        let threaded = with_threads(5, || ops::softmax_last(&a));
        let oracle = reference::softmax_last(&a);
        prop_assert!(max_abs_diff(&serial, &oracle) <= 1e-5);
        prop_assert_eq!(serial.data(), oracle.data());
        prop_assert_eq!(serial.data(), threaded.data());
    }

    /// Fused-transpose gradient kernels (`matmul_nt` = a·bᵀ, `matmul_tn` =
    /// aᵀ·g) vs the explicit transpose-then-matmul oracle composition, at
    /// every thread count the pool is expected to run under. `matmul_tn`
    /// also runs against a shared `a: [m, k]` (the graph-conv adjacency
    /// shape) and a shared `g: [m, n]`. `m` and `k` cover every residue
    /// mod 4, so the microkernel's 4-row blocks meet ragged remainders.
    fn fused_transpose_matmuls_match_reference(
        bsz in 1usize..4,
        mq in 0usize..6,
        mrem in 0usize..4,
        kq in 0usize..6,
        krem in 0usize..4,
        n in 1usize..24,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let m = (mq * 4 + mrem).max(1);
        let k = (kq * 4 + krem).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, vec![bsz, m, k]);
        let b = rand_tensor(&mut rng, vec![bsz, n, k]);
        let g = rand_tensor(&mut rng, vec![bsz, m, n]);
        let a_shared = rand_tensor(&mut rng, vec![m, k]);
        let g_shared = rand_tensor(&mut rng, vec![m, n]);
        let nt_oracle = reference::matmul(&a, &reference::transpose_last2(&b));
        let tn_oracle = reference::matmul(&reference::transpose_last2(&a), &g);
        let tn_shared_a_oracle = reference::matmul(&reference::transpose_last2(&a_shared), &g);
        let tn_shared_g_oracle = reference::matmul(&reference::transpose_last2(&a), &g_shared);
        for threads in [1usize, 2, 3, 4] {
            let nt = with_threads(threads, || ops::matmul_nt(&a, &b));
            let tn = with_threads(threads, || ops::matmul_tn(&a, &g));
            let tn_shared_a = with_threads(threads, || ops::matmul_tn(&a_shared, &g));
            let tn_shared_g = with_threads(threads, || ops::matmul_tn(&a, &g_shared));
            prop_assert_eq!(nt.shape(), nt_oracle.shape());
            prop_assert_eq!(tn.shape(), tn_oracle.shape());
            prop_assert_eq!(tn_shared_a.shape(), tn_shared_a_oracle.shape());
            prop_assert_eq!(tn_shared_g.shape(), tn_shared_g_oracle.shape());
            // Ascending-k accumulation on both sides => bit-exact.
            prop_assert_eq!(bits(&nt), bits(&nt_oracle), "matmul_nt at {} threads", threads);
            prop_assert_eq!(bits(&tn), bits(&tn_oracle), "matmul_tn at {} threads", threads);
            prop_assert_eq!(bits(&tn_shared_a), bits(&tn_shared_a_oracle), "shared-a matmul_tn at {} threads", threads);
            prop_assert_eq!(bits(&tn_shared_g), bits(&tn_shared_g_oracle), "shared-g matmul_tn at {} threads", threads);
        }
    }

    /// Temporal conv and its input and weight gradients vs the naive
    /// oracles over ragged `[B, N, T, D]` shapes, taps 1–4 and dilations
    /// 1–4 (lags past `T` included), on sizes below and past the parallel
    /// threshold. All three are bit-exact at every thread count.
    fn temporal_conv_matches_reference(
        bsz in 1usize..4,
        nodes in 1usize..5,
        t in 1usize..14,
        din in 1usize..11,
        dout in 1usize..21,
        taps in 1usize..5,
        dilation in 1usize..5,
        big in 0usize..3,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        // `big == 0` multiplies the series count past the parallel threshold.
        let bsz = if big == 0 { bsz * 8 } else { bsz };
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, vec![bsz, nodes, t, din]);
        let w = rand_tensor(&mut rng, vec![taps, din, dout]);
        let g = rand_tensor(&mut rng, vec![bsz, nodes, t, dout]);
        let y_oracle = reference::temporal_conv(&x, &w, dilation);
        let gw_oracle = reference::temporal_conv_grad_w(&g, &x, w.shape(), dilation);
        let gx_oracle = reference::temporal_conv_grad_x(&g, &w, x.shape(), dilation);
        for threads in [1usize, 2, 3] {
            let y = with_threads(threads, || ops::temporal_conv(&x, &w, dilation));
            prop_assert_eq!(y.shape(), y_oracle.shape());
            prop_assert_eq!(bits(&y), bits(&y_oracle), "temporal_conv at {} threads", threads);
            let gw = with_threads(threads, || ops::temporal_conv_grad_w(&g, &x, w.shape(), dilation));
            prop_assert_eq!(gw.shape(), gw_oracle.shape());
            prop_assert_eq!(bits(&gw), bits(&gw_oracle), "temporal_conv_grad_w at {} threads", threads);
            let gx = with_threads(threads, || ops::temporal_conv_grad_x(&g, &w, x.shape(), dilation));
            prop_assert_eq!(gx.shape(), gx_oracle.shape());
            prop_assert_eq!(bits(&gx), bits(&gx_oracle), "temporal_conv_grad_x at {} threads", threads);
        }
    }

    /// Parallel-gather `reduce_to_shape` vs the serial-scatter oracle over
    /// randomized rank-4 broadcastable targets — masked, trailing-block
    /// (`[…, 1, 1]`) and the full `[1]` — and thread counts, including
    /// grads past the parallel threshold.
    fn reduce_to_shape_matches_reference(
        dims in proptest::collection::vec(1usize..9, 4),
        mask in 0usize..16,
        form in 0usize..4,
        drop_leading in 0usize..3,
        big in 0usize..3,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        // `big == 0` stretches the last dim past the parallel threshold.
        let mut gshape = dims.clone();
        if big == 0 {
            gshape[3] = 32_768 / (dims[0] * dims[1] * dims[2]) + 7;
        }
        let grad = rand_tensor(&mut rng, gshape.clone());
        // Forms 0–1: each mask bit squashes one dim to 1. Form 2: keep a
        // leading block, squash the trailing rest. Form 3: the full `[1]`.
        // Forms 0–2 optionally drop leading dims (rank-reducing).
        let mut target: Vec<usize> = match form {
            0 | 1 => gshape
                .iter()
                .enumerate()
                .map(|(i, &d)| if mask >> i & 1 != 0 { 1 } else { d })
                .collect(),
            2 => gshape
                .iter()
                .enumerate()
                .map(|(i, &d)| if i < mask % 4 { d } else { 1 })
                .collect(),
            _ => vec![1],
        };
        if form != 3 {
            target.drain(..drop_leading.min(target.len() - 1));
        }
        let slow = reference::reduce_to_shape(&grad, &target);
        for threads in [1usize, 2, 3, 4] {
            let fast = with_threads(threads, || ops::reduce_to_shape(&grad, &target));
            prop_assert_eq!(fast.shape(), slow.shape());
            // One ascending gather chain per output element => bit-exact.
            prop_assert_eq!(bits(&fast), bits(&slow), "target {:?} at {} threads", &target, threads);
        }
    }

    /// Axis reductions and transpose stay consistent with the oracle at
    /// every thread count, the last axis (one contiguous row per output)
    /// included, on sizes both below and past the parallel threshold.
    fn reduce_and_transpose_match_reference(
        d0 in 1usize..6,
        d1 in 1usize..24,
        d2 in 1usize..24,
        axis in 0usize..3,
        big in 0usize..3,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = if big == 0 { vec![d0 * 40 + 40, 24, d2 + 24] } else { vec![d0, d1, d2] };
        let a = rand_tensor(&mut rng, shape);
        let slow = reference::sum_axis(&a, axis, false);
        let st = reference::transpose_last2(&a);
        for threads in [1usize, 2, 3] {
            let fast = with_threads(threads, || ops::sum_axis(&a, axis, false));
            prop_assert_eq!(fast.shape(), slow.shape());
            prop_assert_eq!(bits(&fast), bits(&slow), "axis {} at {} threads", axis, threads);
            let ft = with_threads(threads, || ops::transpose_last2(&a));
            prop_assert_eq!(ft.data(), st.data());
        }
    }

    /// Permute, max over an axis and the sum-axis gradient against their
    /// naive oracles, bit for bit: ranks 1–4, every axis (the last
    /// included), permutations that keep a trailing run of axes in place
    /// and ones that move the last axis, inputs salted with NaN and ±0, on
    /// sizes below and past the parallel threshold, at threads 1–3 and
    /// every SIMD level the host runs.
    fn permute_and_axis_reductions_match_reference(
        rank in 1usize..5,
        kept_tail in 0usize..5,
        big in proptest::bool::ANY,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..7usize)).collect();
        if big {
            let n: usize = shape.iter().product();
            shape[0] *= 40_000 / n + 1;
        }
        let n: usize = shape.iter().product();
        let salted = |rng: &mut SmallRng, n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => f32::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect()
        };
        let a = Tensor::from_vec(shape.clone(), salted(&mut rng, n));
        // The first `rank - kept` axes shuffled, the tail left in place.
        let moved = rank - kept_tail.min(rank);
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..moved).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        let grads: Vec<Tensor> = (0..rank)
            .map(|axis| {
                let m = n / shape[axis];
                Tensor::from_vec(reference::sum_axis(&a, axis, false).shape().to_vec(), salted(&mut rng, m))
            })
            .collect();
        let slow_perm = reference::permute(&a, &perm);
        let slow_max: Vec<Tensor> = (0..rank).map(|axis| reference::max_axis(&a, axis, false)).collect();
        let slow_grad: Vec<Tensor> =
            (0..rank).map(|axis| reference::sum_axis_grad(&grads[axis], &shape, axis)).collect();
        for threads in [1usize, 2, 3] {
            for level in host_levels() {
                let fast = with_threads(threads, || with_simd(level, || ops::permute(&a, &perm)));
                prop_assert_eq!(fast.shape(), slow_perm.shape());
                prop_assert_eq!(bits(&fast), bits(&slow_perm), "permute {:?} of {:?} at {} threads, {:?}", &perm, &shape, threads, level);
                for axis in 0..rank {
                    let fm = with_threads(threads, || with_simd(level, || ops::max_axis(&a, axis, false)));
                    prop_assert_eq!(fm.shape(), slow_max[axis].shape());
                    prop_assert_eq!(bits(&fm), bits(&slow_max[axis]), "max_axis {} of {:?} at {} threads, {:?}", axis, &shape, threads, level);
                    let fg = with_threads(threads, || with_simd(level, || ops::sum_axis_grad(&grads[axis], &shape, axis)));
                    prop_assert_eq!(fg.shape(), slow_grad[axis].shape());
                    prop_assert_eq!(bits(&fg), bits(&slow_grad[axis]), "sum_axis_grad {} of {:?} at {} threads, {:?}", axis, &shape, threads, level);
                }
            }
        }
    }

    /// SIMD determinism contract, matmul family: every vector level the
    /// host supports returns the *bits* of the forced-scalar path
    /// (`CTS_SIMD=off`), with `n` deliberately straddling the 8-lane width
    /// (`n % 8` covers 0..=7) and under both thread counts.
    fn simd_levels_bit_identical_matmul_family(
        bsz in 1usize..3,
        m in 1usize..12,
        k in 1usize..24,
        nq in 0usize..3,
        nrem in 0usize..8,
        four_threads in proptest::bool::ANY,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let threads = if four_threads { 4 } else { 1 };
        let n = (nq * 8 + nrem).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, vec![bsz, m, k]);
        let b = rand_tensor(&mut rng, vec![k, n]);
        let bt = rand_tensor(&mut rng, vec![bsz, n, k]);
        let g = rand_tensor(&mut rng, vec![bsz, m, n]);
        // A shared `[m, k]` left operand: the graph-conv adjacency shape.
        let a_shared = rand_tensor(&mut rng, vec![m, k]);
        let run = || {
            (
                ops::matmul(&a, &b),
                ops::matmul_nt(&a, &bt),
                ops::matmul_tn(&a, &g),
                ops::matmul_tn(&a_shared, &g),
            )
        };
        let scalar = with_threads(threads, || with_simd(SimdLevel::Scalar, run));
        for level in host_levels() {
            let out = with_threads(threads, || with_simd(level, run));
            prop_assert_eq!(bits(&scalar.0), bits(&out.0), "matmul at {:?}", level);
            prop_assert_eq!(bits(&scalar.1), bits(&out.1), "matmul_nt at {:?}", level);
            prop_assert_eq!(bits(&scalar.2), bits(&out.2), "matmul_tn at {:?}", level);
            prop_assert_eq!(bits(&scalar.3), bits(&out.3), "shared-a matmul_tn at {:?}", level);
        }
    }

    /// SIMD determinism contract, elementwise + softmax: vector levels are
    /// bit-identical to forced-scalar across lane-straddling lengths, on
    /// same-shape and broadcast operands alike,
    /// including the specials the pinned forms guarantee (relu's
    /// `maxps(x, 0)` mapping −0 to +0 is identical in both paths).
    fn simd_levels_bit_identical_elementwise_softmax(
        rows in 1usize..10,
        nq in 0usize..3,
        nrem in 0usize..8,
        four_threads in proptest::bool::ANY,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let threads = if four_threads { 4 } else { 1 };
        let n = (nq * 8 + nrem).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = rand_tensor(&mut rng, vec![rows, n]);
        let b = rand_tensor(&mut rng, vec![rows, n]);
        // Broadcast operands: a row, a column and a scalar.
        let row = rand_tensor(&mut rng, vec![n]);
        let col = rand_tensor(&mut rng, vec![rows, 1]);
        let one = rand_tensor(&mut rng, vec![1]);
        // Seed specials into `a`: a negative zero and (softmax aside) the
        // elementwise ops must pass NaN through identically.
        a.data_mut()[0] = -0.0;
        let run_ew = || {
            (
                ops::add(&a, &b),
                ops::mul(&a, &b),
                ops::relu(&a),
                ops::neg(&a),
                ops::scale(&a, 1.75),
                ops::clamp(&a, -0.5, 0.5),
            )
        };
        // Contiguous × contiguous runs, constants on either side, and the
        // closure form.
        let run_bc = || {
            [
                ops::add(&a, &row),
                ops::sub(&a, &col),
                ops::mul(&a, &one),
                ops::div(&a, &col),
                ops::sub(&one, &a),
                ops::div(&col, &a),
                ops::div_grad_b(&b, &a, &col),
            ]
        };
        let run_sm = || ops::softmax_last(&a);
        let scalar = with_threads(threads, || with_simd(SimdLevel::Scalar, run_ew));
        let scalar_sm = with_threads(threads, || with_simd(SimdLevel::Scalar, run_sm));
        let scalar_bc = with_threads(threads, || with_simd(SimdLevel::Scalar, run_bc));
        for level in host_levels() {
            let out = with_threads(threads, || with_simd(level, run_ew));
            let sm = with_threads(threads, || with_simd(level, run_sm));
            let bc = with_threads(threads, || with_simd(level, run_bc));
            for (i, (s, v)) in scalar_bc.iter().zip(bc.iter()).enumerate() {
                prop_assert_eq!(bits(s), bits(v), "broadcast op {} at {:?}", i, level);
            }
            prop_assert_eq!(bits(&scalar.0), bits(&out.0), "add at {:?}", level);
            prop_assert_eq!(bits(&scalar.1), bits(&out.1), "mul at {:?}", level);
            prop_assert_eq!(bits(&scalar.2), bits(&out.2), "relu at {:?}", level);
            prop_assert_eq!(bits(&scalar.3), bits(&out.3), "neg at {:?}", level);
            prop_assert_eq!(bits(&scalar.4), bits(&out.4), "scale at {:?}", level);
            prop_assert_eq!(bits(&scalar.5), bits(&out.5), "clamp at {:?}", level);
            prop_assert_eq!(bits(&scalar_sm), bits(&sm), "softmax at {:?}", level);
        }
    }

    /// SIMD determinism contract, reductions + conv: axis sums/maxes,
    /// every `reduce_to_shape` layout (last dim preserved → vector gather;
    /// last dim reduced, trailing block and `[1]` → scalar chains), the
    /// temporal conv and its input gradient.
    fn simd_levels_bit_identical_reductions_conv(
        d0 in 1usize..4,
        d1 in 1usize..6,
        nq in 0usize..3,
        nrem in 0usize..8,
        axis in 0usize..3,
        four_threads in proptest::bool::ANY,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let threads = if four_threads { 4 } else { 1 };
        let n = (nq * 8 + nrem).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, vec![d0, d1, n]);
        let x = rand_tensor(&mut rng, vec![d0, d1, 6, 5]);
        let w = rand_tensor(&mut rng, vec![2, 5, n]);
        let gy = rand_tensor(&mut rng, vec![d0, d1, 6, n]);
        let run = || {
            (
                ops::sum_axis(&a, axis, false),
                ops::max_axis(&a, axis, false),
                ops::reduce_to_shape(&a, &[1, d1, n]), // last dim preserved
                ops::reduce_to_shape(&a, &[d0, d1, 1]), // last dim reduced
                ops::temporal_conv(&x, &w, 1),
                ops::reduce_to_shape(&a, &[d0, 1, 1]), // trailing block
                ops::reduce_to_shape(&a, &[1]),        // everything
                ops::temporal_conv_grad_x(&gy, &w, x.shape(), 1),
            )
        };
        let scalar = with_threads(threads, || with_simd(SimdLevel::Scalar, run));
        for level in host_levels() {
            let out = with_threads(threads, || with_simd(level, run));
            prop_assert_eq!(bits(&scalar.0), bits(&out.0), "sum_axis at {:?}", level);
            prop_assert_eq!(bits(&scalar.1), bits(&out.1), "max_axis at {:?}", level);
            prop_assert_eq!(bits(&scalar.2), bits(&out.2), "reduce keep-last at {:?}", level);
            prop_assert_eq!(bits(&scalar.3), bits(&out.3), "reduce drop-last at {:?}", level);
            prop_assert_eq!(bits(&scalar.4), bits(&out.4), "temporal_conv at {:?}", level);
            prop_assert_eq!(bits(&scalar.5), bits(&out.5), "reduce trailing block at {:?}", level);
            prop_assert_eq!(bits(&scalar.6), bits(&out.6), "reduce to [1] at {:?}", level);
            prop_assert_eq!(bits(&scalar.7), bits(&out.7), "temporal_conv_grad_x at {:?}", level);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused LayerNorm against the composed chain it replaced
    /// (`reference::layer_norm`, `reference::layer_norm_grad`) at
    /// `f32::to_bits`, for y, ∂x, ∂γ and ∂β under a random needs mask and
    /// the arch pass's (∂x alone), at 1–3 threads and every host SIMD
    /// level. Widths on and off the 8 lanes (1, 3, 8, 16, 17), row counts
    /// off the 8-row blocks and past the parallel threshold, rank 1, a
    /// constant (zero-variance) row and signed zeros.
    fn layer_norm_matches_the_composed_chain(
        di in 0usize..5,
        lead in 0usize..3,
        rows in 1usize..300,
        mask in 1usize..8,
        threads in 1usize..4,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let d = [1, 3, 8, 16, 17][di];
        let shape = if lead == 0 { vec![d] } else { vec![lead, rows, d] };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x = rand_tensor(&mut rng, shape.clone());
        let mut g = rand_tensor(&mut rng, shape);
        let (gamma, beta) = (rand_tensor(&mut rng, vec![d]), rand_tensor(&mut rng, vec![d]));
        let n = x.len();
        let xd = x.data_mut();
        xd[..d].fill(0.625);
        xd[n - 1] = -0.0;
        xd[n / 2] = 0.0;
        g.data_mut()[n / 3] = -0.0;
        let y_want = reference::layer_norm(&x, &gamma, &beta, 1e-5);
        let masks = [[mask & 1 == 1, mask & 2 == 2, mask & 4 == 4], [true, false, false]];
        for level in host_levels() {
            let y = with_threads(threads, || with_simd(level, || ops::layer_norm(&x, &gamma, &beta, 1e-5)));
            prop_assert_eq!(bits(&y), bits(&y_want), "y at {:?}", level);
            for needs in masks {
                let want = reference::layer_norm_grad(&g, &x, &gamma, 1e-5, needs);
                let got = with_threads(threads, || {
                    with_simd(level, || ops::layer_norm_grad(&g, &x, &gamma, 1e-5, needs))
                });
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(a.is_some(), needs[i]);
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a.shape(), b.shape());
                        prop_assert_eq!(bits(a), bits(b), "grad {} under {:?} at {:?}", i, needs, level);
                    }
                }
            }
        }
    }
}

/// `t` with signed zeros planted every few elements, and one NaN when
/// `nan`.
fn with_specials(mut t: Tensor, salt: usize, nan: bool) -> Tensor {
    let n = t.len();
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match (i + salt) % 13 {
            4 => *v = -0.0,
            9 => *v = 0.0,
            _ => {}
        }
    }
    if nan {
        t.data_mut()[(salt * 7) % n] = f32::NAN;
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused mixture against the composed chain it replaced
    /// (`reference::mixed_edge`, `reference::mixed_edge_grad`) at
    /// `f32::to_bits`: the output, and every gradient under the full
    /// needs mask, the weights pass's (∂y and ∂h) and the architecture
    /// pass's (∂row alone), at 1–3 threads and every host SIMD level.
    /// Partial channels of 1/4, 1/2 and 1 (no bypass input), 1–5 terms
    /// weighted by the ascending columns of a softmax row of up to 7 that
    /// one random mask picks (the zero operator's column skipped, or
    /// every column used), row counts past the parallel threshold, and
    /// signed zeros in the operator outputs and the gradient, with NaNs
    /// in half the cases (a NaN there makes every weight's gradient NaN).
    fn mixed_edge_matches_the_composed_chain(
        pc in 0usize..3,
        nan in 0usize..2,
        k in 1usize..6,
        rows in 1usize..400,
        threads in 1usize..4,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let d = 16;
        let d_op = [4, 8, 16][pc];
        let mut rng = SmallRng::seed_from_u64(seed);
        let ys: Vec<Tensor> = (0..k)
            .map(|o| with_specials(rand_tensor(&mut rng, vec![rows, d_op]), o, nan == 1))
            .collect();
        // `k` ascending columns of a row of `k + extra` entries.
        let extra = rng.gen_range(0..3);
        let mut cols: Vec<usize> = (0..k + extra).collect();
        while cols.len() > k {
            cols.remove(rng.gen_range(0..cols.len()));
        }
        let row = rand_tensor(&mut rng, vec![1, k + extra]);
        let h = rand_tensor(&mut rng, vec![rows, d]);
        let g = with_specials(rand_tensor(&mut rng, vec![rows, d]), k, nan == 1);
        let yr: Vec<&Tensor> = ys.iter().collect();
        let hr = (d_op < d).then_some(&h);
        let h_shape = hr.map(Tensor::shape);
        let y_want = reference::mixed_edge(&yr, &row, &cols, hr);
        let bypass = usize::from(hr.is_some());
        let masks: Vec<Vec<bool>> = vec![
            vec![true; k + 1 + bypass],
            [vec![true; k], vec![false], vec![true; bypass]].concat(),
            [vec![false; k], vec![true], vec![false; bypass]].concat(),
        ];
        for level in host_levels() {
            let y = with_threads(threads, || {
                with_simd(level, || ops::mixed_edge(&yr, &row, &cols, hr))
            });
            prop_assert_eq!(bits(&y), bits(&y_want), "y at {:?}", level);
            for needs in &masks {
                let want = reference::mixed_edge_grad(&g, &yr, &row, &cols, h_shape, needs);
                let got = with_threads(threads, || {
                    with_simd(level, || ops::mixed_edge_grad(&g, &yr, &row, &cols, h_shape, needs))
                });
                prop_assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(a.is_some(), needs[i]);
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a.shape(), b.shape());
                        prop_assert_eq!(bits(a), bits(b), "grad {} under {:?} at {:?}", i, needs, level);
                    }
                }
            }
        }
    }

    /// ProbSparse's fused row placement against the composed chain
    /// (`reference::place_rows`, `reference::place_rows_grad`) at
    /// `f32::to_bits`, for the output and both gradients, at L = 12 (u =
    /// 3) and L = 32 (u = 4), batches past the parallel threshold, 1–3
    /// threads and every host SIMD level, with signed zeros and NaNs in
    /// the mean and the gradient.
    fn place_rows_matches_the_composed_chain(
        li in 0usize..2,
        b in 1usize..300,
        threads in 1usize..4,
        seed in 0u64..1_000_000
    ) {
        let _g = LOCK.lock().unwrap();
        let (l, u, d) = ([12, 32][li], [3, 4][li], 8);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows: Vec<usize> = (0..l).collect();
        for i in 0..u {
            let j = rng.gen_range(i..l);
            rows.swap(i, j);
        }
        let mut sel = rows[..u].to_vec();
        sel.sort_unstable();
        let attn = rand_tensor(&mut rng, vec![b, u, d]);
        let mean = with_specials(rand_tensor(&mut rng, vec![b, 1, d]), 1, true);
        let g = with_specials(rand_tensor(&mut rng, vec![b, l, d]), 2, true);
        let y_want = reference::place_rows(&attn, &mean, &sel, l);
        let want = reference::place_rows_grad(&g, &sel, [true; 2]);
        for level in host_levels() {
            let y = with_threads(threads, || with_simd(level, || ops::place_rows(&attn, &mean, &sel, l)));
            prop_assert_eq!(bits(&y), bits(&y_want), "y at {:?}", level);
            let got = with_threads(threads, || {
                with_simd(level, || ops::place_rows_grad(&g, &sel, [true; 2]))
            });
            for (i, (a, w)) in got.iter().zip(&want).enumerate() {
                let (a, w) = (a.as_ref().unwrap(), w.as_ref().unwrap());
                prop_assert_eq!(bits(a), bits(w), "grad {} at {:?}", i, level);
            }
        }
    }
}

/// Deterministic end-to-end: a matmul → softmax → reduce pipeline large
/// enough to cross the parallel threshold must be bit-identical between a
/// single forced worker and several.
#[test]
fn pipeline_bit_exact_across_thread_counts() {
    let _g = LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(42);
    let a = rand_tensor(&mut rng, vec![8, 4, 32, 24]);
    let w = rand_tensor(&mut rng, vec![24, 48]);
    let run = || {
        let h = ops::matmul(&a, &w);
        let s = ops::softmax_last(&h);
        ops::sum_axis(&s, 2, false)
    };
    let one = with_threads(1, run);
    let two = with_threads(2, run);
    let eight = with_threads(8, run);
    assert_eq!(one.data(), two.data());
    assert_eq!(one.data(), eight.data());
}

/// `matmul_tn` with `m·n > KC·NC` (128 × 64) takes the packed-panel path,
/// and `m = 130` splits its reduction across two `KC` blocks. Shared and
/// batched `a`, against the oracle composition, at threads 1–3.
#[test]
fn matmul_tn_packed_panel_path_matches_reference() {
    let _g = LOCK.lock().unwrap();
    let (m, kd, n) = (130usize, 9usize, 70usize);
    assert!(m * n > 128 * 64);
    let mut rng = SmallRng::seed_from_u64(17);
    let a_shared = rand_tensor(&mut rng, vec![m, kd]);
    let a = rand_tensor(&mut rng, vec![2, m, kd]);
    let g = rand_tensor(&mut rng, vec![2, m, n]);
    let shared_oracle = reference::matmul(&reference::transpose_last2(&a_shared), &g);
    let batched_oracle = reference::matmul(&reference::transpose_last2(&a), &g);
    for threads in [1usize, 2, 3] {
        let shared = with_threads(threads, || ops::matmul_tn(&a_shared, &g));
        let batched = with_threads(threads, || ops::matmul_tn(&a, &g));
        assert_eq!(
            bits(&shared),
            bits(&shared_oracle),
            "shared-a at {threads} threads"
        );
        assert_eq!(
            bits(&batched),
            bits(&batched_oracle),
            "batched at {threads} threads"
        );
    }
}

/// Every pooled kernel must produce identical bits before a pool teardown
/// and after the pool is lazily re-initialised at a different width.
#[test]
fn pool_teardown_and_reinit_are_bit_identical() {
    let _g = LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    // Large enough that every kernel crosses PAR_THRESHOLD.
    let a = rand_tensor(&mut rng, vec![6, 48, 40]);
    let b = rand_tensor(&mut rng, vec![40, 56]);
    let bt = rand_tensor(&mut rng, vec![6, 64, 56]);
    let run = || {
        let h = ops::matmul(&a, &b); // [6, 48, 56]
        let nt = ops::matmul_nt(&h, &bt); // [6, 48, 64]
        let tn = ops::matmul_tn(&a, &h); // [6, 40, 56]
        let s = ops::softmax_last(&nt);
        let r = ops::reduce_to_shape(&s, &[48, 64]);
        (h, nt, tn, s, r)
    };
    let pooled = with_threads(4, run);
    reset_pool();
    let reinit = with_threads(2, run); // pool comes back lazily, narrower
    for (x, y) in [
        (&pooled.0, &reinit.0),
        (&pooled.1, &reinit.1),
        (&pooled.2, &reinit.2),
        (&pooled.3, &reinit.3),
        (&pooled.4, &reinit.4),
    ] {
        assert_eq!(x.data(), y.data(), "pool re-init changed results");
    }
}

/// Arena recycling must never hand a live tensor's storage to a new
/// allocation: only dropped buffers enter the free lists, and recycled
/// storage is fully re-initialised (poison-filled first in debug builds)
/// before reuse.
#[test]
fn arena_reuse_never_aliases_live_buffers() {
    let _g = LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(13);
    let a = rand_tensor(&mut rng, vec![512]);
    let before = a.data().to_vec();
    // Recycle a buffer the same size as `a`'s, then allocate and mutate new
    // tensors that will draw from the free list.
    drop(a.clone());
    let mut b = Tensor::zeros(vec![512]);
    assert!(
        b.data().iter().all(|&v| v == 0.0),
        "recycled buffer not zeroed"
    );
    for v in b.data_mut() {
        *v = -1234.5;
    }
    assert_eq!(
        a.data(),
        &before[..],
        "live buffer was aliased by arena reuse"
    );
    // No handout may ever expose the debug poison pattern.
    let c = Tensor::full(vec![512], 3.25);
    assert!(c
        .data()
        .iter()
        .chain(b.data())
        .all(|v| v.to_bits() != arena::POISON.to_bits()));
}

/// NaN must flow through the parallel matmul even when the other operand is
/// zero (regression for the old `a == 0.0 { continue }` skip).
#[test]
fn matmul_nan_propagates_under_threads() {
    let _g = LOCK.lock().unwrap();
    let mut a = Tensor::zeros(vec![4, 64, 32]);
    a.data_mut()[0] = 0.0; // explicit: row of zeros meets a NaN column
    let mut b = Tensor::ones(vec![32, 48]);
    b.data_mut()[5] = f32::NAN;
    let y = with_threads(4, || ops::matmul(&a, &b));
    // Column 5 of every output row touched the NaN weight.
    assert!(y.data()[5].is_nan());
}

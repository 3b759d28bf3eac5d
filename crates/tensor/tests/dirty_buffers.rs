//! Guard for the kernels whose outputs come from `arena::take_dirty`: each
//! must write every output element, because nothing zeroes the buffer
//! first.
//!
//! Debug builds poison every recycled buffer, but release builds keep
//! whatever a buffer last held. So this test poisons the arena itself:
//! before each kernel call it takes buffers of the output's size class,
//! fills their whole capacity with [`arena::POISON`] and recycles them, so
//! the kernel's output buffer starts as NaN in every build. Each result is
//! then compared bit for bit with the naive oracle in `ops::reference`
//! (or a plain map), at 1 and 3 worker threads and at every SIMD level the
//! host runs (the scalar level is the programmatic `CTS_SIMD=off`). An
//! element a kernel skips reads as POISON and fails the comparison.
//!
//! The test owns its process (its own test binary), so the process-wide
//! thread and SIMD overrides it sets cannot disturb other tests.

use cts_tensor::ops::{self, reference};
use cts_tensor::parallel::set_num_threads;
use cts_tensor::simd::{self, BinOp, Rows, SimdLevel};
use cts_tensor::{arena, Tensor};

/// Buffers per size class that each poisoning recycles: more than any
/// kernel below takes from one class before it takes its output.
const POISONED_PER_CLASS: usize = 4;

/// Fill the free list of `len`'s size class with POISON-filled buffers and
/// check that the next `take_dirty(len)` really sees the poison.
fn poison(len: usize) {
    if len == 0 {
        return;
    }
    let cap = len.next_power_of_two();
    let bufs: Vec<Vec<f32>> = (0..POISONED_PER_CLASS)
        .map(|_| {
            let mut b = arena::take_dirty(cap);
            b.fill(arena::POISON);
            b
        })
        .collect();
    for b in bufs {
        arena::recycle(b);
    }
    let probe = arena::take_dirty(len);
    assert!(
        probe.iter().all(|v| v.to_bits() == arena::POISON.to_bits()),
        "the arena did not hand the poisoned buffer back"
    );
    arena::recycle(probe);
}

fn pattern(shape: &[usize], salt: u32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 2000) as f32 * 0.002 - 2.0)
        .collect::<Vec<f32>>();
    Tensor::from_vec(shape.to_vec(), data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Run `kernel` on a poisoned arena under every (SIMD level, thread count)
/// and require the bits of `want` each time.
fn check(name: &str, want: &Tensor, kernel: impl Fn() -> Tensor) {
    let levels = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= simd::detected());
    for level in levels {
        for threads in [1, 3] {
            simd::set_level(Some(level));
            set_num_threads(threads);
            poison(want.len());
            let got = kernel();
            set_num_threads(0);
            simd::set_level(None);
            assert_eq!(got.shape(), want.shape(), "{name}");
            assert!(
                bits(&got) == bits(want),
                "{name} at {level:?}, {threads} threads: an element differs from the oracle (POISON = skipped)"
            );
        }
    }
}

#[test]
fn dirty_kernels_write_every_element() {
    arena::set_enabled(Some(true));

    // Broadcasting zips: every slice/splat pairing of `zip_rows`, ragged
    // runs (lengths off the 8-lane width), blocks of several rows, and
    // sizes past the parallel threshold whose worker ranges start and end
    // inside runs.
    let zips: [(&[usize], &[usize]); 10] = [
        (&[3, 5, 7], &[3, 5, 7]),            // same shape: one run
        (&[2, 3, 5], &[3, 5]),               // slice / slice, repeated row
        (&[4, 6, 9], &[4, 6, 1]),            // slice / splat per row
        (&[4, 6, 1], &[4, 6, 9]),            // splat / slice per row
        (&[1], &[1, 1]),                     // splat / splat
        (&[5, 1, 3], &[4, 1]),               // both broadcast on different axes
        (&[8, 32, 12, 16], &[8, 32, 12, 1]), // LayerNorm statistic
        (&[8, 32, 12, 16], &[16]),           // bias row
        (&[7, 33, 13, 11], &[11]),           // ragged rows split across workers
        (&[7, 33, 13, 11], &[1]),            // one splat run split across workers
    ];
    for (sa, sb) in zips {
        let (a, b) = (pattern(sa, 1), pattern(sb, 2));
        let name = format!("{sa:?} op {sb:?}");
        check(&format!("add {name}"), &reference::add(&a, &b), || {
            ops::add(&a, &b)
        });
        check(&format!("mul {name}"), &reference::mul(&a, &b), || {
            ops::mul(&a, &b)
        });
        check(
            &format!("sub {name}"),
            &reference::zip_broadcast(&a, &b, |x, y| x - y),
            || ops::sub(&a, &b),
        );
        check(
            &format!("div {name}"),
            &reference::zip_broadcast(&b, &a, |x, y| x / y),
            || ops::div(&b, &a),
        );
    }

    // Unary maps and exact zips.
    let x = pattern(&[7, 33, 13, 11], 3);
    let g = pattern(&[7, 33, 13, 11], 4);
    check("relu", &x.map(|v| if v > 0.0 { v } else { 0.0 }), || {
        ops::relu(&x)
    });
    check("scale", &x.map(|v| v * 0.37), || ops::scale(&x, 0.37));
    check("exp", &x.map(f32::exp), || ops::exp(&x));
    let relu_grad = Tensor::from_vec(
        x.shape(),
        g.data()
            .iter()
            .zip(x.data())
            .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
            .collect(),
    );
    check("relu_grad", &relu_grad, || ops::relu_grad(&g, &x));

    // Permutations: last-two swaps (tiled, inside and past one 32×32
    // tile), run copies, a moved last axis and the identity.
    let perms: [(&[usize], &[usize]); 6] = [
        (&[256, 12, 16], &[0, 2, 1]),
        (&[37, 41], &[1, 0]),
        (&[3, 70, 45], &[0, 2, 1]),
        (&[3, 4, 5, 6], &[0, 2, 1, 3]),
        (&[2, 3, 4], &[2, 0, 1]),
        (&[2, 3, 4], &[0, 1, 2]),
    ];
    for (shape, perm) in perms {
        let a = pattern(shape, 5);
        check(
            &format!("permute {shape:?} {perm:?}"),
            &reference::permute(&a, perm),
            || ops::permute(&a, perm),
        );
    }

    // Copies.
    let (p0, p1, p2) = (
        pattern(&[2, 1, 5], 6),
        pattern(&[2, 3, 5], 7),
        pattern(&[2, 2, 5], 8),
    );
    for axis in [0usize, 1, 2] {
        let parts: Vec<Tensor> = (0..3u32)
            .map(|i| {
                let mut s = vec![2, 3, 5];
                s[axis] = i as usize + 1;
                pattern(&s, 9 + i)
            })
            .collect();
        let views: Vec<&Tensor> = parts.iter().collect();
        check(
            &format!("concat axis {axis}"),
            &reference::concat(&views, axis),
            || ops::concat(&views, axis),
        );
    }
    check(
        "concat mixed",
        &reference::concat(&[&p0, &p1, &p2], 1),
        || ops::concat(&[&p0, &p1, &p2], 1),
    );
    let a = pattern(&[4, 9, 6], 12);
    check("slice", &reference::slice(&a, 1, 2, 7), || {
        ops::slice(&a, 1, 2, 7)
    });
    check("slice last axis", &reference::slice(&a, 2, 1, 4), || {
        ops::slice(&a, 2, 1, 4)
    });
    check(
        "index_select",
        &reference::index_select(&a, 1, &[8, 0, 3, 3]),
        || ops::index_select(&a, 1, &[8, 0, 3, 3]),
    );
    check("stack one", &reference::stack(&[&p2]), || {
        ops::stack(&[&p2])
    });
    let q = pattern(&[2, 3, 5], 13);
    check("stack three", &reference::stack(&[&p1, &q, &p1]), || {
        ops::stack(&[&p1, &q, &p1])
    });

    // Row kernels: softmax, its gradient and logsumexp over the last
    // axis; the axis-sum gradient and a materialized broadcast.
    let (sx, sg) = (pattern(&[64, 12, 45], 18), pattern(&[64, 12, 45], 19));
    check("softmax_last", &reference::softmax_last(&sx), || {
        ops::softmax_last(&sx)
    });
    let y = reference::softmax_last(&sx);
    let mut dy = Vec::with_capacity(y.len());
    for (yr, gr) in y.data().chunks(45).zip(sg.data().chunks(45)) {
        let dot: f32 = (0..45).map(|i| gr[i] * yr[i]).sum();
        dy.extend(yr.iter().zip(gr).map(|(&y, &g)| y * (g - dot)));
    }
    check(
        "softmax_last_grad",
        &Tensor::from_vec(y.shape(), dy),
        || ops::softmax_last_grad(&sg, &y),
    );
    let lse: Vec<f32> = sx
        .data()
        .chunks(45)
        .map(|s| {
            let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            m + s.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
        })
        .collect();
    check("logsumexp_last", &Tensor::from_vec([64, 12], lse), || {
        ops::logsumexp_last(&sx)
    });
    let rows = pattern(&[8, 32, 12], 20);
    for axis in [1usize, 3] {
        let mut full = vec![8, 32, 12];
        full.insert(axis, 16);
        check(
            &format!("sum_axis_grad axis {axis}"),
            &reference::sum_axis_grad(&rows, &full, axis),
            || ops::sum_axis_grad(&rows, &full, axis),
        );
    }
    let stat = pattern(&[8, 1, 12, 1], 21);
    let target = [8, 32, 12, 16];
    check(
        "broadcast_to",
        &reference::zip_broadcast(&stat, &Tensor::zeros(target), |x, _| x),
        || ops::broadcast_to(&stat, &target),
    );

    // Transpose of the last two axes, past the parallel threshold.
    let t = pattern(&[24, 37, 41], 14);
    check("transpose_last2", &reference::transpose_last2(&t), || {
        ops::transpose_last2(&t)
    });

    // The GEMM family: one k-block, the packed panel (k·n > 128·64, k past
    // one 128-deep block), a shared weight, and an empty reduction.
    let gemms: [(&[usize], &[usize]); 4] = [
        (&[3, 17, 24], &[24, 19]),
        (&[2, 3, 37, 150], &[150, 70]),
        (&[8, 16, 48, 64], &[64, 64]),
        (&[5, 0], &[0, 7]),
    ];
    for (sa, sb) in gemms {
        let (a, b) = (pattern(sa, 15), pattern(sb, 16));
        let name = format!("{sa:?}x{sb:?}");
        check(
            &format!("matmul {name}"),
            &reference::matmul(&a, &b),
            || ops::matmul(&a, &b),
        );
        let bt = reference::transpose_last2(&b);
        check(
            &format!("matmul_nt {name}"),
            &reference::matmul(&a, &b),
            || ops::matmul_nt(&a, &bt),
        );
        let at = reference::transpose_last2(&a);
        check(
            &format!("matmul_tn {name}"),
            &reference::matmul(&a, &b),
            || ops::matmul_tn(&at, &b),
        );
    }
}

/// `simd::zip_rows` on its own: every slice/splat pairing, runs of every
/// length around the 8-lane width, several rows with strides that repeat
/// or advance, into a POISON-filled output.
#[test]
fn zip_rows_writes_every_row_at_every_level() {
    let data: Vec<f32> = pattern(&[400], 17).data().to_vec();
    let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= simd::detected())
        .collect();
    for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
        for (x_splat, y_splat) in [(false, false), (false, true), (true, false), (true, true)] {
            for run in 1..=19 {
                for rows in 1..=3 {
                    for (xs, ys) in [(run, 0), (0, run + 1), (3, 7)] {
                        let x = Rows {
                            data: &data,
                            base: 5,
                            stride: xs,
                            splat: x_splat,
                        };
                        let y = Rows {
                            data: &data,
                            base: 40,
                            stride: ys,
                            splat: y_splat,
                        };
                        let at = |r: Rows, i: usize, j: usize| {
                            r.data[r.base + i * r.stride + if r.splat { 0 } else { j }]
                        };
                        let want: Vec<u32> = (0..rows * run)
                            .map(|e| {
                                op.apply(at(x, e / run, e % run), at(y, e / run, e % run))
                                    .to_bits()
                            })
                            .collect();
                        for &level in &levels {
                            simd::set_level(Some(level));
                            let mut out = vec![arena::POISON; rows * run];
                            simd::zip_rows(op, x, y, run, &mut out);
                            simd::set_level(None);
                            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "{op:?} splat=({x_splat},{y_splat}) run={run} rows={rows} at {level:?}");
                        }
                    }
                }
            }
        }
    }
}

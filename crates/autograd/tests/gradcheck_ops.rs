//! Finite-difference validation of every differentiable primitive.

use cts_autograd::gradcheck::assert_gradients;
use cts_autograd::{Parameter, Tape, Var};
use cts_tensor::{init, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn param(name: &str, shape: &[usize], seed: u64) -> Parameter {
    let mut rng = SmallRng::seed_from_u64(seed);
    Parameter::new(name, init::uniform(&mut rng, shape.to_vec(), -0.9, 0.9))
}

/// Check one unary op through a sum-all loss.
fn check_unary(build: impl Fn(Var) -> Var, seed: u64) {
    let p = param("x", &[2, 3], seed);
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        build(tape.param(&p)).sum_all()
    });
}

#[test]
fn grad_relu() {
    // shift away from the kink at 0
    let p = param("x", &[2, 3], 1);
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        tape.param(&p).add_scalar(0.05).relu().sum_all()
    });
}

#[test]
fn grad_sigmoid() {
    check_unary(|x| x.sigmoid(), 2);
}

#[test]
fn grad_tanh() {
    check_unary(|x| x.tanh(), 3);
}

#[test]
fn grad_exp() {
    check_unary(|x| x.exp(), 4);
}

#[test]
fn grad_ln_of_positive() {
    let p = param("x", &[2, 2], 5);
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        tape.param(&p)
            .mul(&tape.param(&p))
            .add_scalar(1.0)
            .ln()
            .sum_all()
    });
}

#[test]
fn grad_sqrt_of_positive() {
    let p = param("x", &[2, 2], 6);
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        tape.param(&p).square().add_scalar(0.5).sqrt().sum_all()
    });
}

#[test]
fn grad_abs_away_from_zero() {
    let p = Parameter::new("x", Tensor::from_vec([4], vec![0.5, -0.7, 1.2, -2.0]));
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        tape.param(&p).abs().sum_all()
    });
}

#[test]
fn grad_square() {
    check_unary(|x| x.square(), 7);
}

#[test]
fn grad_gelu() {
    check_unary(|x| x.gelu(), 8);
}

#[test]
fn grad_neg_scale_addscalar() {
    check_unary(|x| x.neg().scale(3.0).add_scalar(1.5), 9);
}

#[test]
fn grad_softmax_last() {
    let p = param("x", &[2, 4], 10);
    let w = Tensor::from_vec([2, 4], (1..=8).map(|i| i as f32).collect::<Vec<_>>());
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        let probs = tape.param(&p).softmax_last();
        probs.mul(&tape.constant(w.clone())).sum_all()
    });
}

#[test]
fn grad_softmax_with_temperature() {
    let p = param("x", &[1, 5], 11);
    let w = Tensor::from_vec([1, 5], vec![2.0, -1.0, 0.5, 3.0, 1.0]);
    assert_gradients(std::slice::from_ref(&p), 1e-3, TOL, |tape| {
        let probs = tape.param(&p).softmax_last_with_temperature(0.7);
        probs.mul(&tape.constant(w.clone())).sum_all()
    });
}

#[test]
fn grad_binary_ops_broadcast() {
    let a = param("a", &[2, 3], 12);
    let b = param("b", &[3], 13);
    assert_gradients(&[a.clone(), b.clone()], EPS, TOL, |tape| {
        let x = tape.param(&a);
        let y = tape.param(&b);
        (&x + &y).mul(&x.sub(&y)).sum_all()
    });
}

#[test]
fn grad_div_broadcast() {
    let a = param("a", &[2, 2], 14);
    let b = Parameter::new("b", Tensor::from_vec([2, 1], vec![1.5, 2.5]));
    assert_gradients(&[a.clone(), b.clone()], 1e-3, TOL, |tape| {
        tape.param(&a).div(&tape.param(&b)).sum_all()
    });
}

#[test]
fn grad_matmul_plain_and_batched() {
    let a = param("a", &[2, 3], 15);
    let b = param("b", &[3, 4], 16);
    assert_gradients(&[a.clone(), b.clone()], EPS, TOL, |tape| {
        tape.param(&a).matmul(&tape.param(&b)).sum_all()
    });

    let x = param("x", &[2, 2, 3], 17); // batch of 2
    let w = param("w", &[3, 2], 18); // shared weight broadcast over batch
    assert_gradients(&[x.clone(), w.clone()], EPS, TOL, |tape| {
        tape.param(&x).matmul(&tape.param(&w)).square().sum_all()
    });
}

#[test]
fn grad_permute_reshape() {
    let p = param("x", &[2, 3, 4], 19);
    let w = {
        let mut rng = SmallRng::seed_from_u64(20);
        init::uniform(&mut rng, [4, 3, 2], -1.0, 1.0)
    };
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        let x = tape.param(&p).permute(&[2, 1, 0]);
        x.mul(&tape.constant(w.clone())).sum_all()
    });
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        tape.param(&p).reshape(&[4, 6]).square().sum_all()
    });
}

#[test]
fn grad_concat_slice() {
    let a = param("a", &[2, 2], 21);
    let b = param("b", &[2, 3], 22);
    assert_gradients(&[a.clone(), b.clone()], EPS, TOL, |tape| {
        let c = Var::concat(&[tape.param(&a), tape.param(&b)], 1);
        c.slice(1, 1, 4).square().sum_all()
    });
}

#[test]
fn grad_index_select_with_repeats() {
    let p = param("x", &[4, 2], 23);
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        tape.param(&p)
            .index_select(0, &[0, 2, 2, 3])
            .square()
            .sum_all()
    });
}

#[test]
fn grad_pad_axis() {
    let p = param("x", &[1, 3], 24);
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        tape.param(&p).pad_axis(1, 2, 1).square().sum_all()
    });
}

#[test]
fn grad_reductions() {
    let p = param("x", &[2, 3, 2], 25);
    for (axis, keepdim) in [(0, false), (1, true), (2, false)] {
        assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
            tape.param(&p).sum_axis(axis, keepdim).square().sum_all()
        });
        assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
            tape.param(&p).mean_axis(axis, keepdim).square().sum_all()
        });
    }
    assert_gradients(std::slice::from_ref(&p), EPS, TOL, |tape| {
        tape.param(&p).mean_all().square().sum_all()
    });
}

#[test]
fn grad_temporal_conv() {
    let x = param("x", &[1, 2, 6, 3], 26);
    let w = param("w", &[2, 3, 2], 27);
    for dilation in [1, 2] {
        assert_gradients(&[x.clone(), w.clone()], EPS, TOL, |tape| {
            tape.param(&x)
                .temporal_conv(&tape.param(&w), dilation)
                .square()
                .sum_all()
        });
    }
}

#[test]
fn grad_composite_attention_like() {
    // A miniature scaled-dot-product attention: checks matmul + softmax +
    // permute composition end to end.
    let q = param("q", &[2, 3, 4], 30);
    let k = param("k", &[2, 3, 4], 31);
    let v = param("v", &[2, 3, 4], 32);
    assert_gradients(&[q.clone(), k.clone(), v.clone()], EPS, 5e-2, |tape| {
        let qv = tape.param(&q);
        let kv = tape.param(&k);
        let vv = tape.param(&v);
        let scores = qv.matmul(&kv.permute(&[0, 2, 1])).scale(0.5);
        scores.softmax_last().matmul(&vv).square().sum_all()
    });
}

#[test]
fn grad_composite_gated_tcn() {
    // GDCC-like gate: tanh(conv) * sigmoid(conv).
    let x = param("x", &[1, 2, 5, 2], 33);
    let w1 = param("w1", &[2, 2, 3], 34);
    let w2 = param("w2", &[2, 2, 3], 35);
    assert_gradients(&[x.clone(), w1.clone(), w2.clone()], EPS, 5e-2, |tape| {
        let xv = tape.param(&x);
        let filt = xv.temporal_conv(&tape.param(&w1), 1).tanh();
        let gate = xv.temporal_conv(&tape.param(&w2), 1).sigmoid();
        filt.mul(&gate).sum_all()
    });
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random elementwise expressions must pass gradcheck.
        #[test]
        fn random_elementwise_chain(seed in 0u64..5000) {
            let p = param("x", &[2, 2], seed);
            assert_gradients(std::slice::from_ref(&p), EPS, 5e-2, |tape| {
                let x = tape.param(&p);
                let y = x.tanh().mul(&x.sigmoid()).add(&x.scale(0.3));
                y.square().sum_all()
            });
        }

        /// softmax output always sums to 1 per row, regardless of scale.
        #[test]
        fn softmax_simplex(vals in proptest::collection::vec(-50f32..50.0, 6)) {
            let tape = Tape::new();
            let x = tape.constant(Tensor::from_vec([2, 3], vals));
            let y = x.softmax_last().value();
            for row in 0..2 {
                let s: f32 = y.data()[row * 3..(row + 1) * 3].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-5);
            }
        }

        /// sum_all after concat equals sum of parts (linearity).
        #[test]
        fn concat_preserves_sum(a in proptest::collection::vec(-10f32..10.0, 4),
                                b in proptest::collection::vec(-10f32..10.0, 6)) {
            let tape = Tape::new();
            let av = tape.constant(Tensor::from_vec([2, 2], a.clone()));
            let bv = tape.constant(Tensor::from_vec([2, 3], b.clone()));
            let c = Var::concat(&[av, bv], 1).sum_all().value().item();
            let expect: f32 = a.iter().sum::<f32>() + b.iter().sum::<f32>();
            prop_assert!((c - expect).abs() < 1e-3);
        }
    }
}

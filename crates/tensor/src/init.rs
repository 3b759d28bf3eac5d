//! Random tensor initializers.
//!
//! Every initializer takes an explicit RNG so experiments stay reproducible;
//! the workspace never touches a global RNG.

use crate::Tensor;
use rand::Rng;

/// Uniform in `[lo, hi)`.
pub fn uniform(rng: &mut impl Rng, shape: impl Into<Vec<usize>>, lo: f32, hi: f32) -> Tensor {
    let shape = shape.into();
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data)
}

/// Standard normal scaled by `std` (Box–Muller).
pub fn normal(rng: &mut impl Rng, shape: impl Into<Vec<usize>>, std: f32) -> Tensor {
    let shape = shape.into();
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(1e-7f32..1.0);
        let u2: f32 = rng.gen_range(0.0f32..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(shape, data)
}

/// Glorot/Xavier uniform for a weight with `fan_in`/`fan_out`.
pub fn xavier_uniform(
    rng: &mut impl Rng,
    shape: impl Into<Vec<usize>>,
    fan_in: usize,
    fan_out: usize,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, shape, -bound, bound)
}

/// Kaiming/He uniform for ReLU networks.
pub fn kaiming_uniform(rng: &mut impl Rng, shape: impl Into<Vec<usize>>, fan_in: usize) -> Tensor {
    let bound = (3.0f32 / fan_in as f32).sqrt();
    uniform(rng, shape, -bound, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = uniform(&mut rng, [1000], -0.5, 0.5);
        assert!(t.max() < 0.5 && t.min() >= -0.5);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(2);
        let t = normal(&mut rng, [20000], 2.0);
        assert!(t.mean().abs() < 0.1, "mean {}", t.mean());
        let var: f32 = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!((var - 4.0).abs() < 0.3, "var {}", var);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        assert_eq!(
            uniform(&mut a, [16], -1.0, 1.0).data(),
            uniform(&mut b, [16], -1.0, 1.0).data()
        );
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = xavier_uniform(&mut rng, [1000], 300, 300);
        assert!(t.max() <= 0.1 + 1e-6);
    }
}

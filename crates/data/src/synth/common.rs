//! Shared building blocks for the synthetic generators.

use cts_graph::SensorGraph;
use cts_tensor::{ops, Tensor};
use rand::Rng;

/// AR(1) noise field `[N, T]` with persistence `phi` and innovation `sigma`.
pub fn ar1_field(rng: &mut impl Rng, n: usize, t: usize, phi: f32, sigma: f32) -> Tensor {
    let mut out = Tensor::zeros([n, t]);
    for i in 0..n {
        let mut prev = 0.0f32;
        for s in 0..t {
            let innov: f32 = rng.gen_range(-1.0..1.0) * sigma;
            let v = phi * prev + innov;
            out.data_mut()[i * t + s] = v;
            prev = v;
        }
    }
    out
}

/// Diffuse a `[N, T]` field over the graph: `x ← (1−mix)·x + mix·P·x`,
/// repeated `rounds` times, where `P` is the row-normalised adjacency with
/// self-loops. This plants the spatial correlations DGCN-style operators
/// can exploit.
pub fn spatial_smooth(x: &Tensor, graph: &SensorGraph, rounds: usize, mix: f32) -> Tensor {
    if rounds == 0 || graph.edge_count() == 0 {
        return x.clone();
    }
    let p = SensorGraph::new(graph.with_self_loops(), vec![]).row_normalized();
    let mut cur = x.clone();
    for _ in 0..rounds {
        let mixed = ops::matmul(&p, &cur);
        cur = ops::add(&ops::scale(&cur, 1.0 - mix), &ops::scale(&mixed, mix));
    }
    cur
}

/// Time-of-day fraction in `[0, 1)`.
pub fn time_of_day(step: usize, steps_per_day: usize) -> f32 {
    (step % steps_per_day) as f32 / steps_per_day as f32
}

/// Day-of-week index 0..7 (synthetic weeks are 7 "days").
pub fn day_of_week(step: usize, steps_per_day: usize) -> usize {
    (step / steps_per_day) % 7
}

/// Gaussian bump centred at `center` (both in day-fraction units), wrapping
/// around midnight.
pub fn day_bump(tod: f32, center: f32, width: f32) -> f32 {
    let mut d = (tod - center).abs();
    if d > 0.5 {
        d = 1.0 - d;
    }
    (-d * d / (2.0 * width * width)).exp()
}

/// Assemble `[N, T, 2]` values from a target field and the day clock.
pub fn with_time_feature(target: &Tensor, steps_per_day: usize) -> Tensor {
    let (n, t) = (target.shape()[0], target.shape()[1]);
    let mut out = Tensor::zeros([n, t, 2]);
    for i in 0..n {
        for s in 0..t {
            out.data_mut()[(i * t + s) * 2] = target.data()[i * t + s];
            out.data_mut()[(i * t + s) * 2 + 1] = time_of_day(s, steps_per_day);
        }
    }
    out
}

/// Knock out a fraction of readings (set to 0) in short bursts, mimicking
/// sensor outages; returns the number of zeroed entries.
pub fn inject_missing(rng: &mut impl Rng, target: &mut Tensor, rate: f32, burst: usize) -> usize {
    let (n, t) = (target.shape()[0], target.shape()[1]);
    let mut zeroed = 0;
    for i in 0..n {
        let mut s = 0;
        while s < t {
            if rng.gen_range(0.0..1.0) < rate {
                for b in 0..burst.min(t - s) {
                    target.data_mut()[i * t + s + b] = 0.0;
                    zeroed += 1;
                }
                s += burst;
            } else {
                s += 1;
            }
        }
    }
    zeroed
}

/// Per-node scalar field smoothed over the graph (e.g. congestion
/// amplitudes shared by nearby sensors).
pub fn smoothed_node_field(
    rng: &mut impl Rng,
    graph: &SensorGraph,
    lo: f32,
    hi: f32,
    rounds: usize,
) -> Vec<f32> {
    let n = graph.n();
    let raw = Tensor::from_vec(
        vec![n, 1],
        (0..n).map(|_| rng.gen_range(lo..hi)).collect::<Vec<f32>>(),
    );
    let sm = spatial_smooth(&raw, graph, rounds, 0.5);
    sm.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn ar1_is_persistent() {
        let mut rng = SmallRng::seed_from_u64(0);
        let x = ar1_field(&mut rng, 1, 5000, 0.95, 1.0);
        // lag-1 autocorrelation should be close to phi
        let d = x.data();
        let mean = x.mean();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 1..d.len() {
            num += (d[i] - mean) * (d[i - 1] - mean);
        }
        for v in d {
            den += (v - mean) * (v - mean);
        }
        let rho = num / den;
        assert!(rho > 0.85, "autocorr {rho}");
    }

    #[test]
    fn smoothing_reduces_variance_across_nodes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 20,
                ..Default::default()
            },
        );
        let x = ar1_field(&mut rng, 20, 50, 0.0, 1.0);
        let sm = spatial_smooth(&x, &g, 3, 0.5);
        let col_var = |t: &Tensor| {
            let mut total = 0.0;
            for s in 0..50 {
                let col: Vec<f32> = (0..20).map(|i| t.at(&[i, s])).collect();
                let m: f32 = col.iter().sum::<f32>() / 20.0;
                total += col.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / 20.0;
            }
            total / 50.0
        };
        assert!(col_var(&sm) < col_var(&x));
    }

    #[test]
    fn day_bump_peaks_at_center_and_wraps() {
        assert!((day_bump(0.3, 0.3, 0.05) - 1.0).abs() < 1e-6);
        assert!(day_bump(0.35, 0.3, 0.05) < 1.0);
        // wrap: 0.02 and 0.98 are 0.04 apart
        assert!(day_bump(0.98, 0.02, 0.05) > 0.5);
    }

    #[test]
    fn clock_features() {
        assert_eq!(time_of_day(0, 24), 0.0);
        assert_eq!(time_of_day(12, 24), 0.5);
        assert_eq!(time_of_day(24, 24), 0.0);
        assert_eq!(day_of_week(0, 24), 0);
        assert_eq!(day_of_week(24 * 6, 24), 6);
        assert_eq!(day_of_week(24 * 7, 24), 0);
    }

    #[test]
    fn missing_injection_zeroes_entries() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut x = Tensor::ones([4, 500]);
        let zeroed = inject_missing(&mut rng, &mut x, 0.01, 3);
        assert!(zeroed > 0);
        let zeros = x.data().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, zeroed);
    }
}

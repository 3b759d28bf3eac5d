//! Synthetic correlated-time-series generators (dataset substitutes).

mod adversarial;
mod common;
mod energy;
mod traffic;

pub use adversarial::{apply_regime, Regime};

use crate::{DatasetSpec, SynthKind};
use cts_graph::SensorGraph;
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};

/// A generated dataset: raw values plus the sensor graph.
#[derive(Clone, Debug)]
pub struct CtsData {
    /// The spec this data was generated from.
    pub spec: DatasetSpec,
    /// Values `[N, T, F]`; feature 0 is the forecast target, feature 1 the
    /// time-of-day encoding.
    pub values: Tensor,
    /// Sensor graph (disconnected for datasets without a predefined
    /// adjacency, mirroring Table 4).
    pub graph: SensorGraph,
}

impl CtsData {
    /// The target series `[N, T]` (feature 0).
    pub fn target(&self) -> Tensor {
        let (n, t, f) = (
            self.values.shape()[0],
            self.values.shape()[1],
            self.values.shape()[2],
        );
        let mut out = Tensor::zeros([n, t]);
        for i in 0..n {
            for ti in 0..t {
                out.data_mut()[i * t + ti] = self.values.data()[(i * t + ti) * f];
            }
        }
        out
    }
}

/// Generate a dataset from its spec, deterministically per seed.
pub fn generate(spec: &DatasetSpec, seed: u64) -> CtsData {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    match spec.kind {
        SynthKind::TrafficSpeed => traffic::generate_speed(spec, &mut rng),
        SynthKind::TrafficFlow => traffic::generate_flow(spec, &mut rng),
        SynthKind::Solar => energy::generate_solar(spec, &mut rng),
        SynthKind::Electricity => energy::generate_electricity(spec, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: SynthKind) -> DatasetSpec {
        let base = match kind {
            SynthKind::TrafficSpeed => DatasetSpec::metr_la(),
            SynthKind::TrafficFlow => DatasetSpec::pems08(),
            SynthKind::Solar => DatasetSpec::solar_energy(3),
            SynthKind::Electricity => DatasetSpec::electricity(3),
        };
        base.scaled(0.06, 0.02)
    }

    #[test]
    fn shapes_match_spec_for_all_kinds() {
        for kind in [
            SynthKind::TrafficSpeed,
            SynthKind::TrafficFlow,
            SynthKind::Solar,
            SynthKind::Electricity,
        ] {
            let spec = tiny(kind);
            let data = generate(&spec, 1);
            assert_eq!(data.values.shape(), &[spec.n, spec.t, spec.features]);
            assert_eq!(data.graph.n(), spec.n);
            assert!(!data.values.has_non_finite(), "{kind:?} produced NaN/inf");
        }
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let spec = tiny(SynthKind::TrafficSpeed);
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        let c = generate(&spec, 8);
        assert!(a.values.approx_eq(&b.values, 0.0));
        assert!(!a.values.approx_eq(&c.values, 1e-3));
    }

    #[test]
    fn traffic_has_graph_energy_does_not() {
        let t = generate(&tiny(SynthKind::TrafficSpeed), 0);
        assert!(t.graph.edge_count() > 0);
        let s = generate(&tiny(SynthKind::Solar), 0);
        assert_eq!(s.graph.edge_count(), 0);
    }

    #[test]
    fn time_of_day_feature_wraps_daily() {
        let spec = tiny(SynthKind::TrafficFlow);
        let data = generate(&spec, 3);
        let spd = spec.steps_per_day;
        // feature 1 at t and t+steps_per_day must match
        let f0 = data.values.at(&[0, 0, 1]);
        let f1 = data.values.at(&[0, spd, 1]);
        assert!((f0 - f1).abs() < 1e-6);
    }

    #[test]
    fn target_extraction_matches_feature0() {
        let spec = tiny(SynthKind::Electricity);
        let data = generate(&spec, 4);
        let target = data.target();
        assert_eq!(target.at(&[2, 5]), data.values.at(&[2, 5, 0]));
    }

    #[test]
    fn solar_is_zero_at_night_positive_at_noon() {
        let spec = tiny(SynthKind::Solar);
        let data = generate(&spec, 5);
        let spd = spec.steps_per_day;
        let mut night_zeros = 0;
        let mut noon_positive = 0;
        for day in 1..4 {
            let midnight = day * spd;
            let noon = day * spd + spd / 2;
            if data.values.at(&[0, midnight, 0]) == 0.0 {
                night_zeros += 1;
            }
            if data.values.at(&[0, noon, 0]) > 0.0 {
                noon_positive += 1;
            }
        }
        assert_eq!(night_zeros, 3);
        assert!(noon_positive >= 2);
    }

    #[test]
    fn neighbours_correlate_more_than_strangers() {
        // the planted spatial structure must be recoverable from Pearson
        // correlations of neighbouring vs distant nodes
        let spec = DatasetSpec::metr_la().scaled(0.1, 0.05);
        let data = generate(&spec, 11);
        let target = data.target();
        let n = spec.n;
        let t = spec.t;
        let series = |i: usize| -> Vec<f32> { (0..t).map(|s| target.at(&[i, s])).collect() };
        let pearson = |a: &[f32], b: &[f32]| -> f32 {
            let ma = a.iter().sum::<f32>() / a.len() as f32;
            let mb = b.iter().sum::<f32>() / b.len() as f32;
            let mut num = 0.0;
            let mut va = 0.0;
            let mut vb = 0.0;
            for (x, y) in a.iter().zip(b.iter()) {
                num += (x - ma) * (y - mb);
                va += (x - ma) * (x - ma);
                vb += (y - mb) * (y - mb);
            }
            num / (va.sqrt() * vb.sqrt() + 1e-9)
        };
        // average correlation of graph neighbours vs non-neighbours
        let adj = data.graph.adjacency();
        let mut cn = Vec::new();
        let mut cf = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let c = pearson(&series(i), &series(j));
                if adj.at(&[i, j]) > 0.0 {
                    cn.push(c);
                } else {
                    cf.push(c);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&cn) > mean(&cf),
            "neighbour corr {} <= stranger corr {}",
            mean(&cn),
            mean(&cf)
        );
    }
}

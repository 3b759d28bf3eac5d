//! Solar-Energy and Electricity generators (single-step datasets, Table 8).
#![allow(clippy::needless_range_loop)]

use super::common::*;
use super::CtsData;
use crate::DatasetSpec;
use cts_graph::SensorGraph;
use cts_tensor::Tensor;
use rand::Rng;

/// PV production: per-plant capacity × diurnal bell × shared cloud process.
/// Exactly zero at night (as in the real Solar-Energy data).
pub fn generate_solar(spec: &DatasetSpec, rng: &mut impl Rng) -> CtsData {
    let (n, t, spd) = (spec.n, spec.t, spec.steps_per_day);
    let capacity: Vec<f32> = (0..n).map(|_| rng.gen_range(20.0..80.0)).collect();
    // Regional cloud cover: a few shared latent AR processes, mixed per
    // plant — correlates nearby plants without a predefined graph.
    let regions = 4usize;
    let clouds = ar1_field(rng, regions, t, 0.97, 0.08);
    let mix: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            let mut w: Vec<f32> = (0..regions).map(|_| rng.gen_range(0.0..1.0)).collect();
            let s: f32 = w.iter().sum();
            w.iter_mut().for_each(|x| *x /= s);
            w
        })
        .collect();

    let mut target = Tensor::zeros([n, t]);
    for i in 0..n {
        for s in 0..t {
            let tod = time_of_day(s, spd);
            // daylight window 0.25..0.75 of the day
            let bell = if (0.25..0.75).contains(&tod) {
                (std::f32::consts::PI * (tod - 0.25) / 0.5).sin().powf(1.5)
            } else {
                0.0
            };
            if bell == 0.0 {
                continue;
            }
            let cloud_lat: f32 = (0..regions).map(|r| mix[i][r] * clouds.at(&[r, s])).sum();
            let clearness = (0.75 + cloud_lat).clamp(0.15, 1.0);
            target.data_mut()[i * t + s] = capacity[i] * bell * clearness;
        }
    }
    CtsData {
        spec: spec.clone(),
        values: with_time_feature(&target, spd),
        graph: SensorGraph::disconnected(n),
    }
}

/// Client electricity consumption: base load × daily profile (evening peak)
/// × weekday factor, plus persistent noise. Always positive.
pub fn generate_electricity(spec: &DatasetSpec, rng: &mut impl Rng) -> CtsData {
    let (n, t, spd) = (spec.n, spec.t, spec.steps_per_day);
    let base: Vec<f32> = (0..n)
        .map(|_| (rng.gen_range(3.0f32..6.0)).exp()) // ~20..400 kWh
        .collect();
    let noise = ar1_field(rng, n, t, 0.9, 0.05);
    // A shared "grid" factor correlates all clients (weather/economy).
    let shared = ar1_field(rng, 1, t, 0.98, 0.03);

    let mut target = Tensor::zeros([n, t]);
    for i in 0..n {
        for s in 0..t {
            let tod = time_of_day(s, spd);
            let dow = day_of_week(s, spd);
            let weekday = if dow < 5 { 1.0 } else { 0.8 };
            let profile = 0.5
                + 0.25 * day_bump(tod, 9.0 / 24.0, 0.1)
                + 0.6 * day_bump(tod, 19.5 / 24.0, 0.08);
            let v = base[i] * profile * weekday * (1.0 + noise.at(&[i, s]) + shared.at(&[0, s]));
            target.data_mut()[i * t + s] = v.max(0.1);
        }
    }
    CtsData {
        spec: spec.clone(),
        values: with_time_feature(&target, spd),
        graph: SensorGraph::disconnected(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn solar_nonnegative_and_bounded_by_capacity() {
        let spec = DatasetSpec::solar_energy(3).scaled(0.06, 0.01);
        let d = generate_solar(&spec, &mut SmallRng::seed_from_u64(0));
        let target = d.target();
        assert!(target.min() >= 0.0);
        assert!(target.max() <= 80.0 + 1e-3);
        // plenty of night zeros
        let zeros = target.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros as f32 > 0.3 * target.len() as f32);
    }

    #[test]
    fn electricity_positive_with_evening_peak() {
        let spec = DatasetSpec::electricity(3).scaled(0.04, 0.04);
        let d = generate_electricity(&spec, &mut SmallRng::seed_from_u64(1));
        let target = d.target();
        assert!(target.min() > 0.0);
        let spd = spec.steps_per_day;
        let mut evening = 0.0;
        let mut early = 0.0;
        for i in 0..spec.n {
            for day in 0..3 {
                evening += target.at(&[i, day * spd + spd * 19 / 24]);
                early += target.at(&[i, day * spd + spd * 3 / 24]);
            }
        }
        assert!(evening > early, "no evening peak");
    }

    #[test]
    fn clients_are_heterogeneous() {
        let spec = DatasetSpec::electricity(3).scaled(0.05, 0.02);
        let d = generate_electricity(&spec, &mut SmallRng::seed_from_u64(2));
        let target = d.target();
        let means: Vec<f32> = (0..spec.n)
            .map(|i| (0..spec.t).map(|s| target.at(&[i, s])).sum::<f32>() / spec.t as f32)
            .collect();
        let lo = means.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = means.iter().cloned().fold(0.0f32, f32::max);
        assert!(hi > lo * 2.0, "clients too similar: {lo}..{hi}");
    }
}

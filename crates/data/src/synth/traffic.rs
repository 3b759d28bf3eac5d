//! Traffic-speed (METR-LA / PEMS-BAY) and traffic-flow (PEMS03-08)
//! generators.
//!
//! Structure planted (so the real datasets' learning signals survive the
//! substitution):
//! * a sensor graph with Gaussian-kernel weights (spatial correlation);
//! * rush-hour congestion that *propagates* along the graph with per-hop
//!   lag (diffusion dynamics — what DGCN models);
//! * daily and weekly seasonality (what temporal operators model);
//! * AR(1) noise diffused over the graph;
//! * zero-valued sensor outages (what the masked metrics are for).

use super::common::*;
use super::CtsData;
use crate::DatasetSpec;
use cts_graph::{random_geometric_graph, GraphGenConfig};
use cts_tensor::Tensor;
use rand::Rng;

fn make_graph(spec: &DatasetSpec, rng: &mut impl Rng) -> cts_graph::SensorGraph {
    random_geometric_graph(
        rng,
        &GraphGenConfig {
            n: spec.n,
            sigma: 0.35,
            threshold: 0.35,
        },
    )
}

/// Travel-speed series: free-flow speed minus propagating congestion waves.
pub fn generate_speed(spec: &DatasetSpec, rng: &mut impl Rng) -> CtsData {
    let graph = make_graph(spec, rng);
    let (n, t, spd) = (spec.n, spec.t, spec.steps_per_day);
    let free_flow = 65.0f32;

    // Per-node congestion severity, spatially smoothed.
    let amp = smoothed_node_field(rng, &graph, 0.25, 0.95, 2);
    // Congestion waves start at a few "hotspot" sensors and arrive later at
    // sensors further away (hop lag).
    let sources: Vec<usize> = (0..3.min(n)).map(|_| rng.gen_range(0..n)).collect();
    let mut lag = vec![usize::MAX; n];
    for &s in &sources {
        for (i, d) in graph.hop_distances(s).iter().enumerate() {
            if *d < lag[i] {
                lag[i] = *d;
            }
        }
    }
    let lag_steps: Vec<usize> = lag
        .iter()
        .map(|&d| if d == usize::MAX { 0 } else { d * 2 })
        .collect();

    let noise = spatial_smooth(&ar1_field(rng, n, t, 0.9, 1.2), &graph, 2, 0.5);

    let mut target = Tensor::zeros([n, t]);
    for i in 0..n {
        for s in 0..t {
            let shifted = s.saturating_sub(lag_steps[i]);
            let tod = time_of_day(shifted, spd);
            let dow = day_of_week(shifted, spd);
            let weekday = if dow < 5 { 1.0 } else { 0.45 };
            let rush = day_bump(tod, 8.0 / 24.0, 0.05) + 1.2 * day_bump(tod, 17.5 / 24.0, 0.06);
            let congestion = (amp[i] * rush * weekday).min(1.0);
            let v = free_flow * (1.0 - 0.55 * congestion) + noise.at(&[i, s]);
            target.data_mut()[i * t + s] = v.clamp(3.0, 75.0);
        }
    }
    inject_missing(rng, &mut target, 0.002, 6);
    CtsData {
        spec: spec.clone(),
        values: with_time_feature(&target, spd),
        graph,
    }
}

/// Traffic-flow (volume) series: double-peaked daily demand modulated by a
/// weekly pattern, scaled per sensor, with diffused noise.
pub fn generate_flow(spec: &DatasetSpec, rng: &mut impl Rng) -> CtsData {
    let graph = make_graph(spec, rng);
    let (n, t, spd) = (spec.n, spec.t, spec.steps_per_day);

    let base = smoothed_node_field(rng, &graph, 120.0, 420.0, 2);
    let noise = spatial_smooth(&ar1_field(rng, n, t, 0.85, 0.08), &graph, 2, 0.5);
    // Per-node peak-shape preference (some sensors see more morning traffic).
    let morning_share = smoothed_node_field(rng, &graph, 0.35, 0.65, 2);

    let mut target = Tensor::zeros([n, t]);
    for i in 0..n {
        for s in 0..t {
            let tod = time_of_day(s, spd);
            let dow = day_of_week(s, spd);
            let weekday = if dow < 5 { 1.0 } else { 0.6 };
            let profile = 0.15
                + morning_share[i] * day_bump(tod, 8.0 / 24.0, 0.07)
                + (1.0 - morning_share[i]) * day_bump(tod, 17.5 / 24.0, 0.08);
            let v = base[i] * profile * weekday * (1.0 + noise.at(&[i, s]));
            target.data_mut()[i * t + s] = v.max(0.5);
        }
    }
    inject_missing(rng, &mut target, 0.001, 4);
    CtsData {
        spec: spec.clone(),
        values: with_time_feature(&target, spd),
        graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn speed_data() -> CtsData {
        let spec = DatasetSpec::metr_la().scaled(0.08, 0.03);
        generate_speed(&spec, &mut SmallRng::seed_from_u64(0))
    }

    #[test]
    fn speeds_in_physical_range() {
        let d = speed_data();
        let target = d.target();
        // aside from injected zeros, everything is a plausible mph
        for &v in target.data() {
            assert!(v == 0.0 || (3.0..=75.0).contains(&v), "speed {v}");
        }
        assert!(target.max() > 50.0, "no free-flow regime");
    }

    #[test]
    fn rush_hour_slower_than_night() {
        let d = speed_data();
        let spd = d.spec.steps_per_day;
        let target = d.target();
        let (n, days) = (d.spec.n, d.spec.t / spd);
        let mut rush = 0.0;
        let mut night = 0.0;
        let mut count = 0.0;
        for day in 0..days.min(10) {
            if day % 7 >= 5 {
                continue; // weekends are mild by design
            }
            for i in 0..n {
                let r = target.at(&[i, day * spd + spd * 17 / 24]);
                let q = target.at(&[i, day * spd + spd * 3 / 24]);
                if r > 0.0 && q > 0.0 {
                    rush += r;
                    night += q;
                    count += 1.0;
                }
            }
        }
        assert!(
            rush / count < night / count,
            "rush {} night {}",
            rush / count,
            night / count
        );
    }

    #[test]
    fn flow_nonnegative_with_daily_peaks() {
        let spec = DatasetSpec::pems04().scaled(0.08, 0.05);
        let d = generate_flow(&spec, &mut SmallRng::seed_from_u64(1));
        let target = d.target();
        assert!(target.min() >= 0.0);
        let spd = spec.steps_per_day;
        // peak-hour flow beats 3am flow on weekdays
        let mut peak = 0.0;
        let mut low = 0.0;
        for i in 0..spec.n {
            peak += target.at(&[i, spd + spd * 8 / 24]);
            low += target.at(&[i, spd + spd * 3 / 24]);
        }
        assert!(peak > low * 1.5, "peak {peak} low {low}");
    }

    #[test]
    fn some_outages_injected() {
        let d = speed_data();
        let zeros = d.target().data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0, "missing-data path untested");
    }
}

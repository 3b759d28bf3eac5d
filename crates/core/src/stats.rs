//! Parameter and memory accounting (Tables 7, 27–34).

use cts_nn::{count_parameters, Forecaster};

/// Size statistics of a model.
#[derive(Clone, Copy, Debug)]
pub struct ModelStats {
    /// Total trainable scalars.
    pub parameters: usize,
    /// Approximate parameter memory in MB (f32).
    pub param_mb: f64,
}

impl ModelStats {
    /// Compute from any forecaster.
    pub fn of(model: &dyn Forecaster) -> Self {
        let parameters = count_parameters(&model.parameters());
        Self {
            parameters,
            param_mb: parameters as f64 * 4.0 / 1e6,
        }
    }
}

/// Peak-memory estimate of one search step, in MB.
#[derive(Clone, Copy, Debug)]
pub struct MemoryEstimate {
    /// Liveness-based estimate (see [`search_memory_estimate`]): an upper
    /// bound on the arena bytes the step holds resident at its peak.
    pub peak_mb: f64,
}

/// Liveness-based peak-bytes estimate of a search step.
///
/// Models the arena at the peak of one forward/backward:
///
/// * every trainable parameter keeps four resident buffers — value,
///   gradient, and the two Adam moments — each padded to the arena's
///   power-of-two slot capacity, which is at most 2× the payload;
/// * the tape's peak live activation set keeps a forward value plus at
///   most one backward gradient per scalar, padded the same way;
/// * `plan_peak_bytes` — the statically priced peak of the derived
///   architecture's compiled forward (`crate::preflight::analyze_cost`) —
///   floors the activation term, so the estimate never undercuts what
///   the inference plan alone is known to need. Pass 0 when no derived
///   plan exists yet.
///
/// Because every term is an upper bound on the matching arena residency,
/// the estimate is pinned `≥` the measured arena high-water mark (see the
/// regression test below and `tests/cost_oracle.rs`).
pub fn search_memory_estimate(
    model: &dyn Forecaster,
    peak_activation_scalars: usize,
    plan_peak_bytes: u64,
) -> MemoryEstimate {
    let params = count_parameters(&model.parameters()) as u64;
    // 4 buffers per scalar × 4 bytes × ≤2 slot padding.
    let param_bytes = params.saturating_mul(4 * 4 * 2);
    // value + gradient per live scalar × 4 bytes × ≤2 slot padding.
    let act_payload = (peak_activation_scalars as u64).saturating_mul(2 * 4 * 2);
    let act_bytes = act_payload.max(plan_peak_bytes);
    MemoryEstimate {
        peak_mb: param_bytes.saturating_add(act_bytes) as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::{Parameter, Tape, Var};
    use cts_tensor::Tensor;

    struct Dummy {
        p: Parameter,
    }

    impl Forecaster for Dummy {
        fn forward(&self, tape: &Tape, x: &Var) -> Var {
            let _ = tape;
            x.clone()
        }
        fn parameters(&self) -> Vec<Parameter> {
            vec![self.p.clone()]
        }
    }

    #[test]
    fn stats_count_scalars() {
        let m = Dummy {
            p: Parameter::new("p", Tensor::zeros([100, 10])),
        };
        let s = ModelStats::of(&m);
        assert_eq!(s.parameters, 1000);
        assert!((s.param_mb - 0.004).abs() < 1e-9);
    }

    #[test]
    fn memory_estimate_scales_with_activations() {
        let m = Dummy {
            p: Parameter::new("p", Tensor::zeros([10])),
        };
        let small = search_memory_estimate(&m, 1_000, 0).peak_mb;
        let large = search_memory_estimate(&m, 1_000_000, 0).peak_mb;
        assert!(large > small * 100.0);
    }

    #[test]
    fn estimate_floors_at_plan_peak() {
        let m = Dummy {
            p: Parameter::new("p", Tensor::zeros([10])),
        };
        // A large static plan peak floors the activation term.
        let floored = search_memory_estimate(&m, 1_000, 50_000_000);
        assert!(floored.peak_mb >= 50.0, "{floored:?}");
    }

    // Regression gate (satellite of the static-cost-analysis PR): the
    // liveness-based estimator must never undercut the arena residency a
    // real search step is measured to add on a smoke supernet.
    #[test]
    fn liveness_estimator_covers_measured_arena_residency() {
        use crate::{SearchConfig, SupernetModel};
        use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
        use cts_nn::LossKind;
        use cts_tensor::arena;
        use rand::{rngs::SmallRng, SeedableRng};

        let spec = DatasetSpec::metr_la().scaled(0.05, 0.015);
        let data = generate(&spec, 0);
        let windows = build_windows(&data, 4, 16);
        let cfg = SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let batches = batches_from_windows(&windows.train[..2], 2);

        let (live_before, _) = arena::live_stats();
        arena::reset_live_peak();
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        let pred = model.forward(&tape, &x);
        let loss = LossKind::MaskedMae {
            null_value: spec.null_value,
        }
        .compute(&tape, &pred, &batches[0].1);
        tape.backward(&loss);
        let scalars = tape.activation_scalars();
        let (_, peak) = arena::live_stats();
        // Arena residency this step added, in bytes (live_stats counts
        // rounded capacity floats).
        let measured = peak.saturating_sub(live_before) as f64 * 4.0;

        let est = search_memory_estimate(&model, scalars, 0);
        assert!(
            est.peak_mb * 1e6 >= measured,
            "liveness estimate {:.3} MB undercuts measured residency {:.3} MB",
            est.peak_mb,
            measured / 1e6
        );
    }
}

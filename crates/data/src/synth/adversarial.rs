//! Adversarial data regimes (ROADMAP 5(c)): transformations applied on top
//! of the clean synthetic generators to probe robustness — sensor dropout,
//! contiguous missing spans, and distribution (regime) shifts.
//!
//! Each regime is deterministic per seed, leaves the clean data untouched
//! (it clones), and marks missing readings with the dataset's
//! `null_value` sentinel so the masked losses/metrics and the serving
//! admission path treat them consistently. Per-regime MAE/RMSE rows are
//! emitted into `BENCH_obs.json` by the `obs_smoke` bench so robustness
//! regressions are visible next to the performance counters.

use crate::CtsData;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One adversarial input regime.
#[derive(Clone, Debug, PartialEq)]
pub enum Regime {
    /// The untouched generator output (baseline row).
    Clean,
    /// A fraction of sensors go completely dark (their target feature is
    /// nulled) for one contiguous span each — dead loop detectors,
    /// unplugged meters.
    SensorDropout {
        /// Fraction of sensors affected (`0..=1`).
        sensor_frac: f32,
        /// Length of each sensor's dark span as a fraction of `T`.
        span_frac: f32,
    },
    /// Short contiguous missing spans scattered across all sensors —
    /// transmission hiccups rather than dead hardware.
    MissingSpans {
        /// Target fraction of all readings nulled (`0..=1`).
        frac: f32,
        /// Length of each span in timestamps.
        span: usize,
    },
    /// A permanent level/scale change partway through the series — a
    /// sensor recalibration, a road closure, a tariff change.
    RegimeShift {
        /// Cut point as a fraction of `T`.
        at_frac: f32,
        /// Multiplier applied to readings after the cut.
        scale: f32,
        /// Offset added to readings after the cut.
        shift: f32,
    },
}

impl Regime {
    /// Stable snake_case name used for run-log rows and report tables.
    pub fn name(&self) -> &'static str {
        match self {
            Regime::Clean => "clean",
            Regime::SensorDropout { .. } => "sensor_dropout",
            Regime::MissingSpans { .. } => "missing_spans",
            Regime::RegimeShift { .. } => "regime_shift",
        }
    }

    /// The standard robustness suite reported in `BENCH_obs.json`: clean
    /// baseline plus one representative instance of each adversarial
    /// regime.
    pub fn standard_suite() -> Vec<Regime> {
        vec![
            Regime::Clean,
            Regime::SensorDropout {
                sensor_frac: 0.25,
                span_frac: 0.2,
            },
            Regime::MissingSpans {
                frac: 0.05,
                span: 6,
            },
            Regime::RegimeShift {
                at_frac: 0.7,
                scale: 1.3,
                shift: 2.0,
            },
        ]
    }
}

/// Apply `regime` to a generated dataset, returning a corrupted copy.
/// Deterministic per `(regime, seed)`; the input is never mutated.
///
/// Missing readings are written to the target feature (feature 0) only —
/// the time-of-day encoding stays intact, mirroring real telemetry where
/// the timestamp is known even when the reading is lost. Datasets without
/// a `null_value` sentinel use `0.0` as the fill, the convention the
/// traffic presets already follow.
pub fn apply_regime(data: &CtsData, regime: &Regime, seed: u64) -> CtsData {
    let mut out = data.clone();
    let (n, t, f) = (
        out.values.shape()[0],
        out.values.shape()[1],
        out.values.shape()[2],
    );
    let null = out.spec.null_value.unwrap_or(0.0);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xad5e_7a57);
    let values = out.values.data_mut();
    let mut null_span = |node: usize, start: usize, len: usize| {
        for ti in start..(start + len).min(t) {
            values[(node * t + ti) * f] = null;
        }
    };
    match regime {
        Regime::Clean => {}
        Regime::SensorDropout {
            sensor_frac,
            span_frac,
        } => {
            let sensors = ((n as f32 * sensor_frac).ceil() as usize).min(n);
            let span = ((t as f32 * span_frac).ceil() as usize).clamp(1, t);
            // Sample distinct sensors by index walk: deterministic and
            // unbiased enough for a corruption model.
            let mut picked = vec![false; n];
            let mut count = 0;
            while count < sensors {
                let i = rng.gen_range(0..n);
                if !picked[i] {
                    picked[i] = true;
                    count += 1;
                    let start = rng.gen_range(0..t.saturating_sub(span).max(1));
                    null_span(i, start, span);
                }
            }
        }
        Regime::MissingSpans { frac, span } => {
            let span = (*span).clamp(1, t);
            let target = (n as f32 * t as f32 * frac).ceil() as usize;
            let spans = target.div_ceil(span);
            for _ in 0..spans {
                let node = rng.gen_range(0..n);
                let start = rng.gen_range(0..t.saturating_sub(span).max(1));
                null_span(node, start, span);
            }
        }
        Regime::RegimeShift {
            at_frac,
            scale,
            shift,
        } => {
            let t0 = ((t as f32 * at_frac) as usize).min(t);
            for node in 0..n {
                for ti in t0..t {
                    let idx = (node * t + ti) * f;
                    // Missing readings stay missing through the shift.
                    if !crate::masking::is_missing(values[idx], out.spec.null_value) {
                        values[idx] = values[idx] * scale + shift;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masking::missing_fraction;
    use crate::{generate, DatasetSpec};

    fn base() -> CtsData {
        generate(&DatasetSpec::metr_la().scaled(0.06, 0.02), 9)
    }

    fn target_missing(data: &CtsData) -> f32 {
        missing_fraction(data.target().data(), data.spec.null_value)
    }

    #[test]
    fn clean_is_identity_and_input_untouched() {
        let data = base();
        let before = data.values.clone();
        let out = apply_regime(&data, &Regime::Clean, 1);
        assert!(out.values.approx_eq(&before, 0.0));
        assert!(data.values.approx_eq(&before, 0.0));
    }

    #[test]
    fn regimes_are_deterministic_per_seed() {
        let data = base();
        let r = Regime::MissingSpans { frac: 0.1, span: 4 };
        let a = apply_regime(&data, &r, 5);
        let b = apply_regime(&data, &r, 5);
        let c = apply_regime(&data, &r, 6);
        assert!(a.values.approx_eq(&b.values, 0.0));
        assert!(!a.values.approx_eq(&c.values, 0.0));
    }

    #[test]
    fn dropout_and_spans_increase_missing_fraction() {
        let data = base();
        let clean = target_missing(&data);
        let dropped = apply_regime(
            &data,
            &Regime::SensorDropout {
                sensor_frac: 0.25,
                span_frac: 0.2,
            },
            3,
        );
        let holes = apply_regime(
            &data,
            &Regime::MissingSpans {
                frac: 0.05,
                span: 6,
            },
            3,
        );
        assert!(
            target_missing(&dropped) > clean + 0.01,
            "dropout added no holes"
        );
        assert!(
            target_missing(&holes) > clean + 0.01,
            "spans added no holes"
        );
        // The time-of-day feature survives untouched.
        for node in 0..data.spec.n {
            for ti in 0..data.spec.t {
                assert_eq!(
                    dropped.values.at(&[node, ti, 1]),
                    data.values.at(&[node, ti, 1])
                );
            }
        }
    }

    #[test]
    fn shift_moves_late_mean_only() {
        let data = base();
        let shifted = apply_regime(
            &data,
            &Regime::RegimeShift {
                at_frac: 0.5,
                scale: 1.0,
                shift: 10.0,
            },
            0,
        );
        let t = data.spec.t;
        let t0 = t / 2;
        let mean = |d: &CtsData, range: std::ops::Range<usize>| -> f32 {
            let tgt = d.target();
            let mut acc = 0.0f32;
            let mut cnt = 0.0f32;
            for ti in range {
                let v = tgt.at(&[0, ti]);
                if !crate::masking::is_missing(v, d.spec.null_value) {
                    acc += v;
                    cnt += 1.0;
                }
            }
            acc / cnt.max(1.0)
        };
        assert!((mean(&shifted, 0..t0) - mean(&data, 0..t0)).abs() < 1e-4);
        assert!(mean(&shifted, t0..t) > mean(&data, t0..t) + 5.0);
    }

    #[test]
    fn suite_names_are_distinct() {
        let suite = Regime::standard_suite();
        let names: Vec<&str> = suite.iter().map(Regime::name).collect();
        assert_eq!(
            names,
            ["clean", "sensor_dropout", "missing_spans", "regime_shift"]
        );
    }
}

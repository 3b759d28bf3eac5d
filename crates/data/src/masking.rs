//! Null-sentinel masking helpers shared by metrics, admission control, and
//! the adversarial generators.
//!
//! The traffic datasets mark missing readings with a sentinel value
//! (`DatasetSpec::null_value`, conventionally `0.0` following Li et al.);
//! the serving layer additionally has to survive windows carrying NaN/Inf
//! from broken sensors. Both kinds of "missing" are detected here with one
//! shared tolerance so admission control, loss masking, and metrics agree
//! on what counts as absent.

use cts_tensor::Tensor;

/// Tolerance for sentinel comparison, matching the masked-metric
/// convention in the crate's `metrics` module.
pub const NULL_TOL: f32 = 1e-4;

/// Is `v` a missing reading? Non-finite values always count as missing;
/// finite values count when they sit within [`NULL_TOL`] of the sentinel.
pub fn is_missing(v: f32, null_value: Option<f32>) -> bool {
    if !v.is_finite() {
        return true;
    }
    match null_value {
        Some(nv) => (v - nv).abs() <= NULL_TOL,
        None => false,
    }
}

/// Fraction of missing entries (non-finite or sentinel) in a slice.
/// Empty slices report `0.0`.
pub fn missing_fraction(values: &[f32], null_value: Option<f32>) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let missing = values
        .iter()
        .filter(|&&v| is_missing(v, null_value))
        .count();
    missing as f32 / values.len() as f32
}

/// Replace every non-finite entry of `x` with `null_value` in place,
/// returning how many entries were rewritten. This is the admission-path
/// sanitizer: a NaN-laden sensor window becomes an ordinary
/// missing-reading window that the masked losses/metrics already know how
/// to ignore.
pub fn mask_non_finite(x: &mut Tensor, null_value: f32) -> usize {
    let mut masked = 0;
    for v in x.data_mut() {
        if !v.is_finite() {
            *v = null_value;
            masked += 1;
        }
    }
    masked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_detection_covers_both_kinds() {
        assert!(is_missing(f32::NAN, None));
        assert!(is_missing(f32::INFINITY, Some(0.0)));
        assert!(is_missing(0.0, Some(0.0)));
        assert!(is_missing(5e-5, Some(0.0)), "within tolerance of sentinel");
        assert!(!is_missing(0.0, None));
        assert!(!is_missing(1.0, Some(0.0)));
    }

    #[test]
    fn fraction_counts_sentinels_and_non_finite() {
        let v = [1.0, 0.0, f32::NAN, 3.0];
        assert!((missing_fraction(&v, Some(0.0)) - 0.5).abs() < 1e-6);
        assert!((missing_fraction(&v, None) - 0.25).abs() < 1e-6);
        assert_eq!(missing_fraction(&[], Some(0.0)), 0.0);
    }

    #[test]
    fn mask_rewrites_only_non_finite() {
        let mut t = Tensor::from_vec([4], vec![1.0, f32::NAN, f32::NEG_INFINITY, 2.0]);
        assert_eq!(mask_non_finite(&mut t, 0.0), 2);
        assert_eq!(t.data(), &[1.0, 0.0, 0.0, 2.0]);
        assert_eq!(mask_non_finite(&mut t, 0.0), 0);
    }
}

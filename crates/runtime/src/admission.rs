//! Per-request admission control: shape, finiteness, and missing-data
//! checks applied before a request may enter the pending queue.

use crate::error::ServeError;
use cts_data::{is_missing, mask_non_finite, missing_fraction};
use cts_tensor::Tensor;

/// What a request must satisfy to be admitted, and how hostile inputs are
/// sanitized on the way in.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// The dataset's missing-reading sentinel. When present, non-finite
    /// request entries are masked into it (the masked losses/metrics
    /// convention); when absent, any non-finite entry rejects the request.
    pub null_value: Option<f32>,
    /// Maximum tolerated missing fraction (sentinel + non-finite entries)
    /// in any single window's target feature. `1.0` disables the check.
    pub missing_cap: f32,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            null_value: None,
            missing_cap: 1.0,
        }
    }
}

/// What admission did to an accepted request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Non-finite entries rewritten to the null sentinel.
    pub masked: usize,
}

impl AdmissionPolicy {
    /// Policy with the given sentinel and cap.
    ///
    /// # Errors
    /// [`ServeError::Config`] when `missing_cap` is not a fraction in
    /// `[0, 1]`.
    pub fn new(null_value: Option<f32>, missing_cap: f32) -> Result<Self, ServeError> {
        if !(0.0..=1.0).contains(&missing_cap) {
            return Err(ServeError::Config(format!(
                "missing_cap must be in [0, 1], got {missing_cap}"
            )));
        }
        Ok(Self {
            null_value,
            missing_cap,
        })
    }

    /// Validate (and possibly sanitize, in place) one request
    /// `[b, N, T, F]` against a plan compiled for `want = [N, T, F]`.
    ///
    /// Checks run in order: shape, per-window missing fraction on the
    /// target feature (feature 0, counting both sentinel and non-finite
    /// entries), then non-finite handling — masked to the sentinel when
    /// one exists, rejected otherwise.
    ///
    /// # Errors
    /// [`ServeError::BadShape`], [`ServeError::TooMissing`], or
    /// [`ServeError::NonFinite`].
    pub fn admit(&self, x: &mut Tensor, want: [usize; 3]) -> Result<AdmissionReport, ServeError> {
        let s = x.shape();
        if s.len() != 4 || s[1..] != want {
            return Err(ServeError::BadShape {
                got: s.to_vec(),
                want,
            });
        }
        let (b, n, t, f) = (s[0], s[1], s[2], s[3]);
        if self.missing_cap < 1.0 {
            // Per-window check on the target feature: one dead batch row
            // must not be diluted by its healthy neighbours.
            let data = x.data();
            let mut target = Vec::with_capacity(n * t);
            for row in 0..b {
                target.clear();
                let base = row * n * t * f;
                for nt in 0..n * t {
                    target.push(data[base + nt * f]);
                }
                let frac = missing_fraction(&target, self.null_value);
                if frac > self.missing_cap {
                    return Err(ServeError::TooMissing {
                        frac,
                        cap: self.missing_cap,
                    });
                }
            }
        }
        match self.null_value {
            Some(nv) => Ok(AdmissionReport {
                masked: mask_non_finite(x, nv),
            }),
            None => {
                let count = x.data().iter().filter(|v| !v.is_finite()).count();
                if count > 0 {
                    Err(ServeError::NonFinite { count })
                } else {
                    Ok(AdmissionReport::default())
                }
            }
        }
    }

    /// Is `v` a missing reading under this policy's sentinel?
    pub fn is_missing(&self, v: f32) -> bool {
        is_missing(v, self.null_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WANT: [usize; 3] = [2, 3, 2];

    fn healthy() -> Tensor {
        Tensor::from_vec([1, 2, 3, 2], (0..12).map(|i| 1.0 + i as f32).collect())
    }

    #[test]
    fn rejects_bad_shapes() {
        let policy = AdmissionPolicy::default();
        let mut wrong_rank = Tensor::zeros([2, 3, 2]);
        assert!(matches!(
            policy.admit(&mut wrong_rank, WANT),
            Err(ServeError::BadShape { .. })
        ));
        let mut wrong_dims = Tensor::zeros([1, 2, 4, 2]);
        assert!(matches!(
            policy.admit(&mut wrong_dims, WANT),
            Err(ServeError::BadShape { .. })
        ));
        let mut ok = healthy();
        assert!(policy.admit(&mut ok, WANT).is_ok());
    }

    #[test]
    fn masks_non_finite_when_sentinel_exists_rejects_otherwise() {
        let mut x = healthy();
        x.data_mut()[3] = f32::NAN;
        let strict = AdmissionPolicy::default();
        assert_eq!(
            strict.admit(&mut x.clone(), WANT),
            Err(ServeError::NonFinite { count: 1 })
        );
        let masking = AdmissionPolicy::new(Some(0.0), 1.0).unwrap();
        let report = masking.admit(&mut x, WANT).unwrap();
        assert_eq!(report.masked, 1);
        assert_eq!(x.data()[3], 0.0);
    }

    #[test]
    fn per_window_missing_cap_sees_through_healthy_rows() {
        let policy = AdmissionPolicy::new(Some(0.0), 0.5).unwrap();
        // Row 0 healthy, row 1 fully missing on the target feature: the
        // overall fraction is 0.5 but the per-window fraction is 1.0.
        let mut x = Tensor::from_vec(
            [2, 2, 3, 2],
            (0..24)
                .map(|i| {
                    if i >= 12 && i % 2 == 0 {
                        0.0
                    } else {
                        1.0 + i as f32
                    }
                })
                .collect(),
        );
        let err = policy.admit(&mut x, WANT).unwrap_err();
        assert!(matches!(err, ServeError::TooMissing { frac, .. } if frac > 0.99));
        // Loosening the cap admits it.
        let loose = AdmissionPolicy::new(Some(0.0), 1.0).unwrap();
        assert!(loose.admit(&mut x, WANT).is_ok());
    }

    #[test]
    fn cap_validation() {
        assert!(matches!(
            AdmissionPolicy::new(None, 1.5),
            Err(ServeError::Config(_))
        ));
        assert!(AdmissionPolicy::new(None, 0.0).is_ok());
    }
}

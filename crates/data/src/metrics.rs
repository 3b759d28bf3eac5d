//! Forecasting accuracy metrics (§4.1.2).
//!
//! Multi-step tasks report masked MAE / RMSE / MAPE (missing readings are
//! excluded, the convention of Li et al. 2018 the paper follows);
//! single-step tasks report RRSE and CORR (Lai et al. 2018).

use cts_tensor::Tensor;

/// All metrics at once, for report tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalMetrics {
    /// Masked mean absolute error.
    pub mae: f32,
    /// Masked root mean squared error.
    pub rmse: f32,
    /// Masked mean absolute percentage error (fraction, not %).
    pub mape: f32,
    /// Root relative squared error.
    pub rrse: f32,
    /// Empirical correlation coefficient.
    pub corr: f32,
}

impl EvalMetrics {
    /// Compute every metric for `pred` vs `target` (identical shapes).
    pub fn compute(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> Self {
        Self {
            mae: masked_mae(pred, target, null_value),
            rmse: masked_rmse(pred, target, null_value),
            mape: masked_mape(pred, target, null_value),
            rrse: rrse_metric(pred, target, null_value),
            corr: corr_metric(pred, target, null_value),
        }
    }
}

fn masked_iter<'a>(
    pred: &'a Tensor,
    target: &'a Tensor,
    null_value: Option<f32>,
) -> impl Iterator<Item = (f32, f32)> + 'a {
    assert_eq!(pred.shape(), target.shape(), "metric shape mismatch");
    pred.data()
        .iter()
        .zip(target.data().iter())
        .filter(move |(_, &t)| match null_value {
            Some(nv) => (t - nv).abs() > 1e-4,
            None => true,
        })
        .map(|(&p, &t)| (p, t))
}

/// Masked mean absolute error.
pub fn masked_mae(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> f32 {
    let (mut acc, mut n) = (0.0f64, 0.0f64);
    for (p, t) in masked_iter(pred, target, null_value) {
        acc += (p - t).abs() as f64;
        n += 1.0;
    }
    if n == 0.0 {
        0.0
    } else {
        (acc / n) as f32
    }
}

/// Masked root mean squared error.
pub fn masked_rmse(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> f32 {
    let (mut acc, mut n) = (0.0f64, 0.0f64);
    for (p, t) in masked_iter(pred, target, null_value) {
        let d = (p - t) as f64;
        acc += d * d;
        n += 1.0;
    }
    if n == 0.0 {
        0.0
    } else {
        (acc / n).sqrt() as f32
    }
}

/// Masked mean absolute percentage error (as a fraction; ×100 for %).
/// Zero targets are always excluded (division).
pub fn masked_mape(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> f32 {
    let (mut acc, mut n) = (0.0f64, 0.0f64);
    for (p, t) in masked_iter(pred, target, null_value) {
        if t.abs() < 1e-4 {
            continue;
        }
        acc += ((p - t).abs() / t.abs()) as f64;
        n += 1.0;
    }
    if n == 0.0 {
        0.0
    } else {
        (acc / n) as f32
    }
}

/// Root relative squared error: `√(Σ(p−t)² / Σ(t−t̄)²)` (Lai et al. 2018).
///
/// Masked entries (`target ≈ null_value`) are excluded from both sums and
/// from the target mean, matching the MAE/RMSE/MAPE convention — a missing
/// reading used to contribute `(p − null)²` to the numerator and drag the
/// mean toward the null sentinel.
pub fn rrse_metric(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> f32 {
    let (mut t_sum, mut n) = (0.0f64, 0.0f64);
    for (_, t) in masked_iter(pred, target, null_value) {
        t_sum += t as f64;
        n += 1.0;
    }
    if n == 0.0 {
        return 0.0;
    }
    let t_mean = t_sum / n;
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (p, t) in masked_iter(pred, target, null_value) {
        num += (p as f64 - t as f64).powi(2);
        den += (t as f64 - t_mean).powi(2);
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt() as f32
    }
}

/// Empirical correlation coefficient: Pearson correlation between pred and
/// target computed per series (last-axis-flattened per node), averaged over
/// nodes with non-degenerate variance (Lai et al. 2018).
///
/// Expects `[S, N, Q]` (samples × nodes × horizons). Masked entries
/// (`target ≈ null_value`) are skipped per node, matching the masked-MAE
/// convention — a run of missing readings used to read as a block of
/// constant targets and bias the per-node correlation.
pub fn corr_metric(pred: &Tensor, target: &Tensor, null_value: Option<f32>) -> f32 {
    assert_eq!(pred.shape(), target.shape());
    assert_eq!(pred.rank(), 3, "corr expects [S,N,Q]");
    let (s, n, q) = (pred.shape()[0], pred.shape()[1], pred.shape()[2]);
    let keep = |t: f32| match null_value {
        Some(nv) => (t - nv).abs() > 1e-4,
        None => true,
    };
    let mut total = 0.0f64;
    let mut nodes = 0.0f64;
    for node in 0..n {
        let mut ps = Vec::with_capacity(s * q);
        let mut ts = Vec::with_capacity(s * q);
        for si in 0..s {
            for qi in 0..q {
                let t = target.at(&[si, node, qi]);
                if !keep(t) {
                    continue;
                }
                ps.push(pred.at(&[si, node, qi]) as f64);
                ts.push(t as f64);
            }
        }
        if ps.is_empty() {
            continue;
        }
        let len = ps.len() as f64;
        let mp = ps.iter().sum::<f64>() / len;
        let mt = ts.iter().sum::<f64>() / len;
        let mut num = 0.0;
        let mut vp = 0.0;
        let mut vt = 0.0;
        for (p, t) in ps.iter().zip(ts.iter()) {
            num += (p - mp) * (t - mt);
            vp += (p - mp) * (p - mp);
            vt += (t - mt) * (t - mt);
        }
        if vp > 1e-9 && vt > 1e-9 {
            total += num / (vp.sqrt() * vt.sqrt());
            nodes += 1.0;
        }
    }
    if nodes == 0.0 {
        0.0
    } else {
        (total / nodes) as f32
    }
}

/// Slice horizon `h` (0-based) out of stacked `[S, N, Q]` predictions —
/// used for the 15/30/60-min columns of Tables 5, 9, 10.
pub fn horizon_slice(x: &Tensor, h: usize) -> Tensor {
    cts_tensor::ops::slice(x, 2, h, h + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores() {
        let t = Tensor::from_vec([2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let m = EvalMetrics::compute(&t, &t, None);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.rrse, 0.0);
        assert!((m.corr - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mae_and_rmse_basics() {
        let p = Tensor::from_vec([1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let t = Tensor::from_vec([1, 1, 4], vec![2.0, 2.0, 5.0, 4.0]);
        assert!((masked_mae(&p, &t, None) - 0.75).abs() < 1e-6);
        assert!((masked_rmse(&p, &t, None) - (5.0f32 / 4.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn masking_excludes_null_targets() {
        let p = Tensor::from_vec([1, 1, 3], vec![100.0, 2.0, 3.0]);
        let t = Tensor::from_vec([1, 1, 3], vec![0.0, 2.0, 4.0]);
        // entry 0 masked: errors (0, 1) -> mae 0.5
        assert!((masked_mae(&p, &t, Some(0.0)) - 0.5).abs() < 1e-6);
        // unmasked: (100 + 0 + 1)/3
        assert!((masked_mae(&p, &t, None) - 101.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn mape_relative_errors() {
        let p = Tensor::from_vec([1, 1, 2], vec![110.0, 90.0]);
        let t = Tensor::from_vec([1, 1, 2], vec![100.0, 100.0]);
        assert!((masked_mape(&p, &t, None) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn rrse_of_mean_predictor_is_one() {
        let t = Tensor::from_vec([1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let p = Tensor::full([1, 1, 4], 2.5);
        assert!((rrse_metric(&p, &t, None) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn corr_detects_anticorrelation() {
        let t = Tensor::from_vec([4, 1, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let p = Tensor::from_vec([4, 1, 1], vec![4.0, 3.0, 2.0, 1.0]);
        assert!((corr_metric(&p, &t, None) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn corr_skips_constant_nodes() {
        // node 1 has zero variance; corr must come from node 0 only
        let t = Tensor::from_vec([3, 2, 1], vec![1.0, 5.0, 2.0, 5.0, 3.0, 5.0]);
        let p = t.clone();
        assert!((corr_metric(&p, &t, None) - 1.0).abs() < 1e-6);
    }

    /// Regression: RRSE used to ignore the null mask entirely. With the
    /// masked entry excluded, RRSE over the real entries must equal RRSE of
    /// the same data with the masked entry physically absent — and a wildly
    /// wrong prediction at a masked position must not move the score.
    #[test]
    fn rrse_masks_null_targets() {
        let t = Tensor::from_vec([1, 1, 4], vec![1.0, 0.0, 3.0, 4.0]);
        let p = Tensor::from_vec([1, 1, 4], vec![1.5, 999.0, 2.5, 4.5]);
        let t_clean = Tensor::from_vec([1, 1, 3], vec![1.0, 3.0, 4.0]);
        let p_clean = Tensor::from_vec([1, 1, 3], vec![1.5, 2.5, 4.5]);
        let masked = rrse_metric(&p, &t, Some(0.0));
        let reference = rrse_metric(&p_clean, &t_clean, None);
        assert!((masked - reference).abs() < 1e-6, "{masked} vs {reference}");
        // Unmasked, the 999 at the null slot dominates the numerator.
        assert!(rrse_metric(&p, &t, None) > 100.0 * masked);
    }

    /// Regression: CORR used to feed null sentinels into the per-node
    /// Pearson sums. Masked entries are skipped per node; a node whose
    /// readings are all null contributes nothing.
    #[test]
    fn corr_masks_null_targets_per_node() {
        // node 0: targets [1,2,3] + one null; predictions track the real
        // entries perfectly but are garbage at the null slot.
        // node 1: every target null -> the node is dropped entirely.
        let t = Tensor::from_vec([4, 2, 1], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        let p = Tensor::from_vec([4, 2, 1], vec![1.0, 7.0, 2.0, 7.0, 3.0, 7.0, -50.0, 7.0]);
        assert!((corr_metric(&p, &t, Some(0.0)) - 1.0).abs() < 1e-6);
        // Unmasked, the -50 at the null slot wrecks node 0's correlation.
        assert!(corr_metric(&p, &t, None) < 0.99);
    }

    /// `EvalMetrics::compute` must thread the mask into all five metrics.
    #[test]
    fn compute_threads_mask_into_rrse_and_corr() {
        let t = Tensor::from_vec([4, 1, 1], vec![1.0, 2.0, 0.0, 4.0]);
        let p = Tensor::from_vec([4, 1, 1], vec![1.0, 2.0, 123.0, 4.0]);
        let m = EvalMetrics::compute(&p, &t, Some(0.0));
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rrse, 0.0);
        assert!((m.corr - 1.0).abs() < 1e-6);
    }

    #[test]
    fn horizon_slice_extracts_column() {
        let x = Tensor::from_vec([1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let h1 = horizon_slice(&x, 1);
        assert_eq!(h1.shape(), &[1, 2, 1]);
        assert_eq!(h1.data(), &[2.0, 5.0]);
    }
}

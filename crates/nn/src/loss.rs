//! Forecasting losses, including the masked variants used throughout the
//! traffic-forecasting literature (missing sensor readings are encoded as a
//! `null_value`, usually 0, and excluded from both loss and metrics).

use cts_autograd::{Tape, Var};
use cts_tensor::Tensor;

/// Which loss a training run optimises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossKind {
    /// Mean absolute error, masking out entries equal to `null_value`.
    MaskedMae {
        /// Sentinel for missing readings (`None` disables masking).
        null_value: Option<f32>,
    },
    /// Mean absolute error.
    Mae,
    /// Mean squared error.
    Mse,
}

impl LossKind {
    /// Build the loss graph for `pred` against a constant `target`.
    pub fn compute(&self, tape: &Tape, pred: &Var, target: &Tensor) -> Var {
        match self {
            LossKind::MaskedMae { null_value } => masked_mae_loss(tape, pred, target, *null_value),
            LossKind::Mae => l1_loss(tape, pred, target),
            LossKind::Mse => mse_loss(tape, pred, target),
        }
    }
}

/// Binary mask tensor: 1 where `target` differs from `null_value`.
fn null_mask(target: &Tensor, null_value: f32) -> (Tensor, f32) {
    let data: Vec<f32> = target
        .data()
        .iter()
        .map(|&t| {
            if (t - null_value).abs() > 1e-4 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let count: f32 = data.iter().sum();
    (Tensor::from_vec(target.shape().to_vec(), data), count)
}

/// Masked MAE: `Σ |p − t| ⊙ m / Σ m` (falls back to plain MAE when
/// `null_value` is `None` or nothing is masked).
pub fn masked_mae_loss(tape: &Tape, pred: &Var, target: &Tensor, null_value: Option<f32>) -> Var {
    let Some(null) = null_value else {
        return l1_loss(tape, pred, target);
    };
    let (mask, count) = null_mask(target, null);
    if count == 0.0 {
        // Fully masked batch: zero loss with a live graph (keeps training
        // loops simple).
        return pred.mul(&tape.constant(mask)).sum_all();
    }
    let t = tape.constant(target.clone());
    let m = tape.constant(mask);
    pred.sub(&t).abs().mul(&m).sum_all().scale(1.0 / count)
}

/// Masked MSE with the same conventions as [`masked_mae_loss`].
pub fn masked_mse_loss(tape: &Tape, pred: &Var, target: &Tensor, null_value: Option<f32>) -> Var {
    let Some(null) = null_value else {
        return mse_loss(tape, pred, target);
    };
    let (mask, count) = null_mask(target, null);
    if count == 0.0 {
        return pred.mul(&tape.constant(mask)).sum_all();
    }
    let t = tape.constant(target.clone());
    let m = tape.constant(mask);
    pred.sub(&t).square().mul(&m).sum_all().scale(1.0 / count)
}

/// Plain mean absolute error.
pub fn l1_loss(tape: &Tape, pred: &Var, target: &Tensor) -> Var {
    let t = tape.constant(target.clone());
    pred.sub(&t).abs().mean_all()
}

/// Plain mean squared error.
pub fn mse_loss(tape: &Tape, pred: &Var, target: &Tensor) -> Var {
    let t = tape.constant(target.clone());
    pred.sub(&t).square().mean_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Parameter;

    #[test]
    fn mae_and_mse_values() {
        let tape = Tape::new();
        let pred = tape.constant(Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]));
        let target = Tensor::from_vec([4], vec![0.0, 2.0, 5.0, 4.0]);
        assert!((l1_loss(&tape, &pred, &target).value().item() - 0.75).abs() < 1e-6);
        assert!((mse_loss(&tape, &pred, &target).value().item() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn masked_mae_ignores_null_entries() {
        let tape = Tape::new();
        let pred = tape.constant(Tensor::from_vec([4], vec![10.0, 2.0, 3.0, 4.0]));
        // first entry is "missing" (0): the huge error there must not count
        let target = Tensor::from_vec([4], vec![0.0, 2.0, 5.0, 4.0]);
        let loss = masked_mae_loss(&tape, &pred, &target, Some(0.0))
            .value()
            .item();
        assert!((loss - 2.0 / 3.0).abs() < 1e-5, "{loss}");
    }

    #[test]
    fn unmasked_when_null_is_none() {
        let tape = Tape::new();
        let pred = tape.constant(Tensor::from_vec([2], vec![1.0, 1.0]));
        let target = Tensor::from_vec([2], vec![0.0, 0.0]);
        let loss = masked_mae_loss(&tape, &pred, &target, None).value().item();
        assert!((loss - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fully_masked_batch_gives_zero_loss() {
        let tape = Tape::new();
        let pred = tape.constant(Tensor::from_vec([2], vec![5.0, -3.0]));
        let target = Tensor::zeros([2]);
        let loss = masked_mae_loss(&tape, &pred, &target, Some(0.0))
            .value()
            .item();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn masked_loss_gradient_respects_mask() {
        let p = Parameter::new("pred", Tensor::from_vec([3], vec![1.0, 1.0, 1.0]));
        let tape = Tape::new();
        let pred = tape.param(&p);
        let target = Tensor::from_vec([3], vec![0.0, 5.0, 5.0]); // entry 0 masked
        let loss = masked_mae_loss(&tape, &pred, &target, Some(0.0));
        tape.backward(&loss);
        let g = p.grad();
        assert_eq!(g.data()[0], 0.0);
        assert!(g.data()[1] < 0.0 && g.data()[2] < 0.0);
    }

    #[test]
    fn loss_kind_dispatch() {
        let tape = Tape::new();
        let pred = tape.constant(Tensor::from_vec([2], vec![1.0, 3.0]));
        let target = Tensor::from_vec([2], vec![2.0, 1.0]);
        let mae = LossKind::Mae.compute(&tape, &pred, &target).value().item();
        let mse = LossKind::Mse.compute(&tape, &pred, &target).value().item();
        assert!((mae - 1.5).abs() < 1e-6);
        assert!((mse - 2.5).abs() < 1e-6);
    }
}

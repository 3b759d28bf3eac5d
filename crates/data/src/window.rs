//! Sliding-window extraction with chronological train/val/test splits.

use crate::{CtsData, Scaler, Task};
use cts_tensor::Tensor;

/// One training example: standardised inputs, raw-scale targets.
#[derive(Clone, Debug)]
pub struct Window {
    /// `[N, P, F]`, z-scored.
    pub x: Tensor,
    /// `[N, Q]` (multi-step) or `[N, 1]` (single-step), original scale.
    pub y: Tensor,
}

/// Windows split chronologically by the spec's ratio, plus the scaler the
/// inputs were standardised with.
#[derive(Clone, Debug)]
pub struct SplitWindows {
    /// Training windows.
    pub train: Vec<Window>,
    /// Validation windows.
    pub val: Vec<Window>,
    /// Test windows.
    pub test: Vec<Window>,
    /// Standardiser fit on the training span.
    pub scaler: Scaler,
}

impl SplitWindows {
    /// Merge train+val into one list (architecture evaluation retrains on
    /// both, §3.4).
    pub fn train_and_val(&self) -> Vec<Window> {
        let mut out = self.train.clone();
        out.extend(self.val.iter().cloned());
        out
    }

    /// Split the training windows in half: pseudo-train / pseudo-validation
    /// for the bi-level architecture search (§3.4).
    pub fn pseudo_split(&self) -> (Vec<Window>, Vec<Window>) {
        let half = self.train.len() / 2;
        (self.train[..half].to_vec(), self.train[half..].to_vec())
    }
}

/// Extract windows from generated data.
///
/// `stride` subsamples window start positions (1 = every window);
/// `cap_per_split` bounds each split's size (0 = unbounded). Inputs are
/// standardised with a scaler fit on the training span only — no
/// information leaks from val/test.
pub fn build_windows(data: &CtsData, stride: usize, cap_per_split: usize) -> SplitWindows {
    let spec = &data.spec;
    let (n, t, f) = (spec.n, spec.t, spec.features);
    let p = spec.input_len;
    let (y_offsets, q_out): (Vec<usize>, usize) = match spec.task {
        Task::MultiStep => ((1..=spec.output_len).collect(), spec.output_len),
        Task::SingleStep { horizon } => (vec![horizon], 1),
    };
    // invariant: callers pass a non-empty horizon list (asserted in the message).
    let max_offset = *y_offsets.last().expect("empty horizon list");
    let num_windows = t.saturating_sub(p + max_offset) + 1;
    assert!(num_windows > 3, "dataset too short for windows");

    let (r_train, r_val, _) = spec.split;
    let t_train_span = (t as f32 * r_train) as usize;
    let scaler = Scaler::fit(&data.values, t_train_span);

    let stride = stride.max(1);
    let starts: Vec<usize> = (0..num_windows).step_by(stride).collect();
    let n_tr = (starts.len() as f32 * r_train) as usize;
    let n_va = (starts.len() as f32 * r_val) as usize;

    let make_window = |start: usize| -> Window {
        let mut x = Tensor::zeros([n, p, f]);
        for i in 0..n {
            for s in 0..p {
                for k in 0..f {
                    *x.at_mut(&[i, s, k]) = data.values.at(&[i, start + s, k]);
                }
            }
        }
        scaler.transform(&mut x);
        let mut y = Tensor::zeros([n, q_out]);
        for i in 0..n {
            for (qi, &off) in y_offsets.iter().enumerate() {
                *y.at_mut(&[i, qi]) = data.values.at(&[i, start + p + off - 1, 0]);
            }
        }
        Window { x, y }
    };

    let cap = |v: Vec<Window>| -> Vec<Window> {
        if cap_per_split > 0 && v.len() > cap_per_split {
            // keep an evenly spaced subsample to preserve time coverage
            let step = v.len() as f32 / cap_per_split as f32;
            (0..cap_per_split)
                .map(|i| v[(i as f32 * step) as usize].clone())
                .collect()
        } else {
            v
        }
    };

    let train = cap(starts[..n_tr].iter().map(|&s| make_window(s)).collect());
    let val = cap(starts[n_tr..n_tr + n_va]
        .iter()
        .map(|&s| make_window(s))
        .collect());
    let test = cap(starts[n_tr + n_va..]
        .iter()
        .map(|&s| make_window(s))
        .collect());

    SplitWindows {
        train,
        val,
        test,
        scaler,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetSpec};

    fn tiny_split() -> (SplitWindows, DatasetSpec) {
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.02);
        let data = generate(&spec, 0);
        (build_windows(&data, 1, 0), spec)
    }

    #[test]
    fn window_shapes() {
        let (sw, spec) = tiny_split();
        let w = &sw.train[0];
        assert_eq!(w.x.shape(), &[spec.n, spec.input_len, spec.features]);
        assert_eq!(w.y.shape(), &[spec.n, spec.output_len]);
    }

    #[test]
    fn split_ratios_roughly_hold() {
        let (sw, _) = tiny_split();
        let total = (sw.train.len() + sw.val.len() + sw.test.len()) as f32;
        let r = sw.train.len() as f32 / total;
        assert!((r - 0.7).abs() < 0.05, "train ratio {r}");
    }

    #[test]
    fn multi_step_targets_are_consecutive_raw_values() {
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.02);
        let data = generate(&spec, 1);
        let sw = build_windows(&data, 1, 0);
        // first window starts at 0: y[:, q] == raw value at P+q
        let p = spec.input_len;
        for q in 0..spec.output_len {
            assert_eq!(sw.train[0].y.at(&[3, q]), data.values.at(&[3, p + q, 0]));
        }
    }

    #[test]
    fn single_step_picks_horizon() {
        let spec = DatasetSpec::electricity(3).scaled(0.03, 0.03);
        let data = generate(&spec, 2);
        let sw = build_windows(&data, 4, 0);
        assert_eq!(sw.train[0].y.shape(), &[spec.n, 1]);
        let p = spec.input_len;
        assert_eq!(
            sw.train[0].y.at(&[0, 0]),
            data.values.at(&[0, p + 3 - 1, 0])
        );
    }

    #[test]
    fn cap_limits_each_split() {
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.02);
        let data = generate(&spec, 3);
        let sw = build_windows(&data, 1, 20);
        assert!(sw.train.len() <= 20 && sw.val.len() <= 20 && sw.test.len() <= 20);
        assert!(sw.train.len() == 20);
    }

    #[test]
    fn pseudo_split_halves_training() {
        let (sw, _) = tiny_split();
        let (a, b) = sw.pseudo_split();
        assert_eq!(a.len() + b.len(), sw.train.len());
        assert!((a.len() as i64 - b.len() as i64).abs() <= 1);
    }

    #[test]
    fn inputs_are_standardized() {
        let (sw, _) = tiny_split();
        // target feature of standardized inputs should be O(1)
        let mut acc = 0.0f32;
        let mut cnt = 0.0f32;
        for w in sw.train.iter().take(20) {
            for v in w.x.data() {
                acc += v.abs();
                cnt += 1.0;
            }
        }
        let mean_abs = acc / cnt;
        assert!(mean_abs < 3.0, "inputs not standardized: {mean_abs}");
        // but targets stay in raw scale (speeds ~ tens)
        assert!(sw.train[0].y.max() > 10.0);
    }
}

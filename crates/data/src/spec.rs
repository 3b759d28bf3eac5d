//! Dataset specifications mirroring Table 4 of the paper.

/// Which synthetic generator produces a dataset's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthKind {
    /// Highway travel-speed series (METR-LA, PEMS-BAY).
    TrafficSpeed,
    /// Traffic-flow/volume series (PEMS03/04/07/08).
    TrafficFlow,
    /// PV plant production (Solar-Energy).
    Solar,
    /// Client electricity consumption (Electricity).
    Electricity,
}

/// Forecasting task type (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Predict all of the next `output_len` steps (Eq. 2).
    MultiStep,
    /// Predict only the step `horizon` ahead (Eq. 1).
    SingleStep {
        /// The future offset `Q` (3 or 24 in Table 8).
        horizon: usize,
    },
}

/// A dataset configuration: everything needed to generate, window, and
/// evaluate one benchmark.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: String,
    /// Number of time series / graph nodes (Table 4 column `N`).
    pub n: usize,
    /// Total number of timestamps (Table 4 column `T`).
    pub t: usize,
    /// Input features per timestamp (value + time-of-day encoding).
    pub features: usize,
    /// History window `P`.
    pub input_len: usize,
    /// Forecast window `Q` (multi-step) — see also [`Task`].
    pub output_len: usize,
    /// Train/val/test split ratio.
    pub split: (f32, f32, f32),
    /// Timestamps per synthetic "day" (drives seasonality).
    pub steps_per_day: usize,
    /// Which generator to use.
    pub kind: SynthKind,
    /// Sentinel for missing values in metrics/losses (traffic datasets
    /// mask zeros, following Li et al. / Wu et al.).
    pub null_value: Option<f32>,
    /// Whether a predefined adjacency matrix exists (Table 4: the traffic
    /// datasets have one, Solar-Energy/Electricity do not).
    pub has_graph: bool,
    /// The forecasting task this dataset is evaluated on.
    pub task: Task,
}

impl DatasetSpec {
    fn traffic(name: &str, n: usize, t: usize, kind: SynthKind, split: (f32, f32, f32)) -> Self {
        Self {
            name: name.into(),
            n,
            t,
            features: 2,
            input_len: 12,
            output_len: 12,
            split,
            steps_per_day: 288, // 5-minute sampling
            kind,
            null_value: Some(0.0),
            has_graph: true,
            task: Task::MultiStep,
        }
    }

    /// METR-LA (Table 4: N=207, T=34 272, split 7:1:2, 12→12).
    pub fn metr_la() -> Self {
        Self::traffic(
            "METR-LA",
            207,
            34_272,
            SynthKind::TrafficSpeed,
            (0.7, 0.1, 0.2),
        )
    }

    /// PEMS-BAY (N=325, T=52 116, split 7:1:2, 12→12).
    pub fn pems_bay() -> Self {
        Self::traffic(
            "PEMS-BAY",
            325,
            52_116,
            SynthKind::TrafficSpeed,
            (0.7, 0.1, 0.2),
        )
    }

    /// PEMS03 (N=358, T=26 208, split 6:2:2, 12→12).
    pub fn pems03() -> Self {
        Self::traffic(
            "PEMS03",
            358,
            26_208,
            SynthKind::TrafficFlow,
            (0.6, 0.2, 0.2),
        )
    }

    /// PEMS04 (N=307, T=16 992, split 6:2:2, 12→12).
    pub fn pems04() -> Self {
        Self::traffic(
            "PEMS04",
            307,
            16_992,
            SynthKind::TrafficFlow,
            (0.6, 0.2, 0.2),
        )
    }

    /// PEMS07 (N=883, T=28 224, split 6:2:2, 12→12).
    pub fn pems07() -> Self {
        Self::traffic(
            "PEMS07",
            883,
            28_224,
            SynthKind::TrafficFlow,
            (0.6, 0.2, 0.2),
        )
    }

    /// PEMS08 (N=170, T=17 856, split 6:2:2, 12→12).
    pub fn pems08() -> Self {
        Self::traffic(
            "PEMS08",
            170,
            17_856,
            SynthKind::TrafficFlow,
            (0.6, 0.2, 0.2),
        )
    }

    /// Solar-Energy (N=137, T=52 560, split 6:2:2, 168→1), 10-min sampling.
    pub fn solar_energy(horizon: usize) -> Self {
        Self {
            name: "Solar-Energy".into(),
            n: 137,
            t: 52_560,
            features: 2,
            input_len: 168,
            output_len: 1,
            split: (0.6, 0.2, 0.2),
            steps_per_day: 144,
            kind: SynthKind::Solar,
            null_value: None,
            has_graph: false,
            task: Task::SingleStep { horizon },
        }
    }

    /// Electricity (N=321, T=26 304, split 6:2:2, 168→1), hourly sampling.
    pub fn electricity(horizon: usize) -> Self {
        Self {
            name: "Electricity".into(),
            n: 321,
            t: 26_304,
            features: 2,
            input_len: 168,
            output_len: 1,
            split: (0.6, 0.2, 0.2),
            steps_per_day: 24,
            kind: SynthKind::Electricity,
            null_value: None,
            has_graph: false,
            task: Task::SingleStep { horizon },
        }
    }

    /// All six multi-step presets (Tables 5–6) at full paper size.
    pub fn all_multistep() -> Vec<Self> {
        vec![
            Self::metr_la(),
            Self::pems_bay(),
            Self::pems03(),
            Self::pems04(),
            Self::pems07(),
            Self::pems08(),
        ]
    }

    /// Shrink the dataset for CPU-scale experiments while keeping its
    /// structure: node count and length scale down, windows and splits stay.
    ///
    /// `node_scale`/`time_scale` of 1.0 reproduce the paper sizes. The
    /// synthetic "day" also shrinks (min 24 steps) so seasonality remains
    /// learnable within the shorter history.
    pub fn scaled(&self, node_scale: f32, time_scale: f32) -> Self {
        let mut out = self.clone();
        out.n = ((self.n as f32 * node_scale).round() as usize).max(8);
        out.steps_per_day = ((self.steps_per_day as f32 * time_scale).round() as usize).max(24);
        let min_t = (self.input_len + self.output_len + 64) * 5;
        out.t = ((self.t as f32 * time_scale).round() as usize).max(min_t);
        out
    }

    /// The horizon used for single-step tasks (panics on multi-step).
    pub fn single_step_horizon(&self) -> usize {
        match self.task {
            Task::SingleStep { horizon } => horizon,
            Task::MultiStep => panic!("{} is a multi-step dataset", self.name),
        }
    }

    /// Number of usable windows given the total length.
    pub fn max_windows(&self) -> usize {
        let tail = match self.task {
            Task::MultiStep => self.output_len,
            Task::SingleStep { horizon } => horizon,
        };
        self.t.saturating_sub(self.input_len + tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table4() {
        let m = DatasetSpec::metr_la();
        assert_eq!((m.n, m.t), (207, 34_272));
        assert_eq!(m.split, (0.7, 0.1, 0.2));
        assert_eq!((m.input_len, m.output_len), (12, 12));
        let p7 = DatasetSpec::pems07();
        assert_eq!((p7.n, p7.t), (883, 28_224));
        assert_eq!(p7.split, (0.6, 0.2, 0.2));
        let s = DatasetSpec::solar_energy(24);
        assert_eq!((s.n, s.t), (137, 52_560));
        assert_eq!((s.input_len, s.output_len), (168, 1));
        let e = DatasetSpec::electricity(3);
        assert_eq!((e.n, e.t), (321, 26_304));
    }

    #[test]
    fn scaling_respects_minimums() {
        let s = DatasetSpec::metr_la().scaled(0.05, 0.01);
        assert!(s.n >= 8);
        assert!(s.t >= (12 + 12 + 64) * 5);
        assert!(s.steps_per_day >= 24);
        assert_eq!(s.input_len, 12); // windows unchanged
    }

    #[test]
    fn single_step_horizon_accessor() {
        assert_eq!(DatasetSpec::solar_energy(3).single_step_horizon(), 3);
    }

    #[test]
    #[should_panic]
    fn horizon_on_multistep_panics() {
        DatasetSpec::metr_la().single_step_horizon();
    }

    #[test]
    fn max_windows_counts() {
        let mut s = DatasetSpec::metr_la();
        s.t = 100;
        assert_eq!(s.max_windows(), 100 - 24);
    }

    #[test]
    fn traffic_masks_zeros_energy_does_not() {
        assert_eq!(DatasetSpec::pems03().null_value, Some(0.0));
        assert_eq!(DatasetSpec::electricity(3).null_value, None);
    }
}

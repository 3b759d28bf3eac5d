//! LSTNet (Lai et al. 2018): CNN + GRU + autoregressive highway.
//!
//! Treats the `N` series as channels of one multivariate sequence — no
//! explicit spatial modelling, which is exactly why the paper's Table 8
//! expects it to lose to MTGNN/AutoCTS. The recurrent-skip component of
//! the original is folded into the highway (noted in DESIGN.md).

use crate::common::{BaselineConfig, OutputScale};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Gru, Linear, TemporalConvLayer};
use rand::{rngs::SmallRng, SeedableRng};

/// LSTNet with a `hw`-step autoregressive highway.
pub struct LstNet {
    conv: TemporalConvLayer,
    gru: Gru,
    out: Linear,
    highway: Linear,
    scale: OutputScale,
    n: usize,
    q: usize,
    hw: usize,
    hidden: usize,
}

impl LstNet {
    /// Build for a dataset.
    pub fn new(
        cfg: &BaselineConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let n = graph.n();
        let c = cfg.hidden;
        let q = crate::common::q_out(spec);
        let hw = spec.input_len.min(8);
        Self {
            conv: TemporalConvLayer::new(&mut rng, "lstnet.conv", 4, n, c, 1, true),
            gru: Gru::new(&mut rng, "lstnet.gru", c, c),
            out: Linear::new(&mut rng, "lstnet.out", c, n * q, true),
            highway: Linear::new(&mut rng, "lstnet.hw", hw, q, true),
            scale: OutputScale::new(scaler),
            n,
            q,
            hw,
            hidden: c,
        }
    }

    /// Extract `[B, P, N]` (feature 0, nodes as channels).
    fn series(&self, x: &Var) -> Var {
        let s = x.shape(); // [B,N,P,F]
        x.slice(3, 0, 1)
            .reshape(&[s[0], s[1], s[2]])
            .permute(&[0, 2, 1])
    }
}

impl Forecaster for LstNet {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let series = self.series(x); // [B,P,N]
        let s = series.shape();
        let (b, p) = (s[0], s[1]);
        // CNN over time with nodes as input channels
        let conv_in = series.reshape(&[b, 1, p, self.n]);
        let conv_out = self
            .conv
            .forward(tape, &conv_in)
            .relu()
            .reshape(&[b, p, self.hidden]);
        // GRU over the convolved sequence
        let h_last = self.gru.forward_last(tape, &conv_out); // [B,C]
        let nn_out = self
            .out
            .forward(tape, &h_last)
            .reshape(&[b, self.n, self.q]);
        // autoregressive highway on the raw last hw steps
        let recent = series
            .slice(1, p - self.hw, p) // [B,hw,N]
            .permute(&[0, 2, 1]); // [B,N,hw]
        let ar = self.highway.forward(tape, &recent); // [B,N,Q]
        self.scale.apply(&nn_out).add(&ar)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.conv.parameters();
        v.extend(self.gru.parameters());
        v.extend(self.out.parameters());
        v.extend(self.highway.parameters());
        v
    }

    fn name(&self) -> &str {
        "LSTNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn lstnet_single_step_shape_and_training_signal() {
        let spec = DatasetSpec::electricity(3).scaled(0.03, 0.02);
        let data = generate(&spec, 0);
        let windows = build_windows(&data, 24, 6);
        let model = LstNet::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![2, spec.n, 1]);
        let loss = cts_nn::mse_loss(&tape, &y, &batches[0].1);
        tape.backward(&loss);
        let live = model
            .parameters()
            .iter()
            .filter(|p| p.grad().norm() > 0.0)
            .count();
        assert!(live >= 4, "only {live} parameters got gradients");
    }

    #[test]
    fn highway_sees_recent_history() {
        // the AR path alone makes outputs react to the last input step
        let spec = DatasetSpec::electricity(3).scaled(0.03, 0.02);
        let data = generate(&spec, 1);
        let windows = build_windows(&data, 24, 6);
        let model = LstNet::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 1);
        let tape = Tape::new();
        let mut x = batches[0].0.clone();
        let y0 = model.forward(&tape, &tape.constant(x.clone())).value();
        let p = spec.input_len;
        *x.at_mut(&[0, 0, p - 1, 0]) += 10.0;
        let y1 = model.forward(&tape, &tape.constant(x)).value();
        assert_ne!(y0.at(&[0, 0, 0]), y1.at(&[0, 0, 0]));
    }
}

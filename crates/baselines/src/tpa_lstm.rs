//! TPA-LSTM (Shih et al. 2019): an LSTM over the multivariate series with
//! temporal pattern attention over its hidden-state history.

use crate::common::{BaselineConfig, OutputScale};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear, Lstm};
use rand::{rngs::SmallRng, SeedableRng};

/// TPA-LSTM with bilinear attention scores and a sigmoid gating of
/// attended hidden rows (as in the original).
pub struct TpaLstm {
    embed: Linear, // N -> C per step
    lstm: Lstm,
    attn_w: Linear,    // C -> C (bilinear score)
    combine_h: Linear, // C -> C
    combine_c: Linear, // C -> C
    out: Linear,       // C -> N*Q
    scale: OutputScale,
    n: usize,
    q: usize,
    hidden: usize,
}

impl TpaLstm {
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
        Self {
            embed: Linear::new(&mut rng, "tpa.embed", n, c, true),
            lstm: Lstm::new(&mut rng, "tpa.lstm", c, c),
            attn_w: Linear::new(&mut rng, "tpa.attn", c, c, false),
            combine_h: Linear::new(&mut rng, "tpa.ch", c, c, false),
            combine_c: Linear::new(&mut rng, "tpa.cc", c, c, false),
            out: Linear::new(&mut rng, "tpa.out", c, n * q, true),
            scale: OutputScale::new(scaler),
            n,
            q,
            hidden: c,
        }
    }
}

impl Forecaster for TpaLstm {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let s = x.shape(); // [B,N,P,F]
        let (b, p) = (s[0], s[2]);
        let series = x
            .slice(3, 0, 1)
            .reshape(&[b, self.n, p])
            .permute(&[0, 2, 1]); // [B,P,N]
        let z = self.embed.forward(tape, &series); // [B,P,C]
        let hs = self.lstm.forward_sequence(tape, &z); // [B,P,C]
        let h_last = hs.slice(1, p - 1, p); // [B,1,C]
                                            // bilinear attention: score_t = H_t · (W h_last)
        let key = self.attn_w.forward(tape, &h_last).permute(&[0, 2, 1]); // [B,C,1]
        let scores = hs.matmul(&key); // [B,P,1]
        let weights = scores.sigmoid(); // original TPA uses sigmoid gates
        let context = hs.permute(&[0, 2, 1]).matmul(&weights); // [B,C,1]
        let context = context.reshape(&[b, self.hidden]);
        let h_last_flat = h_last.reshape(&[b, self.hidden]);
        let combined = self
            .combine_c
            .forward(tape, &context)
            .add(&self.combine_h.forward(tape, &h_last_flat));
        let out = self
            .out
            .forward(tape, &combined)
            .reshape(&[b, self.n, self.q]);
        self.scale.apply(&out)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        v.extend(self.lstm.parameters());
        v.extend(self.attn_w.parameters());
        v.extend(self.combine_h.parameters());
        v.extend(self.combine_c.parameters());
        v.extend(self.out.parameters());
        v
    }

    fn name(&self) -> &str {
        "TPA-LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn tpa_forward_shape_and_grads() {
        let spec = DatasetSpec::solar_energy(3).scaled(0.05, 0.005);
        let data = generate(&spec, 0);
        let windows = build_windows(&data, 32, 4);
        let model = TpaLstm::new(
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
        assert!(
            model.attn_w.parameters()[0].grad().norm() > 0.0,
            "attention unused"
        );
    }
}

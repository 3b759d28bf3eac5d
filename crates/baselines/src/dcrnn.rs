//! DCRNN: diffusion convolutional recurrent neural network (Li et al.
//! 2018). Two stacked DCGRU layers sweep the window; the output head reads
//! the full hidden sequence (a direct multi-horizon decoder substitutes
//! for the original recurrent decoder, noted in DESIGN.md).

use crate::blocks::{DcrnnBlock, HumanStBlock};
use crate::common::{baseline_context, BaselineConfig, OutputHead};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::GraphContext;
use rand::{rngs::SmallRng, SeedableRng};

/// Encoder-style DCRNN with a direct multi-step head.
pub struct Dcrnn {
    embed: Linear,
    layers: Vec<DcrnnBlock>,
    head: OutputHead,
    ctx: GraphContext,
}

impl Dcrnn {
    /// Build for a dataset.
    pub fn new(
        cfg: &BaselineConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        Self {
            embed: Linear::new(&mut rng, "dcrnn.embed", spec.features, d, true),
            layers: (0..2)
                .map(|i| DcrnnBlock::new(&mut rng, &format!("dcrnn.l{i}"), d))
                .collect(),
            head: OutputHead::new(&mut rng, spec, scaler, d),
            ctx: baseline_context(&mut rng, cfg, graph, false),
        }
    }
}

impl Forecaster for Dcrnn {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let mut h = self.embed.forward(tape, x);
        for layer in &self.layers {
            h = layer.forward(tape, &h, &self.ctx);
        }
        self.head.forward(tape, &h)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        for l in &self.layers {
            v.extend(l.parameters());
        }
        v.extend(self.head.parameters());
        v.extend(self.ctx.parameters());
        v
    }

    fn name(&self) -> &str {
        "DCRNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn dcrnn_forward_shape() {
        let spec = DatasetSpec::pems08().scaled(0.05, 0.02);
        let data = generate(&spec, 1);
        let windows = build_windows(&data, 8, 6);
        let model = Dcrnn::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);
    }
}

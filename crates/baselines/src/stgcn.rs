//! STGCN: spatio-temporal graph convolutional network (Yu et al. 2018).

use crate::blocks::{HumanStBlock, StgcnBlock};
use crate::common::{baseline_context, BaselineConfig, OutputHead};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::GraphContext;
use rand::{rngs::SmallRng, SeedableRng};

/// Two stacked "sandwich" ST-blocks (TCN → Cheb-GCN → TCN) and an output
/// head — the architecture of Figure 3.
pub struct Stgcn {
    embed: Linear,
    blocks: Vec<StgcnBlock>,
    head: OutputHead,
    ctx: GraphContext,
}

impl Stgcn {
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
            embed: Linear::new(&mut rng, "stgcn.embed", spec.features, d, true),
            blocks: (0..2)
                .map(|i| StgcnBlock::new(&mut rng, &format!("stgcn.b{i}"), d))
                .collect(),
            head: OutputHead::new(&mut rng, spec, scaler, d),
            ctx: baseline_context(&mut rng, cfg, graph, false),
        }
    }
}

impl Forecaster for Stgcn {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let mut h = self.embed.forward(tape, x);
        for block in &self.blocks {
            h = block.forward(tape, &h, &self.ctx);
        }
        self.head.forward(tape, &h)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        for b in &self.blocks {
            v.extend(b.parameters());
        }
        v.extend(self.head.parameters());
        v.extend(self.ctx.parameters());
        v
    }

    fn name(&self) -> &str {
        "STGCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn stgcn_forward_and_gradients() {
        let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
        let data = generate(&spec, 0);
        let windows = build_windows(&data, 8, 8);
        let model = Stgcn::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        let y = model.forward(&tape, &x);
        assert_eq!(y.shape()[2], spec.output_len);
        let loss = cts_nn::masked_mae_loss(&tape, &y, &batches[0].1, Some(0.0));
        tape.backward(&loss);
        assert!(model.parameters().iter().any(|p| p.grad().norm() > 0.0));
    }
}

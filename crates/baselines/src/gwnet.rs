//! Graph WaveNet (Wu et al. 2019): stacked GDCC + diffusion-GCN blocks
//! with growing dilations, adaptive adjacency, and skip connections.

use crate::blocks::{GwnetBlock, HumanStBlock};
use crate::common::{baseline_context, BaselineConfig, OutputHead};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::GraphContext;
use rand::{rngs::SmallRng, SeedableRng};

/// Four blocks with dilations 1, 2, 1, 2, skip-summed into the head.
pub struct GraphWaveNet {
    embed: Linear,
    blocks: Vec<GwnetBlock>,
    head: OutputHead,
    ctx: GraphContext,
}

impl GraphWaveNet {
    /// Build for a dataset (adaptive adjacency always on, as in the
    /// original's best configuration).
    pub fn new(
        cfg: &BaselineConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        Self {
            embed: Linear::new(&mut rng, "gwnet.embed", spec.features, d, true),
            blocks: [1usize, 2, 1, 2]
                .iter()
                .enumerate()
                .map(|(i, &dil)| GwnetBlock::new(&mut rng, &format!("gwnet.b{i}"), d, dil))
                .collect(),
            head: OutputHead::new(&mut rng, spec, scaler, d),
            ctx: baseline_context(&mut rng, cfg, graph, true),
        }
    }
}

impl Forecaster for GraphWaveNet {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let mut h = self.embed.forward(tape, x);
        let mut skip: Option<Var> = None;
        for block in &self.blocks {
            h = block.forward(tape, &h, &self.ctx);
            skip = Some(match skip {
                Some(s) => s.add(&h),
                None => h.clone(),
            });
        }
        // invariant: the model has at least one block, so `skip` was set in the loop.
        self.head.forward(tape, &skip.expect("at least one block"))
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
        "Graph WaveNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn gwnet_uses_growing_dilations() {
        let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
        let data = generate(&spec, 2);
        let windows = build_windows(&data, 8, 6);
        let model = GraphWaveNet::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        assert_eq!(
            model
                .blocks
                .iter()
                .map(GwnetBlock::dilation)
                .collect::<Vec<_>>(),
            vec![1, 2, 1, 2]
        );
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);
    }
}

//! MTGNN (Wu et al. 2020): GDCC temporal convolutions with learned-graph
//! mix-hop propagation — the strongest human baseline in Tables 5/6/8.

use crate::blocks::{HumanStBlock, MtgnnBlock};
use crate::common::{BaselineConfig, OutputHead};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::GraphContext;
use rand::{rngs::SmallRng, SeedableRng};

/// Three MTGNN blocks with skip connections into the shared head.
pub struct Mtgnn {
    embed: Linear,
    blocks: Vec<MtgnnBlock>,
    head: OutputHead,
    ctx: GraphContext,
}

impl Mtgnn {
    /// Build for a dataset (graph learning is internal to each block, so
    /// the predefined adjacency is optional — matching the original).
    pub fn new(
        cfg: &BaselineConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        Self {
            embed: Linear::new(&mut rng, "mtgnn.embed", spec.features, d, true),
            blocks: (0..3)
                .map(|i| {
                    MtgnnBlock::new(
                        &mut rng,
                        &format!("mtgnn.b{i}"),
                        d,
                        graph.n(),
                        cfg.adaptive_emb,
                    )
                })
                .collect(),
            head: OutputHead::new(&mut rng, spec, scaler, d),
            ctx: GraphContext::from_graph(graph, cfg.k),
        }
    }
}

impl Forecaster for Mtgnn {
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
        self.head.forward(tape, &skip.expect("blocks non-empty"))
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        for b in &self.blocks {
            v.extend(b.parameters());
        }
        v.extend(self.head.parameters());
        v
    }

    fn name(&self) -> &str {
        "MTGNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{batches_from_windows, build_windows, generate};

    #[test]
    fn mtgnn_multistep_and_singlestep() {
        // multi-step traffic
        let spec = DatasetSpec::pems03().scaled(0.03, 0.02);
        let data = generate(&spec, 4);
        let windows = build_windows(&data, 8, 6);
        let model = Mtgnn::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 2);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);

        // single-step energy (no predefined graph)
        let spec = DatasetSpec::solar_energy(3).scaled(0.05, 0.005);
        let data = generate(&spec, 5);
        let windows = build_windows(&data, 16, 4);
        let model = Mtgnn::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = batches_from_windows(&windows.train, 1);
        let tape = Tape::new();
        let y = model.forward(&tape, &tape.constant(batches[0].0.clone()));
        assert_eq!(y.shape(), vec![1, spec.n, 1]);
    }
}

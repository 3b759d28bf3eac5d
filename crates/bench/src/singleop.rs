//! Single-operator probe models for the variant pre-study (Table 3) and
//! the T-operator family comparison (Figure 6).

use crate::{ExpContext, Prepared};
use autocts::eval::{train_and_evaluate, EvalReport};
use cts_autograd::{Parameter, Tape, Var};
use cts_nn::{Forecaster, Linear, LossKind, TrainConfig};
use cts_ops::{build_operator, GraphContext, OpKind, StOperator};
use rand::{rngs::SmallRng, SeedableRng};

/// Embedding → two stacked instances of one operator (with residuals) →
/// output head: isolates a single operator's contribution so variants can
/// be compared head-to-head in an identical scaffold.
pub struct SingleOpModel {
    embed: Linear,
    ops: Vec<Box<dyn StOperator>>,
    output: Linear,
    ctx: GraphContext,
    input_len: usize,
    d: usize,
    out_scale: f32,
    out_shift: f32,
    label: String,
}

impl SingleOpModel {
    /// Build a probe for `kind`.
    pub fn new(kind: OpKind, ctx_exp: &ExpContext, p: &Prepared) -> Self {
        let mut rng = SmallRng::seed_from_u64(ctx_exp.seed ^ kind.label().len() as u64);
        let d = ctx_exp.d_model;
        let spec = &p.spec;
        let q = match spec.task {
            cts_data::Task::MultiStep => spec.output_len,
            cts_data::Task::SingleStep { .. } => 1,
        };
        let graph_ctx = {
            let c = GraphContext::from_graph(&p.data.graph, 2);
            if c.has_spatial_signal() {
                c
            } else {
                GraphContext::from_graph(&p.data.graph, 2).with_adaptive(&mut rng, 8)
            }
        };
        Self {
            embed: Linear::new(&mut rng, "so.embed", spec.features, d, true),
            ops: (0..2)
                .map(|i| {
                    build_operator(
                        &mut rng,
                        kind,
                        &format!("so.{i}"),
                        d,
                        2,
                        graph_ctx.has_adaptive(),
                    )
                })
                .collect(),
            output: Linear::new(&mut rng, "so.out", spec.input_len * d, q, true),
            ctx: graph_ctx,
            input_len: spec.input_len,
            d,
            out_scale: p.windows.scaler.target_std(),
            out_shift: p.windows.scaler.target_mean(),
            label: kind.label().to_string(),
        }
    }
}

impl Forecaster for SingleOpModel {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let mut h = self.embed.forward(tape, x);
        for op in &self.ops {
            h = op.forward(tape, &h, &self.ctx).add(&h);
        }
        let s = h.shape();
        let flat = h.relu().reshape(&[s[0], s[1], self.input_len * self.d]);
        self.output
            .forward(tape, &flat)
            .scale(self.out_scale)
            .add_scalar(self.out_shift)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        for op in &self.ops {
            v.extend(op.parameters());
        }
        v.extend(self.output.parameters());
        v.extend(self.ctx.parameters());
        v
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Train a single-operator probe and report test metrics.
pub fn train_single_op_model(kind: OpKind, ctx: &ExpContext, p: &Prepared) -> EvalReport {
    let model = SingleOpModel::new(kind, ctx, p);
    let cfg = TrainConfig {
        epochs: ctx.baseline_epochs,
        lr: 1e-3,
        weight_decay: 1e-4,
        clip: 5.0,
        loss: LossKind::MaskedMae {
            null_value: p.spec.null_value,
        },
        patience: 0,
        ..TrainConfig::default()
    };
    train_and_evaluate(&model, &p.spec, &p.windows, &cfg, ctx.batch)
        .unwrap_or_else(|e| panic!("single-op probe training failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;
    use cts_data::DatasetSpec;

    #[test]
    fn probe_runs_for_spatial_and_temporal_ops() {
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        for kind in [OpKind::Dgcn, OpKind::Gdcc] {
            let report = train_single_op_model(kind, &ctx, &p);
            assert!(report.overall.mae.is_finite());
            assert!(report.parameters > 0);
        }
    }
}

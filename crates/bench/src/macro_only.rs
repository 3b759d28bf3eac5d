//! The *macro only* ablation (§4.2.3): human-designed ST-blocks as atomic
//! units, searching only the backbone topology `γ`.

use crate::{ExpContext, Prepared};
use autocts::eval::{evaluate_model, inference_ms_per_window, EvalReport};
use autocts::MacroTopology;
use cts_autograd::{Parameter, Tape, Var};
use cts_baselines::blocks::{macro_only_blocks, HumanStBlock};
use cts_data::{batches_from_windows, shuffle_windows};
use cts_nn::{clip_grad_norm, Adam, Forecaster, Linear, LossKind, Optimizer, TrainConfig};
use cts_ops::GraphContext;
use rand::{rngs::SmallRng, SeedableRng};

/// Embedding → {STGCN, DCRNN, GWNet, MTGNN} blocks wired by a learnable
/// macro topology → output head.
pub struct MacroOnlyModel {
    embed: Linear,
    blocks: Vec<Box<dyn HumanStBlock>>,
    topology: MacroTopology,
    output: Linear,
    ctx: GraphContext,
    input_len: usize,
    d: usize,
    out_scale: f32,
    out_shift: f32,
}

impl MacroOnlyModel {
    /// Build the macro-only supernet for a prepared dataset.
    pub fn new(ctx_exp: &ExpContext, p: &Prepared) -> Self {
        let mut rng = SmallRng::seed_from_u64(ctx_exp.seed);
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
        let blocks = macro_only_blocks(&mut rng, d, p.data.graph.n(), 8);
        let topology = MacroTopology::new(&mut rng, "macro", blocks.len());
        Self {
            embed: Linear::new(&mut rng, "mo.embed", spec.features, d, true),
            blocks,
            topology,
            output: Linear::new(&mut rng, "mo.out", spec.input_len * d, q, true),
            ctx: graph_ctx,
            input_len: spec.input_len,
            d,
            out_scale: p.windows.scaler.target_std(),
            out_shift: p.windows.scaler.target_mean(),
        }
    }

    /// Architecture parameters (γ only — the blocks are fixed designs).
    pub fn arch_parameters(&self) -> Vec<Parameter> {
        self.topology.parameters()
    }

    /// Network weights.
    pub fn weight_parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        for b in &self.blocks {
            v.extend(b.parameters());
        }
        v.extend(self.output.parameters());
        v.extend(self.ctx.parameters());
        v
    }

    /// Names of the block inventory.
    pub fn block_names(&self) -> Vec<&'static str> {
        self.blocks.iter().map(|b| b.name()).collect()
    }

    /// The derived backbone (argmax γ per block).
    pub fn derived_backbone(&self) -> Vec<usize> {
        self.topology.derive()
    }
}

impl Forecaster for MacroOnlyModel {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let z = self.embed.forward(tape, x);
        let mut sources = vec![z];
        let mut outs = Vec::with_capacity(self.blocks.len());
        for (j, block) in self.blocks.iter().enumerate() {
            let input = self.topology.mix_input(tape, &sources, j + 1);
            let out = block.forward(tape, &input, &self.ctx).add(&input);
            sources.push(out.clone());
            outs.push(out);
        }
        let mut merged = outs[0].clone();
        for o in &outs[1..] {
            merged = merged.add(o);
        }
        let s = merged.shape();
        let flat = merged
            .relu()
            .reshape(&[s[0], s[1], self.input_len * self.d]);
        self.output
            .forward(tape, &flat)
            .scale(self.out_scale)
            .add_scalar(self.out_shift)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.weight_parameters();
        v.extend(self.arch_parameters());
        v
    }

    fn name(&self) -> &str {
        "macro only"
    }
}

/// Bi-level search over γ (same alternating scheme as Algorithm 1), then
/// retrain the whole model and evaluate.
pub fn macro_only_search_and_eval(ctx: &ExpContext, p: &Prepared) -> (EvalReport, f64) {
    let started = std::time::Instant::now();
    let model = MacroOnlyModel::new(ctx, p);
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xabcd);
    let (mut pseudo_train, mut pseudo_val) = p.windows.pseudo_split();
    let mut arch_opt = Adam::for_architecture(model.arch_parameters(), 3e-4, 1e-3);
    let mut weight_opt = Adam::new(model.weight_parameters(), 1e-3, 1e-4);
    let loss_kind = LossKind::MaskedMae {
        null_value: p.spec.null_value,
    };
    for _ in 0..ctx.search_epochs {
        shuffle_windows(&mut rng, &mut pseudo_train);
        shuffle_windows(&mut rng, &mut pseudo_val);
        let tb = batches_from_windows(&pseudo_train, ctx.batch);
        let vb = batches_from_windows(&pseudo_val, ctx.batch);
        for (step, (x_tr, y_tr)) in tb.iter().enumerate() {
            let (x_va, y_va) = &vb[step % vb.len()];
            let tape = Tape::new();
            let pred = model.forward(&tape, &tape.constant(x_va.clone()));
            let loss = loss_kind.compute(&tape, &pred, y_va);
            tape.backward_for(&loss, arch_opt.params());
            arch_opt.step();
            let tape = Tape::new();
            let pred = model.forward(&tape, &tape.constant(x_tr.clone()));
            let loss = loss_kind.compute(&tape, &pred, y_tr);
            tape.backward_for(&loss, weight_opt.params());
            clip_grad_norm(weight_opt.params(), 5.0);
            weight_opt.step();
        }
    }
    let search_secs = started.elapsed().as_secs_f64();

    // Evaluation stage: retrain a fresh macro-only model with the topology
    // frozen to the derived argmax (approximated by continuing training of
    // the weights with γ fixed — the search space has only B! topologies,
    // so the gap is small).
    let eval_model = MacroOnlyModel::new(ctx, p);
    for (gp, val) in eval_model
        .arch_parameters()
        .iter()
        .zip(model.arch_parameters().iter())
    {
        gp.set_value(val.value().clone());
    }
    let cfg = TrainConfig {
        epochs: ctx.eval_epochs,
        lr: 1e-3,
        weight_decay: 1e-4,
        clip: 5.0,
        loss: loss_kind,
        patience: 0,
        ..TrainConfig::default()
    };
    let merged = p.windows.train_and_val();
    let train_batches = batches_from_windows(&merged, ctx.batch);
    let test_batches = batches_from_windows(&p.windows.test, ctx.batch);
    cts_nn::train_full(&eval_model, &train_batches, None, &cfg)
        .unwrap_or_else(|e| panic!("macro-only retraining failed: {e}"));
    let (overall, horizons) = evaluate_model(&eval_model, &test_batches, p.spec.null_value);
    let report = EvalReport {
        overall,
        horizons,
        train_secs_per_epoch: 0.0,
        inference_ms_per_window: inference_ms_per_window(&eval_model, &test_batches),
        parameters: cts_nn::count_parameters(&eval_model.parameters()),
    };
    (report, search_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;
    use cts_data::DatasetSpec;

    #[test]
    fn macro_only_has_four_human_blocks() {
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        let m = MacroOnlyModel::new(&ctx, &p);
        assert_eq!(
            m.block_names(),
            vec!["STGCN-block", "DCRNN-block", "GWNet-block", "MTGNN-block"]
        );
        assert_eq!(m.arch_parameters().len(), 4);
    }

    #[test]
    fn macro_only_smoke_search() {
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        let (report, secs) = macro_only_search_and_eval(&ctx, &p);
        assert!(report.overall.mae.is_finite() && report.overall.mae > 0.0);
        assert!(secs > 0.0);
    }
}

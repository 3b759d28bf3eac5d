//! The supernet forecasting model (search stage) and the derived
//! forecasting model (architecture-evaluation stage).
//!
//! Both share the three-part structure of Figure 2: embedding layer →
//! ST-backbone → output layer. The output layer reads the sum of all block
//! outputs (the hard-coded skip connections of §3.3) and maps the flattened
//! `[T·D]` features of each node to the `Q` forecast steps, then applies
//! the dataset scaler's inverse affine so predictions live in the data's
//! original units.

use crate::{BlockGenotype, Genotype, MacroTopology, MicroCell, SearchConfig};
use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler, Task};
use cts_graph::SensorGraph;
use cts_nn::{Forecaster, Linear};
use cts_ops::{build_operator, GraphContext, StOperator};
use cts_runtime::{BlockPlan, ExecPlan, PlanError, PlanSpec};
use cts_tensor::Tensor;
use rand::Rng;
use std::cell::Cell;
use std::rc::Rc;

/// Output horizon for a task.
fn q_out(spec: &DatasetSpec) -> usize {
    match spec.task {
        Task::MultiStep => spec.output_len,
        Task::SingleStep { .. } => 1,
    }
}

fn make_context(cfg: &SearchConfig, rng: &mut impl Rng, graph: &SensorGraph) -> GraphContext {
    let ctx = GraphContext::from_graph(graph, cfg.gcn_k);
    if ctx.has_spatial_signal() {
        ctx
    } else {
        // No predefined adjacency (Solar-Energy / Electricity): learn one.
        ctx.with_adaptive(rng, cfg.adaptive_emb)
    }
}

/// Shared embedding/output scaffolding. The layers and graph context are
/// reference-counted so a derived model's [`ExecPlan`] can share them and
/// read their weights in place.
struct Scaffold {
    embed: Rc<Linear>,
    output: Rc<Linear>,
    ctx: Rc<GraphContext>,
    out_scale: f32,
    out_shift: f32,
    input_len: usize,
    d_model: usize,
}

impl Scaffold {
    fn new(
        rng: &mut impl Rng,
        cfg: &SearchConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        Self {
            embed: Rc::new(Linear::new(rng, "embed", spec.features, cfg.d_model, true)),
            output: Rc::new(Linear::new(
                rng,
                "output",
                spec.input_len * cfg.d_model,
                q_out(spec),
                true,
            )),
            ctx: Rc::new(make_context(cfg, rng, graph)),
            out_scale: scaler.target_std(),
            out_shift: scaler.target_mean(),
            input_len: spec.input_len,
            d_model: cfg.d_model,
        }
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.embed.parameters();
        v.extend(self.output.parameters());
        v.extend(self.ctx.parameters());
        v
    }
}

/// The continuous-relaxation supernet of Algorithm 1.
pub struct SupernetModel {
    cfg: SearchConfig,
    scaffold: Scaffold,
    cells: Vec<MicroCell>,
    topology: Option<MacroTopology>,
    tau: Cell<f32>,
}

impl SupernetModel {
    /// Assemble the supernet for a dataset.
    pub fn new(
        rng: &mut impl Rng,
        cfg: &SearchConfig,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        cfg.validate();
        let scaffold = Scaffold::new(rng, cfg, spec, graph, scaler);
        let adaptive = scaffold.ctx.has_adaptive();
        // w/o macro search: one shared cell, fixed chain topology (§4.2.3).
        let num_cells = if cfg.macro_search { cfg.b } else { 1 };
        let cells = (0..num_cells)
            .map(|i| MicroCell::new(rng, &format!("cell{i}"), cfg, adaptive))
            .collect();
        let topology = cfg
            .macro_search
            .then(|| MacroTopology::new(rng, "topo", cfg.b));
        Self {
            cfg: cfg.clone(),
            scaffold,
            cells,
            topology,
            tau: Cell::new(cfg.tau_init),
        }
    }

    /// Current softmax temperature τ.
    pub fn tau(&self) -> f32 {
        self.tau.get()
    }

    /// The τ the α softmaxes run at: the current temperature, or 1 when
    /// the search runs without one.
    fn softmax_tau(&self) -> f32 {
        if self.cfg.use_temperature {
            self.tau.get()
        } else {
            1.0
        }
    }

    /// Update τ (driven by the search loop's schedule).
    ///
    /// τ ≤ 0 or non-finite would silently poison every α-softmax deep in
    /// the forward pass (NaN mixture weights), so it is rejected here with
    /// the same contract as [`cts_nn::TemperatureSchedule::new`].
    pub fn set_tau(&self, tau: f32) {
        assert!(
            tau.is_finite() && tau > 0.0,
            "SupernetModel::set_tau: temperature must be a positive finite \
             number, got {tau}"
        );
        self.tau.set(tau);
    }

    /// The graph context (shared supports / adaptive adjacency).
    pub fn context(&self) -> &GraphContext {
        &self.scaffold.ctx
    }

    /// Architecture parameters `Θ = ({αᵢ, βᵢ}, γ)`.
    pub fn arch_parameters(&self) -> Vec<Parameter> {
        let mut v: Vec<Parameter> = self
            .cells
            .iter()
            .flat_map(MicroCell::arch_parameters)
            .collect();
        if let Some(t) = &self.topology {
            v.extend(t.parameters());
        }
        v
    }

    /// Network weights `w` (operators, embedding, output, adaptive graph).
    pub fn weight_parameters(&self) -> Vec<Parameter> {
        let mut v: Vec<Parameter> = self
            .cells
            .iter()
            .flat_map(MicroCell::weight_parameters)
            .collect();
        v.extend(self.scaffold.parameters());
        v
    }

    /// Derive the discrete genotype (Eq. 7 + 2-edge rule + argmax γ).
    ///
    /// # Errors
    /// [`crate::DeriveError`] when the architecture snapshot contains
    /// non-finite weights (a diverged search).
    pub fn derive(&self) -> Result<Genotype, crate::DeriveError> {
        crate::derive::derive_genotype(self)
    }

    /// Mean α entropy across cells at the current temperature — the
    /// discretisation-gap diagnostic of §3.2.2.
    pub fn mean_alpha_entropy(&self) -> f32 {
        let tau = self.softmax_tau();
        let total: f32 = self.cells.iter().map(|c| c.alpha_entropy(tau)).sum();
        total / self.cells.len() as f32
    }

    /// Differentiable expected operator cost of the whole backbone (sum of
    /// the cells' expected costs), for efficiency-aware search.
    pub fn expected_cost(&self, tape: &Tape) -> Var {
        let tau = self.softmax_tau();
        let mut acc: Option<Var> = None;
        for cell in &self.cells {
            let c = cell.expected_cost(tape, tau);
            acc = Some(match acc {
                Some(a) => a.add(&c),
                None => c,
            });
        }
        // invariant: b >= 1, so at least one cell contributed to the sum.
        acc.expect("at least one cell")
    }

    pub(crate) fn cells(&self) -> &[MicroCell] {
        &self.cells
    }

    pub(crate) fn topology(&self) -> Option<&MacroTopology> {
        self.topology.as_ref()
    }

    pub(crate) fn config(&self) -> &SearchConfig {
        &self.cfg
    }
}

impl Forecaster for SupernetModel {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let tau = self.softmax_tau();
        let sc = &self.scaffold;
        let z = sc.embed.forward(tape, x);
        let mut sources = vec![z.clone()];
        let mut block_outputs: Vec<Var> = Vec::with_capacity(self.cfg.b);
        for j in 1..=self.cfg.b {
            let input = match &self.topology {
                Some(t) => t.mix_input(tape, &sources, j),
                // invariant: `sources` always starts with the embedding output.
                None => sources.last().expect("embedding present").clone(),
            };
            // shared cell when macro search is disabled
            let cell = if self.cfg.macro_search {
                &self.cells[j - 1]
            } else {
                &self.cells[0]
            };
            let out = cell.forward(tape, &input, &sc.ctx, tau).add(&input); // block-level residual
            sources.push(out.clone());
            block_outputs.push(out);
        }
        let mut merged = block_outputs[0].clone();
        for out in &block_outputs[1..] {
            merged = merged.add(out);
        }
        let flat_width = sc.input_len * sc.d_model;
        cts_runtime::project(
            tape,
            &sc.output,
            &merged,
            flat_width,
            sc.out_scale,
            sc.out_shift,
        )
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.weight_parameters();
        v.extend(self.arch_parameters());
        v
    }

    fn name(&self) -> &str {
        "AutoCTS-supernet"
    }
}

/// Instantiate one [`BlockGenotype`]'s operators, drawing from `rng` in
/// genotype edge order.
fn block_plan(
    rng: &mut impl Rng,
    name: &str,
    genotype: &BlockGenotype,
    d: usize,
    gcn_k: usize,
    adaptive: bool,
) -> BlockPlan {
    let edges = genotype
        .edges
        .iter()
        .enumerate()
        .map(|(idx, (from, to, kind))| {
            let label = format!("{name}.e{idx}.{}", kind.label());
            let op: Rc<dyn StOperator> =
                Rc::from(build_operator(rng, *kind, &label, d, gcn_k, adaptive));
            (*from, *to, op)
        })
        .collect();
    BlockPlan {
        m: genotype.m,
        edges,
    }
}

/// The discrete forecasting model retrained from scratch in the
/// architecture-evaluation stage (§3.4).
///
/// Its one forward is the compiled [`ExecPlan`]'s walk: the tape forward
/// that trains it runs the plan on the `Tape` backend, and
/// `forward_inference` runs the same plan on `Eval`. The plan shares the
/// model's layers and operators and reads their weights in place, so
/// retraining updates flow through without recompiling.
pub struct DerivedModel {
    scaffold: Scaffold,
    /// Every block's operators in genotype edge order: the order of
    /// `parameters()`, which gradient clipping and checkpoints follow.
    ops: Vec<Rc<dyn StOperator>>,
    genotype: Genotype,
    plan: Rc<ExecPlan>,
}

impl DerivedModel {
    /// Instantiate a genotype with fresh weights (full channel width —
    /// partial channels are a search-time memory trick only).
    ///
    /// # Panics
    /// When `genotype` fails [`Genotype::validate`].
    pub fn new(
        rng: &mut impl Rng,
        cfg: &SearchConfig,
        genotype: &Genotype,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        scaler: &Scaler,
    ) -> Self {
        // invariant: documented panic — the constructor requires a validated genotype.
        genotype.validate().expect("invalid genotype");
        let scaffold = Scaffold::new(rng, cfg, spec, graph, scaler);
        let adaptive = scaffold.ctx.has_adaptive();
        let blocks: Vec<BlockPlan> = genotype
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                block_plan(
                    rng,
                    &format!("block{i}"),
                    b,
                    cfg.d_model,
                    cfg.gcn_k,
                    adaptive,
                )
            })
            .collect();
        let ops = blocks
            .iter()
            .flat_map(|b| b.edges.iter().map(|(_, _, op)| Rc::clone(op)))
            .collect();
        let spec = PlanSpec {
            embed: Rc::clone(&scaffold.embed),
            output: Rc::clone(&scaffold.output),
            ctx: Rc::clone(&scaffold.ctx),
            blocks,
            backbone: genotype.backbone.clone(),
            out_scale: scaffold.out_scale,
            out_shift: scaffold.out_shift,
            input_len: scaffold.input_len,
            d_model: scaffold.d_model,
            nodes: scaffold.ctx.n(),
            features: scaffold.embed.d_in(),
        };
        // Every check in `compile` is implied here. `validate` proves the
        // structural ones: at least one block, the backbone's length and
        // backward-only indices, m >= 2, forward edges, an incoming edge
        // per node. The scaffold sized the embedding to d_model and the
        // output layer to input_len·d_model.
        // invariant: a validated genotype over layers sized here compiles.
        let plan = ExecPlan::compile(spec).expect("a validated genotype compiles");
        Self {
            scaffold,
            ops,
            genotype: genotype.clone(),
            plan: Rc::new(plan),
        }
    }

    /// The genotype this model instantiates.
    pub fn genotype(&self) -> &Genotype {
        &self.genotype
    }

    /// The tape-free execution plan, compiled at construction.
    ///
    /// The plan holds `Rc`s to the live layers and operators and reads
    /// their weights at execution time, so it stays valid across optimizer
    /// steps; it runs the same walk as the tape forward.
    ///
    /// # Errors
    /// None: [`Self::new`] already compiled the plan. The `Result` stays
    /// for existing callers.
    pub fn compiled_plan(&self) -> Result<Rc<ExecPlan>, PlanError> {
        Ok(Rc::clone(&self.plan))
    }
}

impl Forecaster for DerivedModel {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        self.plan
            .forward(tape, x, |op, x, ctx| op.forward(tape, x, ctx))
    }

    fn forward_inference(&self, x: &Tensor) -> Tensor {
        match self.plan.try_run(x) {
            Ok(y) => y,
            Err(_) => {
                // A plan run can only fail under an injected fault or a bad
                // shape; either way the tape answers and the degradation is
                // counted, mirroring the serving ladder's last rung.
                cts_obs::serve::record_degraded_tape();
                let tape = Tape::new();
                let xv = tape.constant(x.clone());
                self.forward(&tape, &xv).value()
            }
        }
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.scaffold.parameters();
        v.extend(self.ops.iter().flat_map(|op| op.parameters()));
        v
    }

    fn name(&self) -> &str {
        "AutoCTS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{build_windows, generate};
    use rand::{rngs::SmallRng, SeedableRng};

    fn fixture() -> (
        SearchConfig,
        DatasetSpec,
        cts_data::CtsData,
        cts_data::SplitWindows,
    ) {
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.015);
        let data = generate(&spec, 0);
        let windows = build_windows(&data, 4, 16);
        let cfg = SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            epochs: 1,
            ..Default::default()
        };
        (cfg, spec, data, windows)
    }

    #[test]
    fn supernet_forward_shape() {
        let (cfg, spec, data, windows) = fixture();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let batches = cts_data::batches_from_windows(&windows.train[..2], 2);
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        let y = model.forward(&tape, &x);
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);
        // predictions come back in raw units (speeds, not z-scores)
        assert!(y.value().mean().abs() > 1.0);
    }

    #[test]
    fn supernet_param_partition_disjoint_and_complete() {
        let (cfg, spec, data, windows) = fixture();
        let mut rng = SmallRng::seed_from_u64(1);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let arch = model.arch_parameters();
        let weights = model.weight_parameters();
        // alpha+betas per cell, plus gammas
        assert_eq!(arch.len(), 2 * (1 + 2) + 2);
        for a in &arch {
            assert!(!weights.iter().any(|w| w.ptr_eq(a)), "Θ and w overlap");
        }
    }

    #[test]
    fn derived_model_trains_end_to_end() {
        let (cfg, spec, data, windows) = fixture();
        let mut rng = SmallRng::seed_from_u64(2);
        let supernet = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let genotype = supernet.derive().unwrap();
        genotype.validate().unwrap();
        let model = DerivedModel::new(
            &mut rng,
            &cfg,
            &genotype,
            &spec,
            &data.graph,
            &windows.scaler,
        );
        let batches = cts_data::batches_from_windows(&windows.train, 4);
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        let pred = model.forward(&tape, &x);
        let loss = cts_nn::masked_mae_loss(&tape, &pred, &batches[0].1, Some(0.0));
        tape.backward(&loss);
        let live = model
            .parameters()
            .iter()
            .filter(|p| p.grad().norm() > 0.0)
            .count();
        assert!(live > 0, "derived model got no gradients");
    }

    #[test]
    fn without_macro_search_uses_single_shared_cell() {
        let (mut cfg, spec, data, windows) = fixture();
        cfg = cfg.without_macro_search();
        let mut rng = SmallRng::seed_from_u64(3);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        assert_eq!(model.cells().len(), 1);
        assert!(model.topology().is_none());
        // forward must still produce B-block-deep output
        let batches = cts_data::batches_from_windows(&windows.train[..1], 1);
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        assert_eq!(model.forward(&tape, &x).shape()[2], spec.output_len);
    }

    #[test]
    fn tau_toggle_changes_output() {
        let (cfg, spec, data, windows) = fixture();
        let mut rng = SmallRng::seed_from_u64(4);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let batches = cts_data::batches_from_windows(&windows.train[..1], 1);
        let tape = Tape::new();
        let x = tape.constant(batches[0].0.clone());
        model.set_tau(5.0);
        let soft = model.forward(&tape, &x).value();
        model.set_tau(0.05);
        let sharp = model.forward(&tape, &x).value();
        assert!(!soft.approx_eq(&sharp, 1e-4), "temperature had no effect");
    }

    #[test]
    fn set_tau_rejects_non_positive_and_non_finite() {
        // τ ≤ 0 / NaN would silently NaN-poison every α-softmax in the
        // forward pass; the setter must refuse it loudly instead.
        let (cfg, spec, data, windows) = fixture();
        let mut rng = SmallRng::seed_from_u64(5);
        let model = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        for bad in [0.0f32, -1.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.set_tau(bad);
            }));
            assert!(r.is_err(), "set_tau({bad}) must panic");
        }
        // The rejected values must not have corrupted the stored τ.
        model.set_tau(1.5);
        assert_eq!(model.tau(), 1.5);
    }
}

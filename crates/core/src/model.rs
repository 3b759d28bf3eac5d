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
use std::cell::{Cell, RefCell};
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
        GraphContext::from_graph(graph, cfg.gcn_k).with_adaptive(rng, cfg.adaptive_emb)
    }
}

/// Shared embedding/output scaffolding. The layers and graph context are
/// reference-counted so a compiled [`ExecPlan`] can share them with the
/// model and read their weights in place.
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

    fn embed(&self, tape: &Tape, x: &Var) -> Var {
        self.embed.forward(tape, x)
    }

    /// Output layer over the merged backbone representation `[B,N,T,D]`.
    fn project(&self, tape: &Tape, merged: &Var) -> Var {
        let flat_width = self.input_len * self.d_model;
        let (scale, shift) = (self.out_scale, self.out_shift);
        cts_runtime::project(tape, &self.output, merged, flat_width, scale, shift)
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
        let tau = if self.cfg.use_temperature { self.tau.get() } else { 1.0 };
        let total: f32 = self.cells.iter().map(|c| c.alpha_entropy(tau)).sum();
        total / self.cells.len() as f32
    }

    /// Differentiable expected operator cost of the whole backbone (sum of
    /// the cells' expected costs), for efficiency-aware search.
    pub fn expected_cost(&self, tape: &Tape) -> Var {
        let tau = if self.cfg.use_temperature { self.tau.get() } else { 1.0 };
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
        let tau = if self.cfg.use_temperature { self.tau.get() } else { 1.0 };
        let z = self.scaffold.embed(tape, x);
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
            let out = cell
                .forward(tape, &input, &self.scaffold.ctx, tau)
                .add(&input); // block-level residual
            sources.push(out.clone());
            block_outputs.push(out);
        }
        let mut merged = block_outputs[0].clone();
        for out in &block_outputs[1..] {
            merged = merged.add(out);
        }
        self.scaffold.project(tape, &merged)
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

/// One discrete ST-block instantiated from a [`BlockGenotype`]. Edges are
/// reference-counted so the compiled plan can share the live operators.
struct DerivedBlock {
    m: usize,
    edges: Vec<(usize, usize, Rc<dyn StOperator>)>,
}

impl DerivedBlock {
    fn new(
        rng: &mut impl Rng,
        name: &str,
        genotype: &BlockGenotype,
        d: usize,
        gcn_k: usize,
        adaptive: bool,
    ) -> Self {
        let edges = genotype
            .edges
            .iter()
            .enumerate()
            .map(|(idx, (from, to, kind))| {
                (
                    *from,
                    *to,
                    Rc::from(build_operator(
                        rng,
                        *kind,
                        &format!("{name}.e{idx}.{}", kind.label()),
                        d,
                        gcn_k,
                        adaptive,
                    )),
                )
            })
            .collect();
        Self {
            m: genotype.m,
            edges,
        }
    }

    fn forward(&self, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        let mut nodes: Vec<Option<Var>> = vec![None; self.m];
        nodes[0] = Some(x.clone());
        for j in 1..self.m {
            let mut acc: Option<Var> = None;
            for (from, to, op) in &self.edges {
                if *to != j {
                    continue;
                }
                let h_from = nodes[*from]
                    .as_ref()
                    // invariant: validation guarantees from < to, so the source is already built.
                    .expect("genotype validated: forward edges only")
                    .clone();
                let y = op.forward(tape, &h_from, ctx);
                acc = Some(match acc {
                    Some(a) => a.add(&y),
                    None => y,
                });
            }
            // invariant: validation guarantees every node 1..m has an incoming edge.
            nodes[j] = Some(acc.expect("genotype validated: node has inputs"));
        }
        // invariant: validated genotypes have m >= 2, so the output node exists.
        nodes[self.m - 1].take().expect("m >= 2")
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.edges
            .iter()
            .flat_map(|(_, _, op)| op.parameters())
            .collect()
    }
}

/// The discrete forecasting model retrained from scratch in the
/// architecture-evaluation stage (§3.4).
pub struct DerivedModel {
    scaffold: Scaffold,
    blocks: Vec<DerivedBlock>,
    backbone: Vec<usize>,
    genotype: Genotype,
    /// Lazily compiled tape-free plan; shares the scaffold's layers and the
    /// blocks' operators, so retraining updates flow through without
    /// recompilation.
    plan: RefCell<Option<Rc<ExecPlan>>>,
}

impl DerivedModel {
    /// Instantiate a genotype with fresh weights (full channel width —
    /// partial channels are a search-time memory trick only).
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
        let blocks = genotype
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                DerivedBlock::new(rng, &format!("block{i}"), b, cfg.d_model, cfg.gcn_k, adaptive)
            })
            .collect();
        Self {
            scaffold,
            blocks,
            backbone: genotype.backbone.clone(),
            genotype: genotype.clone(),
            plan: RefCell::new(None),
        }
    }

    /// The genotype this model instantiates.
    pub fn genotype(&self) -> &Genotype {
        &self.genotype
    }

    /// Compile (and cache) the tape-free execution plan for this model.
    ///
    /// The plan holds `Rc`s to the live layers and operators and reads
    /// their weights at execution time, so it stays valid across optimizer
    /// steps; its output is bit-identical to the tape forward.
    ///
    /// # Errors
    /// Propagates [`PlanError`] when the genotype defeats compilation
    /// (callers fall back to the tape path).
    pub fn compiled_plan(&self) -> Result<Rc<ExecPlan>, PlanError> {
        if let Some(p) = self.plan.borrow().as_ref() {
            return Ok(Rc::clone(p));
        }
        let spec = PlanSpec {
            embed: Rc::clone(&self.scaffold.embed),
            output: Rc::clone(&self.scaffold.output),
            ctx: Rc::clone(&self.scaffold.ctx),
            blocks: self
                .blocks
                .iter()
                .map(|b| BlockPlan {
                    m: b.m,
                    edges: b
                        .edges
                        .iter()
                        .map(|(from, to, op)| (*from, *to, Rc::clone(op)))
                        .collect(),
                })
                .collect(),
            backbone: self.backbone.clone(),
            out_scale: self.scaffold.out_scale,
            out_shift: self.scaffold.out_shift,
            input_len: self.scaffold.input_len,
            d_model: self.scaffold.d_model,
            nodes: self.scaffold.ctx.n(),
            features: self.scaffold.embed.d_in(),
        };
        let plan = Rc::new(ExecPlan::compile(spec)?);
        *self.plan.borrow_mut() = Some(Rc::clone(&plan));
        Ok(plan)
    }
}

impl Forecaster for DerivedModel {
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let z = self.scaffold.embed(tape, x);
        let mut sources = vec![z.clone()];
        let mut block_outputs: Vec<Var> = Vec::with_capacity(self.blocks.len());
        for (i, block) in self.blocks.iter().enumerate() {
            let input = sources[self.backbone[i]].clone();
            let out = block
                .forward(tape, &input, &self.scaffold.ctx)
                .add(&input); // block-level residual
            sources.push(out.clone());
            block_outputs.push(out);
        }
        let mut merged = block_outputs[0].clone();
        for out in &block_outputs[1..] {
            merged = merged.add(out);
        }
        self.scaffold.project(tape, &merged)
    }

    fn forward_inference(&self, x: &Tensor) -> Tensor {
        if let Ok(plan) = self.compiled_plan() {
            if let Ok(y) = plan.try_run(x) {
                return y;
            }
            // A plan run can only fail under an injected fault or a bad
            // shape; either way the tape answers and the degradation is
            // counted, mirroring the serving ladder's last rung.
            cts_obs::serve::record_degraded_tape();
        }
        // A genotype that defeats compilation still forecasts; the tape
        // path is the always-correct fallback.
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        self.forward(&tape, &xv).value()
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.scaffold.parameters();
        for b in &self.blocks {
            v.extend(b.parameters());
        }
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

    fn fixture() -> (SearchConfig, DatasetSpec, cts_data::CtsData, cts_data::SplitWindows) {
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
        let model = DerivedModel::new(&mut rng, &cfg, &genotype, &spec, &data.graph, &windows.scaler);
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

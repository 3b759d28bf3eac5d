//! Genotype → flat execution plan compilation and the tape-free interpreter.

use crate::error::ServeError;
use cts_nn::{count_parameters, Backend, Eval, Linear, OpCost, Price, Priced};
use cts_ops::{GraphContext, StOperator, StepCost};
use cts_tensor::{arena, Tensor};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One discrete ST-block, described structurally for compilation.
pub struct BlockPlan {
    /// Number of nodes in the block's micro-DAG (`m ≥ 2`).
    pub m: usize,
    /// Edges `(from, to, operator)` with `from < to`, in genotype order.
    /// The walk folds same-target edges in this order on every backend.
    pub edges: Vec<(usize, usize, Rc<dyn StOperator>)>,
}

/// Everything needed to compile a derived model into an [`ExecPlan`].
///
/// Layers and the graph context are shared (`Rc`) with the model that owns
/// them and their weights are read **in place** at execution time, so
/// retraining steps between inference calls are picked up without
/// recompiling.
pub struct PlanSpec {
    /// Embedding layer `features → d_model`.
    pub embed: Rc<Linear>,
    /// Output layer `input_len·d_model → Q`.
    pub output: Rc<Linear>,
    /// Shared graph supports / adaptive adjacency.
    pub ctx: Rc<GraphContext>,
    /// The ST-blocks of the backbone, in order.
    pub blocks: Vec<BlockPlan>,
    /// `backbone[i]` = index into the source list (0 = embedding output,
    /// `k > 0` = output of block `k-1`) feeding block `i`.
    pub backbone: Vec<usize>,
    /// Inverse-scaler multiplier applied to the output layer's result.
    pub out_scale: f32,
    /// Inverse-scaler shift applied after `out_scale`.
    pub out_shift: f32,
    /// History window length `T`.
    pub input_len: usize,
    /// Channel width `D`.
    pub d_model: usize,
    /// Node (sensor) count `N`.
    pub nodes: usize,
    /// Input feature count `F`.
    pub features: usize,
}

/// Why a [`PlanSpec`] failed to compile.
#[derive(Debug)]
pub enum PlanError {
    /// The spec is structurally invalid (bad backbone index, empty block,
    /// node without an incoming edge, layer sized for a different width…).
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Invalid(msg) => write!(f, "invalid plan spec: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The forecast head over the merged backbone output `[B,N,T,D]`: relu →
/// flatten to `[B,N,flat_width]` → `output` linear → inverse-scaler affine
/// `y·scale + shift`. The supernet's forward and the compiled plan's walk
/// both end here.
pub fn project<B: Backend>(
    be: &B,
    output: &Linear,
    merged: &B::V,
    flat_width: usize,
    scale: f32,
    shift: f32,
) -> B::V {
    let s = be.shape(merged);
    let flat = be.reshape(be.relu(merged), &[s[0], s[1], flat_width]);
    be.add_scalar(&be.scale(&output.forward(be, &flat), scale), shift)
}

/// One record of the flat program. Slots index the plan's workspace.
enum Step {
    /// `dst (+)= op(slot[src])`; `accumulate` folds onto the existing value
    /// exactly like the tape's `acc.add(&y)`. `edge` indexes the block's
    /// genotype edge list.
    Op {
        op: Rc<dyn StOperator>,
        src: usize,
        dst: usize,
        accumulate: bool,
        block: usize,
        edge: usize,
    },
    /// `dst = slot[a] + slot[b]`: block `block`'s residual, or the skip
    /// merge that folds block `block`'s output in.
    Add {
        a: usize,
        b: usize,
        dst: usize,
        block: usize,
        merge: bool,
    },
}

impl Step {
    /// Where the step sits in the architecture: `block0.e2`,
    /// `block1 residual`, `merge block2`.
    fn site(&self) -> String {
        match self {
            Step::Op { block, edge, .. } => format!("block{block}.e{edge}"),
            Step::Add {
                block,
                merge: false,
                ..
            } => format!("block{block} residual"),
            Step::Add {
                block, merge: true, ..
            } => format!("merge block{block}"),
        }
    }
}

/// A stage of one forward, as [`ExecPlan::exec`] reports it.
enum Stage<'a> {
    Embed,
    Step(&'a Step),
    Head,
}

/// A compiled forward program for one derived architecture: the only
/// walk of its DAG.
///
/// Built once by [`ExecPlan::compile`]. One step loop runs on three
/// backends: [`ExecPlan::forward`] on the autograd tape (training),
/// [`ExecPlan::try_run`] on `Eval` (serving: no tape nodes and — after
/// [`ExecPlan::prewarm`] — no heap allocation, every intermediate cycles
/// through the tensor arena) and [`ExecPlan::step_costs`] on `Price`.
pub struct ExecPlan {
    embed: Rc<Linear>,
    output: Rc<Linear>,
    ctx: Rc<GraphContext>,
    steps: Vec<Step>,
    /// Workspace size: every slot holds one `[B, N, T, D]` activation.
    num_slots: usize,
    merged_slot: usize,
    out_scale: f32,
    out_shift: f32,
    input_len: usize,
    nodes: usize,
    features: usize,
    /// `input_len · d_model`, overflow-checked once at compile time.
    flat_width: usize,
    /// Reusable workspace: one cell per slot, kept warm across runs so
    /// dropped intermediates recycle straight into the arena.
    slots: RefCell<Vec<Option<Tensor>>>,
}

impl ExecPlan {
    /// Compile a spec into a flat program. Every operator maps
    /// `[B, N, T, D]` to itself, so once the structure and the layer widths
    /// check out, every slot holds one `[B, N, T, D]` activation.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] when the spec is structurally invalid: no
    /// blocks, a bad backbone, `m < 2`, a non-forward edge, a node without
    /// an incoming edge, or embed/output layers sized for another width.
    pub fn compile(spec: PlanSpec) -> Result<Self, PlanError> {
        if spec.blocks.is_empty() {
            return Err(PlanError::Invalid("no blocks".into()));
        }
        if spec.backbone.len() != spec.blocks.len() {
            return Err(PlanError::Invalid(format!(
                "backbone length {} != block count {}",
                spec.backbone.len(),
                spec.blocks.len()
            )));
        }
        if spec.embed.d_out() != spec.d_model {
            return Err(PlanError::Invalid(format!(
                "embedding outputs {} channels, model width is {}",
                spec.embed.d_out(),
                spec.d_model
            )));
        }
        let flat_width = spec.input_len.checked_mul(spec.d_model).ok_or_else(|| {
            PlanError::Invalid(format!(
                "input_len {} × d_model {} overflows the flattened head width",
                spec.input_len, spec.d_model
            ))
        })?;
        if spec.output.d_in() != flat_width {
            return Err(PlanError::Invalid(format!(
                "output layer reads {} features, backbone produces {flat_width}",
                spec.output.d_in(),
            )));
        }

        let mut steps: Vec<Step> = Vec::new();
        let mut num_slots = 1usize; // slot 0 = z

        // source_slots[k]: 0 = embedding output, k > 0 = block k-1 residual.
        let mut source_slots = vec![0usize];
        let mut block_out_slots = Vec::with_capacity(spec.blocks.len());
        for (i, block) in spec.blocks.iter().enumerate() {
            if block.m < 2 {
                return Err(PlanError::Invalid(format!(
                    "block {i}: m = {} < 2",
                    block.m
                )));
            }
            let src_idx = spec.backbone[i];
            if src_idx >= source_slots.len() {
                return Err(PlanError::Invalid(format!(
                    "block {i}: backbone index {src_idx} refers to a later block"
                )));
            }
            let input_slot = source_slots[src_idx];
            // Node 0 aliases the block input; nodes 1..m get fresh slots.
            let mut node_slots = vec![input_slot];
            for j in 1..block.m {
                let mut first = true;
                let dst = num_slots;
                num_slots += 1;
                for (edge, (from, to, op)) in block.edges.iter().enumerate() {
                    if *to != j {
                        continue;
                    }
                    if *from >= node_slots.len() {
                        return Err(PlanError::Invalid(format!(
                            "block {i}: edge {from}→{to} is not a forward edge"
                        )));
                    }
                    steps.push(Step::Op {
                        op: Rc::clone(op),
                        src: node_slots[*from],
                        dst,
                        accumulate: !first,
                        block: i,
                        edge,
                    });
                    first = false;
                }
                if first {
                    return Err(PlanError::Invalid(format!(
                        "block {i}: node {j} has no incoming edge"
                    )));
                }
                node_slots.push(dst);
            }
            // Block-level residual: out = block(input) + input.
            let out_slot = node_slots[block.m - 1];
            let resid = num_slots;
            num_slots += 1;
            steps.push(Step::Add {
                a: out_slot,
                b: input_slot,
                dst: resid,
                block: i,
                merge: false,
            });
            source_slots.push(resid);
            block_out_slots.push(resid);
        }

        // Skip-merge: merged = Σ block outputs, folded in block order
        // exactly like the tape forward.
        let mut merged_slot = block_out_slots[0];
        for (block, &next) in block_out_slots.iter().enumerate().skip(1) {
            let dst = num_slots;
            num_slots += 1;
            steps.push(Step::Add {
                a: merged_slot,
                b: next,
                dst,
                block,
                merge: true,
            });
            merged_slot = dst;
        }

        Ok(Self {
            embed: spec.embed,
            output: spec.output,
            ctx: spec.ctx,
            steps,
            num_slots,
            merged_slot,
            out_scale: spec.out_scale,
            out_shift: spec.out_shift,
            input_len: spec.input_len,
            nodes: spec.nodes,
            features: spec.features,
            flat_width,
            slots: RefCell::new((0..num_slots).map(|_| None).collect()),
        })
    }

    /// Execute the plan on a batch `x` of shape `[B, N, T, F]`, producing
    /// `[B, N, Q]` in the data's original units — the walk of
    /// [`Self::forward`] on the `Eval` backend, reusing the plan's warm
    /// workspace.
    ///
    /// This is the serving path: shape violations come back as a typed
    /// [`ServeError`] instead of a panic, and the `cts_nn::fault` serving
    /// hooks can make a run fail or poison its output for chaos tests.
    ///
    /// # Errors
    /// [`ServeError::BadShape`] for a non-`[B, N, T, F]` input;
    /// [`ServeError::PlanExec`] when execution aborts (only under an armed
    /// fault plan — real kernels are total functions of finite input).
    pub fn try_run(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        let s = x.shape();
        if s.len() != 4 || s[1..] != [self.nodes, self.input_len, self.features] {
            return Err(ServeError::BadShape {
                got: s.to_vec(),
                want: [self.nodes, self.input_len, self.features],
            });
        }
        let fault = cts_nn::fault::next_plan_run(s[0]);
        if fault == cts_nn::fault::ServeFault::FailRun {
            return Err(ServeError::PlanExec {
                attempts: 1,
                cause: "injected plan-execution fault".into(),
            });
        }
        let mut y = self.exec(
            &Eval,
            x,
            &mut self.slots.borrow_mut(),
            |op, x, ctx| op.forward_eval(x, ctx),
            |_| {},
        );
        if fault == cts_nn::fault::ServeFault::NanOutput {
            if let Some(v) = y.data_mut().first_mut() {
                *v = f32::NAN;
            }
        }
        Ok(y)
    }

    /// Prime the tensor arena for batch size `batch` so subsequent
    /// [`try_run`] calls allocate nothing: seeds the arena with every
    /// slot-sized buffer, then performs two warm-up forwards to let
    /// op-internal scratch (attention score matrices, RNN state) reach
    /// steady state.
    ///
    /// [`try_run`]: Self::try_run
    pub fn prewarm(&self, batch: usize) {
        let slot_len = batch
            .saturating_mul(self.nodes)
            .saturating_mul(self.flat_width);
        arena::prewarm(&vec![slot_len; self.num_slots]);
        let x = Tensor::zeros([batch, self.nodes, self.input_len, self.features]);
        // The input is built to the plan's own dims, so warm-up runs can
        // only fail under an armed fault plan; ignore those.
        let _ = self.try_run(&x);
        let _ = self.try_run(&x);
    }

    /// The forward on backend `be` with a fresh workspace: the same walk
    /// as [`Self::try_run`] and [`Self::step_costs`]. `apply` runs one
    /// operator on `be` over the plan's graph context; the autograd tape
    /// passes `|op, x, ctx| op.forward(tape, x, ctx)`.
    pub fn forward<B: Backend>(
        &self,
        be: &B,
        x: &B::V,
        apply: impl Fn(&dyn StOperator, &B::V, &GraphContext) -> B::V,
    ) -> B::V {
        let mut slots: Vec<Option<B::V>> = (0..self.num_slots).map(|_| None).collect();
        self.exec(be, x, &mut slots, apply, |_| {})
    }

    /// The forward on backend `be`: the embedding of `x`, every step in
    /// emission order, then the head. `apply` runs one operator on `be`
    /// and `done` sees each stage as it finishes. `slots` is the
    /// workspace, one cell per slot.
    fn exec<B: Backend>(
        &self,
        be: &B,
        x: &B::V,
        slots: &mut [Option<B::V>],
        apply: impl Fn(&dyn StOperator, &B::V, &GraphContext) -> B::V,
        mut done: impl FnMut(Stage<'_>),
    ) -> B::V {
        slots[0] = Some(self.embed.forward(be, x));
        done(Stage::Embed);
        for step in &self.steps {
            match step {
                Step::Op {
                    op,
                    src,
                    dst,
                    accumulate,
                    ..
                } => {
                    // invariant: compile emits steps in topological order, so
                    // the source slot of every step is already filled.
                    let input = slots[*src].as_ref().expect("topological order");
                    let y = apply(op.as_ref(), input, &self.ctx);
                    if *accumulate {
                        // invariant: accumulate is only set after a first
                        // non-accumulating write to the same slot.
                        let acc = slots[*dst].take().expect("first edge wrote the slot");
                        slots[*dst] = Some(be.add(&acc, &y));
                    } else {
                        slots[*dst] = Some(y);
                    }
                }
                Step::Add { a, b, dst, .. } => {
                    // invariant: compile emits steps in topological order, so
                    // both operand slots are already filled.
                    let left = slots[*a].as_ref().expect("topological order");
                    let right = slots[*b].as_ref().expect("topological order");
                    let sum = be.add(left, right);
                    slots[*dst] = Some(sum);
                }
            }
            done(Stage::Step(step));
        }
        // invariant: merged_slot is the last slot the step list writes.
        let merged = slots[self.merged_slot]
            .as_ref()
            .expect("program writes merged slot");
        let y = project(
            be,
            &self.output,
            merged,
            self.flat_width,
            self.out_scale,
            self.out_shift,
        );
        done(Stage::Head);
        y
    }

    /// Price one `try_run` at batch size `batch`, stage by stage, by
    /// running the same forward on [`Price`]: no kernel executes.
    ///
    /// The `flops`/`bytes`/`kernel_calls` fields are exact against the
    /// instrumented kernel meter for the same batch; `scratch_bytes` is an
    /// arena-aligned upper bound.
    pub fn step_costs(&self, batch: usize) -> Vec<StepCost> {
        let be = Price::new();
        let x = be.input(&[batch, self.nodes, self.input_len, self.features]);
        let mut slots: Vec<Option<Priced>> = (0..self.num_slots).map(|_| None).collect();
        let mut costs = Vec::with_capacity(self.steps.len().saturating_add(2));
        let apply =
            |op: &dyn StOperator, x: &Priced, ctx: &GraphContext| op.forward_price(&be, x, ctx);
        self.exec(&be, &x, &mut slots, apply, |stage| {
            let (site, kind, srcs, dst, new_slot, params) = match stage {
                Stage::Embed => (
                    "embed".into(),
                    None,
                    vec![],
                    0,
                    true,
                    self.embed.parameters(),
                ),
                Stage::Step(
                    step @ Step::Op {
                        op,
                        src,
                        dst,
                        accumulate,
                        ..
                    },
                ) => (
                    step.site(),
                    Some(op.kind()),
                    vec![*src],
                    *dst,
                    !accumulate,
                    op.parameters(),
                ),
                Stage::Step(step @ Step::Add { a, b, dst, .. }) => {
                    (step.site(), None, vec![*a, *b], *dst, true, Vec::new())
                }
                Stage::Head => {
                    let m = self.merged_slot;
                    (
                        "output head".into(),
                        None,
                        vec![m],
                        m,
                        false,
                        self.output.parameters(),
                    )
                }
            };
            let cost = OpCost {
                param_count: count_parameters(&params) as u64,
                ..be.take()
            };
            costs.push(StepCost {
                site,
                kind,
                cost,
                srcs,
                dst,
                new_slot,
            });
        });
        costs
    }

    /// Price one `try_run` at batch size `batch`: the sum of
    /// [`Self::step_costs`].
    pub fn static_cost(&self, batch: usize) -> OpCost {
        self.step_costs(batch)
            .iter()
            .fold(OpCost::default(), |acc, s| acc.saturating_add(&s.cost))
    }

    /// Number of records in the flat program (diagnostics / reports).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of workspace slots (diagnostics / reports).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Node (sensor) count the plan was compiled for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// History window length the plan was compiled for.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Input feature count the plan was compiled for.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Forecast horizon `Q` (steps ahead per forecast) the plan was
    /// compiled for — the output layer's width, and the natural TTL for a
    /// cached forecast: once the window origin advances `Q` steps, the
    /// cached forecast lies entirely in the past.
    pub fn horizon(&self) -> usize {
        self.output.d_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_graph::SensorGraph;
    use cts_ops::{build_operator, OpKind};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn tiny_spec(rng: &mut impl Rng, kind: OpKind) -> PlanSpec {
        let d = 4;
        let (n, t, f) = (3, 5, 2);
        let ctx = Rc::new(GraphContext::from_graph(&SensorGraph::identity(n), 2));
        let op: Rc<dyn StOperator> = Rc::from(build_operator(rng, kind, "op", d, 2, false));
        let id: Rc<dyn StOperator> =
            Rc::from(build_operator(rng, OpKind::Identity, "id", d, 2, false));
        PlanSpec {
            embed: Rc::new(Linear::new(rng, "embed", f, d, true)),
            output: Rc::new(Linear::new(rng, "output", t * d, 6, true)),
            ctx,
            blocks: vec![BlockPlan {
                m: 3,
                edges: vec![(0, 1, op), (1, 2, id)],
            }],
            backbone: vec![0],
            out_scale: 2.0,
            out_shift: 1.0,
            input_len: t,
            d_model: d,
            nodes: n,
            features: f,
        }
    }

    #[test]
    fn compiles_and_runs_with_expected_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let plan = ExecPlan::compile(tiny_spec(&mut rng, OpKind::Gdcc)).unwrap();
        assert_eq!(plan.num_steps(), 3); // two edges + residual
        let x = init::uniform(&mut rng, [2, 3, 5, 2], -1.0, 1.0);
        let y = plan.try_run(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3, 6]);
        // Deterministic: same input, same bits.
        let y2 = plan.try_run(&x).unwrap();
        assert!(y.approx_eq(&y2, 0.0));
    }

    #[test]
    fn run_is_batch_size_polymorphic() {
        let mut rng = SmallRng::seed_from_u64(1);
        let plan = ExecPlan::compile(tiny_spec(&mut rng, OpKind::Dgcn)).unwrap();
        for b in [1usize, 2, 7] {
            let x = init::uniform(&mut rng, [b, 3, 5, 2], -1.0, 1.0);
            assert_eq!(plan.try_run(&x).unwrap().shape(), &[b, 3, 6]);
        }
    }

    #[test]
    fn bad_input_shape_is_a_typed_error_not_a_panic() {
        let mut rng = SmallRng::seed_from_u64(6);
        let plan = ExecPlan::compile(tiny_spec(&mut rng, OpKind::Gdcc)).unwrap();
        let wrong_rank = Tensor::zeros([3, 5, 2]);
        assert!(matches!(
            plan.try_run(&wrong_rank),
            Err(ServeError::BadShape { .. })
        ));
        let wrong_dims = Tensor::zeros([1, 3, 7, 2]);
        let err = plan.try_run(&wrong_dims).unwrap_err();
        assert!(err.to_string().contains("[B, 3, 5, 2]"), "{err}");
    }

    #[test]
    fn fault_hooks_fail_or_poison_a_run() {
        use cts_nn::fault;
        let mut rng = SmallRng::seed_from_u64(7);
        let plan = ExecPlan::compile(tiny_spec(&mut rng, OpKind::Gdcc)).unwrap();
        let x = init::uniform(&mut rng, [1, 3, 5, 2], -1.0, 1.0);
        fault::arm(fault::FaultPlan {
            fail_plan_run_at: Some(0),
            nan_output_at_run: Some(1),
            ..fault::FaultPlan::default()
        });
        assert!(matches!(plan.try_run(&x), Err(ServeError::PlanExec { .. })));
        let poisoned = plan.try_run(&x).unwrap();
        assert!(poisoned.data()[0].is_nan(), "output not poisoned");
        let clean = plan.try_run(&x).unwrap();
        assert!(!clean.has_non_finite(), "fault was not one-shot");
        fault::disarm();
    }

    #[test]
    fn rejects_node_without_incoming_edge() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut spec = tiny_spec(&mut rng, OpKind::Identity);
        spec.blocks[0].edges.remove(1); // node 2 now orphaned
        let err = ExecPlan::compile(spec).err().unwrap();
        assert!(matches!(err, PlanError::Invalid(_)), "{err}");
    }

    #[test]
    fn rejects_backbone_index_into_future() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut spec = tiny_spec(&mut rng, OpKind::Identity);
        spec.backbone = vec![1];
        assert!(matches!(
            ExecPlan::compile(spec),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_embed_output_width_mismatch() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut spec = tiny_spec(&mut rng, OpKind::Gdcc);
        // The embedding and output layers are sized for width 4.
        spec.d_model = 8;
        let err = ExecPlan::compile(spec).err().unwrap();
        assert!(matches!(err, PlanError::Invalid(_)), "{err}");
    }

    /// The static price of a compiled plan must equal, bit for bit, what
    /// the instrumented kernel meter observes during one `try_run` —
    /// embedding, every edge (including accumulate folds and zero edges),
    /// residual/merge adds, and the projection epilogue.
    #[test]
    fn static_cost_matches_metered_run_exactly() {
        use cts_tensor::meter;
        let mut rng = SmallRng::seed_from_u64(11);
        let d = 4;
        let (n, t, f) = (3, 5, 2);
        let ctx = Rc::new(GraphContext::from_graph(&SensorGraph::identity(n), 2));
        let mk = |rng: &mut SmallRng, kind: OpKind, name: &str| -> Rc<dyn StOperator> {
            Rc::from(build_operator(rng, kind, name, d, 2, false))
        };
        // Two blocks (merge add), node 2 of block 0 fed by two edges
        // (accumulate fold), plus a compiled zero edge.
        let spec = PlanSpec {
            embed: Rc::new(Linear::new(&mut rng, "embed", f, d, true)),
            output: Rc::new(Linear::new(&mut rng, "output", t * d, 6, true)),
            ctx,
            blocks: vec![
                BlockPlan {
                    m: 3,
                    edges: vec![
                        (0, 1, mk(&mut rng, OpKind::Gdcc, "g")),
                        (0, 2, mk(&mut rng, OpKind::Zero, "z")),
                        (1, 2, mk(&mut rng, OpKind::InformerT, "a")),
                    ],
                },
                BlockPlan {
                    m: 2,
                    edges: vec![(0, 1, mk(&mut rng, OpKind::Dgcn, "s"))],
                },
            ],
            backbone: vec![0, 1],
            out_scale: 2.0,
            out_shift: 1.0,
            input_len: t,
            d_model: d,
            nodes: n,
            features: f,
        };
        let plan = ExecPlan::compile(spec).unwrap();
        for batch in [1usize, 3] {
            let x = init::uniform(&mut rng, [batch, n, t, f], -1.0, 1.0);
            meter::set_enabled(true);
            meter::reset();
            let _ = plan.try_run(&x).unwrap();
            let got = meter::snapshot();
            meter::set_enabled(false);
            let want = plan.static_cost(batch);
            assert_eq!(want.flops, got.flops, "batch {batch}: flops");
            assert_eq!(want.bytes_read, got.bytes_read(), "batch {batch}: reads");
            assert_eq!(
                want.bytes_written,
                got.bytes_written(),
                "batch {batch}: writes"
            );
            assert_eq!(want.kernel_calls, got.kernel_calls, "batch {batch}: calls");
            assert!(want.dense_flops > 0 && want.dense_flops <= want.flops);
            assert!(want.param_count > 0);
        }
    }

    #[test]
    fn prewarm_then_run_reuses_arena() {
        let mut rng = SmallRng::seed_from_u64(5);
        let plan = ExecPlan::compile(tiny_spec(&mut rng, OpKind::Gdcc)).unwrap();
        plan.prewarm(2);
        arena::reset_stats();
        let x = init::uniform(&mut rng, [2, 3, 5, 2], -1.0, 1.0);
        let _ = plan.try_run(&x).unwrap();
        assert_eq!(
            arena::stats().misses,
            0,
            "steady-state run hit the allocator"
        );
    }
}

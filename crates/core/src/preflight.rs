//! Pre-flight static verification: bridge from `autocts` types to the
//! `cts-verify` analyzer, and static pricing of a candidate's compiled
//! plan ([`analyze_cost`]).
//!
//! Both [`AutoCts::try_search`](crate::AutoCts::try_search) (on the freshly
//! derived genotype) and [`AutoCts::try_evaluate`](crate::AutoCts::try_evaluate)
//! (on whatever genotype the caller hands in, e.g. a transferred one) run
//! the analyzer before the model is built, so a malformed or
//! degenerate architecture is rejected with named findings instead of a
//! panic deep inside model construction — or worse, a silently wasted
//! retraining run.

use crate::{Genotype, SearchConfig};
use cts_data::DatasetSpec;
use cts_graph::SensorGraph;
use cts_nn::{arena_bytes, Linear};
use cts_ops::{build_operator, GraphContext, OpKind, StOperator};
use cts_runtime::{BlockPlan, ExecPlan, PlanError, PlanSpec};
use cts_verify::{
    ArchSpec, BlockSpec, CostBudgets, CostReport, FindingKind, LatencyModel, ModelDims,
    VerifyError, VerifyReport,
};
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;

/// Describe a candidate architecture to the analyzer: genotype topology
/// plus the concrete dims the model would be instantiated with.
pub fn arch_spec(
    cfg: &SearchConfig,
    genotype: &Genotype,
    spec: &DatasetSpec,
    graph: &SensorGraph,
) -> ArchSpec {
    ArchSpec {
        dims: ModelDims {
            features: spec.features,
            input_len: spec.input_len,
            horizon: spec.output_len,
            d_model: cfg.d_model,
            num_nodes: graph.n(),
            gcn_k: cfg.gcn_k,
            // Mirrors `make_context` in model.rs: a graph with no usable
            // adjacency (all-zero weights) gets a learned adaptive one.
            adaptive: graph.adjacency().sum() <= 0.0,
            adaptive_emb: cfg.adaptive_emb,
        },
        blocks: genotype
            .blocks
            .iter()
            .map(|b| BlockSpec {
                m: b.m,
                edges: b.edges.clone(),
            })
            .collect(),
        backbone: genotype.backbone.clone(),
    }
}

/// The static-cost budgets configured on `cfg`, in analyzer form.
pub fn cost_budgets(cfg: &SearchConfig) -> CostBudgets {
    CostBudgets {
        max_flops_per_step: cfg.max_flops_per_step,
        max_peak_bytes: cfg.max_peak_bytes,
        max_latency_ms: cfg.max_latency_ms,
    }
}

/// Statically verify a genotype against the config/dataset it would be
/// instantiated with. `Ok` carries the full report (edge liveness,
/// warnings); `Err` means at least one error-severity finding.
///
/// When any cost budget is set on `cfg`, the genotype is additionally
/// priced by [`analyze_cost`] at `cfg.batch_size` and
/// over-budget candidates are rejected with `OverBudget` findings naming
/// the offending step — all without executing a kernel.
pub fn preflight(
    cfg: &SearchConfig,
    genotype: &Genotype,
    spec: &DatasetSpec,
    graph: &SensorGraph,
) -> Result<VerifyReport, VerifyError> {
    let arch = arch_spec(cfg, genotype, spec, graph);
    let mut report = cts_verify::check_genotype(&arch)?;
    let budgets = cost_budgets(cfg);
    if !budgets.is_unbounded() {
        let cost = analyze_cost(&arch, cfg.batch_size)?;
        cts_verify::check_budgets(&mut report, &cost, &budgets, &LatencyModel::default());
        if !report.is_ok() {
            return Err(VerifyError { report });
        }
    }
    Ok(report)
}

/// The plan [`analyze_cost`] prices: the genotype compiled as it would be
/// served, with one fixed-seed operator instance per kind shared by every
/// edge of that kind (pricing reads only weight shapes), on a shape-only
/// context over `N` nodes.
fn pricing_plan(spec: &ArchSpec) -> Result<ExecPlan, PlanError> {
    let dims = &spec.dims;
    let mut rng = SmallRng::seed_from_u64(0);
    let mut ctx = GraphContext::shapes_only(dims.num_nodes, dims.gcn_k);
    if dims.adaptive {
        ctx = ctx.with_adaptive(&mut rng, dims.adaptive_emb);
    }
    let mut instances: Vec<(OpKind, Rc<dyn StOperator>)> = Vec::new();
    let mut instance = |kind: OpKind| -> Rc<dyn StOperator> {
        if let Some((_, op)) = instances.iter().find(|(k, _)| *k == kind) {
            return Rc::clone(op);
        }
        let (d, k) = (dims.d_model, dims.gcn_k);
        let op: Rc<dyn StOperator> = Rc::from(build_operator(
            &mut rng,
            kind,
            kind.label(),
            d,
            k,
            dims.adaptive,
        ));
        instances.push((kind, Rc::clone(&op)));
        op
    };
    let blocks = spec
        .blocks
        .iter()
        .map(|b| BlockPlan {
            m: b.m,
            edges: b
                .edges
                .iter()
                .map(|&(from, to, kind)| (from, to, instance(kind)))
                .collect(),
        })
        .collect();
    let flat_width = dims.input_len.saturating_mul(dims.d_model);
    ExecPlan::compile(PlanSpec {
        embed: Rc::new(Linear::new(
            &mut rng,
            "embed",
            dims.features,
            dims.d_model,
            true,
        )),
        output: Rc::new(Linear::new(
            &mut rng,
            "output",
            flat_width,
            dims.horizon,
            true,
        )),
        ctx: Rc::new(ctx),
        blocks,
        backbone: spec.backbone.clone(),
        out_scale: 1.0,
        out_shift: 0.0,
        input_len: dims.input_len,
        d_model: dims.d_model,
        nodes: dims.num_nodes,
        features: dims.features,
    })
}

/// A plan the compiler refused, as a verifier error.
fn refusal(err: &PlanError) -> VerifyError {
    let mut report = VerifyReport::default();
    report.error(
        FindingKind::MalformedBlock,
        "model",
        format!("the architecture cannot be priced: {err}"),
    );
    VerifyError { report }
}

/// Price a validated architecture for batch size `batch`, without
/// executing a kernel.
///
/// The steps are those of the `ExecPlan` the genotype compiles to, priced
/// on `cts_nn::Price`, so the per-step flops/bytes match what the
/// instrumented meter observes during one `ExecPlan::try_run` of the same
/// genotype, bit for bit; [`CostReport::from_steps`] adds the totals and
/// both peak models. The graph supports are known by shape only, so any
/// node count prices.
///
/// # Errors
/// [`VerifyError`] when the genotype fails validation
/// ([`cts_verify::check_genotype`]) or the plan compiler refuses it.
pub fn analyze_cost(spec: &ArchSpec, batch: usize) -> Result<CostReport, VerifyError> {
    cts_verify::check_genotype(spec)?;
    let plan = pricing_plan(spec).map_err(|e| refusal(&e))?;
    let slot_elems = [batch, plan.nodes(), spec.dims.input_len, spec.dims.d_model]
        .iter()
        .fold(1u64, |acc, &d| acc.saturating_mul(d as u64));
    Ok(CostReport::from_steps(
        plan.step_costs(batch),
        plan.num_slots(),
        arena_bytes(slot_elems),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockGenotype;
    use cts_data::generate;

    fn fixture() -> (SearchConfig, DatasetSpec, SensorGraph) {
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.02);
        let data = generate(&spec, 7);
        let cfg = SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            ..Default::default()
        };
        (cfg, spec, data.graph)
    }

    fn genotype() -> Genotype {
        let block = BlockGenotype {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (0, 2, OpKind::InformerT),
                (1, 2, OpKind::Identity),
            ],
        };
        Genotype {
            blocks: vec![block.clone(), block],
            backbone: vec![0, 1],
        }
    }

    #[test]
    fn healthy_genotype_preflights_clean() {
        let (cfg, spec, graph) = fixture();
        let report = preflight(&cfg, &genotype(), &spec, &graph).expect("clean genotype");
        assert_eq!(report.edge_liveness, vec![vec![true; 3]; 2]);
    }

    #[test]
    fn over_budget_genotype_is_rejected_with_named_step() {
        let (mut cfg, spec, graph) = fixture();
        // 1 FLOP per step: everything blows the budget; the finding must
        // name a concrete analyzer step.
        cfg.max_flops_per_step = Some(1);
        let err = preflight(&cfg, &genotype(), &spec, &graph).unwrap_err();
        let over: Vec<_> = err
            .report
            .errors()
            .filter(|f| f.kind == cts_verify::FindingKind::OverBudget)
            .collect();
        assert!(!over.is_empty(), "{err}");
        assert!(
            over.iter().any(|f| f.site.contains("block0")),
            "no finding names a block step: {err}"
        );

        // Generous budgets pass the same genotype untouched.
        cfg.max_flops_per_step = Some(u64::MAX);
        cfg.max_peak_bytes = Some(u64::MAX);
        cfg.max_latency_ms = Some(f32::MAX);
        preflight(&cfg, &genotype(), &spec, &graph).expect("generous budgets accept");
    }

    #[test]
    fn starved_genotype_is_rejected_with_named_edge() {
        let (cfg, spec, graph) = fixture();
        let mut g = genotype();
        // Cut node 1's only path to the output: the gdcc on e0 is starved.
        g.blocks[0].edges[2] = (1, 2, OpKind::Zero);
        let err = preflight(&cfg, &g, &spec, &graph).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("block0.e0"), "{msg}");
        assert!(msg.contains("gdcc"), "{msg}");
    }

    fn dims(num_nodes: usize) -> ModelDims {
        ModelDims {
            features: 2,
            input_len: 12,
            horizon: 12,
            d_model: 8,
            num_nodes,
            gcn_k: 2,
            adaptive: false,
            adaptive_emb: 0,
        }
    }

    fn healthy_block() -> BlockSpec {
        BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (0, 2, OpKind::InformerS),
                (1, 2, OpKind::Identity),
            ],
        }
    }

    fn arch(blocks: Vec<BlockSpec>, backbone: Vec<usize>) -> ArchSpec {
        ArchSpec {
            dims: dims(5),
            blocks,
            backbone,
        }
    }

    #[test]
    fn prices_a_healthy_architecture() {
        let spec = arch(vec![healthy_block(), healthy_block()], vec![0, 1]);
        let report = analyze_cost(&spec, 4).expect("healthy arch prices");
        // embed + 2×(3 edges + residual) + 1 merge + output head = 11 steps.
        assert_eq!(report.steps.len(), 11);
        assert!(report.total.flops > 0);
        assert!(report.total.param_count > 0);
        assert!(report.total.bytes_read > 0);
        assert!(report.peak_bytes >= report.ideal_peak_bytes);
        assert!(report.peak_bytes >= report.slot_bytes);
        assert!(!report.peak_site.is_empty());
        assert!(report.total.dense_flops <= report.total.flops);
    }

    #[test]
    fn cost_grows_with_batch() {
        let spec = arch(vec![healthy_block()], vec![0]);
        let small = analyze_cost(&spec, 1).unwrap();
        let big = analyze_cost(&spec, 8).unwrap();
        assert!(big.total.flops > small.total.flops);
        assert!(big.peak_bytes > small.peak_bytes);
        // Parameters are batch-independent.
        assert_eq!(big.total.param_count, small.total.param_count);
    }

    #[test]
    fn invalid_genotype_is_rejected_before_pricing() {
        let broken = BlockSpec {
            m: 3,
            edges: vec![(0, 1, OpKind::Gdcc)], // node 2 dangling
        };
        let err = analyze_cost(&arch(vec![broken], vec![0]), 1).unwrap_err();
        assert!(!err.report.is_ok());
    }

    #[test]
    fn latency_model_orders_architectures_sensibly() {
        let small = analyze_cost(&arch(vec![healthy_block()], vec![0]), 1).unwrap();
        let large =
            analyze_cost(&arch(vec![healthy_block(), healthy_block()], vec![0, 1]), 1).unwrap();
        let m = LatencyModel::default();
        assert!(large.predicted_ns(&m) > small.predicted_ns(&m));
        assert!(small.predicted_ns(&m) > 0.0);
    }

    /// Supports are priced by shape, so a graph far past what training can
    /// hold prices without allocating its `[N, N]` supports (10 GB each at
    /// this size), and the node-mixing matmul scales as `N²`.
    #[test]
    fn prices_graphs_too_large_to_materialise() {
        let block = BlockSpec {
            m: 2,
            edges: vec![(0, 1, OpKind::Dgcn), (0, 1, OpKind::ChebGcn)],
        };
        let spec = |n| ArchSpec {
            dims: dims(n),
            blocks: vec![block.clone()],
            backbone: vec![0],
        };
        let small = analyze_cost(&spec(500), 1).expect("500 nodes price");
        let large = analyze_cost(&spec(50_000), 1).expect("50 000 nodes price");
        assert!(large.total.dense_flops > small.total.dense_flops.saturating_mul(5_000));
    }
}

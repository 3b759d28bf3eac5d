//! The three analysis passes: structure, symbolic shapes, gradient
//! reachability.

use crate::finding::{FindingKind, VerifyReport};
use crate::spec::{ArchSpec, BlockSpec};
use cts_ops::{OpKind, ShapeCtx};
use cts_tensor::sym::{broadcast_sym, format_shape, SymDim, SymShape};

/// Run every pass over `spec` and collect the verdict.
///
/// Structure is checked first; blocks that are structurally broken are
/// excluded from the shape and reachability passes (their findings would
/// be nonsense), but every other block is still analyzed, so one report
/// names as many independent defects as possible.
pub fn validate_genotype(spec: &ArchSpec) -> VerifyReport {
    let mut report = VerifyReport::default();
    let block_ok: Vec<bool> = spec
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| check_structure(&mut report, i, b))
        .collect();
    check_backbone(&mut report, spec);
    shape_pass(&mut report, spec, &block_ok);
    for (i, block) in spec.blocks.iter().enumerate() {
        if block_ok[i] {
            reach_pass(&mut report, i, block);
        } else {
            report.edge_liveness.push(vec![false; block.edges.len()]);
        }
    }
    report
}

/// Analyze one block DAG in isolation against an arbitrary symbolic input
/// shape.
///
/// This is the building block [`validate_genotype`] applies per backbone
/// position; it is public so callers (and mutation tests) can probe how a
/// block reacts to inputs the genotype-level walk would never produce —
/// e.g. a corrupted scaffold handing a block a rank-3 tensor or a
/// wrong-width channel dim.
pub fn validate_block(
    bi: usize,
    block: &BlockSpec,
    input: &SymShape,
    ctx: &ShapeCtx,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    if check_structure(&mut report, bi, block) {
        block_shapes(&mut report, bi, block, input, ctx);
        reach_pass(&mut report, bi, block);
    } else {
        report.edge_liveness.push(vec![false; block.edges.len()]);
    }
    report
}

/// Structural validity of one block DAG. Returns `false` when the block
/// is too broken for the later passes.
fn check_structure(report: &mut VerifyReport, bi: usize, block: &BlockSpec) -> bool {
    let mut ok = true;
    if block.m < 2 {
        report.error(
            FindingKind::MalformedBlock,
            format!("block{bi}"),
            format!(
                "block{bi} has m = {} latent nodes; at least 2 (input and output) are required",
                block.m
            ),
        );
        return false;
    }
    for (ei, (from, to, op)) in block.edges.iter().enumerate() {
        if from >= to || *to >= block.m {
            report.error(
                FindingKind::MalformedBlock,
                format!("block{bi}.e{ei}"),
                format!(
                    "edge e{ei} ({from}→{to}, {op}) of block{bi} is not a forward edge within {} nodes",
                    block.m
                ),
            );
            ok = false;
        }
    }
    if !ok {
        return false;
    }
    for j in 1..block.m {
        if !block.edges.iter().any(|(_, to, _)| *to == j) {
            report.error(
                FindingKind::DanglingNode,
                format!("block{bi} node {j}"),
                format!("node {j} of block{bi} has no incoming edge; its value is undefined"),
            );
            ok = false;
        }
    }
    ok
}

/// Macro wiring: one source index per block, each pointing at the
/// embedding (0) or an *earlier* block's output.
fn check_backbone(report: &mut VerifyReport, spec: &ArchSpec) {
    if spec.blocks.is_empty() {
        report.error(
            FindingKind::MalformedBlock,
            "model",
            "architecture has no ST-blocks",
        );
    }
    if spec.backbone.len() != spec.blocks.len() {
        report.error(
            FindingKind::BadBackbone,
            "backbone",
            format!(
                "backbone has {} entries for {} blocks",
                spec.backbone.len(),
                spec.blocks.len()
            ),
        );
        return;
    }
    for (i, &src) in spec.backbone.iter().enumerate() {
        if src > i {
            report.error(
                FindingKind::BadBackbone,
                format!("backbone[{i}]"),
                format!(
                    "block{i} reads source {src}, but only the embedding (0) and blocks 0..{i} exist at that point"
                ),
            );
        }
    }
}

/// Walk the whole architecture symbolically, inferring every intermediate
/// shape and checking the output head's round-trip constraint.
fn shape_pass(report: &mut VerifyReport, spec: &ArchSpec, block_ok: &[bool]) {
    let dims = &spec.dims;
    let node_dim = match dims.num_nodes {
        Some(n) => SymDim::Const(n),
        None => SymDim::Sym("N"),
    };
    let ctx = ShapeCtx {
        width: dims.d_model,
        graph_nodes: dims.num_nodes,
    };
    // Embedding: Linear(features → d_model) over the last dim.
    let embedded: SymShape = vec![
        SymDim::Sym("B"),
        node_dim,
        SymDim::Const(dims.input_len),
        SymDim::Const(dims.d_model),
    ];
    let mut sources: Vec<Option<SymShape>> = vec![Some(embedded)];
    let mut block_outputs: Vec<Option<SymShape>> = Vec::with_capacity(spec.blocks.len());
    for (bi, block) in spec.blocks.iter().enumerate() {
        let input = spec
            .backbone
            .get(bi)
            .and_then(|&src| sources.get(src).cloned().flatten());
        let out = match (&input, block_ok[bi]) {
            (Some(input), true) => block_shapes(report, bi, block, input, &ctx),
            _ => None,
        };
        // Block-level residual: out + input must broadcast.
        let residual = match (&out, &input) {
            (Some(o), Some(i)) => match broadcast_sym(o, i) {
                Ok(s) => Some(s),
                Err(e) => {
                    report.error(
                        FindingKind::BroadcastMismatch,
                        format!("block{bi} residual"),
                        format!("block{bi}'s output cannot add to its residual input: {e}"),
                    );
                    None
                }
            },
            _ => None,
        };
        sources.push(residual.clone());
        block_outputs.push(residual);
    }
    // Merge: sum of all block outputs.
    let mut merged: Option<SymShape> = None;
    for (bi, out) in block_outputs.iter().enumerate() {
        let Some(out) = out else { return };
        merged = Some(match merged {
            None => out.clone(),
            Some(acc) => match broadcast_sym(&acc, out) {
                Ok(s) => s,
                Err(e) => {
                    report.error(
                        FindingKind::BroadcastMismatch,
                        "merge",
                        format!("block{bi}'s output cannot join the skip-connection sum: {e}"),
                    );
                    return;
                }
            },
        });
    }
    let Some(merged) = merged else { return };
    // Round-trip: the output head flattens [B, N, T, D] → [B, N, T·D] and
    // expects T == input_len, D == d_model (and N == the graph's).
    let mut ok =
        merged.len() == 4 && merged[2].is_const(dims.input_len) && merged[3].is_const(dims.d_model);
    if let (true, Some(n)) = (ok, dims.num_nodes) {
        ok = merged[1].is_const(n);
    }
    if !ok {
        report.error(
            FindingKind::RoundTrip,
            "output head",
            format!(
                "merged backbone output is {}, but the output head needs [B, {}, {}, {}] to flatten into its {}-unit input",
                format_shape(&merged),
                dims.num_nodes.map_or_else(|| "N".to_string(), |n| n.to_string()),
                dims.input_len,
                dims.d_model,
                dims.input_len * dims.d_model,
            ),
        );
    }
    report.merged_shape = Some(merged);
}

/// Infer every node shape inside one block; returns the output node's
/// shape when inference survives.
fn block_shapes(
    report: &mut VerifyReport,
    bi: usize,
    block: &BlockSpec,
    input: &SymShape,
    ctx: &ShapeCtx,
) -> Option<SymShape> {
    let mut nodes: Vec<Option<SymShape>> = vec![None; block.m];
    nodes[0] = Some(input.clone());
    let mut ok = true;
    for j in 1..block.m {
        let mut acc: Option<SymShape> = None;
        for (ei, (from, to, op)) in block.edges.iter().enumerate() {
            if *to != j {
                continue;
            }
            let Some(src) = nodes[*from].clone() else {
                continue; // upstream already failed; avoid cascading noise
            };
            let site = format!("block{bi}.e{ei}");
            let out = match op.infer_shape(&src, ctx) {
                Ok(s) => s,
                Err(issue) => {
                    report.error(
                        FindingKind::from(&issue),
                        site,
                        format!("edge e{ei} ({from}→{to}, {op}) of block{bi}: {issue}"),
                    );
                    ok = false;
                    continue;
                }
            };
            acc = match acc.take() {
                None => Some(out),
                Some(a) => match broadcast_sym(&a, &out) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        report.error(
                            FindingKind::BroadcastMismatch,
                            format!("block{bi} node {j}"),
                            format!(
                                "edge e{ei} ({from}→{to}, {op}) cannot sum into node {j} of block{bi}: {e}"
                            ),
                        );
                        ok = false;
                        Some(a)
                    }
                },
            };
        }
        nodes[j] = acc;
    }
    if !ok {
        return None;
    }
    nodes[block.m - 1].clone()
}

/// Gradient reachability inside one block.
///
/// * `fwd[i]`: node `i` carries input-dependent signal (reachable from the
///   block input through non-`zero` edges).
/// * `bwd[j]`: a gradient from the block output reaches node `j` through
///   non-`zero` edges.
///
/// An edge's *parameters* are reachable iff `bwd[to]` holds — the tape
/// path from the loss to an operator weight runs through the op's output,
/// never through its input history (a zero-fed operator still trains its
/// bias and norm). `fwd` drives the degeneracy checks instead: an
/// all-`zero`-fed node is identically zero.
fn reach_pass(report: &mut VerifyReport, bi: usize, block: &BlockSpec) {
    let m = block.m;
    let mut fwd = vec![false; m];
    fwd[0] = true;
    for j in 1..m {
        let incoming: Vec<&(usize, usize, OpKind)> =
            block.edges.iter().filter(|(_, to, _)| *to == j).collect();
        fwd[j] = incoming
            .iter()
            .any(|(from, _, op)| *op != OpKind::Zero && fwd[*from]);
        if !incoming.is_empty() && incoming.iter().all(|(_, _, op)| *op == OpKind::Zero) {
            report.error(
                FindingKind::AllZeroInput,
                format!("block{bi} node {j}"),
                format!(
                    "node {j} of block{bi} is identically zero: all {} of its incoming edges are `zero`",
                    incoming.len()
                ),
            );
        }
    }
    let mut bwd = vec![false; m];
    bwd[m - 1] = true;
    for i in (0..m - 1).rev() {
        bwd[i] = block
            .edges
            .iter()
            .any(|(from, to, op)| *from == i && *op != OpKind::Zero && bwd[*to]);
    }
    let mut liveness = Vec::with_capacity(block.edges.len());
    for (ei, (from, to, op)) in block.edges.iter().enumerate() {
        let live = *op != OpKind::Zero && bwd[*to];
        liveness.push(live);
        if op.is_parametric() && !live {
            report.error(
                FindingKind::StarvedParam,
                format!("block{bi}.e{ei}"),
                format!(
                    "parameters of edge e{ei} ({from}→{to}, {op}) in block{bi} can never receive a gradient: node {to} does not reach the block output through any non-`zero` path"
                ),
            );
        }
    }
    for j in 1..m - 1 {
        if !bwd[j] {
            report.warning(
                FindingKind::DeadNode,
                format!("block{bi} node {j}"),
                format!(
                    "node {j} of block{bi} never reaches the block output through a non-`zero` path; its computation is wasted"
                ),
            );
        } else if !fwd[j] {
            report.warning(
                FindingKind::DeadNode,
                format!("block{bi} node {j}"),
                format!(
                    "node {j} of block{bi} carries no input-dependent signal (every path from the block input passes a `zero` edge)"
                ),
            );
        }
    }
    report.edge_liveness.push(liveness);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelDims;

    fn dims() -> ModelDims {
        ModelDims {
            features: 2,
            input_len: 12,
            horizon: 12,
            d_model: 8,
            num_nodes: Some(5),
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
            dims: dims(),
            blocks,
            backbone,
        }
    }

    #[test]
    fn healthy_architecture_passes() {
        let spec = arch(vec![healthy_block(), healthy_block()], vec![0, 1]);
        let report = validate_genotype(&spec);
        assert!(report.is_ok(), "unexpected findings: {:?}", report.findings);
        let merged = report.merged_shape.expect("shape pass completed");
        assert_eq!(format_shape(&merged), "[B, 5, 12, 8]");
        assert_eq!(report.edge_liveness, vec![vec![true; 3]; 2]);
    }

    #[test]
    fn zero_edges_are_dead_but_legal_when_bypassed() {
        let block = BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (1, 2, OpKind::InformerT),
                (0, 2, OpKind::Zero),
            ],
        };
        let report = validate_genotype(&arch(vec![block], vec![0]));
        assert!(report.is_ok(), "{:?}", report.findings);
        assert_eq!(report.edge_liveness, vec![vec![true, true, false]]);
    }

    #[test]
    fn starved_parametric_edge_is_flagged() {
        // Node 1 only exits through a zero edge, so the gdcc on (0,1) can
        // never see a gradient. (0,2) keeps the output alive.
        let block = BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (1, 2, OpKind::Zero),
                (0, 2, OpKind::Identity),
            ],
        };
        let report = validate_genotype(&arch(vec![block], vec![0]));
        assert!(!report.is_ok());
        let f = report
            .errors()
            .find(|f| f.kind == FindingKind::StarvedParam)
            .expect("starved param finding");
        assert!(f.message.contains("e0"), "{}", f.message);
        assert!(f.message.contains("gdcc"), "{}", f.message);
        assert_eq!(report.edge_liveness, vec![vec![false, false, true]]);
    }

    #[test]
    fn dead_node_is_a_warning_not_an_error() {
        // Node 1 exits only through zero, but nothing parametric feeds it:
        // wasted plumbing, still trainable.
        let block = BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Identity),
                (1, 2, OpKind::Zero),
                (0, 2, OpKind::Gdcc),
            ],
        };
        let report = validate_genotype(&arch(vec![block], vec![0]));
        assert!(report.is_ok(), "{:?}", report.findings);
        assert!(report.warnings().any(|f| f.kind == FindingKind::DeadNode));
    }

    #[test]
    fn backbone_forward_reference_rejected() {
        let spec = arch(vec![healthy_block(), healthy_block()], vec![0, 2]);
        let report = validate_genotype(&spec);
        assert!(report
            .errors()
            .any(|f| f.kind == FindingKind::BadBackbone && f.site == "backbone[1]"));
    }

    #[test]
    fn unknown_node_count_stays_symbolic() {
        let mut spec = arch(vec![healthy_block()], vec![0]);
        spec.dims.num_nodes = None;
        let report = validate_genotype(&spec);
        assert!(report.is_ok(), "{:?}", report.findings);
        assert_eq!(format_shape(&report.merged_shape.unwrap()), "[B, N, 12, 8]");
    }
}

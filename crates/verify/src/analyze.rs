//! The analysis passes: structure, backbone wiring, gradient
//! reachability.

use crate::finding::{FindingKind, VerifyReport};
use crate::spec::{ArchSpec, BlockSpec};
use cts_ops::OpKind;

/// Run every pass over `spec` and collect the verdict.
///
/// Structure is checked first; blocks that are structurally broken are
/// excluded from the reachability pass (its findings would be nonsense),
/// but every other block is still analyzed, so one report names as many
/// independent defects as possible.
pub fn validate_genotype(spec: &ArchSpec) -> VerifyReport {
    let mut report = VerifyReport::default();
    let block_ok: Vec<bool> = spec
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| check_structure(&mut report, i, b))
        .collect();
    check_backbone(&mut report, spec);
    for (i, block) in spec.blocks.iter().enumerate() {
        if block_ok[i] {
            reach_pass(&mut report, i, block);
        } else {
            report.edge_liveness.push(vec![false; block.edges.len()]);
        }
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
            num_nodes: 5,
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
}

//! Mutation-style tests: seed the analyzer with deliberately broken
//! architectures — one per defect class — and assert each is rejected
//! with a finding that names the offending node or edge.

use cts_verify::{validate_genotype, ArchSpec, BlockSpec, FindingKind, ModelDims, OpKind};

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

fn assert_rejected(spec: &ArchSpec, kind: FindingKind, site_fragment: &str, msg_fragment: &str) {
    let report = validate_genotype(spec);
    assert!(!report.is_ok(), "broken spec was accepted: {spec:?}");
    let hit = report
        .errors()
        .find(|f| f.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} finding in {:?}", report.findings));
    assert!(
        hit.site.contains(site_fragment),
        "site {:?} does not name {site_fragment:?}",
        hit.site
    );
    assert!(
        hit.message.contains(msg_fragment),
        "message {:?} does not mention {msg_fragment:?}",
        hit.message
    );
}

// Defect class 1: dangling node — a latent node no edge ever feeds.
#[test]
fn dangling_node_rejected() {
    let block = BlockSpec {
        m: 4,
        edges: vec![
            (0, 1, OpKind::Gdcc),
            (1, 3, OpKind::InformerT),
            (0, 3, OpKind::Identity),
        ],
    };
    assert_rejected(
        &arch(vec![block], vec![0]),
        FindingKind::DanglingNode,
        "node 2",
        "node 2",
    );
}

// Defect class 2: all-zero input edges — the node is identically zero.
#[test]
fn all_zero_input_node_rejected() {
    let block = BlockSpec {
        m: 3,
        edges: vec![
            (0, 1, OpKind::Zero),
            (0, 2, OpKind::Gdcc),
            (1, 2, OpKind::Identity),
        ],
    };
    assert_rejected(
        &arch(vec![block], vec![0]),
        FindingKind::AllZeroInput,
        "node 1",
        "zero",
    );
}

// Defect class 3: gradient-starved parameter — a parametric edge whose
// target never reaches the block output through a non-zero path.
#[test]
fn gradient_starved_parameter_rejected() {
    let block = BlockSpec {
        m: 4,
        edges: vec![
            (0, 1, OpKind::InformerT),
            (1, 2, OpKind::Gdcc),
            (2, 3, OpKind::Zero),
            (0, 3, OpKind::InformerS),
        ],
    };
    let spec = arch(vec![block], vec![0]);
    let report = validate_genotype(&spec);
    assert!(!report.is_ok());
    // Both the informer_t on e0 and the gdcc on e1 are behind the zero cut.
    let starved: Vec<_> = report
        .errors()
        .filter(|f| f.kind == FindingKind::StarvedParam)
        .collect();
    assert_eq!(starved.len(), 2, "{:?}", report.findings);
    assert!(starved.iter().any(|f| f.site == "block0.e0"));
    assert!(starved.iter().any(|f| f.site == "block0.e1"));
    assert!(starved[0].message.contains("never receive a gradient"));
    assert_eq!(report.edge_liveness, vec![vec![false, false, false, true]]);
}

// Defect class 4: bad macro wiring — a block reading a source that does
// not exist yet (forward reference in the backbone).
#[test]
fn bad_macro_wiring_rejected() {
    assert_rejected(
        &arch(vec![healthy_block(), healthy_block()], vec![0, 2]),
        FindingKind::BadBackbone,
        "backbone[1]",
        "source 2",
    );
}

// Defect class 5: malformed block — a backward (non-DAG) edge.
#[test]
fn backward_edge_rejected() {
    let block = BlockSpec {
        m: 3,
        edges: vec![
            (0, 1, OpKind::Gdcc),
            (2, 1, OpKind::Identity),
            (0, 2, OpKind::InformerT),
        ],
    };
    assert_rejected(
        &arch(vec![block], vec![0]),
        FindingKind::MalformedBlock,
        "block0.e1",
        "2→1",
    );
}

// Defect class 6: degenerate block — fewer than two latent nodes.
#[test]
fn single_node_block_rejected() {
    let block = BlockSpec {
        m: 1,
        edges: vec![],
    };
    assert_rejected(
        &arch(vec![block], vec![0]),
        FindingKind::MalformedBlock,
        "block0",
        "at least 2",
    );
}

// Defect class 7: backbone arity mismatch.
#[test]
fn backbone_length_mismatch_rejected() {
    assert_rejected(
        &arch(vec![healthy_block(), healthy_block()], vec![0]),
        FindingKind::BadBackbone,
        "backbone",
        "1 entries for 2 blocks",
    );
}

// Sanity: a healthy compact-set architecture sails through, and every
// finding Display names its site.
#[test]
fn healthy_spec_accepted_and_findings_display_sites() {
    let report = validate_genotype(&arch(vec![healthy_block(), healthy_block()], vec![0, 1]));
    assert!(report.is_ok(), "{:?}", report.findings);

    let broken = arch(vec![healthy_block(), healthy_block()], vec![0, 2]);
    let err = cts_verify::check_genotype(&broken).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("backbone[1]"), "{rendered}");
    assert!(rendered.contains("architecture rejected"), "{rendered}");
}

//! `cost-scaling`: pure static analysis of how every operator family's
//! resource footprint scales with graph size.
//!
//! For each operator family in the full Table 1 set, a canonical
//! two-block architecture dominated by that family is priced by
//! `autocts::preflight::analyze_cost` at N = 100, 300 and 1000 nodes without
//! executing a kernel, so the 1000-node column costs milliseconds, not
//! the hours a training run would. Each priced architecture is then
//! checked against a fixed reference budget (calibrated to pass at
//! N = 100) and the report names, per family, which budget blows first
//! as N grows: FLOPs-per-step for the dense spatial families, peak
//! arena bytes for the attention families, and so on.
//!
//! This binary is pure reporting: it exits non-zero only if the analyzer
//! itself refuses an architecture it should accept.

use autocts::preflight::analyze_cost;
use cts_ops::full_set;
use cts_verify::{
    check_budgets, ArchSpec, BlockSpec, CostBudgets, LatencyModel, ModelDims, OpKind, VerifyReport,
};
use std::process::ExitCode;

const NODES: [usize; 3] = [100, 300, 1000];
const BATCH: usize = 8;

/// Reference budgets: sized so every family passes at N = 100 with the
/// dims below, making the blown column purely a statement about scaling.
const BUDGETS: CostBudgets = CostBudgets {
    max_flops_per_step: Some(6_000_000_000),
    max_peak_bytes: Some(1_500_000_000),
    max_latency_ms: Some(10_000.0),
};

fn dims(n: usize) -> ModelDims {
    ModelDims {
        features: 2,
        input_len: 12,
        horizon: 12,
        d_model: 32,
        num_nodes: n,
        gcn_k: 2,
        adaptive: false,
        adaptive_emb: 0,
    }
}

/// A two-block architecture dominated by `op`: each block is the
/// canonical M = 3 derived topology with `op` on every slot, chained
/// across the backbone. `Zero` cannot carry a whole block (the analyzer
/// rightly rejects an identically-zero DAG), so it rides on the skip
/// slot of an identity block instead.
fn family_arch(op: OpKind, n: usize) -> ArchSpec {
    let edges = match op {
        OpKind::Zero => vec![
            (0, 1, OpKind::Identity),
            (1, 2, OpKind::Identity),
            (0, 2, OpKind::Zero),
        ],
        _ => vec![(0, 1, op), (1, 2, op), (0, 2, op)],
    };
    let block = BlockSpec { m: 3, edges };
    ArchSpec {
        dims: dims(n),
        blocks: vec![block.clone(), block],
        backbone: vec![0, 1],
    }
}

fn blown(report: &VerifyReport) -> String {
    let mut blown: Vec<String> = Vec::new();
    for f in report.errors() {
        let label = if f.message.contains("FLOPs") {
            format!("flops/step (first at {})", f.site)
        } else if f.message.contains("peak") {
            "peak bytes".to_string()
        } else {
            "latency".to_string()
        };
        if !blown
            .iter()
            .any(|b| b.split(" (").next() == label.split(" (").next())
        {
            blown.push(label);
        }
    }
    if blown.is_empty() {
        "within budget".into()
    } else {
        blown.join(" + ")
    }
}

fn main() -> ExitCode {
    println!(
        "cost-scaling: static pricing of each operator family at N = {NODES:?} nodes \
         (batch {BATCH}, d_model 32, T 12; pure analysis, nothing executed)"
    );
    let (flops_cap, bytes_cap, ms_cap) = (
        // invariant: BUDGETS is a const with all three caps Some
        BUDGETS.max_flops_per_step.unwrap(),
        BUDGETS.max_peak_bytes.unwrap(),
        BUDGETS.max_latency_ms.unwrap(),
    );
    println!(
        "budgets: {} GFLOPs/step, {} MB peak, {} ms predicted",
        flops_cap as f64 / 1e9,
        bytes_cap as f64 / 1e6,
        ms_cap,
    );
    let latency = LatencyModel::default();
    println!(
        "  {:<14} {:>6} {:>12} {:>12} {:>12} {:>12}  budget verdict",
        "family", "N", "GFLOPs", "peak MB", "ideal MB", "pred ms"
    );

    let mut failures = 0usize;
    for op in full_set() {
        for n in NODES {
            let arch = family_arch(op, n);
            let report = match analyze_cost(&arch, BATCH) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  {:<14} {n:>6} ANALYSIS REFUSED: {e}", op.label());
                    failures += 1;
                    continue;
                }
            };
            let mut verdict = VerifyReport::default();
            check_budgets(&mut verdict, &report, &BUDGETS, &latency);
            println!(
                "  {:<14} {:>6} {:>12.3} {:>12.2} {:>12.2} {:>12.2}  {}",
                op.label(),
                n,
                report.total.flops as f64 / 1e9,
                report.peak_bytes as f64 / 1e6,
                report.ideal_peak_bytes as f64 / 1e6,
                report.predicted_ns(&latency) / 1e6,
                blown(&verdict),
            );
        }
    }

    if failures == 0 {
        println!(
            "OK: every family priced at every graph size, including 1000 nodes, in pure analysis."
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} architectures refused by the cost model");
        ExitCode::FAILURE
    }
}

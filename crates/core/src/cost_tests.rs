//! Tests for the efficiency-aware search extension (§6 future work).

#![cfg(test)]

use crate::{joint_search, MicroCell, SearchConfig};
use cts_autograd::Tape;
use cts_data::{build_windows, generate, DatasetSpec};
use cts_ops::OpKind;
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn expected_cost_is_differentiable_and_positive() {
    let cfg = SearchConfig {
        m: 3,
        d_model: 4,
        ..Default::default()
    };
    let cell = MicroCell::new(&mut SmallRng::seed_from_u64(0), "c", &cfg, false);
    let tape = Tape::new();
    let cost = cell.expected_cost(&tape, 1.0);
    assert!(cost.value().item() > 0.0);
    tape.backward(&cost);
    let alpha = &cell.arch_parameters()[0];
    assert!(
        alpha.grad().norm() > 0.0,
        "cost gradient did not reach alpha"
    );
}

#[test]
fn cost_penalty_prefers_cheaper_operators() {
    // With a dominating penalty, the search should drive alpha toward the
    // cheapest parametric ops and away from expensive ones (DGCN here).
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.014);
    let data = generate(&spec, 17);
    let windows = build_windows(&data, 6, 20);
    let base = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 3,
        batch_size: 4,
        ..Default::default()
    };
    let expensive_ops = |genotype: &crate::Genotype| -> usize {
        genotype
            .op_histogram()
            .iter()
            .filter(|(op, _)| matches!(op, OpKind::Dgcn | OpKind::InformerT | OpKind::InformerS))
            .map(|(_, c)| *c)
            .sum()
    };
    let (g_free, _, _) = joint_search(&base, &spec, &data.graph, &windows).unwrap();
    let penalised = base.clone().with_cost_penalty(50.0);
    let (g_cheap, _, _) = joint_search(&penalised, &spec, &data.graph, &windows).unwrap();
    assert!(
        expensive_ops(&g_cheap) <= expensive_ops(&g_free),
        "penalty did not reduce expensive-op usage: {} vs {}",
        expensive_ops(&g_cheap),
        expensive_ops(&g_free)
    );
    // identity (cheapest non-zero) should appear at least as often
    let identity_count = |g: &crate::Genotype| {
        g.op_histogram()
            .iter()
            .find(|(op, _)| *op == OpKind::Identity)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert!(identity_count(&g_cheap) >= identity_count(&g_free));
}

#[test]
fn zero_penalty_matches_paper_configuration() {
    let cfg = SearchConfig::default();
    assert_eq!(cfg.cost_penalty, 0.0);
    assert_eq!(cfg.with_cost_penalty(0.1).cost_penalty, 0.1);
}

#[test]
fn relative_costs_are_ordered_sensibly() {
    // non-parametric < conv < attention <= recurrent
    assert!(OpKind::Zero.relative_cost() < OpKind::Identity.relative_cost());
    assert!(OpKind::Identity.relative_cost() < OpKind::Conv1d.relative_cost());
    assert!(OpKind::Conv1d.relative_cost() < OpKind::InformerT.relative_cost());
    assert!(OpKind::InformerT.relative_cost() < OpKind::TransformerT.relative_cost());
    assert!(OpKind::TransformerT.relative_cost() < OpKind::Lstm.relative_cost());
}

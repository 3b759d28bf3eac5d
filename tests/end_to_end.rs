//! Cross-crate integration tests: the full AutoCTS pipeline, ablation
//! variants, and transfer, exercised end to end on tiny synthetic data.

use autocts::{derive_genotype, AutoCts, Genotype, SearchConfig, SupernetModel};
use cts_data::{build_windows, generate, DatasetSpec, SplitWindows};
use rand::{rngs::SmallRng, SeedableRng};

fn tiny_traffic(seed: u64) -> (DatasetSpec, cts_data::CtsData, SplitWindows) {
    let spec = DatasetSpec::metr_la().scaled(0.045, 0.014);
    let data = generate(&spec, seed);
    let windows = build_windows(&data, 6, 24);
    (spec, data, windows)
}

fn tiny_cfg() -> SearchConfig {
    SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_search_derive_evaluate() {
    let (spec, data, windows) = tiny_traffic(1);
    let auto = AutoCts::new(tiny_cfg());
    let outcome = auto.search(&spec, &data.graph, &windows);
    outcome.genotype.validate().unwrap();
    assert_eq!(outcome.genotype.b(), 2);
    let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 6);
    assert!(report.overall.mae.is_finite() && report.overall.mae > 0.0);
    assert!(report.overall.rmse >= report.overall.mae);
    assert_eq!(report.horizons.len(), spec.output_len);
}

#[test]
fn genotype_survives_serialisation_and_transfer() {
    let (spec, data, windows) = tiny_traffic(2);
    let auto = AutoCts::new(tiny_cfg());
    let outcome = auto.search(&spec, &data.graph, &windows);
    // serialise, parse, and evaluate on a *different* dataset (transfer)
    let text = outcome.genotype.to_text();
    let parsed = Genotype::from_text(&text).unwrap();
    assert_eq!(parsed, outcome.genotype);
    let spec2 = DatasetSpec::pems08().scaled(0.06, 0.02);
    let data2 = generate(&spec2, 3);
    let windows2 = build_windows(&data2, 6, 24);
    let report = auto.evaluate(&parsed, &spec2, &data2.graph, &windows2, 4);
    assert!(report.overall.mae.is_finite());
}

#[test]
fn ablation_variants_all_run() {
    let (spec, data, windows) = tiny_traffic(4);
    for cfg in [
        tiny_cfg().without_temperature(),
        tiny_cfg().without_macro_search(),
        tiny_cfg().without_design_principles(),
    ] {
        let auto = AutoCts::new(cfg.clone());
        let outcome = auto.search(&spec, &data.graph, &windows);
        outcome.genotype.validate().unwrap();
        if !cfg.macro_search {
            // stacked homogeneous blocks in a chain
            assert_eq!(outcome.genotype.backbone, vec![0, 1]);
            assert_eq!(outcome.genotype.blocks[0], outcome.genotype.blocks[1]);
        }
    }
}

#[test]
fn single_step_pipeline_runs_without_graph() {
    let spec = DatasetSpec::electricity(3).scaled(0.03, 0.025);
    let data = generate(&spec, 5);
    assert_eq!(data.graph.edge_count(), 0);
    let windows = build_windows(&data, 16, 12);
    let auto = AutoCts::new(SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 1,
        batch_size: 4,
        ..Default::default()
    });
    let outcome = auto.search(&spec, &data.graph, &windows);
    let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 3);
    assert!(report.overall.rrse.is_finite());
    assert!(report.overall.corr.is_finite());
}

#[test]
fn search_cost_scales_with_operator_set() {
    // the w/o-design-principles space (12 ops) must cost more per step
    // than the compact space (6 ops) — the paper's efficiency claim.
    let (spec, data, windows) = tiny_traffic(6);
    let run = |cfg: SearchConfig| {
        let auto = AutoCts::new(cfg);
        auto.search(&spec, &data.graph, &windows).stats
    };
    let compact = run(tiny_cfg());
    let full = run(tiny_cfg().without_design_principles());
    assert_eq!(compact.steps, full.steps);
    assert!(
        full.secs > compact.secs,
        "full set {} not slower than compact {}",
        full.secs,
        compact.secs
    );
}

#[test]
fn repeated_retraining_arena_residency_stops_growing() {
    // Each `try_evaluate` builds a model whose parameters come from
    // `Tensor::from_vec`, frees them into this thread's arena and never
    // takes them back. Free lists capped at the thread's own demand keep
    // that from piling up: residency plateaus once every size class has
    // seen its peak, instead of growing with every call.
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 3);
    let windows = build_windows(&data, 4, 40);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 1,
        batch_size: 4,
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(5);
    let supernet = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
    let genotype = derive_genotype(&supernet).expect("finite snapshot derives");
    drop(supernet);
    let auto = AutoCts::new(cfg);
    let evaluate = |calls: usize| {
        for _ in 0..calls {
            auto.try_evaluate(&genotype, &spec, &data.graph, &windows, 1)
                .expect("evaluation runs");
        }
        cts_tensor::arena::stats().resident_floats
    };
    // Measured plateau: the 18th call (about 621K floats). Before the cap,
    // residency grew by about 30K floats per call without bound.
    let warm = evaluate(20);
    let after = evaluate(8);
    assert!(
        after <= warm,
        "arena residency grew from {warm} to {after} floats over 8 calls after warm-up"
    );
}

//! Every model that trains through `cts_nn::train_full` or
//! `autocts::joint_search` names its parameters uniquely. Both loops keep
//! their state as a named `RunState` — checkpoints and watchdog rollback
//! snapshots alike — and refuse to start when two parameters share a name,
//! since such a state could not be restored unambiguously.

use autocts::{DerivedModel, Genotype, SearchConfig, SupernetModel};
use cts_autograd::Parameter;
use cts_bench::{build_baseline, prepare, ExpContext, MacroOnlyModel, SingleOpModel};
use cts_data::DatasetSpec;
use cts_nn::checkpoint::RunState;
use cts_nn::Forecaster;
use cts_ops::OpKind;
use rand::{rngs::SmallRng, SeedableRng};

fn assert_unique(label: &str, params: &[Parameter]) {
    assert!(!params.is_empty(), "{label}: no parameters");
    if let Err(e) = RunState::capture_params(params) {
        panic!("{label}: {e}");
    }
}

#[test]
fn every_trained_model_names_its_parameters_uniquely() {
    let ctx = ExpContext::smoke();
    let p = prepare(&ctx, &DatasetSpec::metr_la());
    let (spec, graph, scaler) = (&p.spec, &p.data.graph, &p.windows.scaler);

    for name in cts_bench::BASELINE_NAMES {
        assert_unique(name, &build_baseline(name, &ctx, &p).parameters());
    }

    let cfg = SearchConfig {
        d_model: 8,
        ..Default::default()
    };
    let supernet = SupernetModel::new(&mut SmallRng::seed_from_u64(1), &cfg, spec, graph, scaler);
    // joint_search checkpoints Θ and w as one list, in this order.
    let mut search_params = supernet.arch_parameters();
    search_params.extend(supernet.weight_parameters());
    assert_unique("supernet arch + weight", &search_params);

    // Together the two genotypes use all 12 operator kinds and both
    // backbones (two blocks fed by the embedding, and a chain).
    for text in [
        "m=3 0-2:gdcc 0-1:inf-t 1-2:dgcn | m=3 0-1:lstm 1-2:cheb-gcn 0-2:identity @ 0,0",
        "m=3 0-1:conv1d 1-2:trans-t 0-2:zero | m=3 0-1:gru 1-2:trans-s 0-2:inf-s @ 0,1",
    ] {
        let genotype = Genotype::from_text(text).unwrap();
        let model = DerivedModel::new(
            &mut SmallRng::seed_from_u64(2),
            &cfg,
            &genotype,
            spec,
            graph,
            scaler,
        );
        assert_unique(text, &model.parameters());
    }

    for kind in OpKind::all() {
        let model = SingleOpModel::new(kind, &ctx, &p);
        assert_unique(kind.label(), &model.parameters());
    }
    assert_unique("macro only", &MacroOnlyModel::new(&ctx, &p).parameters());
}

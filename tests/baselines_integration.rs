//! Integration tests: every baseline trains end to end and improves over
//! its own initialisation on synthetic traffic data.

use autocts::eval::{evaluate_model, train_and_evaluate};
use cts_baselines::{Agcrn, BaselineConfig, Dcrnn, GraphWaveNet, LstNet, Mtgnn, Stgcn, TpaLstm};
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::{Forecaster, LossKind, TrainConfig};

fn traffic_fixture() -> (DatasetSpec, cts_data::CtsData, cts_data::SplitWindows) {
    let spec = DatasetSpec::metr_la().scaled(0.05, 0.015);
    let data = generate(&spec, 21);
    let windows = build_windows(&data, 5, 28);
    (spec, data, windows)
}

fn train_improves(model: &dyn Forecaster, spec: &DatasetSpec, windows: &cts_data::SplitWindows) {
    let test = batches_from_windows(&windows.test, 4);
    let (before, _) = evaluate_model(model, &test, spec.null_value);
    let cfg = TrainConfig {
        epochs: 5,
        lr: 2e-3,
        weight_decay: 1e-4,
        clip: 5.0,
        loss: LossKind::MaskedMae {
            null_value: spec.null_value,
        },
        patience: 0,
        ..TrainConfig::default()
    };
    let report = train_and_evaluate(model, spec, windows, &cfg, 4).unwrap();
    assert!(
        report.overall.mae < before.mae,
        "{}: MAE did not improve ({} -> {})",
        model.name(),
        before.mae,
        report.overall.mae
    );
    assert!(report.overall.mae.is_finite());
}

#[test]
fn stgcn_trains_and_improves() {
    let (spec, data, windows) = traffic_fixture();
    let m = Stgcn::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    train_improves(&m, &spec, &windows);
}

#[test]
fn dcrnn_trains_and_improves() {
    let (spec, data, windows) = traffic_fixture();
    let m = Dcrnn::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    train_improves(&m, &spec, &windows);
}

#[test]
fn gwnet_trains_and_improves() {
    let (spec, data, windows) = traffic_fixture();
    let m = GraphWaveNet::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    train_improves(&m, &spec, &windows);
}

#[test]
fn agcrn_trains_and_improves() {
    let (spec, data, windows) = traffic_fixture();
    let m = Agcrn::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    train_improves(&m, &spec, &windows);
}

#[test]
fn mtgnn_trains_and_improves() {
    let (spec, data, windows) = traffic_fixture();
    let m = Mtgnn::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    train_improves(&m, &spec, &windows);
}

#[test]
fn lstnet_and_tpa_train_on_single_step() {
    let spec = DatasetSpec::solar_energy(3).scaled(0.06, 0.006);
    let data = generate(&spec, 22);
    let windows = build_windows(&data, 20, 12);
    let cfg = TrainConfig {
        epochs: 5,
        loss: LossKind::Mse,
        ..TrainConfig::default()
    };
    for model in [
        Box::new(LstNet::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        )) as Box<dyn Forecaster>,
        Box::new(TpaLstm::new(
            &BaselineConfig::default(),
            &spec,
            &data.graph,
            &windows.scaler,
        )),
    ] {
        let report = train_and_evaluate(model.as_ref(), &spec, &windows, &cfg, 4).unwrap();
        assert!(report.overall.rrse.is_finite(), "{} RRSE", model.name());
        assert!(report.overall.rrse > 0.0);
    }
}

#[test]
fn models_predict_in_raw_units() {
    // outputs must be speeds (tens), not z-scores — the affine head works
    let (spec, data, windows) = traffic_fixture();
    let m = GraphWaveNet::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let test = batches_from_windows(&windows.test, 2);
    let (pred, _) = autocts::eval::collect_predictions(&m, &test);
    assert!(
        pred.mean() > 20.0,
        "untrained predictions should sit near the data mean, got {}",
        pred.mean()
    );
}

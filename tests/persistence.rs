//! Integration test: a searched-and-trained model round-trips through
//! (genotype text + weight checkpoint) persistence.

use autocts::eval::collect_predictions;
use autocts::{AutoCts, DerivedModel, Genotype, SearchConfig};
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::checkpoint::{load_parameters, save_parameters};
use cts_nn::{train_full, Forecaster, LossKind, TrainConfig};
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn genotype_plus_checkpoint_reconstructs_model_exactly() {
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.014);
    let data = generate(&spec, 33);
    let windows = build_windows(&data, 6, 20);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 1,
        batch_size: 4,
        ..Default::default()
    };

    // search + short training
    let auto = AutoCts::new(cfg.clone());
    let outcome = auto.search(&spec, &data.graph, &windows);
    let mut rng = SmallRng::seed_from_u64(99);
    let model = DerivedModel::new(
        &mut rng,
        &cfg,
        &outcome.genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let batches = batches_from_windows(&windows.train, 4);
    train_full(
        &model,
        &batches,
        None,
        &TrainConfig {
            epochs: 2,
            loss: LossKind::MaskedMae {
                null_value: Some(0.0),
            },
            ..Default::default()
        },
    )
    .unwrap();

    // persist: architecture as text, weights as checkpoint
    let dir = std::env::temp_dir().join("autocts_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("weights.ckpt");
    let genotype_text = outcome.genotype.to_text();
    save_parameters(&ckpt, &model.parameters()).unwrap();

    // reconstruct from scratch with different random init
    let parsed = Genotype::from_text(&genotype_text).unwrap();
    let mut rng2 = SmallRng::seed_from_u64(12345);
    let restored = DerivedModel::new(
        &mut rng2,
        &cfg,
        &parsed,
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let n = load_parameters(&ckpt, &restored.parameters()).unwrap();
    assert_eq!(n, restored.parameters().len());

    // identical predictions
    let test_batches = batches_from_windows(&windows.test[..2.min(windows.test.len())], 2);
    let (pred_orig, _) = collect_predictions(&model, &test_batches);
    let (pred_restored, _) = collect_predictions(&restored, &test_batches);
    assert!(
        pred_orig.approx_eq(&pred_restored, 1e-5),
        "restored model diverges: {} vs {}",
        pred_orig.data()[0],
        pred_restored.data()[0]
    );
    std::fs::remove_file(&ckpt).ok();
}

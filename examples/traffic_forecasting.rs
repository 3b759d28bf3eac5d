//! Multi-step traffic forecasting: AutoCTS head-to-head with two strong
//! human-designed baselines (Graph WaveNet and MTGNN) on PEMS08-like
//! traffic-flow data — a miniature of the paper's Table 6.
//!
//! ```sh
//! cargo run --release --example traffic_forecasting
//! ```

use autocts::eval::train_and_evaluate;
use autocts::{AutoCts, SearchConfig};
use cts_baselines::{BaselineConfig, GraphWaveNet, Mtgnn};
use cts_data::{build_windows, generate, DatasetSpec};
use cts_nn::{Forecaster, LossKind, TrainConfig};

fn main() {
    let spec = DatasetSpec::pems08().scaled(16.0 / 170.0, 1200.0 / 17_856.0);
    println!(
        "dataset: {}-like traffic flow (N={}, T={}, 12-step -> 12-step)",
        spec.name, spec.n, spec.t
    );
    let data = generate(&spec, 7);
    let windows = build_windows(&data, 4, 48);

    let train_cfg = TrainConfig {
        epochs: 10,
        loss: LossKind::MaskedMae {
            null_value: Some(0.0),
        },
        ..TrainConfig::default()
    };
    let bcfg = BaselineConfig::default();

    println!(
        "\n{:<16} {:>8} {:>8} {:>8}",
        "model", "MAE", "RMSE", "MAPE%"
    );
    for (name, model) in [
        (
            "Graph WaveNet",
            Box::new(GraphWaveNet::new(
                &bcfg,
                &spec,
                &data.graph,
                &windows.scaler,
            )) as Box<dyn Forecaster>,
        ),
        (
            "MTGNN",
            Box::new(Mtgnn::new(&bcfg, &spec, &data.graph, &windows.scaler)),
        ),
    ] {
        let report = train_and_evaluate(model.as_ref(), &spec, &windows, &train_cfg, 8)
            .unwrap_or_else(|e| panic!("{name} training failed: {e}"));
        println!(
            "{:<16} {:>8.3} {:>8.3} {:>8.2}",
            name,
            report.overall.mae,
            report.overall.rmse,
            report.overall.mape * 100.0
        );
    }

    let auto = AutoCts::new(SearchConfig {
        epochs: 3,
        ..SearchConfig::default()
    });
    let outcome = auto.search(&spec, &data.graph, &windows);
    let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 10);
    println!(
        "{:<16} {:>8.3} {:>8.3} {:>8.2}   (searched in {:.0}s)",
        "AutoCTS",
        report.overall.mae,
        report.overall.rmse,
        report.overall.mape * 100.0,
        outcome.stats.secs
    );
    println!(
        "\nAutoCTS backbone topology: {:?}",
        outcome.genotype.backbone
    );
    println!("operator usage: {:?}", outcome.genotype.op_histogram());
}

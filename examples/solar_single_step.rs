//! Single-step forecasting on Solar-Energy-like data (168-step history,
//! horizon 3) — the setting of the paper's Table 8, reporting RRSE/CORR.
//!
//! Demonstrates AutoCTS on a dataset *without* a predefined adjacency:
//! the DGCN operators fall back to a learned adaptive adjacency.
//!
//! ```sh
//! cargo run --release --example solar_single_step
//! ```

use autocts::eval::train_and_evaluate;
use autocts::{AutoCts, SearchConfig};
use cts_baselines::{BaselineConfig, LstNet};
use cts_data::{build_windows, generate, DatasetSpec};
use cts_nn::{LossKind, TrainConfig};

fn main() {
    let spec = DatasetSpec::solar_energy(3).scaled(12.0 / 137.0, 1200.0 / 52_560.0);
    println!(
        "dataset: {}-like PV production (N={}, T={}, {} steps/day), horizon 3",
        spec.name, spec.n, spec.t, spec.steps_per_day
    );
    let data = generate(&spec, 11);
    assert_eq!(data.graph.edge_count(), 0, "solar has no predefined graph");
    let windows = build_windows(&data, 12, 24);

    // LSTNet: no explicit spatial modelling.
    let lstnet = LstNet::new(
        &BaselineConfig::default(),
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let cfg = TrainConfig {
        epochs: 10,
        loss: LossKind::Mse,
        ..TrainConfig::default()
    };
    let report =
        train_and_evaluate(&lstnet, &spec, &windows, &cfg, 4).expect("LSTNet training failed");
    println!(
        "LSTNet : RRSE {:.4}  CORR {:.4}",
        report.overall.rrse, report.overall.corr
    );

    // AutoCTS with an adaptive adjacency learned from the series alone.
    let auto = AutoCts::new(SearchConfig {
        epochs: 2,
        ..SearchConfig::default()
    });
    let outcome = auto.search(&spec, &data.graph, &windows);
    let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 8);
    println!(
        "AutoCTS: RRSE {:.4}  CORR {:.4}   (searched in {:.0}s)",
        report.overall.rrse, report.overall.corr, outcome.stats.secs
    );
    println!("\ndiscovered architecture:\n{}", outcome.genotype);
}

//! Architecture transfer (the paper's Table 35): search once on one
//! dataset, serialise the genotype, and retrain it on different datasets —
//! the workflow a practitioner uses to amortise search cost.
//!
//! ```sh
//! cargo run --release --example transfer_learning
//! ```

use autocts::{AutoCts, Genotype, SearchConfig};
use cts_data::{build_windows, generate, DatasetSpec};

fn main() {
    let cfg = SearchConfig {
        epochs: 2,
        ..SearchConfig::default()
    };
    let auto = AutoCts::new(cfg);

    // 1. search on PEMS03-like data (the paper's donor dataset)
    let donor_spec = DatasetSpec::pems03().scaled(14.0 / 358.0, 900.0 / 26_208.0);
    let donor = generate(&donor_spec, 13);
    let donor_windows = build_windows(&donor, 4, 32);
    let outcome = auto.search(&donor_spec, &donor.graph, &donor_windows);
    let genotype_text = outcome.genotype.to_text();
    println!(
        "searched on {} in {:.0}s; genotype:\n  {}\n",
        donor_spec.name, outcome.stats.secs, genotype_text
    );

    // 2. ship the text-serialised genotype to other datasets
    let transferred = Genotype::from_text(&genotype_text).expect("round-trip");
    for target in [
        DatasetSpec::metr_la().scaled(14.0 / 207.0, 900.0 / 34_272.0),
        DatasetSpec::pems_bay().scaled(14.0 / 325.0, 900.0 / 52_116.0),
    ] {
        let data = generate(&target, 14);
        let windows = build_windows(&data, 4, 32);
        // transferred architecture, retrained on the target
        let report = auto.evaluate(&transferred, &target, &data.graph, &windows, 8);
        // natively searched architecture for comparison
        let native_outcome = auto.search(&target, &data.graph, &windows);
        let native = auto.evaluate(&native_outcome.genotype, &target, &data.graph, &windows, 8);
        println!(
            "{:<10}  transferred MAE {:.3} | natively searched MAE {:.3}",
            target.name, report.overall.mae, native.overall.mae
        );
    }
    println!("\n(the paper's finding: transferred is competitive, native slightly better)");
}

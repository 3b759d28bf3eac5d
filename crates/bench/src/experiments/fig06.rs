//! Figure 6: comparison of the T-operator families (CNN / RNN / Attention)
//! on the figure's two axes — ability to model long-term dependencies
//! (test MAE on a long-history task) and efficiency (training seconds per
//! epoch).
//!
//! Expected shape: Attention best on long-term accuracy, CNN fastest,
//! RNN dominated on both axes (which is why the compact set drops it).

use crate::experiments::f2;
use crate::{prepare, print_table, train_single_op_model, ExpContext};
use cts_data::DatasetSpec;
use cts_ops::OpKind;

/// Run the family comparison on a long-input single-step task.
pub fn run(ctx: &ExpContext) -> String {
    // Electricity-like data with 168-step history stresses long-term
    // temporal dependencies.
    let spec = DatasetSpec::electricity(24);
    let p = prepare(ctx, &spec);
    let families = [
        ("CNN (GDCC)", OpKind::Gdcc),
        ("RNN (GRU)", OpKind::Gru),
        ("Attention (Informer)", OpKind::InformerT),
    ];
    let mut rows = Vec::new();
    for (label, kind) in families {
        let report = train_single_op_model(kind, ctx, &p);
        rows.push(vec![
            label.to_string(),
            f2(report.overall.rrse),
            format!("{:.2}", report.train_secs_per_epoch),
        ]);
    }
    print_table(
        "Figure 6: T-operator families — long-term accuracy vs efficiency",
        &[
            "Family",
            "RRSE (long-term, lower=better)",
            "Train s/epoch (lower=faster)",
        ],
        &rows,
    )
}

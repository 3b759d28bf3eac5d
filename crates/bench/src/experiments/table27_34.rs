//! Tables 27–34: training time per epoch, inference time per window, and
//! parameter counts for every model on every dataset.
//!
//! Expected shape: DCRNN slowest to train (sequential recurrence); the
//! convolutional models fastest; AutoCTS in between (it mixes CNN and
//! attention operators); all models' inference is fast enough for
//! streaming; AutoCTS's parameter count is comparable to the baselines.

use crate::experiments::sweep_specs;
use crate::{autocts_search_and_eval, prepare, print_table, run_baseline, ExpContext};
use cts_data::Task;

/// Run the runtime/parameter accounting.
pub fn run(ctx: &ExpContext) -> String {
    let mut out = String::new();
    let specs = sweep_specs(ctx);
    for (idx, spec) in specs.iter().enumerate() {
        let p = prepare(ctx, spec);
        let names: Vec<&str> = match p.spec.task {
            Task::MultiStep => vec!["DCRNN", "STGCN", "Graph WaveNet", "AGCRN", "MTGNN"],
            Task::SingleStep { .. } => vec!["LSTNet", "TPA-LSTM", "MTGNN"],
        };
        let mut rows = Vec::new();
        for name in names {
            let report = run_baseline(name, ctx, &p);
            rows.push(vec![
                name.to_string(),
                format!("{:.2}", report.train_secs_per_epoch),
                format!("{:.2}", report.inference_ms_per_window),
                report.parameters.to_string(),
            ]);
        }
        let (_, report) = autocts_search_and_eval(&ctx.search_config(), ctx, &p);
        rows.push(vec![
            "AutoCTS".to_string(),
            format!("{:.2}", report.train_secs_per_epoch),
            format!("{:.2}", report.inference_ms_per_window),
            report.parameters.to_string(),
        ]);
        out.push_str(&print_table(
            &format!(
                "Table {}: Runtime and Parameters, {} (synthetic)",
                27 + idx,
                spec.name
            ),
            &[
                "Model",
                "Training (s/epoch)",
                "Inference (ms/window)",
                "Parameters",
            ],
            &rows,
        ));
    }
    out
}

//! Tables 36–37: impact of the number of incoming edges per node in the
//! derived ST-block (Edge ∈ {2, 3}) on METR-LA- and PEMS03-like data.
//!
//! Expected shape: Edge=3 gains little accuracy but costs noticeably more
//! training time per epoch.

use crate::experiments::{f2, pct};
use crate::{autocts_search_and_eval, prepare, print_table, ExpContext};
use cts_data::DatasetSpec;

/// Run the edge-count sweep.
pub fn run(ctx: &ExpContext) -> String {
    let mut out = String::new();
    for (tno, spec) in [(36, DatasetSpec::metr_la()), (37, DatasetSpec::pems03())] {
        let p = prepare(ctx, &spec);
        let mut rows = Vec::new();
        for edges in [2usize, 3] {
            let cfg = autocts::SearchConfig {
                edges_per_node: edges,
                ..ctx.search_config()
            };
            let (_, report) = autocts_search_and_eval(&cfg, ctx, &p);
            rows.push(vec![
                edges.to_string(),
                f2(report.overall.mae),
                f2(report.overall.rmse),
                pct(report.overall.mape),
                format!("{:.2}", report.train_secs_per_epoch),
            ]);
        }
        out.push_str(&print_table(
            &format!(
                "Table {tno}: Incoming edges per node, {} (synthetic)",
                spec.name
            ),
            &["# Edges", "MAE", "RMSE", "MAPE", "Training (s/epoch)"],
            &rows,
        ));
    }
    out
}

//! Tables 17–26: sensitivity to the micro-DAG size `M ∈ {3,5,7}` and the
//! backbone size `B ∈ {2,4,6}` on every dataset.
//!
//! Expected shape: the defaults (M=5, B=4) are best or near-best; smaller
//! values underfit slightly, larger values overfit slightly on the
//! limited training data.

use crate::experiments::{f2, f4, pct, sweep_specs};
use crate::{autocts_search_and_eval, prepare, print_table, ExpContext, Prepared};
use cts_data::Task;

fn run_setting(ctx: &ExpContext, p: &Prepared, m: usize, b: usize) -> Vec<String> {
    let cfg = autocts::SearchConfig {
        m,
        b,
        ..ctx.search_config()
    };
    let (_, report) = autocts_search_and_eval(&cfg, ctx, p);
    match p.spec.task {
        Task::MultiStep => vec![
            f2(report.overall.mae),
            f2(report.overall.rmse),
            pct(report.overall.mape),
        ],
        Task::SingleStep { .. } => vec![
            f4(report.overall.rrse),
            f4(report.overall.corr),
            String::new(),
        ],
    }
}

/// Run both sweeps for every dataset.
pub fn run(ctx: &ExpContext) -> String {
    let mut out = String::new();
    let specs = sweep_specs(ctx);
    for spec in &specs {
        let p = prepare(ctx, spec);
        let mut rows = Vec::new();
        for m in [3usize, 5, 7] {
            let mut row = vec![format!("M={m} (B=4)")];
            row.extend(run_setting(ctx, &p, m, 4));
            rows.push(row);
        }
        for b in [2usize, 4, 6] {
            let mut row = vec![format!("B={b} (M=5)")];
            row.extend(run_setting(ctx, &p, 5, b));
            rows.push(row);
        }
        let headers = match p.spec.task {
            Task::MultiStep => vec!["Setting", "MAE", "RMSE", "MAPE"],
            Task::SingleStep { .. } => vec!["Setting", "RRSE", "CORR", ""],
        };
        out.push_str(&print_table(
            &format!("Tables 17-26: Impact of M and B, {} (synthetic)", spec.name),
            &headers,
            &rows,
        ));
    }
    out
}

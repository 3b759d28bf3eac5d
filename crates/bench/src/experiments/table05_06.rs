//! Tables 5–6: multi-step forecasting accuracy on the six traffic
//! datasets — the headline comparison of AutoCTS against all baselines.
//!
//! Table 5 (METR-LA, PEMS-BAY) reports MAE/RMSE/MAPE at the 15/30/60-min
//! horizons (steps 3/6/12); Table 6 (PEMS03/04/07/08) reports the average
//! over all 12 horizons. AutoSTG joins only on the Table 5 datasets (it
//! cannot run on the PEMS datasets in the paper).

use crate::experiments::{f2, multistep_specs, pct};
use crate::{
    autocts_search_and_eval, autostg_config, prepare, print_table, run_baseline, ExpContext,
};
use autocts::eval::EvalReport;
use cts_data::EvalMetrics;

fn horizon_cells(report: &EvalReport, horizons: &[usize]) -> Vec<String> {
    let mut cells = Vec::new();
    for &h in horizons {
        let m = &report.horizons[h - 1];
        cells.push(f2(m.mae));
        cells.push(f2(m.rmse));
        cells.push(pct(m.mape));
    }
    cells
}

fn avg_cells(m: &EvalMetrics) -> Vec<String> {
    vec![f2(m.mae), f2(m.rmse), pct(m.mape)]
}

/// Which baselines run on multi-step traffic (all seven; LSTNet and
/// TPA-LSTM were designed for single-step but the harness supports them
/// everywhere, mirroring the paper's table layout we include them only in
/// Table 8).
const TRAFFIC_BASELINES: [&str; 5] = ["DCRNN", "STGCN", "Graph WaveNet", "AGCRN", "MTGNN"];

/// Run Tables 5 and 6.
pub fn run(ctx: &ExpContext) -> String {
    let mut out = String::new();
    for spec in multistep_specs() {
        let p = prepare(ctx, &spec);
        let is_table5 = matches!(spec.name.as_str(), "METR-LA" | "PEMS-BAY");
        let mut rows: Vec<Vec<String>> = Vec::new();
        for name in TRAFFIC_BASELINES {
            let report = run_baseline(name, ctx, &p);
            let mut row = vec![name.to_string()];
            if is_table5 {
                row.extend(horizon_cells(&report, &[3, 6, 12]));
            } else {
                row.extend(avg_cells(&report.overall));
            }
            rows.push(row);
        }
        if is_table5 {
            // AutoSTG-lite (restricted search space, micro-only)
            let (_, report) = autocts_search_and_eval(&autostg_config(ctx), ctx, &p);
            let mut row = vec!["AutoSTG".to_string()];
            row.extend(horizon_cells(&report, &[3, 6, 12]));
            rows.push(row);
        }
        let (_, report) = autocts_search_and_eval(&ctx.search_config(), ctx, &p);
        let mut row = vec!["AutoCTS".to_string()];
        if is_table5 {
            row.extend(horizon_cells(&report, &[3, 6, 12]));
        } else {
            row.extend(avg_cells(&report.overall));
        }
        rows.push(row);

        let headers: Vec<&str> = if is_table5 {
            vec![
                "Model", "MAE@15", "RMSE@15", "MAPE@15", "MAE@30", "RMSE@30", "MAPE@30", "MAE@60",
                "RMSE@60", "MAPE@60",
            ]
        } else {
            vec!["Model", "MAE", "RMSE", "MAPE"]
        };
        let table_no = if is_table5 { 5 } else { 6 };
        out.push_str(&print_table(
            &format!(
                "Table {table_no}: Multi-step Forecasting, {} (synthetic)",
                spec.name
            ),
            &headers,
            &rows,
        ));
    }
    out
}

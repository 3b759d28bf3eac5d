//! Tables 9–16: ablation studies on all eight datasets.
//!
//! Variants (§4.2.3): full AutoCTS, *w/o design principles* (full Table 1
//! operator set), *w/o temperature* (τ ≡ 1), *w/o macro search* (single
//! shared block, stacked), and *macro only* (topology search over four
//! human-designed ST-blocks). Each row reports accuracy plus search cost.
//! Expected shape: AutoCTS best or near-best; w/o-design-principles much
//! slower; macro-only fastest but least accurate.

use crate::experiments::{f2, f4, pct, sweep_specs};
use crate::{
    autocts_search_and_eval, macro_only_search_and_eval, prepare, print_table, ExpContext, Prepared,
};
use cts_data::Task;

fn metric_cells(p: &Prepared, report: &autocts::eval::EvalReport) -> Vec<String> {
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

/// Run the ablations for every dataset (Tables 9–16 in order).
pub fn run(ctx: &ExpContext) -> String {
    let mut out = String::new();
    let specs = sweep_specs(ctx);
    for (idx, spec) in specs.iter().enumerate() {
        let p = prepare(ctx, spec);
        let mut rows = Vec::new();
        let variants: Vec<(&str, autocts::SearchConfig)> = vec![
            ("AutoCTS", ctx.search_config()),
            (
                "w/o design principles",
                ctx.search_config().without_design_principles(),
            ),
            ("w/o temperature", ctx.search_config().without_temperature()),
            (
                "w/o macro search",
                ctx.search_config().without_macro_search(),
            ),
        ];
        for (name, cfg) in variants {
            let (outcome, report) = autocts_search_and_eval(&cfg, ctx, &p);
            let mut row = vec![name.to_string()];
            row.extend(metric_cells(&p, &report));
            row.push(format!("{:.1}", outcome.stats.secs));
            rows.push(row);
        }
        {
            let (report, secs) = macro_only_search_and_eval(ctx, &p);
            let mut row = vec!["macro only".to_string()];
            row.extend(metric_cells(&p, &report));
            row.push(format!("{secs:.1}"));
            rows.push(row);
        }
        let headers = match p.spec.task {
            Task::MultiStep => vec!["Variant", "MAE", "RMSE", "MAPE", "Search (s)"],
            Task::SingleStep { .. } => vec!["Variant", "RRSE", "CORR", "", "Search (s)"],
        };
        out.push_str(&print_table(
            &format!(
                "Table {}: Ablation Studies, {} (synthetic)",
                9 + idx,
                spec.name
            ),
            &headers,
            &rows,
        ));
    }
    out
}

//! Acceptance test of the observability layer: metrics collection is a
//! pure observer of `joint_search` (bit-identical genotype and per-epoch
//! trace with metrics on and off), the JSONL run log carries the
//! documented row kinds, and `cts_obs::report` summarizes it.

use autocts::{joint_search, EpochStats, SearchConfig};
use cts_data::{build_windows, generate, DatasetSpec};

fn small_cfg() -> SearchConfig {
    SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    }
}

fn trace_bits(epochs: &[EpochStats]) -> Vec<[u32; 3]> {
    epochs
        .iter()
        .map(|e| {
            [
                e.tau.to_bits(),
                e.val_loss.to_bits(),
                e.alpha_entropy.to_bits(),
            ]
        })
        .collect()
}

#[test]
fn metrics_are_a_pure_observer_and_the_log_summarizes() {
    let cfg = small_cfg();
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 9);
    let windows = build_windows(&data, 6, 24);

    // Reference run: metrics off (the production default).
    cts_obs::set_metrics(Some(false));
    let (g_off, _, stats_off) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();

    // Instrumented run: metrics on, log into a temp file.
    let log = std::env::temp_dir().join("cts_observability_test.jsonl");
    cts_obs::runlog::set_path(Some(&log));
    cts_obs::set_metrics(Some(true));
    let (g_on, _, stats_on) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
    cts_obs::set_metrics(Some(false));

    // Pure observer: the search result must not depend on observation.
    assert_eq!(g_off, g_on, "metrics changed the derived genotype");
    assert_eq!(
        trace_bits(&stats_off.epochs),
        trace_bits(&stats_on.epochs),
        "metrics changed the per-epoch trace"
    );
    assert_eq!(stats_off.steps, stats_on.steps);

    // The log carries the documented row kinds...
    let text = std::fs::read_to_string(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    for kind in [
        "run_start",
        "epoch",
        "phase",
        "tape",
        "kernel",
        "arena",
        "run_end",
    ] {
        assert!(
            text.contains(&format!("\"event\":\"{kind}\"")),
            "run log is missing {kind:?} rows:\n{text}"
        );
    }
    for field in ["tau", "val_loss", "alpha_entropy"] {
        assert!(
            text.contains(&format!("\"{field}\":")),
            "epoch rows are missing the {field} field"
        );
    }

    // ...and the report summarizer folds them.
    let sum = cts_obs::report::summarize(&text);
    assert_eq!(sum.skipped_lines, 0, "summarizer skipped valid lines");
    assert_eq!(sum.epochs.len(), cfg.epochs);
    let last = sum.epochs.last().unwrap();
    assert_eq!(
        last.tau.map(f64::to_bits),
        Some((stats_on.epochs[1].tau as f64).to_bits()),
        "tau did not round-trip through the JSONL log"
    );
    assert!(
        sum.kernels.iter().any(|k| k.name == "matmul"),
        "kernel table lost matmul: {:?}",
        sum.kernels
    );
    assert!(
        sum.phases
            .iter()
            .any(|p| p.name == "forward" && p.calls > 0),
        "phase table lost forward: {:?}",
        sum.phases
    );
    assert!(
        sum.arena_hits + sum.arena_misses > 0,
        "arena counters empty"
    );
    assert!(sum.tape_backwards > 0, "tape counters empty");
    let rendered = cts_obs::report::render_text(&sum);
    assert!(
        rendered.contains("kernels"),
        "render_text missing kernel table"
    );
    let bench = cts_obs::report::render_bench_json(&sum);
    assert!(bench.contains("\"rows\""), "bench json missing rows array");
}

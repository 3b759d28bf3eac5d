//! Reproduces the mechanism behind §3.2.2 / Figure 5: the annealed softmax
//! temperature shrinks the gap between the relaxed micro-DAG and the
//! derived ST-block, measured as α-softmax entropy.

use autocts::{joint_search, SearchConfig};
use cts_data::{build_windows, generate, DatasetSpec};

fn fixture() -> (DatasetSpec, cts_data::CtsData, cts_data::SplitWindows) {
    let spec = DatasetSpec::metr_la().scaled(0.045, 0.014);
    let data = generate(&spec, 55);
    let windows = build_windows(&data, 6, 20);
    (spec, data, windows)
}

#[test]
fn annealing_drives_alpha_entropy_down() {
    let (spec, data, windows) = fixture();
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 5,
        batch_size: 4,
        tau_factor: 0.4, // aggressive annealing to see the effect in 5 epochs
        arch_lr: 5e-2,   // let alpha actually differentiate within 5 epochs
        ..Default::default()
    };
    let (_, _, stats) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
    assert_eq!(stats.epochs.len(), 5);
    let first = stats.epochs.first().unwrap();
    let last = stats.epochs.last().unwrap();
    // τ annealed as configured
    assert!(last.tau < first.tau);
    // entropy (the discretisation gap) shrank substantially
    assert!(
        last.alpha_entropy < first.alpha_entropy * 0.8,
        "entropy {} -> {} did not shrink",
        first.alpha_entropy,
        last.alpha_entropy
    );
}

#[test]
fn without_temperature_entropy_stays_high() {
    let (spec, data, windows) = fixture();
    let base = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 5,
        batch_size: 4,
        tau_factor: 0.4,
        arch_lr: 5e-2,
        ..Default::default()
    };
    let (_, _, annealed) = joint_search(&base, &spec, &data.graph, &windows).unwrap();
    let (_, _, flat) = joint_search(
        &base.clone().without_temperature(),
        &spec,
        &data.graph,
        &windows,
    )
    .unwrap();
    let gap_annealed = annealed.epochs.last().unwrap().alpha_entropy;
    let gap_flat = flat.epochs.last().unwrap().alpha_entropy;
    assert!(
        gap_annealed < gap_flat,
        "annealed gap {gap_annealed} not below constant-temperature gap {gap_flat}"
    );
}

#[test]
fn epoch_trace_records_losses() {
    let (spec, data, windows) = fixture();
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    };
    let (_, _, stats) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
    for e in &stats.epochs {
        assert!(e.val_loss.is_finite() && e.val_loss > 0.0);
        assert!(e.alpha_entropy >= 0.0);
    }
}

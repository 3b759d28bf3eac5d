//! Fault-injection tests of the crash-safe search runtime: kill the
//! bi-level search mid-epoch and resume it bit-identically, survive NaN
//! gradient blasts through the divergence watchdog (a rollback restores
//! exactly, and repeated rollbacks cut the learning rate deeper), and
//! reject corrupt or truncated checkpoints with a typed error instead of
//! loading them.

use autocts::{
    joint_search, AutoCts, BlockGenotype, EvalError, Genotype, SearchConfig, SearchError,
    SearchStats,
};
use cts_autograd::Parameter;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec, SplitWindows};
use cts_nn::checkpoint::{load_run_state, CheckpointError};
use cts_nn::{fault, CheckpointConfig, TrainError, WatchdogConfig};
use cts_ops::OpKind;
use std::path::PathBuf;

fn fixture() -> (DatasetSpec, cts_data::CtsData, SplitWindows) {
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 9);
    let windows = build_windows(&data, 6, 24);
    (spec, data, windows)
}

fn small_cfg() -> SearchConfig {
    SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 3,
        batch_size: 4,
        ..Default::default()
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cts_fault_injection_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn killed_search_resumes_bit_identically() {
    let (spec, data, windows) = fixture();
    let ckpt = temp_ckpt("resume.ckpt");

    // Reference: one uninterrupted run, no checkpointing.
    let (g_ref, _, stats_ref) = joint_search(&small_cfg(), &spec, &data.graph, &windows).unwrap();
    assert_eq!(stats_ref.epochs.len(), 3);
    let steps_per_epoch = stats_ref.steps / 3;
    assert!(steps_per_epoch > 1, "fixture too small to kill mid-epoch");

    // Kill the search inside epoch 1 (after the epoch-0 checkpoint).
    let cfg = small_cfg().with_checkpoint(CheckpointConfig::new(&ckpt));
    fault::arm(fault::FaultPlan {
        abort_at_step: Some((steps_per_epoch + 1) as u64),
        ..fault::FaultPlan::default()
    });
    let err = match joint_search(&cfg, &spec, &data.graph, &windows) {
        Err(e) => e,
        Ok(_) => panic!("armed abort did not interrupt the search"),
    };
    fault::disarm();
    assert!(matches!(err, SearchError::Interrupted { .. }), "{err}");
    assert!(ckpt.exists(), "no checkpoint was written before the kill");

    // Resume: must complete and match the reference bit-for-bit.
    let (g_resumed, _, stats_resumed) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
    assert_eq!(g_resumed, g_ref, "resumed genotype differs");
    assert_eq!(stats_resumed.steps, stats_ref.steps);
    assert_eq!(stats_resumed.epochs.len(), stats_ref.epochs.len());
    for (a, b) in stats_resumed.epochs.iter().zip(&stats_ref.epochs) {
        assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "τ trace diverges");
        assert_eq!(
            a.val_loss.to_bits(),
            b.val_loss.to_bits(),
            "loss trace diverges"
        );
        assert_eq!(
            a.alpha_entropy.to_bits(),
            b.alpha_entropy.to_bits(),
            "entropy trace diverges"
        );
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn killed_retraining_resumes_bit_identically() {
    let (spec, data, windows) = fixture();
    let base_ckpt = temp_ckpt("retrain_base.ckpt");
    let stage_ckpt = temp_ckpt("retrain_base.retrain.ckpt");
    let genotype = Genotype {
        blocks: vec![
            BlockGenotype {
                m: 3,
                edges: vec![
                    (0, 1, OpKind::Gdcc),
                    (0, 2, OpKind::InformerT),
                    (1, 2, OpKind::Identity),
                ],
            };
            2
        ],
        backbone: vec![0, 1],
    };
    let epochs = 3;

    // Reference: one uninterrupted retraining, no checkpointing.
    let auto = AutoCts::new(small_cfg());
    let report_ref = auto
        .try_evaluate(&genotype, &spec, &data.graph, &windows, epochs)
        .unwrap();

    // Kill the retraining inside epoch 1 (after the epoch-0 checkpoint).
    // The retrain stage writes to the `.retrain` sibling of the config's
    // checkpoint path, so a combined search+evaluate run never clobbers
    // its search checkpoint.
    let steps_per_epoch = batches_from_windows(&windows.train_and_val(), 4).len() as u64;
    assert!(steps_per_epoch > 1, "fixture too small to kill mid-epoch");
    let auto_ck = AutoCts::new(small_cfg().with_checkpoint(CheckpointConfig::new(&base_ckpt)));
    fault::arm(fault::FaultPlan {
        abort_at_step: Some(steps_per_epoch + 1),
        ..fault::FaultPlan::default()
    });
    let err = match auto_ck.try_evaluate(&genotype, &spec, &data.graph, &windows, epochs) {
        Err(e) => e,
        Ok(_) => panic!("armed abort did not interrupt the retraining"),
    };
    fault::disarm();
    assert!(
        matches!(err, EvalError::Train(TrainError::Interrupted { .. })),
        "{err}"
    );
    assert!(
        stage_ckpt.exists(),
        "no retrain-stage checkpoint was written"
    );
    assert!(
        !base_ckpt.exists(),
        "retraining must not write the search checkpoint path"
    );

    // Resume: must finish and reproduce the reference metrics exactly.
    let report_resumed = auto_ck
        .try_evaluate(&genotype, &spec, &data.graph, &windows, epochs)
        .unwrap();
    assert_eq!(
        report_resumed.overall.mae.to_bits(),
        report_ref.overall.mae.to_bits(),
        "resumed MAE differs: {} vs {}",
        report_resumed.overall.mae,
        report_ref.overall.mae
    );
    assert_eq!(
        report_resumed.overall.rmse.to_bits(),
        report_ref.overall.rmse.to_bits()
    );
    std::fs::remove_file(&stage_ckpt).ok();
}

#[test]
fn invalid_genotype_is_rejected_before_retraining() {
    let (spec, data, windows) = fixture();
    // Node 1 feeds the output only through `zero`: the gdcc on edge 0 can
    // never train. Static pre-flight must reject this before any model
    // (or checkpoint) is built.
    let genotype = Genotype {
        blocks: vec![BlockGenotype {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (1, 2, OpKind::Zero),
                (0, 2, OpKind::InformerT),
            ],
        }],
        backbone: vec![0],
    };
    let auto = AutoCts::new(SearchConfig {
        b: 1,
        ..small_cfg()
    });
    match auto.try_evaluate(&genotype, &spec, &data.graph, &windows, 1) {
        Err(EvalError::Rejected(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("block0.e0"), "{msg}");
        }
        Err(other) => panic!("expected Rejected, got {other:?}"),
        Ok(_) => panic!("starved genotype was accepted"),
    }
}

#[test]
fn search_watchdog_recovers_from_nan_gradients() {
    let (spec, data, windows) = fixture();
    fault::arm(fault::FaultPlan {
        nan_grad_at_step: Some(3),
        ..fault::FaultPlan::default()
    });
    let (genotype, _, stats) = joint_search(&small_cfg(), &spec, &data.graph, &windows).unwrap();
    fault::disarm();
    genotype.validate().unwrap();
    assert_eq!(stats.rollbacks, 1, "watchdog never rolled back");
    assert_eq!(stats.epochs.len(), 3, "a poisoned epoch was kept");
    assert!(
        stats.epochs.iter().all(|e| e.val_loss.is_finite()),
        "NaN leaked into the epoch trace"
    );
}

#[test]
fn corrupt_checkpoint_is_rejected_not_loaded() {
    let (spec, data, windows) = fixture();
    let ckpt = temp_ckpt("corrupt.ckpt");
    let cfg = small_cfg().with_checkpoint(CheckpointConfig::new(&ckpt));
    joint_search(&cfg, &spec, &data.graph, &windows).unwrap();

    // Flip one byte in the middle: the CRC must catch it.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();
    match joint_search(&cfg, &spec, &data.graph, &windows) {
        Err(SearchError::Checkpoint(CheckpointError::Corrupt(_))) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("bit-flipped checkpoint was loaded"),
    }

    // Truncate it: also a typed rejection, never a crash or a load.
    bytes[mid] ^= 0x40; // restore the flipped byte
    std::fs::write(&ckpt, &bytes[..mid]).unwrap();
    match joint_search(&cfg, &spec, &data.graph, &windows) {
        Err(SearchError::Checkpoint(CheckpointError::Corrupt(_))) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("truncated checkpoint was loaded"),
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn checkpoint_from_different_seed_is_rejected() {
    let (spec, data, windows) = fixture();
    let ckpt = temp_ckpt("wrong_seed.ckpt");
    let cfg = small_cfg().with_checkpoint(CheckpointConfig::new(&ckpt));
    joint_search(&cfg, &spec, &data.graph, &windows).unwrap();

    // Same checkpoint, different seed: the RNG replay cannot land on the
    // recorded state, so resume must refuse rather than continue wrongly.
    let other_seed = SearchConfig { seed: 2, ..cfg };
    match joint_search(&other_seed, &spec, &data.graph, &windows) {
        Err(SearchError::Checkpoint(CheckpointError::Incompatible(msg))) => {
            assert!(msg.contains("RNG"), "{msg}");
        }
        Err(other) => panic!("expected Incompatible, got {other:?}"),
        Ok(_) => panic!("checkpoint from another seed was accepted"),
    }
    std::fs::remove_file(&ckpt).ok();
}

/// Every parameter's raw IEEE bits, in parameter order.
fn param_bits(params: &[Parameter]) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| {
            p.value()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The bits a search run leaves behind: genotype text, per-epoch trace
/// and every architecture and weight parameter; and the run's stats.
fn search_bits(cfg: &SearchConfig) -> (String, Vec<[u32; 3]>, Vec<u32>, SearchStats) {
    let (spec, data, windows) = fixture();
    let (genotype, model, stats) = joint_search(cfg, &spec, &data.graph, &windows).unwrap();
    let trace = stats
        .epochs
        .iter()
        .map(|e| {
            [
                e.tau.to_bits(),
                e.val_loss.to_bits(),
                e.alpha_entropy.to_bits(),
            ]
        })
        .collect();
    let mut params = param_bits(&model.arch_parameters());
    params.extend(param_bits(&model.weight_parameters()));
    (genotype.to_text(), trace, params, stats)
}

/// With `lr_cut = 1.0` a rollback changes nothing the retry reads: a
/// transient NaN blast in epoch 1 must leave the clean run's genotype,
/// trace and parameters to the last bit.
#[test]
fn search_rollback_restores_exactly() {
    let cfg = SearchConfig {
        watchdog: WatchdogConfig {
            lr_cut: 1.0,
            ..Default::default()
        },
        ..small_cfg()
    };
    let clean = search_bits(&cfg);
    let steps_per_epoch = clean.3.steps / clean.3.epochs.len();
    fault::arm(fault::FaultPlan {
        nan_grad_at_step: Some(steps_per_epoch as u64 + 1),
        ..fault::FaultPlan::default()
    });
    let rolled_back = search_bits(&cfg);
    fault::disarm();
    assert_eq!(
        rolled_back.3.rollbacks, 1,
        "the injected NaN did not roll back"
    );
    assert_eq!(rolled_back.0, clean.0, "genotype text");
    assert_eq!(rolled_back.1, clean.1, "per-epoch trace bits");
    assert!(rolled_back.2 == clean.2, "parameter bits differ");
}

/// A real divergence that survives the first cut must meet a deeper one:
/// the k-th rollback of an epoch retries at the last good LR × `lr_cut`^k
/// on both optimizers, not at the first rollback's LR again.
#[test]
fn search_rollbacks_of_one_epoch_compound_the_lr_cut() {
    let (spec, data, windows) = fixture();
    let ckpt = temp_ckpt("compound_cut.ckpt");
    let lr_cut = 1e-14f32;
    let cfg = SearchConfig {
        weight_lr: 1e30,
        watchdog: WatchdogConfig {
            lr_cut,
            ..Default::default()
        },
        ..small_cfg()
    }
    .with_checkpoint(CheckpointConfig::new(&ckpt).fresh());
    let (_, _, stats) = match joint_search(&cfg, &spec, &data.graph, &windows) {
        Ok(out) => out,
        Err(e) => panic!("the compounded cut did not recover: {e}"),
    };
    assert_eq!(stats.rollbacks, 2);
    let rs = load_run_state(&ckpt).unwrap();
    let lr = |name: &str| rs.optimizers.iter().find(|o| o.name == name).unwrap().lr;
    let scale = lr_cut * lr_cut;
    assert_eq!(lr("arch").to_bits(), (cfg.arch_lr * scale).to_bits());
    assert_eq!(lr("weight").to_bits(), (cfg.weight_lr * scale).to_bits());
    std::fs::remove_file(&ckpt).ok();
}

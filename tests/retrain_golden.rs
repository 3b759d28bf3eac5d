//! Golden result of retraining two derived models from scratch: the
//! parameter names in `parameters()` order, the per-epoch train and
//! validation loss bits, a bit-hash of the trained parameters and a
//! bit-hash of `forward_inference` on one batch.
//!
//! The two genotypes cover all 12 operator kinds and both backbones (two
//! blocks fed by the embedding, and a chain). Genotype A's first block
//! lists its edges as `(0,2),(0,1),(1,2)`, so its genotype edge order —
//! the order `parameters()`, gradient clipping and checkpoints follow —
//! differs from the order the forward runs the edges in.
//!
//! Every kernel is bit-identical across SIMD levels and worker counts, so
//! the literals hold at any thread count and under `CTS_SIMD=off`.

use autocts::{DerivedModel, Genotype, SearchConfig};
use cts_autograd::Parameter;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::{train_full, Forecaster, TrainConfig};
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the raw IEEE bits of every value, in order.
fn tensor_hash(h: u64, t: &Tensor) -> u64 {
    t.data()
        .iter()
        .fold(h, |h, v| fnv(h, &v.to_bits().to_le_bytes()))
}

fn param_hash(params: &[Parameter]) -> u64 {
    params
        .iter()
        .fold(FNV_OFFSET, |h, p| tensor_hash(h, &p.value()))
}

struct Golden {
    names: Vec<String>,
    train_losses: Vec<u32>,
    val_losses: Vec<u32>,
    params: u64,
    inference: u64,
}

fn retrain(genotype: &str) -> Golden {
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        batch_size: 2,
        ..Default::default()
    };
    let genotype = Genotype::from_text(genotype).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let model = DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    );
    let train = batches_from_windows(&windows.train, cfg.batch_size);
    let val = batches_from_windows(&windows.val, cfg.batch_size);
    let report = train_full(
        &model,
        &train,
        Some(&val),
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let params = model.parameters();
    Golden {
        names: params.iter().map(Parameter::name).collect(),
        train_losses: report.train_losses.iter().map(|l| l.to_bits()).collect(),
        val_losses: report.val_losses.iter().map(|l| l.to_bits()).collect(),
        params: param_hash(&params),
        inference: tensor_hash(FNV_OFFSET, &model.forward_inference(&val[0].0)),
    }
}

fn assert_golden(
    label: &str,
    got: &Golden,
    names: &[&str],
    train: &[u32],
    val: &[u32],
    params: u64,
    inference: u64,
) {
    assert_eq!(
        got.names, names,
        "{label}: parameter names in parameters() order"
    );
    assert_eq!(got.train_losses, train, "{label}: train loss bits");
    assert_eq!(got.val_losses, val, "{label}: validation loss bits");
    assert_eq!(
        got.params, params,
        "{label}: trained parameter bit-hash {:#018x}",
        got.params
    );
    assert_eq!(
        got.inference, inference,
        "{label}: forward_inference bit-hash {:#018x}",
        got.inference
    );
}

/// Block 0 lists `(0,2)` first; the forward runs it last.
const GENOTYPE_A: &str =
    "m=3 0-2:gdcc 0-1:inf-t 1-2:dgcn | m=3 0-1:lstm 1-2:cheb-gcn 0-2:identity @ 0,0";
const GENOTYPE_B: &str =
    "m=3 0-1:conv1d 1-2:trans-t 0-2:zero | m=3 0-1:gru 1-2:trans-s 0-2:inf-s @ 0,1";

/// The scaffold first (the graph context of a graph with spatial signal
/// has no parameters), then every operator in genotype edge order. The
/// zero edge of B has none.
const NAMES_A: &[&str] = &[
    "embed.weight",
    "embed.bias",
    "output.weight",
    "output.bias",
    "block0.e0.gdcc.filter.kernel",
    "block0.e0.gdcc.filter.bias",
    "block0.e0.gdcc.gate.kernel",
    "block0.e0.gdcc.gate.bias",
    "block0.e0.gdcc.norm.gamma",
    "block0.e0.gdcc.norm.beta",
    "block0.e1.inf-t.wq.weight",
    "block0.e1.inf-t.wk.weight",
    "block0.e1.inf-t.wv.weight",
    "block0.e1.inf-t.norm.gamma",
    "block0.e1.inf-t.norm.beta",
    "block0.e2.dgcn.fwd0.weight",
    "block0.e2.dgcn.fwd1.weight",
    "block0.e2.dgcn.bwd0.weight",
    "block0.e2.dgcn.bwd1.weight",
    "block0.e2.dgcn.self.weight",
    "block0.e2.dgcn.self.bias",
    "block0.e2.dgcn.norm.gamma",
    "block0.e2.dgcn.norm.beta",
    "block1.e0.lstm.wx.weight",
    "block1.e0.lstm.wx.bias",
    "block1.e0.lstm.wh.weight",
    "block1.e0.lstm.norm.gamma",
    "block1.e0.lstm.norm.beta",
    "block1.e1.cheb-gcn.w0.weight",
    "block1.e1.cheb-gcn.w0.bias",
    "block1.e1.cheb-gcn.w1.weight",
    "block1.e1.cheb-gcn.w2.weight",
    "block1.e1.cheb-gcn.norm.gamma",
    "block1.e1.cheb-gcn.norm.beta",
];

const NAMES_B: &[&str] = &[
    "embed.weight",
    "embed.bias",
    "output.weight",
    "output.bias",
    "block0.e0.conv1d.kernel",
    "block0.e0.conv1d.bias",
    "block0.e0.conv1d.norm.gamma",
    "block0.e0.conv1d.norm.beta",
    "block0.e1.trans-t.wq.weight",
    "block0.e1.trans-t.wk.weight",
    "block0.e1.trans-t.wv.weight",
    "block0.e1.trans-t.norm.gamma",
    "block0.e1.trans-t.norm.beta",
    "block1.e0.gru.wx_zr.weight",
    "block1.e0.gru.wx_zr.bias",
    "block1.e0.gru.wh_zr.weight",
    "block1.e0.gru.wx_n.weight",
    "block1.e0.gru.wx_n.bias",
    "block1.e0.gru.wh_n.weight",
    "block1.e0.gru.norm.gamma",
    "block1.e0.gru.norm.beta",
    "block1.e1.trans-s.wq.weight",
    "block1.e1.trans-s.wk.weight",
    "block1.e1.trans-s.wv.weight",
    "block1.e1.trans-s.norm.gamma",
    "block1.e1.trans-s.norm.beta",
    "block1.e2.inf-s.wq.weight",
    "block1.e2.inf-s.wk.weight",
    "block1.e2.inf-s.wv.weight",
    "block1.e2.inf-s.norm.gamma",
    "block1.e2.inf-s.norm.beta",
];

fn check_golden_at(threads: usize) {
    cts_tensor::parallel::set_num_threads(threads);
    assert_golden(
        &format!("A at {threads} threads"),
        &retrain(GENOTYPE_A),
        NAMES_A,
        &[1099675928, 1094501155],
        &[1096246121, 1092614182],
        0x02b6_f1cc_2806_c29c,
        0xf10d_3e5d_d7ce_13db,
    );
    assert_golden(
        &format!("B at {threads} threads"),
        &retrain(GENOTYPE_B),
        NAMES_B,
        &[1097822422, 1092712071],
        &[1094090636, 1091651763],
        0x8c39_a837_d02d_2aea,
        0x511a_49aa_ac2c_3b2a,
    );
    cts_tensor::parallel::set_num_threads(0);
}

#[test]
fn retrain_matches_golden_at_any_thread_count() {
    for threads in [1, 2, 3] {
        check_golden_at(threads);
    }
}

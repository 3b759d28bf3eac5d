//! Golden result of a small bi-level search: the derived genotype text,
//! the per-epoch trace and bit-hashes of the final architecture
//! parameters (α/β/γ) and network weights.
//!
//! Every kernel is bit-identical across SIMD levels and, at this scale,
//! across worker counts, so the literals hold under `CTS_SIMD=off` and any
//! `CTS_NUM_THREADS`. A change to the search step that claims to keep its
//! numbers (which gradients are computed, how a kernel walks memory) must
//! leave every literal here as it is.

use autocts::{joint_search, SearchConfig};
use cts_autograd::Parameter;
use cts_data::{build_windows, generate, DatasetSpec};

/// FNV-1a over the raw IEEE bits of every value, in parameter order.
fn bit_hash(params: &[Parameter]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        for v in p.value().data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn golden_run(cfg: SearchConfig) -> (String, Vec<[u32; 3]>, u64, u64) {
    let spec = DatasetSpec::metr_la().scaled(0.045, 0.014);
    let data = generate(&spec, 1);
    let windows = build_windows(&data, 6, 24);
    let (genotype, model, stats) = joint_search(&cfg, &spec, &data.graph, &windows).unwrap();
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
    (
        genotype.to_text(),
        trace,
        bit_hash(&model.arch_parameters()),
        bit_hash(&model.weight_parameters()),
    )
}

const GENOTYPE: &str =
    "m=3 0-1:inf-t 1-2:inf-t 0-2:identity | m=3 0-1:inf-t 1-2:gdcc 0-2:identity @ 0,0";

fn tiny_cfg() -> SearchConfig {
    SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    }
}

fn assert_golden(got: (String, Vec<[u32; 3]>, u64, u64), want: (&str, &[[u32; 3]], u64, u64)) {
    assert_eq!(got.0, want.0, "genotype text");
    assert_eq!(
        got.1, want.1,
        "per-epoch trace bits (tau, val_loss, alpha_entropy)"
    );
    assert_eq!(
        got.2, want.2,
        "architecture parameter bit-hash: {:#018x}",
        got.2
    );
    assert_eq!(got.3, want.3, "weight bit-hash: {:#018x}", got.3);
}

#[test]
fn search_matches_golden() {
    assert_golden(
        golden_run(tiny_cfg()),
        (
            GENOTYPE,
            &[
                [1084227584, 1094462481, 1071994976],
                [1083179008, 1093582168, 1071994974],
            ],
            0x9c8a_d58e_346e_c925,
            0x9d76_a85d_b1cb_eaad,
        ),
    );
}

#[test]
fn cost_penalised_search_matches_golden() {
    let got = golden_run(SearchConfig {
        cost_penalty: 0.05,
        ..tiny_cfg()
    });
    assert_golden(
        got,
        (
            GENOTYPE,
            &[
                [1084227584, 1094462452, 1071994976],
                [1083179008, 1093582138, 1071994974],
            ],
            0xb157_c6f9_914c_b2e6,
            0x5e7f_b6ee_04e3_57a4,
        ),
    );
}

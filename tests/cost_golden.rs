//! Golden numbers for the static cost model.
//!
//! The meter oracles (`cost_matches_meter_for_every_op`, `cost_oracle`)
//! check only flops, bytes and kernel calls. This file pins every field
//! of the model to literal values — `scratch_bytes`, `param_count` and
//! `dense_flops` included — plus the per-step report and both peak
//! estimates of one architecture that uses every operator kind, so a
//! refactor of how costs are derived cannot silently move any of them.
//!
//! Each row reads `label flops bytes_read bytes_written param_count
//! kernel_calls dense_flops scratch_bytes`.

use autocts::preflight::analyze_cost;
use cts_ops::{build_operator, full_set, GraphContext};
use cts_verify::{ArchSpec, BlockSpec, ModelDims, OpCost, OpKind};
use rand::{rngs::SmallRng, SeedableRng};

fn row(label: &str, c: &OpCost) -> String {
    format!(
        "{label} {} {} {} {} {} {} {}",
        c.flops,
        c.bytes_read,
        c.bytes_written,
        c.param_count,
        c.kernel_calls,
        c.dense_flops,
        c.scratch_bytes
    )
}

fn assert_rows(got: &[String], want: &str) {
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(got.len(), want.len(), "row count\n{}", got.join("\n"));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "\nfull table:\n{}", got.join("\n"));
    }
}

/// b=2, n=5, t=12, d=6, k=2, adaptive embedding width 4: the context of
/// `cost_matches_meter_for_every_op`.
const OP_COSTS: &str = "
    zero/0 720 2880 2880 0 1 0 4096
    identity/0 0 0 0 0 0 0 4096
    conv1d/0 24000 11880 11520 90 4 17280 16384
    gdcc/0 44160 29472 25920 168 9 34560 36864
    lstm/0 87360 98544 77760 324 158 69120 112128
    gru/0 68640 91920 66240 246 206 51840 93440
    trans-t/0 73680 40800 34560 120 9 60480 53248
    inf-t/0 64020 48240 29808 120 16 51840 46912
    cheb-gcn/0 55680 38244 31680 126 11 47520 57344
    dgcn/0 81600 58792 46080 198 16 72000 81920
    trans-s/0 49320 30720 24480 120 9 40320 45056
    inf-s/0 48672 41280 25748 120 16 38880 46624
    zero/1 720 2880 2880 0 1 0 4096
    identity/1 0 0 0 0 0 0 4096
    conv1d/1 24000 11880 11520 90 4 17280 16384
    gdcc/1 44160 29472 25920 168 9 34560 36864
    lstm/1 87360 98544 77760 324 158 69120 112128
    gru/1 68640 91920 66240 246 206 51840 93440
    trans-t/1 73680 40800 34560 120 9 60480 53248
    inf-t/1 64020 48240 29808 120 16 51840 46912
    cheb-gcn/1 55680 38244 31680 126 11 47520 57344
    dgcn/1 115045 82680 63660 270 25 103880 119168
    trans-s/1 49320 30720 24480 120 9 40320 45056
    inf-s/1 48672 41280 25748 120 16 38880 46624
";

#[test]
fn every_kind_prices_to_its_golden_cost() {
    let (b, n, t, d, k) = (2usize, 5usize, 12usize, 6usize, 2usize);
    let mut rng = SmallRng::seed_from_u64(0);
    let mut got = Vec::new();
    for adaptive in [false, true] {
        let ctx = if adaptive {
            GraphContext::shapes_only(n, k).with_adaptive(&mut rng, 4)
        } else {
            GraphContext::shapes_only(n, k)
        };
        for kind in full_set() {
            let op = build_operator(&mut rng, kind, "op", d, k, adaptive);
            let cost = op.cost(&[b, n, t, d], &ctx);
            got.push(row(
                &format!("{}/{}", kind.label(), u8::from(adaptive)),
                &cost,
            ));
        }
    }
    assert_rows(&got, OP_COSTS);
}

/// Four M = 3 blocks carrying all twelve kinds, with an accumulate fold on
/// every block's output node and a non-chain backbone.
fn every_kind_arch() -> ArchSpec {
    let block = |a, b, c| BlockSpec {
        m: 3,
        edges: vec![(0, 1, a), (1, 2, b), (0, 2, c)],
    };
    ArchSpec {
        dims: ModelDims {
            features: 2,
            input_len: 12,
            horizon: 3,
            d_model: 6,
            num_nodes: 5,
            gcn_k: 2,
            adaptive: true,
            adaptive_emb: 4,
        },
        blocks: vec![
            block(OpKind::Conv1d, OpKind::Gdcc, OpKind::Zero),
            block(OpKind::Lstm, OpKind::Gru, OpKind::Identity),
            block(OpKind::TransformerT, OpKind::InformerT, OpKind::ChebGcn),
            block(OpKind::Dgcn, OpKind::TransformerS, OpKind::InformerS),
        ],
        backbone: vec![0, 1, 1, 3],
    }
}

const REPORT_STEPS: &str = "
    embed 3600 3912 5760 18 2 2880 8192
    block0.e0 24000 11880 11520 90 4 17280 16384
    block0.e1 44160 29472 25920 168 9 34560 36864
    block0.e2 1440 8640 5760 0 2 0 8192
    block0_residual 720 5760 2880 0 1 0 4096
    block1.e0 87360 98544 77760 324 158 69120 112128
    block1.e1 68640 91920 66240 246 206 51840 93440
    block1.e2 720 5760 2880 0 1 0 8192
    block1_residual 720 5760 2880 0 1 0 4096
    block2.e0 73680 40800 34560 120 9 60480 53248
    block2.e1 64020 48240 29808 120 16 51840 46912
    block2.e2 56400 44004 34560 126 12 47520 61440
    block2_residual 720 5760 2880 0 1 0 4096
    block3.e0 115045 82680 63660 270 25 103880 119168
    block3.e1 49320 30720 24480 120 9 40320 45056
    block3.e2 49392 47040 28628 120 17 38880 50720
    block3_residual 720 5760 2880 0 1 0 4096
    merge_block1 720 5760 2880 0 1 0 4096
    merge_block2 720 5760 2880 0 1 0 4096
    merge_block3 720 5760 2880 0 1 0 4096
    output_head 5130 6996 3360 219 5 4320 4608
";

const REPORT_SUMMARY: &str = "
    total 647947 590928 435056 1941 482 522920 693216
    num_slots 16
    peak_bytes 160128 at block3.e0
    ideal_peak_bytes 135552
";

#[test]
fn every_kind_architecture_reports_its_golden_cost() {
    let report = analyze_cost(&every_kind_arch(), 2).expect("architecture prices");
    let steps: Vec<String> = report
        .steps
        .iter()
        .map(|s| row(&s.site.replace(' ', "_"), &s.cost))
        .collect();
    assert_rows(&steps, REPORT_STEPS);
    let summary = vec![
        row("total", &report.total),
        format!("num_slots {}", report.num_slots),
        format!("peak_bytes {} at {}", report.peak_bytes, report.peak_site),
        format!("ideal_peak_bytes {}", report.ideal_peak_bytes),
    ];
    assert_rows(&summary, REPORT_SUMMARY);
}

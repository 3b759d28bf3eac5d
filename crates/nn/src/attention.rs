//! Full (Transformer) and ProbSparse (Informer) attention.
//!
//! Both operate on `[B', L, D]` — callers reshape `[B,N,T,D]` activations to
//! `[B·N, T, D]` for temporal attention or `[B·T, N, D]` for spatial
//! attention (Table 1, Eqs. 12–13 and 16–17).

use crate::backend::Kernels;
use crate::Backend;
use cts_autograd::Parameter;
use cts_tensor::Tensor;
use rand::Rng;
use std::cell::RefCell;

/// Which attention mechanism a layer uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttentionKind {
    /// Full scaled-dot-product attention (Transformer, Eqs. 12/16).
    Full,
    /// ProbSparse attention (Informer, Eqs. 13/17); `factor` is the `c` in
    /// `u = ⌈c·ln L⌉` selected queries.
    ProbSparse {
        /// Sampling factor `c`.
        factor: f32,
    },
}

/// Plain scaled-dot-product attention `softmax(QKᵀ/√D)·V`.
///
/// `mask`, when given, is added to the raw scores before the softmax
/// (use large negative values to forbid positions); shape `[L, L]`,
/// broadcast over the batch.
pub fn scaled_dot_attention<B: Backend>(
    be: &B,
    q: &B::V,
    k: &B::V,
    v: &B::V,
    mask: Option<&Tensor>,
) -> B::V {
    // invariant: attention inputs are at least rank 1.
    let d = *be.shape(q).last().expect("attention on rank-0") as f32;
    let mut scores = be.scale(&be.matmul_nt(q, k), 1.0 / d.sqrt());
    if let Some(m) = mask {
        scores = be.add(&scores, &be.lend(m));
    }
    be.matmul(&be.softmax_last(&scores), v)
}

/// The number of active queries ProbSparse attention selects for sequence
/// length `l`: `u = ⌈c·ln L⌉`, clamped to `[1, l]`. At `u = l` the
/// attention falls back to the full path.
pub fn prob_sparse_u(factor: f32, l: usize) -> usize {
    ((factor * (l as f32).ln()).ceil() as usize).clamp(1, l)
}

/// Index scratch (idx, sel) for the ProbSparse selection.
type SparseScratch = (Vec<usize>, Vec<usize>);

thread_local! {
    /// Reused across ProbSparse forwards so a steady-state compiled plan
    /// performs no per-forward `Vec` allocation.
    static SPARSE_SCRATCH: RefCell<SparseScratch> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// ProbSparse attention: only the top-`u` queries (by the max-mean sparsity
/// measurement, computed on detached scores) attend; the remaining "lazy"
/// queries output the mean of `V`.
///
/// The selected queries are gathered (`index_select`), attend over every
/// key, and [`Backend::place_rows`] writes the `[B', L, D]` output once:
/// each attention row back at its query's position, and `v_mean·1.0` on
/// every lazy row. On the tape that is one node whose backward gathers the
/// selected rows' gradient and sums the lazy rows' into `v_mean`.
///
/// Deviation from the original Informer, noted in DESIGN.md: the
/// measurement is averaged over the batch so one index set serves the whole
/// batch (keeps the op expressible with differentiable gathers).
pub fn prob_sparse_attention<B: Backend>(
    be: &B,
    q: &B::V,
    k: &B::V,
    v: &B::V,
    factor: f32,
) -> B::V {
    let shape = be.shape(q);
    let (l, d) = (shape[1], shape[2]);
    let u = prob_sparse_u(factor, l);
    if u >= l {
        return scaled_dot_attention(be, q, k, v, None);
    }
    SPARSE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (idx, sel) = &mut *scratch;
        be.top_queries(q, k, u, idx, sel);

        let q_sel = be.index_select(q, 1, sel);
        let scores = be.scale(&be.matmul_nt(&q_sel, k), 1.0 / (d as f32).sqrt());
        let attn_sel = be.matmul(&be.softmax_last(&scores), v); // [B', u, D]

        // Lazy queries output mean(V) (the Informer "self-attention
        // distilling" default for the non-causal case).
        let v_mean = be.mean_axis(v, 1, true); // [B', 1, D]
        be.place_rows(&attn_sel, &v_mean, sel, l)
    })
}

/// Pick the `u` query indices with the largest batch-averaged max-mean
/// sparsity measurement into `sel` (sorted ascending), using `idx` as
/// scratch.
pub(crate) fn top_queries<K: Kernels>(
    kn: &K,
    q: &K::V,
    k: &K::V,
    u: usize,
    idx: &mut Vec<usize>,
    sel: &mut Vec<usize>,
) {
    let scores = kn.matmul_nt(q, k); // [B', L, L]
    let max = kn.max_axis(&scores, 2); // [B', L]
    let mean = kn.mean_axis(&scores, 2, false); // [B', L]
    let m = kn.sub(&max, &mean);
    let batch_avg = kn.mean_axis(&m, 0, false); // [L]
    kn.top_u(&batch_avg, u, idx, sel);
}

/// A self-attention layer with learned Q/K/V projections.
pub struct AttentionLayer {
    wq: crate::Linear,
    wk: crate::Linear,
    wv: crate::Linear,
    kind: AttentionKind,
}

impl AttentionLayer {
    /// Build projections of width `d` and the chosen mechanism.
    pub fn new(rng: &mut impl Rng, name: &str, d: usize, kind: AttentionKind) -> Self {
        Self {
            wq: crate::Linear::new(rng, &format!("{name}.wq"), d, d, false),
            wk: crate::Linear::new(rng, &format!("{name}.wk"), d, d, false),
            wv: crate::Linear::new(rng, &format!("{name}.wv"), d, d, false),
            kind,
        }
    }

    /// Self-attention over `[B', L, D]`.
    pub fn forward<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let q = self.wq.forward(be, x);
        let k = self.wk.forward(be, x);
        let v = self.wv.forward(be, x);
        match self.kind {
            AttentionKind::Full => scaled_dot_attention(be, &q, &k, &v, None),
            AttentionKind::ProbSparse { factor } => prob_sparse_attention(be, &q, &k, &v, factor),
        }
    }

    /// Projection parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.wq.parameters();
        v.extend(self.wk.parameters());
        v.extend(self.wv.parameters());
        v
    }

    /// Which mechanism this layer applies.
    pub fn kind(&self) -> AttentionKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use cts_tensor::{init, ops};
    use rand::{rngs::SmallRng, SeedableRng};

    fn rand_x(rng: &mut impl Rng, b: usize, l: usize, d: usize) -> Tensor {
        init::uniform(rng, [b, l, d], -1.0, 1.0)
    }

    #[test]
    fn full_attention_shape_preserved() {
        let mut rng = SmallRng::seed_from_u64(0);
        let layer = AttentionLayer::new(&mut rng, "att", 8, AttentionKind::Full);
        let tape = Tape::new();
        let x = tape.constant(rand_x(&mut rng, 3, 6, 8));
        let y = layer.forward(&tape, &x);
        assert_eq!(y.shape(), vec![3, 6, 8]);
    }

    #[test]
    fn uniform_keys_average_values() {
        // With q=0, scores are all equal, so attention = mean of V rows.
        let tape = Tape::new();
        let q = tape.constant(Tensor::zeros([1, 3, 2]));
        let k = tape.constant(Tensor::ones([1, 3, 2]));
        let v = tape.constant(Tensor::from_vec(
            [1, 3, 2],
            vec![0.0, 0.0, 3.0, 3.0, 6.0, 6.0],
        ));
        let y = scaled_dot_attention(&tape, &q, &k, &v, None).value();
        for row in 0..3 {
            assert!((y.data()[row * 2] - 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mask_forbids_positions() {
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let q = tape.constant(rand_x(&mut rng, 1, 3, 2));
        let k = tape.constant(rand_x(&mut rng, 1, 3, 2));
        let v = tape.constant(Tensor::from_vec(
            [1, 3, 2],
            vec![1.0, 1.0, 2.0, 2.0, 99.0, 99.0],
        ));
        // forbid everyone from attending to position 2
        let mut mask = Tensor::zeros([3, 3]);
        for i in 0..3 {
            *mask.at_mut(&[i, 2]) = -1e9;
        }
        let y = scaled_dot_attention(&tape, &q, &k, &v, Some(&mask)).value();
        assert!(y.max() < 3.0, "row 2's value leaked: {:?}", y);
    }

    #[test]
    fn prob_sparse_selects_subset_and_keeps_shape() {
        let mut rng = SmallRng::seed_from_u64(2);
        let layer = AttentionLayer::new(
            &mut rng,
            "inf",
            4,
            AttentionKind::ProbSparse { factor: 1.0 },
        );
        let tape = Tape::new();
        let x = tape.constant(rand_x(&mut rng, 2, 12, 4));
        let y = layer.forward(&tape, &x);
        assert_eq!(y.shape(), vec![2, 12, 4]);
        // u = ceil(ln 12) = 3 < 12, so the sparse path ran.
    }

    #[test]
    fn prob_sparse_falls_back_to_full_for_tiny_l() {
        let mut rng = SmallRng::seed_from_u64(3);
        let tape = Tape::new();
        let q = tape.constant(rand_x(&mut rng, 1, 2, 4));
        let k = tape.constant(rand_x(&mut rng, 1, 2, 4));
        let v = tape.constant(rand_x(&mut rng, 1, 2, 4));
        // factor large enough that u >= L
        let sparse = prob_sparse_attention(&tape, &q, &k, &v, 10.0).value();
        let full = scaled_dot_attention(&tape, &q, &k, &v, None).value();
        assert!(sparse.approx_eq(&full, 1e-6));
    }

    #[test]
    fn prob_sparse_lazy_rows_are_value_mean() {
        let mut rng = SmallRng::seed_from_u64(4);
        let tape = Tape::new();
        // Craft q so row 0 is clearly the most "active" query.
        let mut qv = Tensor::zeros([1, 8, 2]);
        qv.data_mut()[0] = 5.0;
        let q = tape.constant(qv);
        let k = tape.constant(rand_x(&mut rng, 1, 8, 2));
        let v = tape.constant(rand_x(&mut rng, 1, 8, 2));
        let y = prob_sparse_attention(&tape, &q, &k, &v, 0.4).value(); // u=1
        let vmean = ops::mean_axis(&v.value(), 1, false); // [1,2]
                                                          // all rows except the selected one equal mean(V)
        let mut lazy = 0;
        for row in 0..8 {
            let a = y.data()[row * 2];
            let b = y.data()[row * 2 + 1];
            if (a - vmean.data()[0]).abs() < 1e-5 && (b - vmean.data()[1]).abs() < 1e-5 {
                lazy += 1;
            }
        }
        assert_eq!(lazy, 7, "exactly one active query expected");
    }

    /// ProbSparse attention as the chain [`Backend::place_rows`] replaced,
    /// op by op: a ones constant times `v_mean`, the `concat` of
    /// `[attn; v_rep]` and the inverse `index_select` into row order.
    fn composed_prob_sparse<B: Backend>(be: &B, q: &B::V, k: &B::V, v: &B::V) -> B::V {
        let (l, d) = (be.shape(q)[1], be.shape(q)[2]);
        let u = prob_sparse_u(1.0, l);
        let (mut idx, mut sel) = (Vec::new(), Vec::new());
        be.top_queries(q, k, u, &mut idx, &mut sel);
        let nonsel: Vec<usize> = (0..l).filter(|i| !sel.contains(i)).collect();
        let q_sel = be.index_select(q, 1, &sel);
        let scores = be.scale(&be.matmul_nt(&q_sel, k), 1.0 / (d as f32).sqrt());
        let attn_sel = be.matmul(&be.softmax_last(&scores), v);
        let v_mean = be.mean_axis(v, 1, true);
        let v_rep = be.mul(&v_mean, &be.constant(Tensor::ones([1, l - u, 1])));
        let stacked = be.concat(&[&attn_sel, &v_rep], 1);
        let mut inv = vec![0; l];
        for (pos, &orig) in sel.iter().chain(&nonsel).enumerate() {
            inv[orig] = pos;
        }
        be.index_select(&stacked, 1, &inv)
    }

    /// The one-node row placement gives ProbSparse attention the bits of
    /// the composed chain: the output on `Eval` and on the tape, and the
    /// gradients of q, k and v on the tape, at `f32::to_bits`. At L = 12
    /// (u = 3) and L = 32 (u = 4), with a NaN query row (ranked last, so
    /// lazy) and signed zeros and a NaN in the upstream gradient.
    #[test]
    fn prob_sparse_placement_matches_the_composed_chain() {
        use crate::backend::Eval;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut rng = SmallRng::seed_from_u64(11);
        for (b, l) in [(3, 12), (2, 32)] {
            let d = 8;
            let mut q = rand_x(&mut rng, b, l, d);
            q.data_mut()[5 * d..6 * d].fill(f32::NAN);
            let (k, v) = (rand_x(&mut rng, b, l, d), rand_x(&mut rng, b, l, d));
            let mut g = rand_x(&mut rng, b, l, d);
            for (i, x) in g.data_mut().iter_mut().enumerate() {
                if i % 7 == 2 {
                    *x = -0.0;
                }
            }
            g.data_mut()[3 * d + 1] = f32::NAN;
            let fused = prob_sparse_attention(&Eval, &q, &k, &v, 1.0);
            let composed = composed_prob_sparse(&Eval, &q, &k, &v);
            assert_eq!(bits(&fused), bits(&composed), "Eval at L = {l}");
            let params =
                [("q", &q), ("k", &k), ("v", &v)].map(|(n, t)| Parameter::new(n, t.clone()));
            let run = |fused: bool| {
                for p in &params {
                    p.grad_mut().fill(0.0);
                }
                let tape = Tape::new();
                let [qv, kv, vv] = [0, 1, 2].map(|i| tape.param(&params[i]));
                let y = if fused {
                    prob_sparse_attention(&tape, &qv, &kv, &vv, 1.0)
                } else {
                    composed_prob_sparse(&tape, &qv, &kv, &vv)
                };
                tape.backward(&y.mul(&tape.constant(g.clone())).sum_all());
                let mut out = vec![bits(&y.value())];
                out.extend(params.iter().map(|p| bits(&p.grad())));
                out
            };
            let got = run(true);
            assert_eq!(got[0], bits(&fused), "tape == Eval at L = {l}");
            assert_eq!(got, run(false), "tape at L = {l}");
        }
    }

    /// A NaN score ranks last: the selection cannot panic on one, and it
    /// picks the finite top-u. Equal zeros keep their index order, as
    /// under the `partial_cmp` order, so no finite selection moves.
    #[test]
    fn top_u_ranks_nan_last() {
        use crate::backend::Eval;
        let mut rng = SmallRng::seed_from_u64(9);
        let (mut idx, mut sel) = (Vec::new(), Vec::new());
        for nan_at in 0..32 {
            let mut s: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s[nan_at] = f32::NAN;
            Eval.top_u(&Tensor::from_vec([32], s.clone()), 4, &mut idx, &mut sel);
            let mut finite: Vec<usize> = (0..32).filter(|&i| i != nan_at).collect();
            finite.sort_by(|&a, &b| s[b].total_cmp(&s[a]));
            let mut want = finite[..4].to_vec();
            want.sort_unstable();
            assert_eq!(sel, want, "NaN at {nan_at}");
        }
        let ties = Tensor::from_vec([4], vec![-0.0, f32::NAN, 0.0, 0.5]);
        Eval.top_u(&ties, 2, &mut idx, &mut sel);
        assert_eq!(sel, [0, 3]);
    }

    /// A NaN query at L = 32 (the spatial attention's sequence at 32
    /// sensors) makes its position's batch-averaged measurement NaN; the
    /// forward still runs and keeps its shape.
    #[test]
    fn prob_sparse_survives_a_nan_query_at_l32() {
        use crate::backend::Eval;
        let mut rng = SmallRng::seed_from_u64(10);
        for pos in 0..32 {
            let mut q = rand_x(&mut rng, 2, 32, 4);
            q.data_mut()[(32 + pos) * 4] = f32::NAN;
            let (k, v) = (rand_x(&mut rng, 2, 32, 4), rand_x(&mut rng, 2, 32, 4));
            let y = prob_sparse_attention(&Eval, &q, &k, &v, 1.0);
            assert_eq!(y.shape(), [2, 32, 4]);
        }
    }

    #[test]
    fn attention_gradients_flow_through_projections() {
        let mut rng = SmallRng::seed_from_u64(5);
        for kind in [
            AttentionKind::Full,
            AttentionKind::ProbSparse { factor: 1.0 },
        ] {
            let layer = AttentionLayer::new(&mut rng, "att", 4, kind);
            let tape = Tape::new();
            let x = tape.constant(rand_x(&mut rng, 2, 10, 4));
            let loss = layer.forward(&tape, &x).square().sum_all();
            tape.backward(&loss);
            for p in layer.parameters() {
                assert!(
                    p.grad().norm() > 0.0,
                    "{:?}: no grad for {}",
                    kind,
                    p.name()
                );
            }
        }
    }
}

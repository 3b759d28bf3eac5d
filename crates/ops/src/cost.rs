//! Static op pricing: the `cost_fn` contract mirroring [`OpKind::infer_shape`].
//!
//! Every operator kind declares, *without being instantiated or executed*,
//! how much work one forward performs: floating-point operations, bytes
//! moved through the element-wise/matmul kernels, kernel dispatches,
//! parameter count, and an upper bound on the arena bytes its
//! intermediates occupy. `cts-verify` rolls these up into whole-genotype
//! budgets checked before a single forward pass runs.
//!
//! The contract (the static counterpart of the meter in
//! `cts_tensor::meter`):
//!
//! * `flops` / `bytes_read` / `bytes_written` / `kernel_calls` are **exact**:
//!   they must equal, bit for bit, what [`cts_tensor::meter`] observes during
//!   one forward of the same operator on the same concrete shape, on the
//!   tape and on the tape-free backend alike (both run the one generic
//!   forward). A workspace test (`tests/cost_oracle.rs`) and the unit tests
//!   below enforce this against randomized genotypes. The traces therefore
//!   replay that forward kernel by kernel — including which kernels are
//!   *free* (shape ops, clones, `sum_all`, `scale_inplace`) and fast paths
//!   (same-shape zips, ProbSparse's full-attention fallback when `u ≥ L`).
//! * `dense_flops` is the matmul/conv-class subset of `flops`, used by the
//!   latency model (dense flops run much faster per flop than strided
//!   element-wise traffic).
//! * `scratch_bytes` is an arena-aligned **upper bound** (sum, not max) on
//!   the bytes of every buffer the op allocates while evaluating on the
//!   tape-free backend, including un-metered shape-op outputs and clones.
//!   It over-counts the true transient peak by design; it must never
//!   under-count.
//!
//! New operators MUST extend [`OpKind::cost`]; the exhaustive match makes
//! forgetting a compile error, and the oracle test makes a wrong trace a
//! test failure.

use crate::attention_ops::INFORMER_FACTOR;
use crate::meta::{ShapeCtx, ShapeIssue};
use crate::OpKind;
use cts_tensor::sym::SymDim;

/// Every tensor element is an `f32`.
pub const BYTES_PER_ELEM: u64 = 4;

/// The number of active queries Informer's ProbSparse attention selects for
/// sequence length `l` — the same [`cts_nn::prob_sparse_u`] the attention
/// itself calls, so cost and runtime can never disagree about which path
/// (sparse or full fallback) executes.
pub fn informer_u(l: u64) -> u64 {
    cts_nn::prob_sparse_u(INFORMER_FACTOR, l as usize) as u64
}

/// Static resource price of one operator application (or any composition of
/// kernel invocations — costs add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Floating-point operations, matching the meter's per-kernel `work`.
    pub flops: u64,
    /// Bytes read by metered kernels (input elements × 4).
    pub bytes_read: u64,
    /// Bytes written by metered kernels (output elements × 4).
    pub bytes_written: u64,
    /// Trainable parameter count of the operator (excluding shared
    /// context parameters such as adaptive-adjacency embeddings).
    pub param_count: u64,
    /// Metered kernel dispatches.
    pub kernel_calls: u64,
    /// The matmul/conv-class subset of `flops` (for the latency model).
    pub dense_flops: u64,
    /// Arena-aligned upper bound on bytes allocated while evaluating.
    pub scratch_bytes: u64,
}

impl OpCost {
    /// Field-wise saturating sum (param counts included — callers rolling up
    /// a graph where one operator instance serves one edge can add freely).
    pub fn saturating_add(&self, other: &OpCost) -> OpCost {
        OpCost {
            flops: self.flops.saturating_add(other.flops),
            bytes_read: self.bytes_read.saturating_add(other.bytes_read),
            bytes_written: self.bytes_written.saturating_add(other.bytes_written),
            param_count: self.param_count.saturating_add(other.param_count),
            kernel_calls: self.kernel_calls.saturating_add(other.kernel_calls),
            dense_flops: self.dense_flops.saturating_add(other.dense_flops),
            scratch_bytes: self.scratch_bytes.saturating_add(other.scratch_bytes),
        }
    }

    /// Total bytes moved (read + written).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }
}

/// Concrete evaluation context the cost rules price against.
///
/// Unlike [`ShapeCtx`], pricing needs every dimension bound to a number:
/// symbolic dims resolve as `"B" → batch`, `"N" → nodes` (any other symbol
/// prices as 1). `graph_nodes` keeps the *validation* semantics identical
/// to the shape pass: when `None`, spatial ops accept any node dim, exactly
/// as `infer_shape` does.
#[derive(Clone, Copy, Debug)]
pub struct CostCtx {
    /// Batch size `B` the symbolic batch dim resolves to.
    pub batch: usize,
    /// Node count `N` the symbolic node dim resolves to.
    pub nodes: usize,
    /// Channel width `d` the operator weights are sized for.
    pub width: usize,
    /// Node count used for shape *validation* (`None` = accept any node
    /// dim, mirroring [`ShapeCtx::graph_nodes`]).
    pub graph_nodes: Option<usize>,
    /// Diffusion order / Chebyshev order `K` of the GCN-family ops.
    pub gcn_k: usize,
    /// Whether the graph context carries an adaptive adjacency (gates
    /// DGCN's adaptive diffusion direction).
    pub adaptive: bool,
    /// Embedding width of the adaptive adjacency factors `E₁ [N, emb]`,
    /// `E₂ [emb, N]` (ignored when `adaptive` is false).
    pub adaptive_emb: usize,
}

impl CostCtx {
    /// The validation view of this context, for [`OpKind::infer_shape`].
    pub fn shape_ctx(&self) -> ShapeCtx {
        ShapeCtx {
            width: self.width,
            graph_nodes: self.graph_nodes,
        }
    }

    fn resolve(&self, dim: &SymDim) -> u64 {
        match dim {
            SymDim::Const(c) => *c as u64,
            SymDim::Sym("B") => self.batch as u64,
            SymDim::Sym("N") => self.nodes as u64,
            SymDim::Sym(_) => 1,
        }
    }
}

/// Arena-aligned byte footprint of a buffer of `elems` f32 elements: the
/// arena rounds every allocation up to the next power of two capacity.
pub fn arena_bytes(elems: u64) -> u64 {
    elems
        .max(1)
        .checked_next_power_of_two()
        .unwrap_or(u64::MAX)
        .saturating_mul(BYTES_PER_ELEM)
}

/// A virtual execution trace: replays a forward's kernel sequence on
/// shapes alone, accumulating an [`OpCost`].
///
/// Each method mirrors one `cts_tensor::ops` kernel's metering contract
/// (`flops` = the kernel's `work` parameter, `reads`/`writes` = the elements
/// its entry hook and dispatch record). Free operations (shape ops, clones)
/// only contribute `scratch_bytes` through [`Trace::alloc`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    cost: OpCost,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish the trace, yielding the accumulated cost.
    pub fn finish(self) -> OpCost {
        self.cost
    }

    /// Record an un-metered arena allocation of `elems` elements (clones,
    /// permutes, slices, concat outputs, zero/ones buffers).
    pub fn alloc(&mut self, elems: u64) {
        self.cost.scratch_bytes = self.cost.scratch_bytes.saturating_add(arena_bytes(elems));
    }

    /// Record `elems` elements read at a metered kernel's entry hook.
    pub fn reads(&mut self, elems: u64) {
        self.cost.bytes_read = self
            .cost
            .bytes_read
            .saturating_add(elems.saturating_mul(BYTES_PER_ELEM));
    }

    fn exec(&mut self, work: u64, out_elems: u64) {
        self.cost.flops = self.cost.flops.saturating_add(work);
        self.cost.bytes_written = self
            .cost
            .bytes_written
            .saturating_add(out_elems.saturating_mul(BYTES_PER_ELEM));
        self.cost.kernel_calls = self.cost.kernel_calls.saturating_add(1);
        self.alloc(out_elems);
    }

    /// A same-shape element-wise zip (`add`/`sub`/`mul`/`div` fast path):
    /// work = len, reads both operands, writes len.
    pub fn zip_same(&mut self, len: u64) {
        self.reads(len.saturating_mul(2));
        self.exec(len, len);
    }

    /// A broadcasting element-wise zip: work = output elements, reads both
    /// operands in full, writes the output.
    pub fn zip_bcast(&mut self, a_len: u64, b_len: u64, out_len: u64) {
        self.reads(a_len.saturating_add(b_len));
        self.exec(out_len, out_len);
    }

    /// An element-wise unary kernel (`relu`, `tanh`, `sigmoid`, `scale`,
    /// `add_scalar`, `sqrt`, `square`, `neg`, …): work = reads = writes = len.
    pub fn unary(&mut self, len: u64) {
        self.reads(len);
        self.exec(len, len);
    }

    /// A batched matmul `[batch, m, k] × [batch|1, k, n]`: `2·batch·m·n·k`
    /// dense flops, reads both operands in full (`a_len`, `b_len` elements),
    /// writes `batch·m·n`.
    pub fn matmul(&mut self, dims: [u64; 4], a_len: u64, b_len: u64) {
        let [batch, m, k, n] = dims;
        let work = 2u64
            .saturating_mul(batch)
            .saturating_mul(m)
            .saturating_mul(n)
            .saturating_mul(k);
        self.reads(a_len.saturating_add(b_len));
        self.exec(work, batch.saturating_mul(m).saturating_mul(n));
        self.cost.dense_flops = self.cost.dense_flops.saturating_add(work);
    }

    /// `transpose_last2`: a metered data movement of `len` elements.
    pub fn transpose(&mut self, len: u64) {
        self.reads(len);
        self.exec(len, len);
    }

    /// `softmax_last` over `len` total elements: ~4 flops per element.
    pub fn softmax(&mut self, len: u64) {
        self.reads(len);
        self.exec(len.saturating_mul(4), len);
    }

    /// An axis reduction (`sum_axis` / `max_axis`) decomposed as
    /// `(outer, len, inner)`: work/reads = the full input, writes
    /// `outer·inner`. (`mean_axis` adds nothing — its scale is in-place
    /// and un-metered.)
    pub fn reduce(&mut self, outer: u64, len: u64, inner: u64) {
        let total = outer.saturating_mul(len).saturating_mul(inner);
        self.reads(total);
        self.exec(total, outer.saturating_mul(inner));
    }

    /// The dilated causal `temporal_conv` kernel: `2·series·t·k·din·dout`
    /// dense flops, reads activations and kernel, writes `series·t·dout`.
    pub fn temporal_conv(&mut self, series: u64, t: u64, taps: [u64; 3]) {
        let [k, din, dout] = taps;
        let work = 2u64
            .saturating_mul(series)
            .saturating_mul(t)
            .saturating_mul(k)
            .saturating_mul(din)
            .saturating_mul(dout);
        self.reads(
            series
                .saturating_mul(t)
                .saturating_mul(din)
                .saturating_add(k.saturating_mul(din).saturating_mul(dout)),
        );
        self.exec(work, series.saturating_mul(t).saturating_mul(dout));
        self.cost.dense_flops = self.cost.dense_flops.saturating_add(work);
    }

    /// A `Linear(d_in → d_out)` eval on `rows` positions: one matmul plus,
    /// with `bias`, one broadcast add against the `[d_out]` bias vector.
    pub fn linear(&mut self, rows: u64, d_in: u64, d_out: u64, bias: bool) {
        self.matmul(
            [1, rows, d_in, d_out],
            rows.saturating_mul(d_in),
            d_in.saturating_mul(d_out),
        );
        if bias {
            let out = rows.saturating_mul(d_out);
            self.zip_bcast(out, d_out, out);
        }
    }

    /// `LayerNorm(d)` over `len` total elements (`len / d` rows): the
    /// exact nine-kernel sequence of `LayerNorm::forward`.
    pub fn layernorm(&mut self, len: u64, d: u64) {
        let rows = len.checked_div(d).unwrap_or(0);
        // mean_axis → sum_axis over the channel axis.
        self.reduce(rows, d, 1);
        // centered = x − mean (broadcast over the channel axis).
        self.zip_bcast(len, rows, len);
        // square, then the variance's mean_axis.
        self.unary(len);
        self.reduce(rows, d, 1);
        // add_scalar(eps), sqrt on the [rows] tensor.
        self.unary(rows);
        self.unary(rows);
        // normed = centered / std (broadcast).
        self.zip_bcast(len, rows, len);
        // affine: ⊙ gamma[d], + beta[d] (both broadcast).
        self.zip_bcast(len, d, len);
        self.zip_bcast(len, d, len);
    }

    /// `node_mix`: permute → `support[N,N] · x[B,T,N,D]` → permute.
    pub fn node_mix(&mut self, b: u64, n: u64, t: u64, d: u64) {
        let len = b.saturating_mul(n).saturating_mul(t).saturating_mul(d);
        self.alloc(len); // permute to [B,T,N,D]
        self.matmul([b.saturating_mul(t), n, n, d], n.saturating_mul(n), len);
        self.alloc(len); // permute back
    }

    /// One `AttentionLayer::forward` on `[bp, l, d]` (projections plus
    /// full or ProbSparse attention — the sparse path falls back to full
    /// when `u ≥ l`, exactly like the kernel).
    pub fn attention(&mut self, bp: u64, l: u64, d: u64, probsparse: bool) {
        let bld = bp.saturating_mul(l).saturating_mul(d);
        let bll = bp.saturating_mul(l).saturating_mul(l);
        // wq, wk, wv projections (no bias).
        for _ in 0..3 {
            self.linear(bp.saturating_mul(l), d, d, false);
        }
        let u = informer_u(l);
        if !probsparse || u >= l {
            // Full scaled-dot-product attention.
            self.alloc(bld); // permute(k)
            self.matmul([bp, l, d, l], bld, bld);
            self.unary(bll); // scale by 1/√d
            self.softmax(bll);
            self.matmul([bp, l, l, d], bll, bld);
            return;
        }
        // ProbSparse: sparsity measurement on detached values…
        self.transpose(bld); // transpose_last2(k)
        self.matmul([bp, l, d, l], bld, bld);
        let bl = bp.saturating_mul(l);
        self.reduce(bl, l, 1); // max_axis(scores, 2)
        self.reduce(bl, l, 1); // mean_axis(scores, 2)
        self.zip_same(bl); // max − mean
        self.reduce(1, bp, l); // batch average (mean_axis over axis 0)
        // …then attention for the u selected queries…
        let bud = bp.saturating_mul(u).saturating_mul(d);
        let bul = bp.saturating_mul(u).saturating_mul(l);
        self.alloc(bud); // index_select(q, sel)
        self.alloc(bld); // permute(k)
        self.matmul([bp, u, d, l], bud, bld);
        self.unary(bul); // scale
        self.softmax(bul);
        self.matmul([bp, u, l, d], bul, bld);
        // …lazy queries output mean(V), broadcast over L−u rows…
        self.reduce(bp, l, d); // mean_axis(v, 1)
        self.alloc(l - u); // ones([1, l−u, 1])
        let rep = bp.saturating_mul(l - u).saturating_mul(d);
        self.zip_bcast(bp.saturating_mul(d), l - u, rep);
        // …and rows reassemble via concat + inverse gather (free).
        self.alloc(bld);
        self.alloc(bld);
    }

    /// One LSTM step of `Lstm::step` on `[b, d]` rows, hidden = d.
    fn lstm_step(&mut self, b: u64, d: u64) {
        let bh = b.saturating_mul(d);
        let b4h = bh.saturating_mul(4);
        self.alloc(bh); // slice x_t
        self.linear(b, d, 4 * d, true); // wx
        self.linear(b, d, 4 * d, false); // wh
        self.zip_same(b4h); // gates_x + gates_h
        for _ in 0..4 {
            self.alloc(bh); // i/f/g/o gate slices
        }
        self.unary(bh); // sigmoid(i)
        self.unary(bh); // sigmoid(f)
        self.unary(bh); // tanh(g)
        self.unary(bh); // sigmoid(o)
        self.zip_same(bh); // f ⊙ c
        self.zip_same(bh); // i ⊙ g
        self.zip_same(bh); // c_new = +
        self.unary(bh); // tanh(c_new)
        self.zip_same(bh); // h_new = o ⊙ tanh
        self.alloc(bh); // h.clone() pushed to outputs
    }

    /// `Lstm::forward_sequence` on `[b, t, d]`, hidden = d.
    pub fn lstm(&mut self, b: u64, t: u64, d: u64) {
        let bh = b.saturating_mul(d);
        self.alloc(bh); // h = zeros
        self.alloc(bh); // c = h.clone()
        for _ in 0..t {
            self.lstm_step(b, d);
        }
        self.alloc(b.saturating_mul(t).saturating_mul(d)); // concat
    }

    /// One GRU step of `Gru::step` on `[b, d]` rows, hidden = d.
    fn gru_step(&mut self, b: u64, d: u64) {
        let bh = b.saturating_mul(d);
        let b2h = bh.saturating_mul(2);
        self.alloc(bh); // slice x_t
        self.linear(b, d, 2 * d, true); // wx_zr
        self.linear(b, d, 2 * d, false); // wh_zr
        self.zip_same(b2h); // zr sum
        self.alloc(bh); // slice z
        self.unary(bh); // sigmoid(z)
        self.alloc(bh); // slice r
        self.unary(bh); // sigmoid(r)
        self.zip_same(bh); // r ⊙ h
        self.linear(b, d, d, true); // wx_n
        self.linear(b, d, d, false); // wh_n
        self.zip_same(bh); // n sum
        self.unary(bh); // tanh(n)
        self.unary(bh); // neg(z)
        self.unary(bh); // add_scalar 1.0
        self.zip_same(bh); // (1−z) ⊙ n
        self.zip_same(bh); // z ⊙ h
        self.zip_same(bh); // h'
        self.alloc(bh); // h.clone() pushed to outputs
    }

    /// `Gru::forward_sequence` on `[b, t, d]`, hidden = d.
    pub fn gru(&mut self, b: u64, t: u64, d: u64) {
        self.alloc(b.saturating_mul(d)); // h = zeros
        for _ in 0..t {
            self.gru_step(b, d);
        }
        self.alloc(b.saturating_mul(t).saturating_mul(d)); // concat
    }
}

impl OpKind {
    /// Price one application of this operator on the symbolic `input`
    /// shape, resolved and evaluated under `ctx` — pure metadata, mirroring
    /// [`OpKind::infer_shape`]'s validation and the operator's forward
    /// kernel sequence.
    ///
    /// # Errors
    /// The same [`ShapeIssue`]s `infer_shape` reports: costs exist only for
    /// inputs the operator accepts.
    pub fn cost(&self, input: &[SymDim], ctx: &CostCtx) -> Result<OpCost, ShapeIssue> {
        // Validation is the shape rule's, verbatim.
        let _ = self.infer_shape(input, &ctx.shape_ctx())?;
        let dims: Vec<u64> = input.iter().map(|d| ctx.resolve(d)).collect();
        let numel = dims.iter().fold(1u64, |acc, &d| acc.saturating_mul(d));
        let mut tr = Trace::new();
        let d64 = ctx.width as u64;

        // Zero and Identity are polymorphic and priced on raw numel.
        match self {
            OpKind::Zero => {
                tr.unary(numel); // ops::scale(x, 0.0)
                return Ok(tr.finish());
            }
            OpKind::Identity => {
                tr.alloc(numel); // x.clone()
                return Ok(tr.finish());
            }
            _ => {}
        }

        // Parametric ops: infer_shape proved rank-4 [B, N, T, d].
        let (b, n, t) = (dims[0], dims[1], dims[2]);
        let len = numel;
        let series = b.saturating_mul(n);
        let rows = series.saturating_mul(t);

        // ReLU → inner → LayerNorm wrapper, shared by every parametric op.
        tr.unary(len); // relu
        let mut params: u64 = 2 * d64; // the wrapper's LayerNorm affine
        match self {
            OpKind::Conv1d => {
                tr.temporal_conv(series, t, [2, d64, d64]);
                tr.zip_bcast(len, d64, len); // bias
                params = params
                    .saturating_add(2 * d64 * d64 + d64);
            }
            OpKind::Gdcc => {
                for _ in 0..2 {
                    // filter (→ tanh) and gate (→ sigmoid) branches
                    tr.temporal_conv(series, t, [2, d64, d64]);
                    tr.zip_bcast(len, d64, len); // bias
                    tr.unary(len); // tanh / sigmoid
                }
                tr.zip_same(len); // f ⊙ g
                params = params.saturating_add(2 * (2 * d64 * d64 + d64));
            }
            OpKind::Lstm => {
                tr.alloc(len); // temporal view clone
                tr.lstm(series, t, d64);
                params = params.saturating_add(8 * d64 * d64 + 4 * d64);
            }
            OpKind::Gru => {
                tr.alloc(len); // temporal view clone
                tr.gru(series, t, d64);
                params = params.saturating_add(6 * d64 * d64 + 3 * d64);
            }
            OpKind::TransformerT | OpKind::InformerT => {
                tr.alloc(len); // temporal view clone
                tr.attention(series, t, d64, *self == OpKind::InformerT);
                params = params.saturating_add(3 * d64 * d64);
            }
            OpKind::TransformerS | OpKind::InformerS => {
                tr.alloc(len); // spatial view permute
                tr.attention(b.saturating_mul(t), n, d64, *self == OpKind::InformerS);
                tr.alloc(len); // un-view permute
                params = params.saturating_add(3 * d64 * d64);
            }
            OpKind::ChebGcn => {
                let k = ctx.gcn_k as u64;
                for i in 0..=k {
                    tr.node_mix(b, n, t, d64);
                    tr.linear(rows, d64, d64, i == 0);
                    if i > 0 {
                        tr.zip_same(len); // accumulate
                    }
                }
                params = params
                    .saturating_add((k + 1).saturating_mul(d64 * d64) + d64);
            }
            OpKind::Dgcn => {
                let k = ctx.gcn_k as u64;
                tr.linear(rows, d64, d64, true); // self term
                for _ in 0..2 * k {
                    // forward then backward diffusion directions
                    tr.node_mix(b, n, t, d64);
                    tr.linear(rows, d64, d64, false);
                    tr.zip_same(len); // accumulate
                }
                params = params.saturating_add(
                    (2 * k + 1).saturating_mul(d64 * d64) + d64,
                );
                if ctx.adaptive {
                    // support = softmax(relu(E₁·E₂)), computed per eval.
                    let emb = ctx.adaptive_emb as u64;
                    let nn = (ctx.nodes as u64).saturating_mul(ctx.nodes as u64);
                    let ne = (ctx.nodes as u64).saturating_mul(emb);
                    tr.matmul([1, ctx.nodes as u64, emb, ctx.nodes as u64], ne, ne);
                    tr.unary(nn); // relu
                    tr.softmax(nn);
                    tr.alloc(len); // mixed = x.clone()
                    for _ in 0..k {
                        tr.node_mix(b, n, t, d64);
                        tr.linear(rows, d64, d64, false);
                        tr.zip_same(len);
                    }
                    params = params.saturating_add(k.saturating_mul(d64 * d64));
                }
            }
            OpKind::Zero | OpKind::Identity => unreachable!("handled above"),
        }
        tr.layernorm(len, d64);
        let mut cost = tr.finish();
        cost.param_count = params;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_operator, full_set, GraphContext};
    use cts_autograd::Tape;
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use cts_tensor::{init, meter};
    use rand::{rngs::SmallRng, SeedableRng};

    fn bntd(n: usize, t: usize, d: usize) -> Vec<SymDim> {
        vec![
            SymDim::Sym("B"),
            SymDim::Const(n),
            SymDim::Const(t),
            SymDim::Const(d),
        ]
    }

    /// The heart of the contract: for every operator kind, the static cost
    /// must equal the instrumented meter's observation of one forward, bit
    /// for bit, on both the tape-free and the tape entry point (pre-flight
    /// budgets price training steps with this cost), and the parameter
    /// count must match the real weights.
    #[test]
    fn cost_matches_meter_for_every_op() {
        let (b, n, t, d, k) = (2usize, 5usize, 12usize, 6usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(42);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig { n, sigma: 0.8, threshold: 0.1 },
        );
        for adaptive in [false, true] {
            let ctx = if adaptive {
                GraphContext::from_graph(&g, k).with_adaptive(&mut rng, 4)
            } else {
                GraphContext::from_graph(&g, k)
            };
            let cctx = CostCtx {
                batch: b,
                nodes: n,
                width: d,
                graph_nodes: Some(n),
                gcn_k: k,
                adaptive,
                adaptive_emb: 4,
            };
            for kind in full_set() {
                let op = build_operator(&mut rng, kind, "op", d, k, adaptive);
                let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
                let want = kind.cost(&bntd(n, t, d), &cctx).unwrap();
                let tape = Tape::new();
                let xv = tape.constant(x.clone());
                let eval = metered(|| op.forward_eval(&x, &ctx).shape().to_vec());
                let taped = metered(|| op.forward(&tape, &xv, &ctx).shape().to_vec());
                for (path, (shape, got)) in [("eval", eval), ("tape", taped)] {
                    let at = format!("{kind} (adaptive={adaptive}, {path})");
                    assert_eq!(shape, x.shape(), "{at}: changed shape");
                    assert_eq!(want.flops, got.flops, "{at}: flops");
                    assert_eq!(want.bytes_read, got.bytes_read(), "{at}: bytes_read");
                    assert_eq!(want.bytes_written, got.bytes_written(), "{at}: bytes_written");
                    assert_eq!(want.kernel_calls, got.kernel_calls, "{at}: kernel_calls");
                }
                let real_params: usize = op.parameters().iter().map(|p| p.len()).sum();
                assert_eq!(
                    want.param_count, real_params as u64,
                    "{kind} (adaptive={adaptive}): param_count"
                );
                assert!(want.dense_flops <= want.flops, "{kind}: dense subset");
            }
        }
    }

    /// Run `f` under the kernel meter, returning its result and the counts.
    fn metered<R>(f: impl FnOnce() -> R) -> (R, meter::MeterSnapshot) {
        meter::set_enabled(true);
        meter::reset();
        let r = f();
        let got = meter::snapshot();
        meter::set_enabled(false);
        (r, got)
    }

    /// ProbSparse must fall back to the full path exactly when the runtime
    /// does (u ≥ L), including the boundary the f32 ceil math produces.
    #[test]
    fn informer_fallback_boundary_matches_runtime() {
        let (b, n, d, k) = (1usize, 3usize, 4usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_geometric_graph(&mut rng, &GraphGenConfig { n, ..Default::default() });
        let ctx = GraphContext::from_graph(&g, k);
        let cctx = CostCtx {
            batch: b,
            nodes: n,
            width: d,
            graph_nodes: Some(n),
            gcn_k: k,
            adaptive: false,
            adaptive_emb: 0,
        };
        for t in [2usize, 3, 4, 8, 16, 24] {
            let op = build_operator(&mut rng, OpKind::InformerT, "op", d, k, false);
            let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
            meter::set_enabled(true);
            meter::reset();
            let _ = op.forward_eval(&x, &ctx);
            let got = meter::snapshot();
            meter::set_enabled(false);
            let want = OpKind::InformerT.cost(&bntd(n, t, d), &cctx).unwrap();
            assert_eq!(want.flops, got.flops, "T={t}: flops");
            assert_eq!(want.kernel_calls, got.kernel_calls, "T={t}: calls");
        }
    }

    #[test]
    fn cost_rejects_what_infer_shape_rejects() {
        let cctx = CostCtx {
            batch: 2,
            nodes: 5,
            width: 6,
            graph_nodes: Some(5),
            gcn_k: 2,
            adaptive: false,
            adaptive_emb: 0,
        };
        // Wrong rank.
        assert!(OpKind::Gdcc.cost(&[SymDim::Sym("B")], &cctx).is_err());
        // Wrong channel width.
        assert!(OpKind::Gdcc.cost(&bntd(5, 8, 7), &cctx).is_err());
        // Wrong node count for a spatial op.
        assert!(OpKind::Dgcn.cost(&bntd(4, 8, 6), &cctx).is_err());
        // Zero accepts anything and is one metered kernel.
        let z = OpKind::Zero.cost(&[SymDim::Const(3)], &cctx).unwrap();
        assert_eq!(z.kernel_calls, 1);
        assert_eq!(z.flops, 3);
        // Identity is free but still occupies scratch.
        let i = OpKind::Identity.cost(&[SymDim::Const(3)], &cctx).unwrap();
        assert_eq!(i.kernel_calls, 0);
        assert!(i.scratch_bytes > 0);
    }

    #[test]
    fn costs_scale_with_batch() {
        let cctx = |batch: usize| CostCtx {
            batch,
            nodes: 5,
            width: 6,
            graph_nodes: Some(5),
            gcn_k: 2,
            adaptive: false,
            adaptive_emb: 0,
        };
        let small = OpKind::Gdcc.cost(&bntd(5, 8, 6), &cctx(1)).unwrap();
        let big = OpKind::Gdcc.cost(&bntd(5, 8, 6), &cctx(4)).unwrap();
        assert!(big.flops > small.flops);
        assert_eq!(big.param_count, small.param_count);
    }
}

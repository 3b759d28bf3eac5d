//! The third backend: price a forward by running it on shapes.
//!
//! [`Price`] flows shapes instead of tensors. Each op adds to a running
//! [`OpCost`] the metered cost of the kernel [`crate::Eval`] would call, so
//! the cost of any generic forward — an operator, a layer, a compiled
//! plan — is that forward run on `Price`: no kernel executes, and
//! activations are shapes, not buffers. This module is the one place that
//! knows each kernel's meter contract (the static counterpart of
//! `cts_tensor::meter`):
//!
//! * `flops` / `bytes_read` / `bytes_written` / `kernel_calls` are
//!   **exact**: they equal, bit for bit, what the meter records while the
//!   same forward runs on `Eval` or on the tape (both call the same
//!   kernels). `flops` is each kernel's `work`, reads are its operand
//!   lengths and writes its output length. Shape ops (`permute`, `slice`,
//!   `index_select`, `concat`, `reshape`), clones and constants are
//!   unmetered, exactly as in `cts_tensor::ops`.
//! * `dense_flops` is the matmul/conv-class subset of `flops`, used by the
//!   latency model (dense flops run much faster per flop than strided
//!   element-wise traffic).
//! * `scratch_bytes` is an arena-aligned **upper bound** (sum, not max) on
//!   the bytes of every buffer the forward allocates on `Eval`: kernel and
//!   shape-op outputs, constants and clones. `reshape` reuses its buffer,
//!   and `param`/`lend`/`lend_shape` borrow in place, so those are free.
//! * `param_count` is not a kernel quantity; callers that price a whole
//!   operator or layer set it from the instance's parameters.
//!
//! The cost arithmetic is under the `lint_forbidden.sh` checked-arithmetic
//! rule: every integer size/count product or sum saturates.

use crate::backend::{Backend, Kernels, Leaf};
use cts_autograd::Parameter;
use cts_tensor::{broadcast_shapes, ops, Shape, Tensor};
use std::cell::Cell;
use std::rc::Rc;

/// Every tensor element is an `f32`.
const BYTES_PER_ELEM: u64 = 4;

/// Static resource price of one forward (or any composition of kernel
/// invocations — costs add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Floating-point operations, matching the meter's per-kernel `work`.
    pub flops: u64,
    /// Bytes read by metered kernels (input elements × 4).
    pub bytes_read: u64,
    /// Bytes written by metered kernels (output elements × 4).
    pub bytes_written: u64,
    /// Trainable parameter count (excluding shared context parameters
    /// such as adaptive-adjacency embeddings).
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

    /// One arena allocation of `elems` elements.
    fn alloc(&mut self, elems: u64) {
        self.scratch_bytes = self.scratch_bytes.saturating_add(arena_bytes(elems));
    }

    /// One metered kernel reading `reads` elements, doing `work` flops and
    /// writing (and allocating) `writes` elements.
    fn kernel(&mut self, reads: u64, work: u64, writes: u64) {
        self.bytes_read = self
            .bytes_read
            .saturating_add(reads.saturating_mul(BYTES_PER_ELEM));
        self.flops = self.flops.saturating_add(work);
        self.bytes_written = self
            .bytes_written
            .saturating_add(writes.saturating_mul(BYTES_PER_ELEM));
        self.kernel_calls = self.kernel_calls.saturating_add(1);
        self.alloc(writes);
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

/// Saturating element count of `dims`.
fn elems(dims: &[usize]) -> u64 {
    dims.iter()
        .fold(1u64, |acc, &d| acc.saturating_mul(d as u64))
}

/// The pricing backend. Values are [`Priced`] shapes; every op adds its
/// kernel's metered cost to a running [`OpCost`] shared by the backend and
/// all its values.
#[derive(Debug, Default)]
pub struct Price {
    cost: Rc<Cell<OpCost>>,
}

/// A value on [`Price`]: a shape, tied to the backend's running cost.
///
/// Cloning charges one allocation, because on `Eval` the same clone
/// copies the buffer.
#[derive(Debug)]
pub struct Priced {
    shape: Shape,
    cost: Rc<Cell<OpCost>>,
}

impl Priced {
    fn len(&self) -> u64 {
        elems(&self.shape)
    }
}

impl Clone for Priced {
    fn clone(&self) -> Self {
        charge(&self.cost, |c| c.alloc(self.len()));
        Self {
            shape: self.shape.clone(),
            cost: Rc::clone(&self.cost),
        }
    }
}

fn charge(cost: &Cell<OpCost>, f: impl FnOnce(&mut OpCost)) {
    let mut c = cost.get();
    f(&mut c);
    cost.set(c);
}

impl Price {
    /// A fresh backend with nothing charged.
    pub fn new() -> Self {
        Self::default()
    }

    /// A value of `shape` that costs nothing to make: the input of the
    /// forward being priced, which the caller already holds.
    pub fn input(&self, shape: &[usize]) -> Priced {
        self.value(Shape::from_slice(shape))
    }

    /// The cost charged since the last `take`, resetting it to zero.
    pub fn take(&self) -> OpCost {
        self.cost.take()
    }

    fn value(&self, shape: Shape) -> Priced {
        Priced {
            shape,
            cost: Rc::clone(&self.cost),
        }
    }

    fn charge(&self, f: impl FnOnce(&mut OpCost)) {
        charge(&self.cost, f);
    }

    /// `[.., m, k] × [.., k, n]`, or `[.., m, k] × [.., n, k]ᵀ` with
    /// `nt`, with broadcast batch dims: `2·batch·m·n·k` dense flops, reads
    /// both operands, writes `batch·m·n` (`ops::matmul` / `ops::matmul_nt`).
    fn product(&self, a: &Priced, b: &Priced, nt: bool) -> Priced {
        let (ra, rb) = (a.shape.len(), b.shape.len());
        assert!(ra >= 2 && rb >= 2, "matmul needs rank >= 2");
        let (m, k) = (a.shape[ra - 2], a.shape[ra - 1]);
        let n = b.shape[rb - if nt { 2 } else { 1 }];
        let mut out = broadcast_shapes(&a.shape[..ra - 2], &b.shape[..rb - 2])
            .unwrap_or_else(|| panic!("matmul batch broadcast {:?} x {:?}", a.shape, b.shape));
        let batch = elems(&out);
        let work = 2u64
            .saturating_mul(batch)
            .saturating_mul(m as u64)
            .saturating_mul(n as u64)
            .saturating_mul(k as u64);
        out.push(m);
        out.push(n);
        let writes = elems(&out);
        self.charge(|c| {
            c.kernel(a.len().saturating_add(b.len()), work, writes);
            c.dense_flops = c.dense_flops.saturating_add(work);
        });
        self.value(out)
    }

    /// A shape op: one unmetered allocation of the output.
    fn moved(&self, shape: Shape) -> Priced {
        self.charge(|c| c.alloc(elems(&shape)));
        self.value(shape)
    }

    /// An element-wise map: work = reads = writes = len.
    fn unary(&self, x: &Priced) -> Priced {
        let n = x.len();
        self.charge(|c| c.kernel(n, n, n));
        self.value(x.shape.clone())
    }

    /// A broadcasting zip: reads both operands in full, one flop per
    /// output element.
    fn zip(&self, a: &Priced, b: &Priced) -> Priced {
        let out = broadcast_shapes(&a.shape, &b.shape)
            .unwrap_or_else(|| panic!("broadcast mismatch {:?} vs {:?}", a.shape, b.shape));
        let n = elems(&out);
        self.charge(|c| c.kernel(a.len().saturating_add(b.len()), n, n));
        self.value(out)
    }

    /// An axis reduction (`sum_axis`-shaped): reads and works the whole
    /// input, writes one element per kept position. (`mean_axis` scales in
    /// place, unmetered.)
    fn reduce(&self, x: &Priced, axis: usize, keepdim: bool) -> Priced {
        let mut out = x.shape.clone();
        if keepdim {
            out[axis] = 1;
        } else {
            out = x
                .shape
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != axis)
                .map(|(_, &d)| d)
                .collect();
        }
        let (n, kept) = (x.len(), elems(&out));
        self.charge(|c| c.kernel(n, n, kept));
        self.value(out)
    }
}

impl Backend for Price {
    type V = Priced;
    type Param<'a> = Leaf<Priced>;
    type Const<'a> = Leaf<Priced>;

    fn param(&self, p: &Parameter) -> Leaf<Priced> {
        Leaf(self.value(Shape::from_slice(p.value().shape())))
    }

    fn lend(&self, t: &Tensor) -> Leaf<Priced> {
        Leaf(self.value(Shape::from_slice(t.shape())))
    }

    fn lend_shape<'a>(&self, shape: &[usize]) -> Option<Self::Const<'a>> {
        Some(Leaf(self.value(Shape::from_slice(shape))))
    }

    fn constant(&self, t: Tensor) -> Priced {
        self.moved(Shape::from_slice(t.shape()))
    }

    fn shape(&self, x: &Priced) -> Shape {
        x.shape.clone()
    }

    fn top_queries(
        &self,
        q: &Priced,
        k: &Priced,
        u: usize,
        idx: &mut Vec<usize>,
        sel: &mut Vec<usize>,
    ) {
        crate::attention::top_queries(self, q, k, u, idx, sel);
    }

    fn add(&self, a: &Priced, b: &Priced) -> Priced {
        self.zip(a, b)
    }

    fn sub(&self, a: &Priced, b: &Priced) -> Priced {
        self.zip(a, b)
    }

    fn mul(&self, a: &Priced, b: &Priced) -> Priced {
        self.zip(a, b)
    }

    fn div(&self, a: &Priced, b: &Priced) -> Priced {
        self.zip(a, b)
    }

    fn matmul(&self, a: &Priced, b: &Priced) -> Priced {
        self.product(a, b, false)
    }

    fn matmul_nt(&self, a: &Priced, b: &Priced) -> Priced {
        self.product(a, b, true)
    }

    /// One row pass: reads `x`, `γ` and `β`, writes `x`'s shape, and does
    /// [`ops::layer_norm_flops`] of work.
    fn layer_norm(&self, x: &Priced, gamma: &Priced, beta: &Priced, _eps: f32) -> Priced {
        let n = x.len();
        let d = x.shape.last().map_or(0, |&d| d as u64);
        let rows = n.checked_div(d).unwrap_or(0);
        let work = ops::layer_norm_flops(n as usize, rows as usize) as u64;
        let reads = n.saturating_add(gamma.len()).saturating_add(beta.len());
        self.charge(|c| c.kernel(reads, work, n));
        self.value(x.shape.clone())
    }

    fn neg(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    fn relu(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    fn sigmoid(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    fn tanh(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    fn sqrt(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    fn square(&self, x: &Priced) -> Priced {
        self.unary(x)
    }

    /// ~4 flops per element (max scan, exp, sum, scale).
    fn softmax_last(&self, x: &Priced) -> Priced {
        let n = x.len();
        self.charge(|c| c.kernel(n, n.saturating_mul(4), n));
        self.value(x.shape.clone())
    }

    fn scale(&self, x: &Priced, _c: f32) -> Priced {
        self.unary(x)
    }

    fn add_scalar(&self, x: &Priced, _c: f32) -> Priced {
        self.unary(x)
    }

    fn mean_axis(&self, x: &Priced, axis: usize, keepdim: bool) -> Priced {
        self.reduce(x, axis, keepdim)
    }

    /// `[B,N,T,Din] ⊛ [K,Din,Dout]`: `2·B·N·T·K·Din·Dout` dense flops,
    /// reads activations and kernel, writes `[B,N,T,Dout]`.
    fn temporal_conv(&self, x: &Priced, w: &Priced, _dilation: usize) -> Priced {
        let (k, dout) = (w.shape[0], w.shape[2]);
        let work = 2u64
            .saturating_mul(x.len())
            .saturating_mul(k as u64)
            .saturating_mul(dout as u64);
        let mut out = x.shape.clone();
        out[3] = dout;
        let writes = elems(&out);
        self.charge(|c| {
            c.kernel(x.len().saturating_add(w.len()), work, writes);
            c.dense_flops = c.dense_flops.saturating_add(work);
        });
        self.value(out)
    }

    fn permute(&self, x: &Priced, perm: &[usize]) -> Priced {
        self.moved(perm.iter().map(|&p| x.shape[p]).collect())
    }

    fn reshape(&self, x: Priced, shape: &[usize]) -> Priced {
        Priced {
            shape: Shape::from_slice(shape),
            cost: x.cost,
        }
    }

    fn slice(&self, x: &Priced, axis: usize, start: usize, end: usize) -> Priced {
        let mut out = x.shape.clone();
        out[axis] = end.saturating_sub(start);
        self.moved(out)
    }

    fn index_select(&self, x: &Priced, axis: usize, indices: &[usize]) -> Priced {
        let mut out = x.shape.clone();
        out[axis] = indices.len();
        self.moved(out)
    }

    fn concat(&self, parts: &[&Priced], axis: usize) -> Priced {
        let mut out = parts[0].shape.clone();
        out[axis] = parts
            .iter()
            .fold(0usize, |acc, p| acc.saturating_add(p.shape[axis]));
        self.moved(out)
    }

    /// One pass: reads `attn` and `mean`, writes `[B', len, D]`, and does
    /// [`ops::place_rows_flops`] of work (the lazy rows' `·1.0`).
    fn place_rows(&self, attn: &Priced, mean: &Priced, sel: &[usize], len: usize) -> Priced {
        let (b, d) = (attn.shape[0], attn.shape[2]);
        let out = Shape::from_slice(&[b, len, d]);
        let work = ops::place_rows_flops(b, len, sel.len(), d) as u64;
        let (reads, writes) = (attn.len().saturating_add(mean.len()), elems(&out));
        self.charge(|c| c.kernel(reads, work, writes));
        self.value(out)
    }
}

impl Kernels for Price {
    fn max_axis(&self, x: &Priced, axis: usize) -> Priced {
        self.reduce(x, axis, false)
    }

    /// Only the count shapes what follows, so the first `u` rows stand in
    /// for the selection.
    fn top_u(&self, _score: &Priced, u: usize, _idx: &mut Vec<usize>, sel: &mut Vec<usize>) {
        sel.clear();
        sel.extend(0..u);
    }
}

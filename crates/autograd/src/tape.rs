//! The gradient tape: a per-forward-pass arena of operation nodes.

use crate::{Op, Parameter, Var};
use cts_tensor::{Shape, Tensor};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
    // Input node ids. `Shape` is cts-tensor's inline usize vector; node
    // fan-in is almost always <= 2, so ids live inline with the node
    // instead of in a per-node heap Vec.
    pub inputs: Shape,
    pub param: Option<Parameter>,
}

#[derive(Default)]
pub(crate) struct TapeInner {
    pub nodes: Vec<Node>,
}

// Node storage recycled across tapes on this thread: a training loop
// records one tape per step with an essentially identical node population,
// so reusing the backing vectors removes the per-step grow-by-doubling
// reallocations of `nodes` (and `grads` in [`Tape::backward`]).
const TAPE_STORE_CAP: usize = 4;

thread_local! {
    static TAPE_STORE: RefCell<Vec<Vec<Node>>> = const { RefCell::new(Vec::new()) };
    static GRADS_STORE: RefCell<Vec<Option<Tensor>>> = const { RefCell::new(Vec::new()) };
}

impl Drop for TapeInner {
    fn drop(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        // Drop the recorded values *now* so their buffers go back to the
        // arena, then cache the empty vector for the next tape.
        nodes.clear();
        // try_with: never panic if the thread is already tearing down TLS.
        let _ = TAPE_STORE.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < TAPE_STORE_CAP {
                s.push(nodes);
            }
        });
    }
}

/// A define-by-run gradient tape.
///
/// Create one per forward pass, record operations through [`Var`] methods,
/// call [`Tape::backward`] (or [`Tape::backward_for`]) once, then drop it.
/// Parameters created with [`Parameter::new`] survive across tapes and
/// accumulate gradients.
#[derive(Clone, Default)]
pub struct Tape {
    pub(crate) inner: Rc<RefCell<TapeInner>>,
}

impl Tape {
    /// Fresh, empty tape (reusing node storage recycled on this thread).
    pub fn new() -> Self {
        let nodes = TAPE_STORE
            .with(|s| s.borrow_mut().pop())
            .unwrap_or_default();
        Self {
            inner: Rc::new(RefCell::new(TapeInner { nodes })),
        }
    }

    /// Number of recorded nodes (diagnostics / memory accounting).
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a non-trainable input (data, masks, adjacency matrices).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push_node(value, Op::Leaf, Shape::default(), None)
    }

    /// Record a trainable leaf bound to `param`; gradients flow into the
    /// parameter's grad buffer on [`Tape::backward`].
    pub fn param(&self, param: &Parameter) -> Var {
        let value = param.value().clone();
        self.push_node(value, Op::Leaf, Shape::default(), Some(param.clone()))
    }

    /// Total number of activation scalars held by the tape (memory proxy).
    pub fn activation_scalars(&self) -> usize {
        self.inner.borrow().nodes.iter().map(|n| n.value.len()).sum()
    }

    pub(crate) fn push_node(
        &self,
        value: Tensor,
        op: Op,
        inputs: Shape,
        param: Option<Parameter>,
    ) -> Var {
        // Non-finite forward values are deliberately *not* asserted here:
        // transient NaN/∞ blow-ups during training are the divergence
        // watchdog's job (`cts_nn::WatchdogConfig`), which rolls the run
        // back instead of crashing it.
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            value,
            op,
            inputs,
            param,
        });
        Var {
            id,
            tape: self.clone(),
        }
    }

    /// Record an op. Forward value must be precomputed by the caller
    /// ([`Var`] methods do this), keeping the borrow windows short.
    pub(crate) fn push_op(&self, op: Op, inputs: &[usize], value: Tensor) -> Var {
        self.push_node(value, op, inputs.into(), None)
    }

    /// Audit hook for static gradient-reachability analysis: the set of
    /// [`Parameter`]s a backward sweep from `root` would actually deliver a
    /// (structurally) non-zero gradient to.
    ///
    /// Runs the sweep of [`Tape::backward`] itself (the same needs mask,
    /// the same live walk) without computing a gradient, and additionally
    /// stops at `Op::Scale(0.0)` nodes, whose backward is *exactly* zero
    /// (the `zero` operator of the search space is implemented as
    /// `scale(0.0)`). `cts-verify` cross-checks its static liveness pass
    /// against this. Parameters are deduplicated by identity, in
    /// first-visit order.
    pub fn reachable_params(&self, root: &Var) -> Vec<Parameter> {
        let inner = self.inner.borrow();
        let mut seen = HashSet::new();
        let mut params: Vec<Parameter> = Vec::new();
        sweep(self.nodes_to(&inner, root), None, |id, nodes, _| {
            let node = &nodes[id];
            if let Some(p) = &node.param {
                if seen.insert(p.key()) {
                    params.push(p.clone());
                }
                return false;
            }
            // A scale-by-zero node multiplies every upstream gradient by
            // 0.0 exactly; nothing behind it is reachable through it.
            !matches!(node.op, Op::Scale(c) if c == 0.0)
        });
        params
    }

    /// Reverse-mode sweep from `root`, accumulating into every reachable
    /// [`Parameter`]'s grad buffer.
    ///
    /// The seed gradient is all-ones (use a scalar loss for standard
    /// training). A node's gradient is computed only when it *needs* one:
    /// a parameter leaf always does, a constant leaf never does, and an op
    /// does when any of its inputs does. [`Op::backward`] gets the same
    /// rule per input, so no gradient of a constant subtree is built.
    pub fn backward(&self, root: &Var) {
        self.backward_impl(root, None);
    }

    /// [`Tape::backward`] restricted to `params`: only those parameters
    /// need a gradient, so every other parameter leaf counts as a constant
    /// and its grad buffer is left as it is. Each gradient that is still
    /// computed runs the same kernels on the same values in the same node
    /// order, so the gradients `params` receive are bit-identical to the
    /// ones a full [`Tape::backward`] delivers.
    ///
    /// The bi-level search step uses this: the Θ pass asks for the
    /// architecture parameters, the w pass for the network weights.
    pub fn backward_for(&self, root: &Var, params: &[Parameter]) {
        self.backward_impl(root, Some(params));
    }

    fn backward_impl(&self, root: &Var, wanted: Option<&[Parameter]>) {
        let inner = self.inner.borrow();
        let nodes = self.nodes_to(&inner, root);
        let mut grads = GRADS_STORE.with(|s| std::mem::take(&mut *s.borrow_mut()));
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[root.id] = Some(Tensor::ones(nodes[root.id].value.shape()));

        // Memory-profile counters (only walked when metrics are on: the
        // activation sum and live-gradient tracking are O(n) bookkeeping
        // that pure training runs should not pay).
        let metrics = cts_obs::metrics_enabled();
        let activation_scalars: u64 = if metrics {
            inner.nodes.iter().map(|nd| nd.value.len() as u64).sum()
        } else {
            0
        };
        let mut live_grad_scalars: u64 = if metrics {
            nodes[root.id].value.len() as u64
        } else {
            0
        };
        let mut peak_grad_scalars = live_grad_scalars;

        // Scratch for per-node input views and needs, reused across the
        // whole sweep.
        let mut input_values: Vec<&Tensor> = Vec::new();
        let mut input_needs: Vec<bool> = Vec::new();
        sweep(nodes, wanted, |id, nodes, needs| {
            // invariant: the sweep visits a node only once a consumer (or
            // the seed) has stored its gradient.
            let grad = grads[id].take().expect("live node holds its gradient");
            if metrics {
                live_grad_scalars -= grad.len() as u64;
            }
            let node = &nodes[id];
            if let Some(p) = &node.param {
                p.accumulate_grad(&grad);
                return false;
            }
            input_values.clear();
            input_values.extend(node.inputs.iter().map(|&i| &nodes[i].value));
            input_needs.clear();
            input_needs.extend(node.inputs.iter().map(|&i| needs[i]));
            let input_grads = node.op.backward(&grad, &node.value, &input_values, &input_needs);
            debug_assert_eq!(input_grads.len(), node.inputs.len());
            for (&input_id, g) in node.inputs.iter().zip(input_grads) {
                let Some(g) = g else {
                    continue;
                };
                match &mut grads[input_id] {
                    Some(acc) => acc.axpy(1.0, &g),
                    slot @ None => {
                        if metrics {
                            live_grad_scalars += g.len() as u64;
                            peak_grad_scalars = peak_grad_scalars.max(live_grad_scalars);
                        }
                        *slot = Some(g);
                    }
                }
            }
            true
        });
        cts_obs::tape::record_backward(nodes.len() as u64, activation_scalars, peak_grad_scalars);
        grads.clear();
        let _ = GRADS_STORE.try_with(|s| *s.borrow_mut() = grads);
    }

    /// The nodes recorded up to `root` (a superset of its ancestors), with
    /// `root` last.
    fn nodes_to<'n>(&self, inner: &'n TapeInner, root: &Var) -> &'n [Node] {
        assert!(
            Rc::ptr_eq(&self.inner, &root.tape.inner),
            "backward root from another tape"
        );
        &inner.nodes[..=root.id]
    }
}

/// The one reverse walk behind [`Tape::backward`], [`Tape::backward_for`]
/// and [`Tape::reachable_params`], from the last of `nodes` (the root).
///
/// First a forward pass over the tape derives the per-node needs mask: a
/// parameter leaf needs a gradient iff `wanted` is `None` or names it, a
/// constant leaf never does, and an op does iff any input does. Then ids
/// run from the root down, visiting each needed node that the root or a
/// visited consumer reached. `visit(id, nodes, needs)` returns whether the
/// walk goes on into that node's needed inputs.
fn sweep<'n>(
    nodes: &'n [Node],
    wanted: Option<&[Parameter]>,
    mut visit: impl FnMut(usize, &'n [Node], &[bool]) -> bool,
) {
    // One pointer set per call, so each leaf costs a hash probe.
    let wanted: Option<HashSet<usize>> = wanted.map(|ps| ps.iter().map(Parameter::key).collect());
    let mut needs: Vec<bool> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let need = match &node.param {
            Some(p) => wanted.as_ref().is_none_or(|w| w.contains(&p.key())),
            None => node.inputs.iter().any(|&i| needs[i]),
        };
        needs.push(need);
    }
    let mut live = vec![false; nodes.len()];
    if let Some(root) = live.last_mut() {
        *root = true;
    }
    for id in (0..nodes.len()).rev() {
        if !live[id] || !needs[id] || !visit(id, nodes, &needs) {
            continue;
        }
        for &input_id in &nodes[id].inputs {
            live[input_id] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_tensor::meter;

    #[test]
    fn constant_has_no_grad_flow() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::scalar(3.0));
        let y = c.square();
        tape.backward(&y); // must not panic; nothing requires grad
        assert_eq!(y.value().item(), 9.0);
    }

    #[test]
    fn param_receives_gradient() {
        let p = Parameter::new("p", Tensor::scalar(3.0));
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.square(); // dy/dp = 2p = 6
        tape.backward(&y);
        assert_eq!(p.grad().item(), 6.0);
    }

    #[test]
    fn grads_accumulate_across_tapes() {
        let p = Parameter::new("p", Tensor::scalar(2.0));
        for _ in 0..3 {
            let tape = Tape::new();
            let y = tape.param(&p).scale(4.0);
            tape.backward(&y);
        }
        assert_eq!(p.grad().item(), 12.0);
    }

    #[test]
    fn diamond_reuse_sums_gradients() {
        // y = x*x + x  => dy/dx = 2x + 1
        let p = Parameter::new("x", Tensor::scalar(5.0));
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.mul(&x).add(&x);
        tape.backward(&y);
        assert_eq!(p.grad().item(), 11.0);
    }

    #[test]
    fn param_used_twice_via_two_leaves() {
        // Same parameter pushed as two leaves still accumulates both paths.
        let p = Parameter::new("x", Tensor::scalar(3.0));
        let tape = Tape::new();
        let a = tape.param(&p);
        let b = tape.param(&p);
        let y = a.mul(&b); // x^2, dy/dx = 2x = 6
        tape.backward(&y);
        assert_eq!(p.grad().item(), 6.0);
    }

    #[test]
    fn backward_only_touches_ancestors() {
        let p = Parameter::new("p", Tensor::scalar(1.0));
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.scale(2.0);
        let _unused = x.scale(100.0); // recorded later, not an ancestor of y
        tape.backward(&y);
        assert_eq!(p.grad().item(), 2.0);
    }

    #[test]
    fn reachable_params_matches_backward() {
        let a = Parameter::new("a", Tensor::scalar(1.0));
        let b = Parameter::new("b", Tensor::scalar(2.0));
        let c = Parameter::new("c", Tensor::scalar(3.0));
        let tape = Tape::new();
        let x = tape.param(&a).mul(&tape.param(&b));
        let _dangling = tape.param(&c).scale(4.0); // never feeds the loss
        let loss = x.sum_all();
        let live = tape.reachable_params(&loss);
        assert_eq!(live.len(), 2);
        assert!(live.iter().any(|p| p.ptr_eq(&a)));
        assert!(live.iter().any(|p| p.ptr_eq(&b)));
        assert!(!live.iter().any(|p| p.ptr_eq(&c)));
    }

    #[test]
    fn reachable_params_prunes_scale_zero_paths() {
        // The search space's `zero` operator is scale(0.0): its backward is
        // exactly zero, so parameters behind it are gradient-starved.
        let dead = Parameter::new("dead", Tensor::scalar(1.0));
        let live = Parameter::new("live", Tensor::scalar(2.0));
        let tape = Tape::new();
        let killed = tape.param(&dead).square().scale(0.0);
        let loss = killed.add(&tape.param(&live)).sum_all();
        let reach = tape.reachable_params(&loss);
        assert_eq!(reach.len(), 1);
        assert!(reach[0].ptr_eq(&live));
        // scale by a non-zero constant keeps the path alive
        let tape2 = Tape::new();
        let loss2 = tape2.param(&dead).scale(0.5).sum_all();
        assert_eq!(tape2.reachable_params(&loss2).len(), 1);
        // and backward agrees: the dead param's grad is exactly zero
        tape.backward(&loss);
        assert_eq!(dead.grad().norm(), 0.0);
        assert!(live.grad().norm() > 0.0);
    }

    #[test]
    fn reachable_params_dedupes_shared_leaves() {
        let p = Parameter::new("p", Tensor::scalar(3.0));
        let tape = Tape::new();
        let a = tape.param(&p);
        let b = tape.param(&p);
        let loss = a.mul(&b).sum_all();
        assert_eq!(tape.reachable_params(&loss).len(), 1);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `tanh(x·a + b) * c` summed, over three parameters and a constant.
    fn three_param_loss(tape: &Tape, a: &Parameter, b: &Parameter, c: &Parameter) -> Var {
        let x = tape.constant(Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75]));
        let h = x.matmul(&tape.param(a)).add(&tape.param(b)).tanh();
        h.mul(&tape.param(c)).sum_all()
    }

    fn three_params() -> [Parameter; 3] {
        [
            Parameter::new("a", Tensor::from_vec([3, 2], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6])),
            Parameter::new("b", Tensor::from_vec([2], vec![0.05, -0.15])),
            Parameter::new("c", Tensor::from_vec([2, 2], vec![1.0, -2.0, 0.5, 3.0])),
        ]
    }

    #[test]
    fn backward_for_matches_backward_bitwise_and_spares_the_rest() {
        let ps = three_params();
        let tape = Tape::new();
        tape.backward(&three_param_loss(&tape, &ps[0], &ps[1], &ps[2]));
        let full: Vec<Vec<u32>> = ps.iter().map(|p| bits(&p.grad())).collect();
        for mask in 0..8usize {
            let wanted: Vec<Parameter> =
                (0..3).filter(|i| mask >> i & 1 == 1).map(|i| ps[i].clone()).collect();
            for (i, p) in ps.iter().enumerate() {
                // zero where a gradient is wanted, a sentinel elsewhere
                p.grad_mut().fill(if mask >> i & 1 == 1 { 0.0 } else { 7.0 });
            }
            let tape = Tape::new();
            tape.backward_for(&three_param_loss(&tape, &ps[0], &ps[1], &ps[2]), &wanted);
            for (i, p) in ps.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    assert_eq!(bits(&p.grad()), full[i], "param {i} under mask {mask:03b}");
                } else {
                    assert!(p.grad().data().iter().all(|&g| g == 7.0), "param {i} touched under mask {mask:03b}");
                }
            }
        }
    }

    #[test]
    fn backward_skips_the_constant_side_of_a_product() {
        // loss = sum(x · w) with x constant: only ∂/∂w = xᵀ·1 is a product.
        let w = Parameter::new("w", Tensor::from_vec([3, 2], vec![1.0; 6]));
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec([4, 3], (0..12).map(|v| v as f32).collect()));
        let loss = x.matmul(&tape.param(&w)).sum_all();
        meter::reset();
        meter::set_enabled(true);
        tape.backward(&loss);
        meter::set_enabled(false);
        let m = meter::snapshot();
        assert_eq!(m.flops, 2 * 4 * 3 * 2, "one [4,3]ᵀ×[4,2] product, no [4,2]×[3,2]ᵀ");
        assert_eq!(w.grad().data(), &[18.0, 18.0, 22.0, 22.0, 26.0, 26.0]);
    }

    #[test]
    fn backward_for_nothing_computes_nothing() {
        let ps = three_params();
        let tape = Tape::new();
        let loss = three_param_loss(&tape, &ps[0], &ps[1], &ps[2]);
        meter::reset();
        meter::set_enabled(true);
        tape.backward_for(&loss, &[]);
        meter::set_enabled(false);
        assert_eq!(meter::snapshot(), meter::MeterSnapshot::default());
        assert!(ps.iter().all(|p| p.grad().norm() == 0.0));
    }
}

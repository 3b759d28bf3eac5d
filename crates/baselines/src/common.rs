//! Shared plumbing for all baseline models.

use cts_autograd::{Parameter, Tape, Var};
use cts_data::{DatasetSpec, Scaler, Task};
use cts_graph::SensorGraph;
use cts_nn::Linear;
use cts_ops::{node_mix, GraphContext};
use rand::Rng;

/// Common construction inputs of every baseline.
#[derive(Clone)]
pub struct BaselineConfig {
    /// Hidden channel width.
    pub hidden: usize,
    /// Diffusion/Chebyshev order.
    pub k: usize,
    /// Node-embedding width for adaptive adjacencies.
    pub adaptive_emb: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            k: 2,
            adaptive_emb: 8,
            seed: 1,
        }
    }
}

/// Output horizon from a spec.
pub(crate) fn q_out(spec: &DatasetSpec) -> usize {
    match spec.task {
        Task::MultiStep => spec.output_len,
        Task::SingleStep { .. } => 1,
    }
}

/// Shared output head: flatten `[B,N,T,D] → [B,N,T·D]`, project to `Q`,
/// and invert the dataset scaling so predictions are in raw units.
pub struct OutputHead {
    linear: Linear,
    input_len: usize,
    d: usize,
    out_scale: f32,
    out_shift: f32,
}

impl OutputHead {
    /// Head for a model with `d` hidden channels.
    pub fn new(rng: &mut impl Rng, spec: &DatasetSpec, scaler: &Scaler, d: usize) -> Self {
        Self {
            linear: Linear::new(rng, "head", spec.input_len * d, q_out(spec), true),
            input_len: spec.input_len,
            d,
            out_scale: scaler.target_std(),
            out_shift: scaler.target_mean(),
        }
    }

    /// Project `[B,N,T,D]` to `[B,N,Q]` raw-scale forecasts.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let s = x.shape();
        let flat = x.relu().reshape(&[s[0], s[1], self.input_len * self.d]);
        self.linear
            .forward(tape, &flat)
            .scale(self.out_scale)
            .add_scalar(self.out_shift)
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        self.linear.parameters()
    }
}

/// Raw-scale affine applied to normalised predictions `[B,N,Q]`.
pub struct OutputScale {
    scale: f32,
    shift: f32,
}

impl OutputScale {
    /// From a dataset scaler.
    pub fn new(scaler: &Scaler) -> Self {
        Self {
            scale: scaler.target_std(),
            shift: scaler.target_mean(),
        }
    }

    /// Apply `y·σ + μ`.
    pub fn apply(&self, y: &Var) -> Var {
        y.scale(self.scale).add_scalar(self.shift)
    }
}

/// Diffusion graph convolution on a per-timestep tensor `[B, N, D]`:
/// `Σ_k P^k X W_k` over both directions plus a self term (the DCRNN/AGCRN
/// gate primitive).
pub fn diffusion_gconv(
    tape: &Tape,
    x: &Var,
    ctx: &GraphContext,
    self_w: &Linear,
    fwd_w: &[Linear],
    bwd_w: &[Linear],
) -> Var {
    let s = x.shape(); // [B,N,D]
    let x4 = x.reshape(&[s[0], s[1], 1, s[2]]);
    let mut acc = self_w.forward(tape, &x4);
    for (p, w) in ctx.diffusion_fwd(tape).zip(fwd_w.iter()) {
        acc = acc.add(&w.forward(tape, &node_mix(tape, &x4, &p)));
    }
    for (p, w) in ctx.diffusion_bwd(tape).zip(bwd_w.iter()) {
        acc = acc.add(&w.forward(tape, &node_mix(tape, &x4, &p)));
    }
    if let Some(adp) = ctx.adaptive_support(tape) {
        // reuse the forward weights for the adaptive direction
        if let Some(w) = fwd_w.first() {
            acc = acc.add(&w.forward(tape, &node_mix(tape, &x4, &adp)));
        }
    }
    // invariant: the accumulator tensor is at least rank 1.
    let d_out = *acc.shape().last().expect("non-empty");
    acc.reshape(&[s[0], s[1], d_out])
}

/// Build a graph context for a baseline, learning an adaptive adjacency
/// when no predefined one exists.
pub(crate) fn baseline_context(
    rng: &mut impl Rng,
    cfg: &BaselineConfig,
    graph: &SensorGraph,
    force_adaptive: bool,
) -> GraphContext {
    let ctx = GraphContext::from_graph(graph, cfg.k);
    if force_adaptive || !ctx.has_spatial_signal() {
        GraphContext::from_graph(graph, cfg.k).with_adaptive(rng, cfg.adaptive_emb)
    } else {
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_tensor::{init, Tensor};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn head_projects_and_rescales() {
        let mut rng = SmallRng::seed_from_u64(0);
        let spec = DatasetSpec::metr_la().scaled(0.05, 0.02);
        let vals = Tensor::full([spec.n, 100, 2], 50.0);
        let scaler = Scaler::fit(&vals, 100);
        let head = OutputHead::new(&mut rng, &spec, &scaler, 4);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(
            &mut rng,
            [2, spec.n, spec.input_len, 4],
            -1.0,
            1.0,
        ));
        let y = head.forward(&tape, &x);
        assert_eq!(y.shape(), vec![2, spec.n, spec.output_len]);
        // constant-50 training data: shift is 50, so outputs sit near 50
        assert!((y.value().mean() - 50.0).abs() < 10.0);
    }

    #[test]
    fn diffusion_gconv_keeps_shape() {
        use cts_graph::{random_geometric_graph, GraphGenConfig};
        let mut rng = SmallRng::seed_from_u64(1);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 5,
                ..Default::default()
            },
        );
        let ctx = GraphContext::from_graph(&g, 2);
        let self_w = Linear::new(&mut rng, "s", 3, 6, true);
        let fwd: Vec<Linear> = (0..2)
            .map(|i| Linear::new(&mut rng, &format!("f{i}"), 3, 6, false))
            .collect();
        let bwd: Vec<Linear> = (0..2)
            .map(|i| Linear::new(&mut rng, &format!("b{i}"), 3, 6, false))
            .collect();
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 5, 3], -1.0, 1.0));
        let y = diffusion_gconv(&tape, &x, &ctx, &self_w, &fwd, &bwd);
        assert_eq!(y.shape(), vec![2, 5, 6]);
    }
}

//! Optimisers: Adam (with L2 weight decay, as used for both the architecture
//! parameters Θ and the network weights w in §4.1.4) and SGD.

use crate::checkpoint::{refresh_all, CheckpointError, OptimizerState};
use cts_autograd::Parameter;
use cts_tensor::Tensor;

/// Common optimiser interface.
pub trait Optimizer {
    /// Apply one update from the accumulated gradients, then zero them.
    fn step(&mut self);
    /// Zero all gradients without updating.
    fn zero_grad(&self);
    /// The parameters this optimiser owns.
    fn params(&self) -> &[Parameter];
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Override the learning rate (schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Adam with decoupled-from-nothing classic L2 weight decay added to the
/// gradient (as in the paper's PyTorch `Adam(weight_decay=…)`).
pub struct Adam {
    params: Vec<Parameter>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the paper's default momentum `(0.9, 0.999)`.
    pub fn new(params: Vec<Parameter>, lr: f32, weight_decay: f32) -> Self {
        Self::with_betas(params, lr, weight_decay, 0.9, 0.999)
    }

    /// Adam for the architecture parameters Θ (momentum `(0.5, 0.999)`,
    /// §4.1.4).
    pub fn for_architecture(params: Vec<Parameter>, lr: f32, weight_decay: f32) -> Self {
        Self::with_betas(params, lr, weight_decay, 0.5, 0.999)
    }

    /// Fully customised Adam.
    pub fn with_betas(
        params: Vec<Parameter>,
        lr: f32,
        weight_decay: f32,
        beta1: f32,
        beta2: f32,
    ) -> Self {
        let m = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        let v = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        Self {
            params,
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m,
            v,
        }
    }

    /// Snapshot the full optimizer state (step count, learning rate, and
    /// both moment buffers) for checkpointing, under `name`.
    pub fn export_state(&self, name: &str) -> OptimizerState {
        OptimizerState {
            name: name.to_string(),
            t: self.t,
            lr: self.lr,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// [`Adam::export_state`] into a state it exported before, keeping the
    /// name and copying into the moment buffers where their shapes match.
    pub(crate) fn export_state_into(&self, state: &mut OptimizerState) {
        state.t = self.t;
        state.lr = self.lr;
        refresh_all(&mut state.m, &self.m);
        refresh_all(&mut state.v, &self.v);
    }

    /// Restore a state captured by [`Adam::export_state`].
    ///
    /// # Errors
    /// Fails when the moment buffers do not match this optimizer's
    /// parameter count or shapes.
    pub fn import_state(&mut self, state: &OptimizerState) -> Result<(), CheckpointError> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(CheckpointError::Incompatible(format!(
                "optimizer {:?}: checkpoint has {}/{} moment buffers, model needs {}",
                state.name,
                state.m.len(),
                state.v.len(),
                self.params.len()
            )));
        }
        for (i, p) in self.params.iter().enumerate() {
            let shape = p.shape();
            if state.m[i].shape() != shape || state.v[i].shape() != shape {
                return Err(CheckpointError::Incompatible(format!(
                    "optimizer {:?}: moment shape mismatch at parameter {} ({})",
                    state.name,
                    i,
                    p.name()
                )));
            }
        }
        self.t = state.t;
        self.lr = state.lr;
        self.m = state.m.clone();
        self.v = state.v.clone();
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let grad = p.grad().clone();
            let mut value = p.value_mut();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            for (((w, &g0), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data().iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                let g = g0 + self.weight_decay * *w;
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            drop(grad);
            drop(value);
            p.zero_grad();
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Parameter] {
        &self.params
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    params: Vec<Parameter>,
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// SGD over `params`.
    pub fn new(params: Vec<Parameter>, lr: f32, weight_decay: f32) -> Self {
        Self {
            params,
            lr,
            weight_decay,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for p in &self.params {
            let grad = p.grad().clone();
            let mut value = p.value_mut();
            for (w, &g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
                *w -= self.lr * (g + self.weight_decay * *w);
            }
            drop(grad);
            drop(value);
            p.zero_grad();
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Parameter] {
        &self.params
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Global L2 norm of all gradients.
pub fn global_grad_norm(params: &[Parameter]) -> f32 {
    params
        .iter()
        .map(|p| {
            let g = p.grad();
            g.data().iter().map(|x| x * x).sum::<f32>()
        })
        .sum::<f32>()
        .sqrt()
}

/// Clip gradients to a maximum global norm; returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Parameter], max_norm: f32) -> f32 {
    let norm = global_grad_norm(params);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.grad_mut().scale_inplace(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;

    fn quadratic_step(p: &Parameter) {
        // loss = (x - 3)^2 summed
        let tape = Tape::new();
        let x = tape.param(p);
        let loss = x.add_scalar(-3.0).square().sum_all();
        tape.backward(&loss);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = Parameter::new("x", Tensor::zeros([4]));
        let mut opt = Sgd::new(vec![p.clone()], 0.1, 0.0);
        for _ in 0..100 {
            quadratic_step(&p);
            opt.step();
        }
        for v in p.value().data() {
            assert!((v - 3.0).abs() < 1e-3, "got {v}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Parameter::new("x", Tensor::zeros([4]));
        let mut opt = Adam::new(vec![p.clone()], 0.2, 0.0);
        for _ in 0..200 {
            quadratic_step(&p);
            opt.step();
        }
        for v in p.value().data() {
            assert!((v - 3.0).abs() < 1e-2, "got {v}");
        }
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let free = Parameter::new("a", Tensor::zeros([1]));
        let decayed = Parameter::new("b", Tensor::zeros([1]));
        let mut o1 = Adam::new(vec![free.clone()], 0.1, 0.0);
        let mut o2 = Adam::new(vec![decayed.clone()], 0.1, 0.5);
        for _ in 0..300 {
            quadratic_step(&free);
            o1.step();
            quadratic_step(&decayed);
            o2.step();
        }
        assert!(decayed.value().item() < free.value().item() - 0.1);
    }

    #[test]
    fn step_resets_gradients() {
        let p = Parameter::new("x", Tensor::zeros([2]));
        let mut opt = Adam::new(vec![p.clone()], 0.01, 0.0);
        quadratic_step(&p);
        assert!(p.grad().norm() > 0.0);
        opt.step();
        assert_eq!(p.grad().norm(), 0.0);
    }

    #[test]
    fn clip_caps_global_norm() {
        let p = Parameter::new("x", Tensor::zeros([3]));
        p.grad_mut().fill(10.0);
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!(pre > 17.0);
        assert!((global_grad_norm(&[p]) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        // Two optimizers over identical parameters; export/import after k
        // steps must make further trajectories bit-identical.
        let p1 = Parameter::new("x", Tensor::zeros([4]));
        let p2 = Parameter::new("x", Tensor::zeros([4]));
        let mut o1 = Adam::new(vec![p1.clone()], 0.2, 0.01);
        // Same decay (config, not state) but different starting LR: the
        // imported state carries the LR.
        let mut o2 = Adam::new(vec![p2.clone()], 0.05, 0.01);
        for _ in 0..7 {
            quadratic_step(&p1);
            o1.step();
        }
        p2.set_value(p1.value().clone());
        o2.import_state(&o1.export_state("main")).unwrap();
        assert_eq!(o2.lr(), 0.2);
        for _ in 0..5 {
            quadratic_step(&p1);
            o1.step();
            quadratic_step(&p2);
            o2.step();
        }
        assert_eq!(p1.value().data(), p2.value().data());
    }

    #[test]
    fn adam_import_rejects_wrong_shapes() {
        let p = Parameter::new("x", Tensor::zeros([4]));
        let mut opt = Adam::new(vec![p], 0.1, 0.0);
        let bad = OptimizerState {
            name: "main".into(),
            t: 1,
            lr: 0.1,
            m: vec![Tensor::zeros([5])],
            v: vec![Tensor::zeros([5])],
        };
        assert!(opt.import_state(&bad).is_err());
    }

    #[test]
    fn architecture_adam_uses_beta_half() {
        let p = Parameter::new("x", Tensor::zeros([1]));
        let opt = Adam::for_architecture(vec![p], 3e-4, 1e-3);
        assert_eq!(opt.beta1, 0.5);
    }
}

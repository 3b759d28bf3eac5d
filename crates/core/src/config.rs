//! Search-space and optimisation configuration (§4.1.4 defaults).

use cts_nn::{CheckpointConfig, WatchdogConfig};
use cts_ops::OpKind;

/// Everything that defines one AutoCTS search run.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Latent nodes per ST-block, `M` (paper default 5; varied in
    /// Tables 17/19/21–26).
    pub m: usize,
    /// ST-blocks in the backbone, `B` (paper default 4; varied in
    /// Tables 18/20/21–26).
    pub b: usize,
    /// Hidden channel width `D` of every latent representation.
    pub d_model: usize,
    /// Incoming edges kept per node at derivation (paper default 2;
    /// Tables 36–37 vary it to 3).
    pub edges_per_node: usize,
    /// The operator set `O` (compact set by default; the full Table 1 set
    /// reproduces the *w/o design principles* ablation).
    pub op_set: Vec<OpKind>,
    /// Fraction of channels routed through candidate operators during the
    /// search (partial channel connections, Xu et al. 2019; the paper uses
    /// 1/4). The derived model always uses full channels.
    pub partial_channels: f32,
    /// Search epochs over the pseudo-training set.
    pub epochs: usize,
    /// Mini-batch size during search.
    pub batch_size: usize,
    /// Learning rate for the architecture parameters `Θ` (paper: 3e-4).
    pub arch_lr: f32,
    /// Weight decay for `Θ` (paper: 1e-3).
    pub arch_wd: f32,
    /// Learning rate for the network weights `w` (paper: 1e-3).
    pub weight_lr: f32,
    /// Weight decay for `w` (paper: 1e-4).
    pub weight_wd: f32,
    /// Gradient-norm clip for `w` updates (0 disables).
    pub clip: f32,
    /// Initial softmax temperature τ (paper: 5.0).
    pub tau_init: f32,
    /// Per-epoch exponential annealing factor (paper: 0.9).
    pub tau_factor: f32,
    /// Temperature floor (paper: 1e-3).
    pub tau_min: f32,
    /// `false` reproduces the *w/o temperature* ablation (τ ≡ 1).
    pub use_temperature: bool,
    /// `false` reproduces the *w/o macro search* ablation: a single shared
    /// ST-block searched with a fixed sequential topology, then stacked
    /// with residual connections.
    pub macro_search: bool,
    /// Diffusion steps / Chebyshev order for the GCN-family operators.
    pub gcn_k: usize,
    /// Node-embedding width of the adaptive adjacency (used when the
    /// dataset has no predefined graph).
    pub adaptive_emb: usize,
    /// Efficiency-aware search (the paper's §6 future-work item): weight of
    /// the differentiable operator-cost penalty added to the architecture
    /// objective. 0 disables (the paper's setting); positive values steer
    /// `α` toward cheaper operators.
    pub cost_penalty: f32,
    /// Static-cost budget: reject any genotype whose most expensive single
    /// analyzer step exceeds this many FLOPs at `batch_size` (None
    /// disables). Enforced at pre-flight, before the model is built.
    pub max_flops_per_step: Option<u64>,
    /// Static-cost budget: reject any genotype whose predicted peak
    /// resident arena bytes at `batch_size` exceed this (None disables).
    pub max_peak_bytes: Option<u64>,
    /// Static-cost budget: reject any genotype whose predicted forward
    /// latency (default calibration) exceeds this many milliseconds at
    /// `batch_size` (None disables).
    pub max_latency_ms: Option<f32>,
    /// RNG seed controlling initialisation and batch order.
    pub seed: u64,
    /// Epoch-boundary run-state persistence for the search (None
    /// disables). A killed search resumes bit-identically from the last
    /// checkpoint.
    pub checkpoint: Option<CheckpointConfig>,
    /// Divergence watchdog for the bi-level loop (enabled by default).
    pub watchdog: WatchdogConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            m: 5,
            b: 4,
            d_model: 16,
            edges_per_node: 2,
            op_set: cts_ops::compact_set(),
            partial_channels: 0.5,
            epochs: 4,
            batch_size: 8,
            arch_lr: 3e-4,
            arch_wd: 1e-3,
            weight_lr: 1e-3,
            weight_wd: 1e-4,
            clip: 5.0,
            tau_init: 5.0,
            tau_factor: 0.9,
            tau_min: 1e-3,
            use_temperature: true,
            macro_search: true,
            gcn_k: 2,
            adaptive_emb: 8,
            cost_penalty: 0.0,
            max_flops_per_step: None,
            max_peak_bytes: None,
            max_latency_ms: None,
            seed: 1,
            checkpoint: None,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl SearchConfig {
    /// Paper-default micro/macro sizes with a custom seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The *w/o design principles* ablation: search over all of Table 1.
    pub fn without_design_principles(mut self) -> Self {
        self.op_set = cts_ops::full_set();
        self
    }

    /// The *w/o temperature* ablation.
    pub fn without_temperature(mut self) -> Self {
        self.use_temperature = false;
        self
    }

    /// The *w/o macro search* ablation.
    pub fn without_macro_search(mut self) -> Self {
        self.macro_search = false;
        self
    }

    /// Enable efficiency-aware search with penalty weight `lambda`.
    pub fn with_cost_penalty(mut self, lambda: f32) -> Self {
        self.cost_penalty = lambda;
        self
    }

    /// Cap the statically priced per-step FLOPs of every candidate; a
    /// genotype whose priciest analyzer step exceeds `flops` is rejected
    /// at pre-flight with a typed finding naming that step.
    pub fn with_max_flops_per_step(mut self, flops: u64) -> Self {
        self.max_flops_per_step = Some(flops);
        self
    }

    /// Cap the statically predicted peak resident arena bytes of every
    /// candidate at `batch_size`.
    pub fn with_max_peak_bytes(mut self, bytes: u64) -> Self {
        self.max_peak_bytes = Some(bytes);
        self
    }

    /// Cap the statically predicted forward latency (default calibration)
    /// of every candidate at `batch_size`.
    pub fn with_max_latency_ms(mut self, ms: f32) -> Self {
        self.max_latency_ms = Some(ms);
        self
    }

    /// Persist search run state to `ck.path` at epoch boundaries and
    /// resume from it when present (see [`CheckpointConfig`]).
    pub fn with_checkpoint(mut self, ck: CheckpointConfig) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// Channel width routed through candidate operators.
    pub fn op_channels(&self) -> usize {
        ((self.d_model as f32 * self.partial_channels).round() as usize).clamp(1, self.d_model)
    }

    /// Number of node pairs `(h_i, h_j), i < j` in one micro-DAG.
    pub fn num_pairs(&self) -> usize {
        self.m * (self.m - 1) / 2
    }

    /// Size of the micro search space, `|O|^(M(M-1)/2)` (§3.2.1), as an f64
    /// because it overflows integers fast.
    pub fn micro_space_size(&self) -> f64 {
        (self.op_set.len() as f64).powi(self.num_pairs() as i32)
    }

    /// Validate invariants, returning a descriptive message on misuse.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.m < 2 {
            return Err("micro-DAG needs at least input + output nodes".into());
        }
        if self.b < 1 {
            return Err("backbone needs at least one ST-block".into());
        }
        if self.edges_per_node < 1 {
            return Err("derivation keeps at least one incoming edge per node".into());
        }
        if self.op_set.is_empty() {
            return Err("operator set must not be empty".into());
        }
        if self.op_set.iter().all(|&k| k == OpKind::Zero) {
            return Err(
                "operator set needs an operator other than zero (every edge mixes one)".into(),
            );
        }
        if self.d_model < 2 {
            return Err("d_model must be at least 2".into());
        }
        if !(self.partial_channels > 0.0 && self.partial_channels <= 1.0) {
            return Err("partial_channels must be in (0, 1]".into());
        }
        if self.gcn_k < 1 {
            return Err("gcn_k must be at least 1 (GCN operators need one diffusion step)".into());
        }
        Ok(())
    }

    /// Validate invariants; panics with a descriptive message on misuse.
    /// Use [`SearchConfig::try_validate`] for a typed result.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SearchConfig::default();
        assert_eq!((c.m, c.b, c.edges_per_node), (5, 4, 2));
        assert_eq!(c.op_set.len(), 6);
        assert_eq!(c.arch_lr, 3e-4);
        assert_eq!(c.arch_wd, 1e-3);
        assert_eq!(c.weight_lr, 1e-3);
        assert_eq!(c.weight_wd, 1e-4);
        assert_eq!((c.tau_init, c.tau_factor, c.tau_min), (5.0, 0.9, 1e-3));
        c.validate();
    }

    #[test]
    fn ablation_builders() {
        assert_eq!(
            SearchConfig::default()
                .without_design_principles()
                .op_set
                .len(),
            12
        );
        assert!(
            !SearchConfig::default()
                .without_temperature()
                .use_temperature
        );
        assert!(!SearchConfig::default().without_macro_search().macro_search);
    }

    #[test]
    fn search_space_size_formula() {
        let c = SearchConfig::default();
        assert_eq!(c.num_pairs(), 10);
        assert_eq!(c.micro_space_size(), 6f64.powi(10));
    }

    #[test]
    fn op_channels_clamped() {
        let mut c = SearchConfig {
            d_model: 8,
            partial_channels: 0.25,
            ..Default::default()
        };
        assert_eq!(c.op_channels(), 2);
        c.partial_channels = 1.0;
        assert_eq!(c.op_channels(), 8);
    }

    #[test]
    #[should_panic]
    fn invalid_m_rejected() {
        let c = SearchConfig {
            m: 1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn zero_gcn_k_rejected() {
        // Regression: gcn_k = 0 used to pass validation, then build GCN
        // operators with empty weight stacks (zero diffusion supports).
        let c = SearchConfig {
            gcn_k: 0,
            ..Default::default()
        };
        assert!(c.try_validate().unwrap_err().contains("gcn_k"));
    }
}

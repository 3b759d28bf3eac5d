//! Shared experiment plumbing: scaling knobs, dataset preparation, the
//! baseline model zoo, and table formatting.

use autocts::eval::{train_and_evaluate, EvalReport};
use autocts::{AutoCts, SearchConfig, SearchOutcome};
use cts_baselines::{Agcrn, BaselineConfig, Dcrnn, GraphWaveNet, LstNet, Mtgnn, Stgcn, TpaLstm};
use cts_data::{build_windows, generate, CtsData, DatasetSpec, SplitWindows, Task};
use cts_nn::{Forecaster, LossKind, TrainConfig};
use cts_ops::OpKind;

/// Scale and budget knobs for every experiment, read from the environment:
///
/// | Variable | Default | Meaning |
/// |---|---|---|
/// | `NODES` | 16 | target sensors per dataset |
/// | `STEPS` | 1200 | target timestamps per dataset |
/// | `WINDOW_CAP` | 48 | max windows per split (multi-step) |
/// | `SEARCH_EPOCHS` | 3 | supernet search epochs |
/// | `EVAL_EPOCHS` | 8 | architecture-evaluation retraining epochs |
/// | `BASELINE_EPOCHS` | 8 | baseline training epochs |
/// | `BATCH` | 8 | mini-batch size |
/// | `D_MODEL` | 16 | hidden width (AutoCTS and baselines) |
/// | `SEED` | 1 | global seed |
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Target node count per dataset.
    pub nodes: usize,
    /// Target total timestamps per dataset.
    pub steps: usize,
    /// Max windows per split for multi-step tasks.
    pub window_cap: usize,
    /// Supernet search epochs.
    pub search_epochs: usize,
    /// Derived-model retraining epochs.
    pub eval_epochs: usize,
    /// Baseline training epochs.
    pub baseline_epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Global seed.
    pub seed: u64,
    /// Limit the dataset sweeps of Tables 7/9-16/17-26/27-34 to the first
    /// `k` datasets (0 = all eight). The limited order interleaves task
    /// types: METR-LA, PEMS03, Electricity, PEMS-BAY, PEMS04, PEMS08,
    /// PEMS07, Solar-Energy.
    pub dataset_limit: usize,
    /// History length used for single-step tasks (`SS_INPUT`, default 96;
    /// the paper uses 168 — still "long" relative to the 12-step
    /// multi-step tasks, but CPU-affordable).
    pub singlestep_input: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            nodes: 16,
            steps: 1200,
            window_cap: 48,
            search_epochs: 3,
            eval_epochs: 8,
            baseline_epochs: 8,
            batch: 8,
            d_model: 16,
            seed: 1,
            dataset_limit: 0,
            singlestep_input: 96,
        }
    }
}

impl ExpContext {
    /// Read knobs from the environment (defaults above).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            nodes: env_usize("NODES", d.nodes),
            steps: env_usize("STEPS", d.steps),
            window_cap: env_usize("WINDOW_CAP", d.window_cap),
            search_epochs: env_usize("SEARCH_EPOCHS", d.search_epochs),
            eval_epochs: env_usize("EVAL_EPOCHS", d.eval_epochs),
            baseline_epochs: env_usize("BASELINE_EPOCHS", d.baseline_epochs),
            batch: env_usize("BATCH", d.batch),
            d_model: env_usize("D_MODEL", d.d_model),
            seed: env_usize("SEED", d.seed as usize) as u64,
            dataset_limit: env_usize("DATASET_LIMIT", d.dataset_limit),
            singlestep_input: env_usize("SS_INPUT", d.singlestep_input),
        }
    }

    /// A drastically reduced context for smoke tests.
    pub fn smoke() -> Self {
        Self {
            nodes: 8,
            steps: 420,
            window_cap: 16,
            search_epochs: 1,
            eval_epochs: 2,
            baseline_epochs: 2,
            batch: 4,
            d_model: 8,
            seed: 1,
            dataset_limit: 2,
            singlestep_input: 36,
        }
    }

    /// Batch size adjusted for the task: single-step tasks have 14x longer
    /// inputs, so their batches shrink to keep activation memory bounded.
    pub fn batch_for(&self, spec: &DatasetSpec) -> usize {
        match spec.task {
            Task::MultiStep => self.batch,
            Task::SingleStep { .. } => (self.batch / 2).max(2),
        }
    }

    /// The AutoCTS search configuration for a specific dataset.
    pub fn search_config_for(&self, spec: &DatasetSpec) -> SearchConfig {
        SearchConfig {
            batch_size: self.batch_for(spec),
            ..self.search_config()
        }
    }

    /// The default AutoCTS search configuration under these knobs.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            d_model: self.d_model,
            epochs: self.search_epochs,
            batch_size: self.batch,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Baseline construction knobs.
    pub fn baseline_config(&self) -> BaselineConfig {
        BaselineConfig {
            hidden: self.d_model,
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// A generated, windowed dataset ready for experiments.
pub struct Prepared {
    /// The scaled spec actually used.
    pub spec: DatasetSpec,
    /// Generated values + graph.
    pub data: CtsData,
    /// Standardised windows with chronological splits.
    pub windows: SplitWindows,
}

/// Stable per-dataset fingerprint: distinguishes datasets after scaling
/// maps them all to similar sizes (each dataset must still get its own
/// series, graph, and slightly different N/T — mirroring Table 4's
/// variety).
fn name_fingerprint(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Generate and window a dataset at the context's scale.
pub fn prepare(ctx: &ExpContext, spec: &DatasetSpec) -> Prepared {
    let fp = name_fingerprint(&spec.name);
    // vary the target size a little per dataset so costs differ (Table 7)
    let nodes = ctx.nodes + (fp % 5) as usize;
    let steps = ctx.steps + (fp % 7) as usize * 40;
    let node_scale = nodes as f32 / spec.n as f32;
    let time_scale = steps as f32 / spec.t as f32;
    let mut scaled = spec.scaled(node_scale, time_scale);
    if matches!(scaled.task, Task::SingleStep { .. }) {
        scaled.input_len = scaled.input_len.min(ctx.singlestep_input);
    }
    let data = generate(&scaled, ctx.seed ^ fp);
    let windows = window(ctx, &data);
    Prepared {
        spec: scaled,
        data,
        windows,
    }
}

/// Window a dataset exactly as [`prepare`] does — exposed so robustness
/// probes can re-window an adversarially corrupted copy of the same data
/// on the same grid.
pub fn window(ctx: &ExpContext, data: &CtsData) -> SplitWindows {
    let spec = &data.spec;
    // Single-step tasks have long inputs: thin the window grid harder.
    let (stride, cap) = match spec.task {
        Task::MultiStep => {
            let stride = (spec.max_windows() / (4 * ctx.window_cap)).max(1);
            (stride, ctx.window_cap)
        }
        Task::SingleStep { .. } => {
            let cap = (ctx.window_cap / 2).max(8);
            let stride = (spec.max_windows() / (4 * cap)).max(1);
            (stride, cap)
        }
    };
    build_windows(data, stride, cap)
}

/// All seven human-designed baseline names, in the tables' order.
pub const BASELINE_NAMES: [&str; 7] = [
    "DCRNN",
    "STGCN",
    "Graph WaveNet",
    "AGCRN",
    "LSTNet",
    "TPA-LSTM",
    "MTGNN",
];

/// Instantiate a baseline by name.
pub fn build_baseline(name: &str, ctx: &ExpContext, p: &Prepared) -> Box<dyn Forecaster> {
    let cfg = ctx.baseline_config();
    let (spec, graph, scaler) = (&p.spec, &p.data.graph, &p.windows.scaler);
    match name {
        "DCRNN" => Box::new(Dcrnn::new(&cfg, spec, graph, scaler)),
        "STGCN" => Box::new(Stgcn::new(&cfg, spec, graph, scaler)),
        "Graph WaveNet" => Box::new(GraphWaveNet::new(&cfg, spec, graph, scaler)),
        "AGCRN" => Box::new(Agcrn::new(&cfg, spec, graph, scaler)),
        "LSTNet" => Box::new(LstNet::new(&cfg, spec, graph, scaler)),
        "TPA-LSTM" => Box::new(TpaLstm::new(&cfg, spec, graph, scaler)),
        "MTGNN" => Box::new(Mtgnn::new(&cfg, spec, graph, scaler)),
        other => panic!("unknown baseline {other}"),
    }
}

/// Train a baseline and evaluate on the test split.
pub fn run_baseline(name: &str, ctx: &ExpContext, p: &Prepared) -> EvalReport {
    let model = build_baseline(name, ctx, p);
    let cfg = TrainConfig {
        epochs: ctx.baseline_epochs,
        lr: 1e-3,
        weight_decay: 1e-4,
        clip: 5.0,
        loss: LossKind::MaskedMae {
            null_value: p.spec.null_value,
        },
        patience: 0,
        ..TrainConfig::default()
    };
    train_and_evaluate(
        model.as_ref(),
        &p.spec,
        &p.windows,
        &cfg,
        ctx.batch_for(&p.spec),
    )
    .unwrap_or_else(|e| panic!("baseline {name} training failed: {e}"))
}

/// Run the full AutoCTS pipeline: search, then architecture evaluation.
pub fn autocts_search_and_eval(
    cfg: &SearchConfig,
    ctx: &ExpContext,
    p: &Prepared,
) -> (SearchOutcome, EvalReport) {
    let cfg = SearchConfig {
        batch_size: ctx.batch_for(&p.spec),
        ..cfg.clone()
    };
    let auto = AutoCts::new(cfg.clone());
    let outcome = auto.search(&p.spec, &p.data.graph, &p.windows);
    let report = auto.evaluate(
        &outcome.genotype,
        &p.spec,
        &p.data.graph,
        &p.windows,
        ctx.eval_epochs,
    );
    (outcome, report)
}

/// AutoSTG as a restricted AutoCTS configuration (see DESIGN.md): only
/// {1D-Conv, DGCN} as parametric operators, micro-only search, stacked
/// homogeneous blocks.
pub fn autostg_config(ctx: &ExpContext) -> SearchConfig {
    SearchConfig {
        op_set: vec![OpKind::Zero, OpKind::Identity, OpKind::Conv1d, OpKind::Dgcn],
        macro_search: false,
        ..ctx.search_config()
    }
}

/// Fixed-width ASCII table renderer used by every experiment binary.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let line = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&line(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_from_env_uses_defaults() {
        let ctx = ExpContext::default();
        assert_eq!(ctx.nodes, 16);
        assert!(ctx.search_config().epochs == ctx.search_epochs);
    }

    #[test]
    fn prepare_scales_dataset() {
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        assert!(p.spec.n <= 10);
        assert!(!p.windows.train.is_empty());
        assert!(!p.windows.test.is_empty());
    }

    #[test]
    fn every_baseline_builds() {
        let ctx = ExpContext::smoke();
        let p = prepare(&ctx, &DatasetSpec::metr_la());
        for name in BASELINE_NAMES {
            let m = build_baseline(name, &ctx, &p);
            assert!(!m.parameters().is_empty(), "{name} has no params");
        }
    }

    #[test]
    fn autostg_config_is_restricted() {
        let cfg = autostg_config(&ExpContext::smoke());
        assert_eq!(cfg.op_set.len(), 4);
        assert!(!cfg.macro_search);
    }

    #[test]
    fn table_renderer_aligns() {
        let s = print_table(
            "T",
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("long"));
    }
}

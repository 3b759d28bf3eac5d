//! The high-level AutoCTS entry point.
//!
//! ```no_run
//! use autocts::{AutoCts, SearchConfig};
//! use cts_data::{build_windows, generate, DatasetSpec};
//!
//! let spec = DatasetSpec::metr_la().scaled(0.06, 0.02);
//! let data = generate(&spec, 42);
//! let windows = build_windows(&data, 4, 120);
//!
//! let auto = AutoCts::new(SearchConfig::default());
//! let outcome = auto.search(&spec, &data.graph, &windows);
//! println!("{}", outcome.genotype);
//! let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 10);
//! println!("test MAE = {:.3}", report.overall.mae);
//! ```

use crate::eval::{evaluate_genotype, EvalReport};
use crate::preflight::preflight;
use crate::{joint_search, EvalError, Genotype, SearchConfig, SearchError, SearchStats};
use cts_data::{DatasetSpec, SplitWindows};
use cts_graph::SensorGraph;

/// Result of one architecture search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The derived discrete architecture.
    pub genotype: Genotype,
    /// Cost accounting of the search.
    pub stats: SearchStats,
}

/// Builder-style facade over search + architecture evaluation.
#[derive(Clone, Debug)]
pub struct AutoCts {
    config: SearchConfig,
}

impl AutoCts {
    /// AutoCTS with the given search configuration.
    ///
    /// Panics on an invalid configuration; use [`AutoCts::try_new`] for a
    /// typed result.
    pub fn new(config: SearchConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// AutoCTS with the given search configuration, rejecting invalid
    /// configurations with [`SearchError::InvalidConfig`].
    pub fn try_new(config: SearchConfig) -> Result<Self, SearchError> {
        config.try_validate().map_err(SearchError::InvalidConfig)?;
        Ok(Self { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Stage 1 (§3.4): architecture search on the training windows.
    ///
    /// Panics on a search failure; use [`AutoCts::try_search`] for a
    /// typed result (resume, watchdog, and checkpoint errors).
    pub fn search(
        &self,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        windows: &SplitWindows,
    ) -> SearchOutcome {
        self.try_search(spec, graph, windows)
            .unwrap_or_else(|e| panic!("search failed: {e}"))
    }

    /// Stage 1 (§3.4) with a typed result: architecture search on the
    /// training windows.
    ///
    /// The derived genotype is statically verified (`cts-verify`) before
    /// it is returned; a derivation bug surfaces here as
    /// [`SearchError::InvalidGenotype`] with named findings instead of a
    /// wasted retraining run later.
    pub fn try_search(
        &self,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        windows: &SplitWindows,
    ) -> Result<SearchOutcome, SearchError> {
        let (genotype, _model, stats) = joint_search(&self.config, spec, graph, windows)?;
        preflight(&self.config, &genotype, spec, graph).map_err(SearchError::InvalidGenotype)?;
        Ok(SearchOutcome { genotype, stats })
    }

    /// Stage 2 (§3.4): retrain the genotype from scratch on train+val for
    /// `epochs` and report test metrics. Also the entry point for
    /// transferability (Table 35): pass a genotype searched on another
    /// dataset.
    ///
    /// Panics on a training failure; use [`AutoCts::try_evaluate`] for a
    /// typed result.
    pub fn evaluate(
        &self,
        genotype: &Genotype,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        windows: &SplitWindows,
        epochs: usize,
    ) -> EvalReport {
        self.try_evaluate(genotype, spec, graph, windows, epochs)
            .unwrap_or_else(|e| panic!("architecture evaluation failed: {e}"))
    }

    /// Stage 2 (§3.4) with a typed result.
    ///
    /// The genotype is statically verified first — important for
    /// hand-written or transferred genotypes that never went through this
    /// config's derivation — and rejected with [`EvalError::Rejected`]
    /// before any model is built.
    pub fn try_evaluate(
        &self,
        genotype: &Genotype,
        spec: &DatasetSpec,
        graph: &SensorGraph,
        windows: &SplitWindows,
        epochs: usize,
    ) -> Result<EvalReport, EvalError> {
        preflight(&self.config, genotype, spec, graph).map_err(EvalError::Rejected)?;
        Ok(evaluate_genotype(
            &self.config,
            genotype,
            spec,
            graph,
            windows,
            epochs,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_data::{build_windows, generate};

    #[test]
    fn end_to_end_search_and_evaluate_beats_trivial_baseline() {
        let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
        let data = generate(&spec, 3);
        let windows = build_windows(&data, 4, 40);
        let cfg = SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let auto = AutoCts::new(cfg);
        let outcome = auto.search(&spec, &data.graph, &windows);
        outcome.genotype.validate().unwrap();
        let report = auto.evaluate(&outcome.genotype, &spec, &data.graph, &windows, 15);
        // "Trivial baseline": always predict the training-mean speed. Any
        // trained model must beat its MAE comfortably.
        let train_mean = windows.scaler.target_mean();
        let test_batches = cts_data::batches_from_windows(&windows.test, 4);
        let mut naive_err = 0.0f64;
        let mut count = 0.0f64;
        for (_, y) in &test_batches {
            for &t in y.data() {
                if t != 0.0 {
                    naive_err += (t - train_mean).abs() as f64;
                    count += 1.0;
                }
            }
        }
        let naive_mae = (naive_err / count) as f32;
        assert!(
            report.overall.mae < naive_mae,
            "AutoCTS MAE {} not better than predict-the-mean {}",
            report.overall.mae,
            naive_mae
        );
        assert!(report.parameters > 0);
        assert_eq!(report.horizons.len(), spec.output_len);
    }

    /// An operator set of zero operators alone leaves every edge nothing
    /// to mix: `try_new` refuses it as a typed error instead of letting
    /// the search panic on its first edge.
    #[test]
    fn zero_only_op_set_is_refused() {
        let cfg = SearchConfig {
            m: 3,
            b: 1,
            d_model: 4,
            op_set: vec![cts_ops::OpKind::Zero],
            ..Default::default()
        };
        match AutoCts::try_new(cfg) {
            Err(SearchError::InvalidConfig(msg)) => assert!(msg.contains("zero"), "{msg}"),
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("a zero-only operator set was accepted"),
        }
    }
}

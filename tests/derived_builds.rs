//! Every genotype that passes `Genotype::validate` builds a derived model,
//! and its tape forward and its compiled plan agree bit for bit.
//!
//! Random genotypes over the full operator set: one to three blocks of
//! `m ∈ 2..=4` nodes, forward edges listed in a rotated order (so the
//! genotype edge order differs from the order the walk runs them) with
//! at least one incoming edge per node, and `backbone[j] ≤ j`. They run
//! on a graph with spatial signal and on a disconnected graph, whose
//! context learns an adaptive adjacency.

use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_graph::SensorGraph;
use cts_nn::Forecaster;
use cts_ops::full_set;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::error::Error;

fn random_block(rng: &mut SmallRng) -> BlockGenotype {
    let ops = full_set();
    let m = rng.gen_range(2..5usize);
    let mut edges = Vec::new();
    for to in 1..m {
        let required = rng.gen_range(0..to);
        for from in 0..to {
            if from == required || rng.gen_range(0..3) == 0 {
                edges.push((from, to, ops[rng.gen_range(0..ops.len())]));
            }
        }
    }
    let turn = rng.gen_range(0..edges.len());
    edges.rotate_left(turn);
    BlockGenotype { m, edges }
}

fn random_genotype(rng: &mut SmallRng) -> Genotype {
    let b = rng.gen_range(1..4usize);
    Genotype {
        blocks: (0..b).map(|_| random_block(rng)).collect(),
        backbone: (0..b).map(|j| rng.gen_range(0..j + 1)).collect(),
    }
}

#[test]
fn every_validated_genotype_builds_and_walks_one_program() -> Result<(), Box<dyn Error>> {
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let cfg = SearchConfig {
        d_model: 8,
        ..Default::default()
    };
    let batches = batches_from_windows(&windows.train, 2);
    let disconnected = SensorGraph::disconnected(spec.n);
    let mut rng = SmallRng::seed_from_u64(19);
    for (label, graph) in [("spatial", &data.graph), ("disconnected", &disconnected)] {
        for trial in 0..24usize {
            let genotype = random_genotype(&mut rng);
            genotype.validate()?;
            let model = DerivedModel::new(&mut rng, &cfg, &genotype, &spec, graph, &windows.scaler);
            let (x, _) = &batches[trial % batches.len()];
            let tape = Tape::new();
            let taped = model.forward(&tape, &tape.constant(x.clone())).value();
            let compiled = model.compiled_plan()?.try_run(x)?;
            let at = format!("{label} trial {trial} ({})", genotype.to_text());
            assert_eq!(taped.shape(), compiled.shape(), "{at}: shape");
            let bits =
                |t: &cts_tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&taped), bits(&compiled), "{at}: tape and plan diverge");
        }
    }
    Ok(())
}

//! Property tests tying the static analyzer to the runtime: for random
//! search-space sizes, window lengths, and seeds, (1) every derived
//! genotype passes pre-flight, and (2) the real model built from it
//! produces the forecast shape.

use autocts::preflight::{arch_spec, preflight};
use autocts::{derive_genotype, DerivedModel, SearchConfig, SupernetModel};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::Forecaster;
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Derivation never produces a genotype the analyzer rejects, and the
    /// model built from it forecasts `[B, N, Q]` for randomized genotypes
    /// and input lengths.
    #[test]
    fn static_shapes_agree_with_runtime(
        m in 2usize..5,
        b in 1usize..3,
        input_len in 6usize..16,
        seed in 0u64..200,
    ) {
        let cfg = SearchConfig { m, b, d_model: 4, batch_size: 2, seed, ..Default::default() };
        let mut spec = DatasetSpec::metr_la().scaled(0.04, 0.012);
        spec.input_len = input_len;
        let data = generate(&spec, seed);
        let windows = build_windows(&data, 8, 8);
        let mut rng = SmallRng::seed_from_u64(seed);
        let supernet = SupernetModel::new(&mut rng, &cfg, &spec, &data.graph, &windows.scaler);
        let genotype = derive_genotype(&supernet).expect("finite snapshot derives");

        // 1. pre-flight accepts every derived genotype…
        preflight(&cfg, &genotype, &spec, &data.graph)
            .expect("derived genotype rejected by static verification");

        // 2. …and the real model produces the forecast shape.
        let batches = batches_from_windows(&windows.train, cfg.batch_size);
        let (x, _) = &batches[0];
        let bsz = x.shape()[0];
        let model = DerivedModel::new(&mut rng, &cfg, &genotype, &spec, &data.graph, &windows.scaler);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let pred = model.forward(&tape, &xv);
        prop_assert_eq!(pred.value().shape(), &[bsz, data.graph.n(), spec.output_len]);

        // The spec the analyzer saw matches the genotype it verified.
        let spec_desc = arch_spec(&cfg, &genotype, &spec, &data.graph);
        prop_assert_eq!(spec_desc.blocks.len(), genotype.blocks.len());
        prop_assert_eq!(spec_desc.backbone, genotype.backbone);
    }
}
